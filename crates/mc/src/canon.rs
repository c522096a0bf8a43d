//! Pruned symmetry canonicalization.
//!
//! The seed canonicalizer swept all n! cache-id permutations per
//! successor state (24 streamed encodings at 4 caches, 120 at 5). This
//! module collapses that sweep with *orbit pruning*: every cache gets a
//! permutation-invariant local sort key ([`cache_sort_key`] — its FSM
//! state, its scalar block fields, and a commutative fingerprint of the
//! messages and chain slots that touch it), the canonical representative
//! is required to list caches in ascending key order, and only the
//! permutations *within* equal-key groups are enumerated. For typical
//! states every cache key is distinct and exactly one permutation
//! remains; fully symmetric states (all caches idle in the same state)
//! degenerate to the full sweep, which is then cheap because such states
//! are rare and maximally shrunk by the reduction anyway.
//!
//! **Correctness argument (DESIGN.md §8).** Define the selection key of a
//! permutation `p` as the pair `(K(p), fp(p))` where `K(p)` is the
//! sequence of cache sort keys in slot order under `p` and `fp(p)` the
//! fingerprint of the permuted encoding. The canonical representative is
//! the minimum over all n! permutations. (1) The permutations minimizing
//! `K(p)` lexicographically are *exactly* those that sort caches by key —
//! pure combinatorics, so restricting the `fp` search to the sorted
//! arrangements loses nothing. (2) For the representative to be constant
//! across a symmetry orbit, the key must be permutation-invariant:
//! `key(i, s) == key(p[i], s.permuted(p))`. [`cache_sort_key`] guarantees
//! this by never hashing a concrete cache id — other endpoints are
//! classified as *self*/*directory*/*other cache*, and per-partner
//! message-queue hashes are combined with a commutative sum so the
//! partner order cannot leak in. Both properties are pinned by the
//! `canon_prop` proptests (pruned ≡ full sweep byte-for-byte, and orbit
//! stability under random permutations).
//!
//! The key is a function of one *subnet* — sibling blocks, their directory
//! entry, their channels ([`subnet_sort_key`]) — and the flat system is
//! one subnet. A composed stack (`crate::hier`) has one per parent, builds
//! its subtree keys on the same function, and applies the same rule under
//! every parent, so a one-level stack selects this module's bytes.

use crate::store::{absorb, fingerprint_bytes, GOLDEN};
use crate::system::SysState;
use protogen_runtime::{CacheBlock, DirEntry, Msg, NodeId};
use protogen_spec::Access;

/// How an encoded node id relates to the cache whose key is being built.
fn role(node: NodeId, this: usize, n: usize) -> u64 {
    if node.as_usize() == this {
        0
    } else if node.as_usize() >= n {
        1 // the directory — a fixed point of every permutation
    } else {
        2 // some other cache; *which* one must not enter the key
    }
}

/// One message as seen from cache `this`, packed into a single word —
/// type, payload, and the *roles* of its endpoints, never their concrete
/// ids — so a message costs the key one absorption, not six.
fn msg_word(m: &Msg, this: usize, n: usize) -> u64 {
    (m.mtype.0 as u64)
        | role(m.src, this, n) << 16
        | role(m.dst, this, n) << 18
        | role(m.req, this, n) << 20
        | m.ack_count.map_or(0x1ff, |v| v as u64) << 22
        | m.data.map_or(0x1ff, |v| v as u64) << 31
}

/// Order-preserving hash of one channel queue from cache `this`'s view.
pub(crate) fn queue_hash(q: &[Msg], this: usize, n: usize) -> u64 {
    let mut h = absorb(GOLDEN, q.len() as u64);
    for m in q {
        h = absorb(h, msg_word(m, this, n));
    }
    h
}

/// The permutation-invariant symmetry sort key of node `i` of one subnet —
/// `caches.len()` sibling blocks under the directory entry `dir`, with
/// `chans[src][dst]` the subnet-local FIFOs (id `caches.len()` is the
/// directory): a 64-bit hash of the node's FSM state, its scalar block
/// fields, the directory-facing bits that name it, its chain slots
/// (endpoint roles only), and the multiset of in-flight messages on every
/// channel touching it. Queue order *within* a channel is preserved
/// (channels move wholesale under a permutation); the combination *across*
/// same-role partners is a commutative sum, because a permutation may
/// reorder which other sibling is "first".
///
/// This is the one key function of both systems: the flat checker's whole
/// state is one such subnet ([`cache_sort_key`]), and a composed stack's
/// `caches[j][p·f..]` / `dirs[j][p]` / `chans[j][p]` is one per parent
/// (`crate::hier` absorbs what hangs below a node on top of it).
#[inline]
pub(crate) fn subnet_sort_key(
    caches: &[CacheBlock],
    dir: &DirEntry,
    chans: &[Vec<Vec<Msg>>],
    i: usize,
) -> u64 {
    let n = caches.len();
    let c = &caches[i];
    // Every scalar block field plus the directory-facing bits that name
    // this cache, packed into one word (fields are tiny by the bounding
    // discipline; 0x1ff/0x3 are the `None` sentinels).
    let block = (c.state.0 as u64)
        | c.data.map_or(0x1ff, |v| v as u64) << 16
        | (c.acks_received as u64) << 25
        | c.acks_expected.map_or(0x1ff, |v| v as u64) << 33
        | match c.pending {
            None => 0x3u64,
            Some(Access::Load) => 0,
            Some(Access::Store) => 1,
            Some(Access::Replacement) => 2,
        } << 42
        | ((dir.owner == Some(NodeId(i as u8))) as u64) << 44
        | ((dir.sharers >> i & 1) as u64) << 45
        | (dir.chain_slots.iter().filter(|(nd, _)| nd.as_usize() == i).count() as u64) << 46
        | (c.chain_slots.len() as u64) << 50;
    let mut h = absorb(GOLDEN, block);
    for (node, a) in &c.chain_slots {
        h = absorb(h, role(*node, i, n) | (*a as u64) << 2);
    }
    // Channels to/from the directory keep their (fixed) direction.
    h = absorb(h, queue_hash(&chans[i][n], i, n));
    h = absorb(h, queue_hash(&chans[n][i], i, n));
    // Channels to/from other caches: combine per-partner pair hashes
    // commutatively, since a permutation may reorder the partners.
    let mut peers: u64 = 0;
    for (j, from_j) in chans[..n].iter().enumerate() {
        if j == i {
            continue;
        }
        let out_q = &chans[i][j];
        let in_q = &from_j[i];
        if out_q.is_empty() && in_q.is_empty() {
            continue; // idle peers contribute one shared constant
        }
        let pair = absorb(queue_hash(out_q, i, n), queue_hash(in_q, i, n));
        peers = peers.wrapping_add(pair);
    }
    absorb(h, peers)
}

/// The symmetry sort key of cache `i` in the flat system `s`: the subnet
/// key function over the system's one subnet.
///
/// Invariance contract: `cache_sort_key(s, i) ==
/// cache_sort_key(&s.permuted(p), p[i])` for every permutation `p` — the
/// property that makes orbit pruning sound (DESIGN.md §8).
pub fn cache_sort_key(s: &SysState, i: usize) -> u64 {
    subnet_sort_key(&s.caches, &s.dir, &s.channels, i)
}

/// The pruned symmetry canonicalizer: one per worker thread, owning the
/// scratch buffers the sweep reuses across millions of states.
///
/// [`Canonicalizer::canonical_fp`] selects the same representative as the
/// full-sweep [`SysState::canonical_encoding`] over all n! permutations —
/// minimum `(key sequence, fingerprint)`, ties broken by enumeration
/// order — while enumerating only the arrangements that sort caches by
/// [`cache_sort_key`]. Each candidate is encoded once into a reusable
/// buffer and the winning buffer is kept, so emitting the canonical
/// encoding afterwards is a copy, not a second walk of the state.
#[derive(Debug)]
pub struct Canonicalizer {
    n: usize,
    symmetry: bool,
    /// Per-group-size permutation tables, built on first use:
    /// `perm_tables[k]` holds every permutation of `0..k` in
    /// [`crate::permutations`]' order, `k` bytes each, back to back
    /// (empty = not built yet; a group has at least one member).
    perm_tables: Vec<Vec<u8>>,
    keys: Vec<u64>,
    /// Cache indices sorted by `(key, index)` — the base arrangement.
    base: Vec<u8>,
    /// Equal-key runs in `base`, as `(start, len)`.
    groups: Vec<(u8, u8)>,
    /// Scratch: candidate slot→cache assignment and its inverse.
    inv: Vec<u8>,
    perm: Vec<u8>,
    /// Mixed-radix counter over within-group permutations.
    counters: Vec<u32>,
    /// The candidate being encoded, and the encoding the most recent
    /// [`Canonicalizer::canonical_fp`] selected.
    cur: Vec<u8>,
    best: Vec<u8>,
}

impl Canonicalizer {
    /// A canonicalizer for `n_caches` caches. With `symmetry` off it
    /// degenerates to the identity map (fingerprint of the raw encoding).
    pub fn new(n_caches: usize, symmetry: bool) -> Self {
        Canonicalizer {
            n: n_caches,
            symmetry,
            perm_tables: vec![Vec::new(); n_caches + 1],
            keys: vec![0; n_caches],
            base: (0..n_caches as u8).collect(),
            groups: Vec::with_capacity(n_caches),
            inv: (0..n_caches as u8).collect(),
            perm: (0..n_caches as u8).collect(),
            counters: vec![0; n_caches],
            cur: Vec::new(),
            best: Vec::new(),
        }
    }

    /// The canonical fingerprint of `s` — identical for every member of
    /// its symmetry orbit. Also keeps the canonical encoding, which
    /// [`Canonicalizer::encode_best_into`] and
    /// [`Canonicalizer::canonical_rep`] reuse.
    pub fn canonical_fp(&mut self, s: &SysState) -> u64 {
        if !self.symmetry {
            // `perm`/`inv` are still the identity `new` set: only the
            // sweep below writes them.
            self.best.clear();
            s.encode_permuted_to(&self.perm, &self.inv, &mut self.best);
            return fingerprint_bytes(&self.best);
        }
        // Sort caches by (key, index): the base arrangement.
        for i in 0..self.n {
            self.keys[i] = cache_sort_key(s, i);
            self.base[i] = i as u8;
        }
        let keys = &self.keys;
        self.base.sort_by_key(|&c| (keys[c as usize], c));
        // Equal-key runs.
        self.groups.clear();
        let mut start = 0usize;
        for i in 1..=self.n {
            if i == self.n || keys[self.base[i] as usize] != keys[self.base[start] as usize] {
                self.groups.push((start as u8, (i - start) as u8));
                start = i;
            }
        }
        for &(_, glen) in &self.groups {
            let table = &mut self.perm_tables[glen as usize];
            if table.is_empty() {
                *table = crate::system::permutations(glen as usize).concat();
            }
        }
        // Enumerate the product of within-group permutations with a
        // mixed-radix counter; minimize (fp, enumeration index). The key
        // sequence is constant across candidates by construction, so it
        // never needs comparing here.
        let mut best_fp = u64::MAX;
        self.best.clear();
        self.counters[..self.groups.len()].fill(0);
        loop {
            for (gi, &(gstart, glen)) in self.groups.iter().enumerate() {
                let (gstart, glen) = (gstart as usize, glen as usize);
                let at = self.counters[gi] as usize * glen;
                let sigma = &self.perm_tables[glen][at..at + glen];
                for (off, &k) in sigma.iter().enumerate() {
                    self.inv[gstart + off] = self.base[gstart + k as usize];
                }
            }
            for (slot, &src) in self.inv.iter().enumerate() {
                self.perm[src as usize] = slot as u8;
            }
            self.cur.clear();
            s.encode_permuted_to(&self.perm, &self.inv, &mut self.cur);
            let fp = fingerprint_bytes(&self.cur);
            // `best` is empty only before the first candidate, which must
            // win even at `fp == u64::MAX`.
            if fp < best_fp || self.best.is_empty() {
                best_fp = fp;
                std::mem::swap(&mut self.best, &mut self.cur);
            }
            // Advance the counter; done when it wraps.
            let mut gi = self.groups.len();
            loop {
                if gi == 0 {
                    return best_fp;
                }
                gi -= 1;
                let glen = self.groups[gi].1 as usize;
                let radix = (self.perm_tables[glen].len() / glen) as u32;
                self.counters[gi] += 1;
                if self.counters[gi] < radix {
                    break;
                }
                self.counters[gi] = 0;
            }
        }
    }

    /// [`Canonicalizer::canonical_fp`] plus the canonical encoding bytes,
    /// appended to `out` — the one-stop call.
    pub fn encode_canonical_into(&mut self, s: &SysState, out: &mut Vec<u8>) -> u64 {
        let fp = self.canonical_fp(s);
        self.encode_best_into(out);
        fp
    }

    /// Appends the canonical encoding selected by the most recent
    /// [`Canonicalizer::canonical_fp`] call to `out`. The expand path
    /// needs the fingerprint first (it decides the owning shard, and thus
    /// which batch arena to encode into), so the sweep and the byte
    /// emission are split.
    pub fn encode_best_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.best);
    }

    /// Materializes the canonical orbit representative (cold paths:
    /// initial state, counterexample replay).
    pub fn canonical_rep(&mut self, s: &SysState) -> SysState {
        self.canonical_fp(s);
        SysState::decode(&self.best, self.n)
    }

    /// The number of permutations the pruned sweep would enumerate for
    /// `s` (the full sweep always enumerates n!): the product of the
    /// factorials of the equal-key group sizes. Exposed for the
    /// canonicalization microbenchmark and tests.
    pub fn pruned_candidates(&mut self, s: &SysState) -> usize {
        if !self.symmetry {
            return 1;
        }
        self.canonical_fp(s);
        self.groups.iter().map(|&(_, len)| (1..=len as usize).product::<usize>()).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{invert, permutations};
    use protogen_spec::MsgId;

    fn msg(mtype: u16, src: u8, dst: u8, req: u8) -> Msg {
        Msg {
            mtype: MsgId(mtype),
            src: NodeId(src),
            dst: NodeId(dst),
            req: NodeId(req),
            ack_count: None,
            data: None,
        }
    }

    /// A state exercising keys: distinct cache states, messages, sharers.
    fn busy_state() -> SysState {
        let mut s = SysState::initial(3);
        s.caches[0].state = protogen_spec::FsmStateId(2);
        s.caches[0].data = Some(1);
        s.caches[1].pending = Some(Access::Store);
        s.dir.add_sharer(NodeId(0));
        s.dir.owner = Some(NodeId(2));
        s.send(msg(1, 0, 3, 0));
        s.send(msg(2, 3, 1, 1));
        s.send(msg(4, 2, 1, 2));
        s.ghost = 1;
        s
    }

    #[test]
    fn sort_key_is_permutation_invariant() {
        let s = busy_state();
        for p in permutations(3) {
            let sp = s.permuted(&p);
            for i in 0..3 {
                assert_eq!(
                    cache_sort_key(&s, i),
                    cache_sort_key(&sp, p[i] as usize),
                    "key of cache {i} not invariant under {p:?}"
                );
            }
        }
    }

    #[test]
    fn pruned_matches_full_sweep_on_busy_state() {
        let s = busy_state();
        let mut canon = Canonicalizer::new(3, true);
        let mut pruned = Vec::new();
        let fp = canon.encode_canonical_into(&s, &mut pruned);
        let full = s.canonical_encoding(&permutations(3));
        assert_eq!(pruned, full, "pruned representative differs from the full sweep");
        assert_eq!(fp, crate::store::fingerprint_bytes(&full));
        // Distinct keys: the sweep collapses to a single candidate.
        assert_eq!(canon.pruned_candidates(&s), 1);
    }

    #[test]
    fn pruned_fp_is_orbit_invariant() {
        let s = busy_state();
        let mut canon = Canonicalizer::new(3, true);
        let fp = canon.canonical_fp(&s);
        for p in permutations(3) {
            assert_eq!(canon.canonical_fp(&s.permuted(&p)), fp, "fp drifts under {p:?}");
        }
    }

    #[test]
    fn symmetric_state_degenerates_to_full_group() {
        // All caches identical: one group of 3, 3! candidates.
        let s = SysState::initial(3);
        let mut canon = Canonicalizer::new(3, true);
        assert_eq!(canon.pruned_candidates(&s), 6);
        assert_eq!(
            {
                let mut out = Vec::new();
                canon.encode_canonical_into(&s, &mut out);
                out
            },
            s.canonical_encoding(&permutations(3))
        );
    }

    #[test]
    fn symmetry_off_is_identity() {
        let s = busy_state();
        let mut canon = Canonicalizer::new(3, false);
        let mut out = Vec::new();
        let fp = canon.encode_canonical_into(&s, &mut out);
        assert_eq!(out, s.encode());
        assert_eq!(fp, crate::store::fingerprint_bytes(&s.encode()));
    }

    #[test]
    fn canonical_rep_encodes_to_canonical_encoding() {
        let s = busy_state();
        let mut canon = Canonicalizer::new(3, true);
        let rep = canon.canonical_rep(&s);
        assert_eq!(rep.encode(), s.canonical_encoding(&permutations(3)));
        // Idempotent: the representative is its own representative.
        assert_eq!(canon.canonical_rep(&rep).encode(), rep.encode());
    }

    #[test]
    fn invert_consistency_of_candidate_perm() {
        let s = busy_state();
        let mut canon = Canonicalizer::new(3, true);
        canon.canonical_fp(&s);
        assert_eq!(invert(&canon.perm), canon.inv);
    }

    #[test]
    fn canonical_encodings_are_pinned() {
        // Recorded from the commit before the materialise-once sweep and
        // the section-wise codecs: the encoding layout, the sort key and
        // the selection rule are what a stored checkpoint depends on.
        let mut canon = Canonicalizer::new(3, true);
        let mut enc = Vec::new();
        assert_eq!(
            canon.encode_canonical_into(&SysState::initial(3), &mut enc),
            0x25471b4475af56a1
        );
        let mut initial = [0u8; 44];
        for block in 0..3 {
            initial[block * 7..block * 7 + 7].copy_from_slice(&[0, 0, 255, 0, 255, 255, 0]);
        }
        initial[23] = 255; // no owner
        assert_eq!(enc, initial);
        enc.clear();
        assert_eq!(canon.encode_canonical_into(&busy_state(), &mut enc), 0x6fae41b59c9912f7);
        assert_eq!(
            enc,
            [
                2, 0, 1, 0, 255, 255, 0, 0, 0, 255, 0, 255, 1, 0, 0, 0, 255, 0, 255, 255, 0, 0, 0,
                2, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 3, 0, 255, 255, 0, 0, 0, 0, 0, 1, 4, 0, 2, 1, 2,
                255, 255, 0, 0, 0, 1, 2, 0, 3, 1, 1, 255, 255, 0, 0, 1,
            ]
        );
    }
}
