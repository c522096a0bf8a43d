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
//! entry, their channels ([`subnet_sort_keys`]) — and the flat system is
//! one subnet. A composed stack (`crate::hier`) has one per parent, builds
//! its subtree keys on the same function, and runs the same [`Sweep`]
//! under every parent, so a one-level stack selects this module's bytes.

use crate::store::{absorb, fingerprint_bytes, GOLDEN};
use crate::subnet::{Subnet, Subnets, ONLY};
use crate::system::{put_subnet, SysState};
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

/// [`queue_hash`] of an empty queue, whoever views it: most queues are.
const EMPTY_QUEUE: u64 = absorb(GOLDEN, 0);

/// Order-preserving hash of one channel queue from cache `this`'s view.
#[inline]
pub(crate) fn queue_hash(q: &[Msg], this: usize, n: usize) -> u64 {
    if q.is_empty() {
        return EMPTY_QUEUE;
    }
    let mut h = absorb(GOLDEN, q.len() as u64);
    for m in q {
        h = absorb(h, msg_word(m, this, n));
    }
    h
}

/// Every scalar block field of cache `i` plus the directory-facing bits
/// that name it, packed into one word (fields are tiny by the bounding
/// discipline; 0x1ff/0x3 are the `None` sentinels).
#[inline]
fn block_word(c: &CacheBlock, dir: &DirEntry, i: usize) -> u64 {
    (c.state.0 as u64)
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
        | (c.chain_slots.len() as u64) << 50
}

/// The permutation-invariant symmetry sort keys of one subnet's caches,
/// `keys[i]` for cache `i` (id `net.caches.len()` is its directory): a
/// 64-bit hash of the cache's FSM state, its scalar block fields, the
/// directory-facing bits that name it, its chain slots (endpoint roles
/// only), and the multiset of in-flight messages on every channel touching
/// it. Queue order *within* a channel is preserved (channels move
/// wholesale under a permutation); the combination *across* same-role
/// partners is a commutative sum, because a permutation may reorder which
/// other sibling is "first".
///
/// Each key is a chain of absorptions; the chains run stage by stage over
/// all the subnet's caches, so the processor overlaps the caches' chains
/// instead of waiting out one cache's before starting the next.
///
/// This is the one key function of both systems: the flat checker's whole
/// state is one subnet ([`cache_sort_key`]), and a composed stack has one
/// per parent (`crate::hier` absorbs what hangs below a node on top of it).
#[inline]
pub(crate) fn subnet_sort_keys(net: &Subnet<'_>, keys: &mut [u64]) {
    let (n, dir, chans) = (net.caches.len(), net.dir, net.chans);
    let (caches, keys) = (net.caches, &mut keys[..n]);
    for (i, (c, key)) in caches.iter().zip(keys.iter_mut()).enumerate() {
        *key = absorb(GOLDEN, block_word(c, dir, i));
    }
    for (i, (c, key)) in caches.iter().zip(keys.iter_mut()).enumerate() {
        for (node, a) in &c.chain_slots {
            *key = absorb(*key, role(*node, i, n) | (*a as u64) << 2);
        }
    }
    // Channels to/from the directory keep their (fixed) direction.
    for (i, key) in keys.iter_mut().enumerate() {
        *key = absorb(*key, queue_hash(&chans[i][n], i, n));
    }
    for (i, key) in keys.iter_mut().enumerate() {
        *key = absorb(*key, queue_hash(&chans[n][i], i, n));
    }
    // Channels to/from other caches: combine per-partner pair hashes
    // commutatively, since a permutation may reorder the partners.
    for (i, key) in keys.iter_mut().enumerate() {
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
        *key = absorb(*key, peers);
    }
}

/// The symmetry sort key of cache `i` in the flat system `s`: the subnet
/// key function over the system's one subnet.
///
/// Invariance contract: `cache_sort_key(s, i) ==
/// cache_sort_key(&s.permuted(p), p[i])` for every permutation `p` — the
/// property that makes orbit pruning sound (DESIGN.md §8).
pub fn cache_sort_key(s: &SysState, i: usize) -> u64 {
    let mut keys = vec![0; s.n_caches()];
    subnet_sort_keys(&s.subnet(ONLY), &mut keys);
    keys[i]
}

/// The orbit-pruned sweep both canonicalizers run: over nodes on one or
/// more levels, every `fanout` consecutive nodes of a level sharing a
/// parent, it lists each parent's children in ascending `(key, index)`
/// order — the *base arrangement* — and enumerates only the permutations
/// within equal-key sibling runs. Each candidate arrangement is encoded
/// once into a reusable buffer; the representative is the one with the
/// minimum fingerprint, ties by enumeration order: runs top level first,
/// then in ascending slot order, the last run varying fastest, each run's
/// permutations in [`crate::permutations`]' order. The flat system is one
/// level of `n` caches under one parent; a composed stack has one level
/// per machine level below the root.
#[derive(Debug)]
pub(crate) struct Sweep {
    /// Children per parent, per level.
    fanouts: Vec<usize>,
    /// `keys[level][node]`: every node's permutation-invariant sort key,
    /// filled in by the caller before [`Sweep::sort`].
    pub(crate) keys: Vec<Vec<u64>>,
    /// `base[level][p·f..(p+1)·f]`: parent `p`'s children sorted by `(key,
    /// index)`.
    pub(crate) base: Vec<Vec<u8>>,
    /// `base` with the current candidate's within-run permutations
    /// applied: `order[level][p·f + off]` is the child of parent `p` placed
    /// at sibling offset `off` (written only when there are ties).
    pub(crate) order: Vec<Vec<u8>>,
    /// Equal-key sibling runs of two or more, as `(level, start, len)`, in
    /// enumeration order.
    runs: Vec<(usize, usize, usize)>,
    /// Mixed-radix counter over within-run permutations.
    counters: Vec<u32>,
    /// `perm_tables[k]`: every permutation of `0..k`, `k` bytes each, back
    /// to back; built on first use (empty = not built yet).
    perm_tables: Vec<Vec<u8>>,
    /// The candidate being encoded, and the encoding the last sweep
    /// selected.
    cur: Vec<u8>,
    best: Vec<u8>,
}

impl Sweep {
    /// A sweep over levels of `(nodes, fanout)`, leaves first. Every
    /// arrangement starts as the identity.
    pub(crate) fn new(shape: &[(usize, usize)]) -> Self {
        let ident: Vec<Vec<u8>> =
            shape.iter().map(|&(n, _)| (0..n).map(|i| i as u8).collect()).collect();
        let fanouts: Vec<usize> = shape.iter().map(|&(_, f)| f).collect();
        Sweep {
            perm_tables: vec![Vec::new(); fanouts.iter().max().map_or(1, |f| f + 1)],
            fanouts,
            keys: shape.iter().map(|&(n, _)| vec![0; n]).collect(),
            base: ident.clone(),
            order: ident,
            runs: Vec::new(),
            counters: Vec::new(),
            cur: Vec::new(),
            best: Vec::new(),
        }
    }

    /// Lists every parent's children on `level` in ascending `(key,
    /// index)` order: each child goes to its rank, the number of siblings
    /// whose pair is smaller — no two pairs are equal, and counting beats
    /// a sort's data-dependent branches at these widths.
    pub(crate) fn sort(&mut self, level: usize) {
        let (keys, f) = (&self.keys[level], self.fanouts[level]);
        if f == 1 {
            return; // an only child stays where it is
        }
        let parents = self.base[level].chunks_exact_mut(f).zip(keys.chunks_exact(f));
        for (p, (sibs, keys)) in parents.enumerate() {
            for (i, &key) in keys.iter().enumerate() {
                let before = keys[..i].iter().filter(|&&k| k <= key).count();
                let after = keys[i + 1..].iter().filter(|&&k| k < key).count();
                sibs[before + after] = (p * f + i) as u8;
            }
        }
    }

    /// Selects the representative among the arrangements of the sorted
    /// levels; `encode(order, out)` appends the encoding of arrangement
    /// `order`. Returns its fingerprint and keeps its bytes for
    /// [`Sweep::best`]. The key sequence is constant across candidates by
    /// construction, so it never needs comparing here. With no tie the
    /// one candidate is the base arrangement itself, and `order` is not
    /// written.
    pub(crate) fn minimize(&mut self, mut encode: impl FnMut(&[Vec<u8>], &mut Vec<u8>)) -> u64 {
        self.runs.clear();
        for (level, &f) in self.fanouts.iter().enumerate().rev().filter(|&(_, &f)| f > 1) {
            let keys = &self.keys[level];
            for (p, sibs) in self.base[level].chunks(f).enumerate() {
                let mut start = 0;
                for end in 1..=f {
                    if end == f || keys[sibs[end] as usize] != keys[sibs[start] as usize] {
                        let len = end - start;
                        if len > 1 {
                            self.runs.push((level, p * f + start, len));
                            if self.perm_tables[len].is_empty() {
                                self.perm_tables[len] = crate::system::permutations(len).concat();
                            }
                        }
                        start = end;
                    }
                }
            }
        }
        if self.runs.is_empty() {
            self.best.clear();
            encode(&self.base, &mut self.best);
            return fingerprint_bytes(&self.best);
        }
        self.order.clone_from(&self.base);
        self.counters.clear();
        self.counters.resize(self.runs.len(), 0);
        let mut best_fp = u64::MAX;
        self.best.clear();
        loop {
            for (&(level, start, len), &at) in self.runs.iter().zip(&self.counters) {
                let sigma = &self.perm_tables[len][at as usize * len..][..len];
                for (off, &k) in sigma.iter().enumerate() {
                    self.order[level][start + off] = self.base[level][start + k as usize];
                }
            }
            self.cur.clear();
            encode(&self.order, &mut self.cur);
            let fp = fingerprint_bytes(&self.cur);
            // `best` is empty only before the first candidate, which must
            // win even at `fp == u64::MAX`.
            if fp < best_fp || self.best.is_empty() {
                best_fp = fp;
                std::mem::swap(&mut self.best, &mut self.cur);
            }
            // Advance the counter; done when it wraps.
            let mut i = self.runs.len();
            loop {
                if i == 0 {
                    return best_fp;
                }
                i -= 1;
                let len = self.runs[i].2;
                self.counters[i] += 1;
                if (self.counters[i] as usize) < self.perm_tables[len].len() / len {
                    break;
                }
                self.counters[i] = 0;
            }
        }
    }

    /// The unreduced case: the one candidate `encode` appends is the
    /// representative.
    pub(crate) fn keep(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        self.runs.clear();
        self.best.clear();
        encode(&mut self.best);
        fingerprint_bytes(&self.best)
    }

    /// The encoding the last [`Sweep::minimize`] or [`Sweep::keep`] chose.
    pub(crate) fn best(&self) -> &[u8] {
        &self.best
    }

    /// The number of candidates the last sweep enumerated: the product of
    /// the factorials of its runs' lengths.
    pub(crate) fn candidates(&self) -> usize {
        self.runs.iter().map(|&(_, _, len)| (1..=len).product::<usize>()).product()
    }
}

/// The pruned symmetry canonicalizer of the flat system: one per worker
/// thread, owning the `Sweep` it reuses across millions of states.
///
/// [`Canonicalizer::canonical_fp`] selects the same representative as the
/// full-sweep [`SysState::canonical_encoding`] over all n! permutations —
/// minimum `(key sequence, fingerprint)`, ties broken by enumeration
/// order — while enumerating only the arrangements that sort caches by
/// [`cache_sort_key`]. The winning encoding is kept, so reading it
/// afterwards is a borrow, not a second walk of the state.
#[derive(Debug)]
pub struct Canonicalizer {
    symmetry: bool,
    sweep: Sweep,
    /// The candidate's cache → slot map, the inverse of the sweep's
    /// slot → cache `order[0]`. The identity until the first sweep, and
    /// for good with symmetry off.
    perm: Vec<u8>,
}

impl Canonicalizer {
    /// A canonicalizer for `n_caches` caches. With `symmetry` off it
    /// degenerates to the identity map (fingerprint of the raw encoding).
    pub fn new(n_caches: usize, symmetry: bool) -> Self {
        Canonicalizer {
            symmetry,
            sweep: Sweep::new(&[(n_caches, n_caches)]),
            perm: (0..n_caches as u8).collect(),
        }
    }

    /// The canonical fingerprint of `s` — identical for every member of
    /// its symmetry orbit. Also keeps the canonical encoding, which
    /// [`Canonicalizer::encode_canonical_into`] and
    /// [`Canonicalizer::canonical_rep`] reuse.
    pub fn canonical_fp(&mut self, s: &SysState) -> u64 {
        self.canonical_fp_of(&s.subnet(ONLY))
    }

    /// [`Canonicalizer::canonical_fp`] of a state that is one subnet —
    /// the flat system's, or a one-level stack's.
    pub(crate) fn canonical_fp_of(&mut self, net: &Subnet<'_>) -> u64 {
        let Canonicalizer { symmetry, sweep, perm } = self;
        if !*symmetry {
            let ident = &*perm;
            return sweep.keep(|out| put_subnet(out, net, ident, ident));
        }
        subnet_sort_keys(net, &mut sweep.keys[0]);
        sweep.sort(0);
        sweep.minimize(|order, out| {
            let inv = &order[0];
            for (slot, &cache) in inv.iter().enumerate() {
                perm[cache as usize] = slot as u8;
            }
            put_subnet(out, net, perm, inv);
        })
    }

    /// The number of candidates the last canonicalization enumerated.
    pub(crate) fn candidates(&self) -> usize {
        self.sweep.candidates()
    }

    /// [`Canonicalizer::canonical_fp`] plus the canonical encoding bytes,
    /// appended to `out` — the one-stop call.
    pub fn encode_canonical_into(&mut self, s: &SysState, out: &mut Vec<u8>) -> u64 {
        let fp = self.canonical_fp(s);
        out.extend_from_slice(self.best());
        fp
    }

    /// The canonical encoding selected by the most recent
    /// [`Canonicalizer::canonical_fp`] call, lent to the explorer (which
    /// needs the fingerprint first to pick the owning shard).
    pub(crate) fn best(&self) -> &[u8] {
        self.sweep.best()
    }

    /// Materializes the canonical orbit representative (cold paths:
    /// initial state, counterexample replay).
    pub fn canonical_rep(&mut self, s: &SysState) -> SysState {
        self.canonical_fp(s);
        SysState::decode(self.sweep.best(), self.perm.len())
    }

    /// The number of permutations the pruned sweep would enumerate for
    /// `s` (the full sweep always enumerates n!): the product of the
    /// factorials of the equal-key group sizes. Exposed for the
    /// canonicalization microbenchmark and tests.
    pub fn pruned_candidates(&mut self, s: &SysState) -> usize {
        self.canonical_fp(s);
        self.sweep.candidates()
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
        // Distinct keys: the one candidate is the base arrangement.
        assert_eq!(invert(&canon.perm), canon.sweep.base[0]);
        let tied = SysState::initial(3);
        canon.canonical_fp(&tied);
        assert_eq!(invert(&canon.perm), canon.sweep.order[0]);
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
