//! The model-checked system: N caches + directory + channels.

use protogen_runtime::{CacheBlock, DirEntry, Msg, NodeId, Val};
use protogen_spec::{Access, FsmStateId, MsgId};

/// The most caches one directory can serve: [`DirEntry::sharers`] is a
/// `u8` bitmask over cache ids (`1 << id` would alias id 8 onto id 0), and
/// the symmetry sweep's worst case is `MAX_CACHES!` permutations.
pub const MAX_CACHES: usize = 8;

/// The inverse of a permutation over `0..n`: `invert(p)[p[i]] == i`.
pub fn invert(perm: &[u8]) -> Vec<u8> {
    let mut inv = vec![0u8; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p as usize] = i as u8;
    }
    inv
}

// ---------------------------------------------------------------------
// Per-section codecs, shared by the flat encoding below and the leveled
// one (`crate::hier`): both lay out cache blocks, directory entries,
// channel queues and a ghost byte with these exact byte formats — u16
// state ids, one byte per scalar with `0xff` as the `None` sentinel,
// explicit length prefixes — which is what lets one `SectionMap` walk
// either. Node ids are renamed on the way out, per subnet, through a
// table from old subnet-local id to new ([`rename`]).

#[inline(always)]
fn put_slots(out: &mut Vec<u8>, slots: &[(NodeId, u8)], map: impl Fn(NodeId) -> u8) {
    for (node, a) in slots {
        out.extend_from_slice(&[map(*node), *a]);
    }
}

/// One cache-block section: 7 fixed bytes + 2 per chain slot.
#[inline(always)]
pub(crate) fn put_block(out: &mut Vec<u8>, c: &CacheBlock, map: impl Fn(NodeId) -> u8) {
    let [s0, s1] = u16::try_from(c.state.0).expect("state id exceeds u16").to_le_bytes();
    out.extend_from_slice(&[
        s0,
        s1,
        c.data.unwrap_or(0xff),
        c.acks_received,
        c.acks_expected.unwrap_or(0xff),
        c.pending.map_or(0xff, |a| a.index() as u8),
        c.chain_slots.len() as u8,
    ]);
    put_slots(out, &c.chain_slots, map);
}

/// One directory section: 6 fixed bytes + 2 per chain slot. `sharers` is
/// the already-renamed sharer mask.
#[inline(always)]
fn put_dir(out: &mut Vec<u8>, dir: &DirEntry, sharers: u8, map: impl Fn(NodeId) -> u8) {
    let [s0, s1] = u16::try_from(dir.state.0).expect("state id exceeds u16").to_le_bytes();
    out.extend_from_slice(&[
        s0,
        s1,
        dir.owner.map_or(0xff, &map),
        sharers,
        dir.data,
        dir.chain_slots.len() as u8,
    ]);
    put_slots(out, &dir.chain_slots, map);
}

/// Renames subnet-local node ids through `perm` (old id → new id); ids
/// past its end — the subnet's directory — are fixed points.
#[inline(always)]
pub(crate) fn rename(perm: &[u8]) -> impl Fn(NodeId) -> u8 + Copy + '_ {
    move |id| perm.get(id.as_usize()).copied().unwrap_or(id.0)
}

/// One subnet's directory section, its cache ids renamed through `perm`.
#[inline(always)]
pub(crate) fn put_dir_renamed(out: &mut Vec<u8>, dir: &DirEntry, perm: &[u8]) {
    let mut sharers = 0u8;
    for (i, &p) in perm.iter().enumerate() {
        if dir.sharers & (1 << i) != 0 {
            sharers |= 1 << p;
        }
    }
    put_dir(out, dir, sharers, rename(perm));
}

/// One subnet's `(f+1)²` channel sections in renamed `(src, dst)` order,
/// ids renamed through `perm`; `inv` is its inverse (new id → old id).
#[inline(always)]
pub(crate) fn put_chans_renamed(
    out: &mut Vec<u8>,
    chans: &[Vec<Vec<Msg>>],
    perm: &[u8],
    inv: &[u8],
) {
    let old = |x: usize| inv.get(x).map_or(x, |&o| o as usize);
    for s2 in 0..chans.len() {
        let row = &chans[old(s2)];
        for d2 in 0..chans.len() {
            put_queue(out, &row[old(d2)], rename(perm));
        }
    }
}

/// One channel-queue section: a length byte + 7 per message.
#[inline(always)]
fn put_queue(out: &mut Vec<u8>, q: &[Msg], map: impl Fn(NodeId) -> u8) {
    out.push(q.len() as u8);
    for m in q {
        let [t0, t1] = m.mtype.0.to_le_bytes();
        out.extend_from_slice(&[
            t0,
            t1,
            map(m.src),
            map(m.dst),
            map(m.req),
            m.ack_count.unwrap_or(0xff),
            m.data.unwrap_or(0xff),
        ]);
    }
}

/// Sequential reader over one encoding — the inverse of the `put_*`
/// codecs, decoding in place so the expand path reuses every allocation.
///
/// Panics on a malformed encoding: every byte string reaching it was
/// produced in-process by the `put_*` codecs, and checkpoint-fed bytes
/// pass the manifest + shard checksum gate (`crate::checkpoint`) before
/// any decode, so a bad byte is a checker bug and must abort loudly
/// rather than decode a wrong-but-plausible state.
pub(crate) struct Decoder<'a>(&'a [u8]);

impl<'a> Decoder<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Decoder(bytes)
    }

    #[inline(always)]
    fn u8(&mut self) -> u8 {
        let (&b, rest) = self.0.split_first().expect("truncated state encoding");
        self.0 = rest;
        b
    }

    #[inline(always)]
    fn opt(&mut self) -> Option<u8> {
        Some(self.u8()).filter(|&b| b != 0xff)
    }

    #[inline(always)]
    fn u16(&mut self) -> u16 {
        u16::from_le_bytes([self.u8(), self.u8()])
    }

    #[inline(always)]
    fn slots(&mut self, slots: &mut Vec<(NodeId, u8)>) {
        slots.clear();
        for _ in 0..self.u8() {
            slots.push((NodeId(self.u8()), self.u8()));
        }
    }

    #[inline(always)]
    pub(crate) fn block(&mut self, c: &mut CacheBlock) {
        c.state = FsmStateId(self.u16() as u32);
        c.data = self.opt();
        c.acks_received = self.u8();
        c.acks_expected = self.opt();
        c.pending = self.opt().map(|b| {
            *Access::ALL.get(b as usize).unwrap_or_else(|| panic!("bad pending-access byte {b}"))
        });
        self.slots(&mut c.chain_slots);
    }

    #[inline(always)]
    pub(crate) fn dir(&mut self, dir: &mut DirEntry) {
        dir.state = FsmStateId(self.u16() as u32);
        dir.owner = self.opt().map(NodeId);
        dir.sharers = self.u8();
        dir.data = self.u8();
        self.slots(&mut dir.chain_slots);
    }

    #[inline(always)]
    pub(crate) fn queue(&mut self, q: &mut Vec<Msg>) {
        q.clear();
        for _ in 0..self.u8() {
            q.push(Msg {
                mtype: MsgId(self.u16()),
                src: NodeId(self.u8()),
                dst: NodeId(self.u8()),
                req: NodeId(self.u8()),
                ack_count: self.opt(),
                data: self.opt(),
            });
        }
    }

    /// Reads the trailing ghost byte and checks nothing follows it.
    pub(crate) fn ghost(mut self) -> Val {
        let ghost = self.u8();
        assert!(self.0.is_empty(), "trailing bytes after a complete state decode");
        ghost
    }
}

/// A complete system configuration (one explored state).
///
/// Channels are one FIFO per ordered `(src, dst)` pair carrying every
/// message class: the protocols of §VI-A/B assume point-to-point ordering
/// between each pair of nodes *across* classes (a response from the
/// directory never overtakes an earlier forward to the same cache). The
/// generated controllers guarantee a stalled head is always serialized
/// after whatever the stalling machine is waiting for, so head-of-line
/// blocking cannot deadlock. In unordered mode (§VI-C) delivery may take
/// any queue position, which models arbitrary reordering.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct SysState {
    /// Per-cache block state; index = cache id.
    pub caches: Vec<CacheBlock>,
    /// The directory entry.
    pub dir: DirEntry,
    /// `channels[src][dst]` = in-flight messages, oldest first.
    pub channels: Vec<Vec<Vec<Msg>>>,
    /// Ghost memory: the value of the most recent store in serialization
    /// order. Loads performed with read permission must return it.
    pub ghost: Val,
}

impl Clone for SysState {
    fn clone(&self) -> Self {
        SysState {
            caches: self.caches.clone(),
            dir: self.dir.clone(),
            channels: self.channels.clone(),
            ghost: self.ghost,
        }
    }

    /// Field-wise, so the nested vectors keep their allocations (the
    /// derived `clone_from` would drop and reallocate all of them).
    fn clone_from(&mut self, src: &Self) {
        self.caches.clone_from(&src.caches);
        self.dir.clone_from(&src.dir);
        self.channels.clone_from(&src.channels);
        self.ghost = src.ghost;
    }
}

impl SysState {
    /// The initial state: every cache invalid, directory in its initial
    /// state holding value 0, no messages.
    pub fn initial(n_caches: usize) -> Self {
        let n = n_caches + 1;
        SysState {
            caches: vec![CacheBlock::new(); n_caches],
            dir: DirEntry::new(0),
            channels: vec![vec![Vec::new(); n]; n],
            ghost: 0,
        }
    }

    /// Number of caches.
    pub fn n_caches(&self) -> usize {
        self.caches.len()
    }

    /// The directory's node id.
    pub fn dir_id(&self) -> NodeId {
        NodeId(self.caches.len() as u8)
    }

    /// Total number of in-flight messages.
    pub fn messages_in_flight(&self) -> usize {
        self.channels.iter().flatten().map(|q| q.len()).sum()
    }

    /// Whether any cache has an outstanding transaction.
    pub fn has_pending_access(&self) -> bool {
        self.caches.iter().any(|c| c.pending.is_some())
    }

    /// Pushes `msg` onto its channel.
    pub fn send(&mut self, msg: Msg) {
        self.channels[msg.src.as_usize()][msg.dst.as_usize()].push(msg);
    }

    /// A compact, canonical byte encoding for hashing and deduplication.
    pub fn encode(&self) -> Vec<u8> {
        let ident: Vec<u8> = (0..self.n_caches() as u8).collect();
        let mut out = Vec::with_capacity(96);
        self.encode_permuted_to(&ident, &ident, &mut out);
        out
    }

    /// Appends the byte encoding of `self.permuted(perm)` to `out`
    /// without materializing the permuted state — the model checker's
    /// canonicalization hot path. `inv` must be the inverse permutation of
    /// `perm` (see [`invert`]); the bytes produced are exactly
    /// `self.permuted(perm).encode()`.
    ///
    /// The layout is fixed-width per field — u16 state ids, one byte per
    /// scalar with `0xff` as the `None` sentinel — with explicit length
    /// prefixes for the (bounded) chain-slot and channel-queue sequences,
    /// so the encoding is injective and a 64-bit fingerprint of it can
    /// stand in for the full state.
    pub fn encode_permuted_to(&self, perm: &[u8], inv: &[u8], out: &mut Vec<u8>) {
        debug_assert_eq!(perm.len(), self.n_caches());
        debug_assert_eq!(inv.len(), self.n_caches());
        for &src_cache in inv {
            put_block(out, &self.caches[src_cache as usize], rename(perm));
        }
        put_dir_renamed(out, &self.dir, perm);
        put_chans_renamed(out, &self.channels, perm, inv);
        out.push(self.ghost);
    }

    /// The canonical encoding under cache-identity symmetry (the Murϕ
    /// scalarset reduction): the encoding of the orbit representative the
    /// model checker itself selects. The selection key is two-level —
    /// first the sequence of per-cache symmetry sort keys in slot order
    /// (see [`crate::cache_sort_key`]), then the 64-bit fingerprint of the
    /// permuted encoding, ties broken by permutation index. Putting the
    /// key sequence first is what lets the checker's pruned canonicalizer
    /// ([`crate::Canonicalizer`]) skip every permutation that does not
    /// sort the caches by key and still select the *same* representative
    /// as this full sweep — the equivalence the `canon_prop` proptest
    /// pins. Using the same representative here keeps every notion of
    /// "canonical" in this crate interchangeable.
    pub fn canonical_encoding(&self, perms: &[Vec<u8>]) -> Vec<u8> {
        let n = self.n_caches();
        let keys: Vec<u64> = (0..n).map(|i| crate::cache_sort_key(self, i)).collect();
        let mut best: Option<(Vec<u64>, u64, Vec<u8>)> = None;
        let mut key_seq = vec![0u64; n];
        let mut enc = Vec::with_capacity(96);
        for p in perms {
            let inv = invert(p);
            for (slot, &src) in inv.iter().enumerate() {
                key_seq[slot] = keys[src as usize];
            }
            enc.clear();
            self.encode_permuted_to(p, &inv, &mut enc);
            let fp = crate::store::fingerprint_bytes(&enc);
            if best.as_ref().is_none_or(|(bk, bfp, _)| (&key_seq, fp) < (bk, *bfp)) {
                best = Some((key_seq.clone(), fp, enc.clone()));
            }
        }
        best.map(|(_, _, enc)| enc).unwrap_or_else(|| self.encode())
    }

    /// Decodes an [`SysState::encode`]-produced byte string back into a
    /// state, reusing `self`'s allocations — the inverse the clone-free
    /// expand path relies on: successor candidates travel between shards
    /// as canonical encodings, and only states that turn out to be *new*
    /// are ever materialized, through this method.
    ///
    /// The `0xff` byte is the `None` sentinel for optional scalars, which
    /// is unambiguous because every value domain in the checker is tiny
    /// (the standard Murϕ bounding discipline keeps values, ack counts,
    /// and ids far below 255).
    ///
    /// # Panics
    ///
    /// Panics when `bytes` is not a complete encoding for `n_caches`
    /// caches — encodings come only from [`SysState::encode_permuted_to`],
    /// so a mismatch is a checker bug, not an input condition.
    pub fn decode_into(&mut self, bytes: &[u8], n_caches: usize) {
        let mut d = Decoder::new(bytes);
        self.caches.resize_with(n_caches, CacheBlock::new);
        for c in &mut self.caches {
            d.block(c);
        }
        d.dir(&mut self.dir);
        let total = n_caches + 1;
        self.channels.resize_with(total, Vec::new);
        for row in &mut self.channels {
            row.resize_with(total, Vec::new);
            for q in row {
                d.queue(q);
            }
        }
        self.ghost = d.ghost();
    }

    /// [`SysState::decode_into`] into a fresh state.
    pub fn decode(bytes: &[u8], n_caches: usize) -> SysState {
        let mut s = SysState::initial(n_caches);
        s.decode_into(bytes, n_caches);
        s
    }

    /// Applies a cache-id permutation: cache `i` becomes cache `perm[i]`.
    pub fn permuted(&self, perm: &[u8]) -> SysState {
        let n = self.n_caches();
        let map = |id: NodeId| -> NodeId {
            if id.as_usize() < n {
                NodeId(perm[id.as_usize()])
            } else {
                id
            }
        };
        let map_msg = |m: &Msg| Msg { src: map(m.src), dst: map(m.dst), req: map(m.req), ..*m };
        let mut caches = vec![CacheBlock::new(); n];
        for (i, c) in self.caches.iter().enumerate() {
            let mut c2 = c.clone();
            c2.chain_slots = c.chain_slots.iter().map(|(n, a)| (map(*n), *a)).collect();
            caches[perm[i] as usize] = c2;
        }
        let mut dir = self.dir.clone();
        dir.owner = dir.owner.map(map);
        dir.chain_slots = self.dir.chain_slots.iter().map(|(n, a)| (map(*n), *a)).collect();
        dir.sharers = (0..n)
            .filter(|&i| self.dir.sharers & (1 << i) != 0)
            .fold(0u8, |acc, i| acc | (1 << perm[i]));
        let total = n + 1;
        let mut channels = vec![vec![Vec::new(); total]; total];
        for (s, row) in self.channels.iter().enumerate() {
            for (d, q) in row.iter().enumerate() {
                let s2 = if s < n { perm[s] as usize } else { s };
                let d2 = if d < n { perm[d] as usize } else { d };
                channels[s2][d2] = q.iter().map(map_msg).collect();
            }
        }
        SysState { caches, dir, channels, ghost: self.ghost }
    }
}

/// All permutations of `0..n`, in lexicographic order (`n` is small: at
/// most [`MAX_CACHES`] caches or `MAX_FANOUT` siblings).
pub fn permutations(n: usize) -> Vec<Vec<u8>> {
    fn go(acc: &mut Vec<Vec<u8>>, cur: &mut Vec<u8>, used: &mut Vec<bool>, n: usize) {
        if cur.len() == n {
            acc.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i as u8);
                go(acc, cur, used, n);
                cur.pop();
                used[i] = false;
            }
        }
    }
    let mut acc = Vec::new();
    go(&mut acc, &mut Vec::new(), &mut vec![false; n], n);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_spec::MsgId;

    #[test]
    fn initial_state_is_quiescent() {
        let s = SysState::initial(3);
        assert_eq!(s.messages_in_flight(), 0);
        assert!(!s.has_pending_access());
        assert_eq!(s.dir_id(), NodeId(3));
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(2).len(), 2);
    }

    #[test]
    fn canonical_encoding_identifies_symmetric_states() {
        let perms = permutations(2);
        // Cache 0 has a message to the directory.
        let mut a = SysState::initial(2);
        a.send(Msg {
            mtype: MsgId(0),
            src: NodeId(0),
            dst: NodeId(2),
            req: NodeId(0),
            ack_count: None,
            data: None,
        });
        // The mirror image: cache 1 sent it instead.
        let mut b = SysState::initial(2);
        b.send(Msg {
            mtype: MsgId(0),
            src: NodeId(1),
            dst: NodeId(2),
            req: NodeId(1),
            ack_count: None,
            data: None,
        });
        assert_ne!(a.encode(), b.encode());
        assert_eq!(a.canonical_encoding(&perms), b.canonical_encoding(&perms));
    }

    #[test]
    fn streamed_permuted_encoding_matches_materialized() {
        // A state exercising every encoded field: messages in flight,
        // chain slots, owner, sharers, pending accesses.
        let mut s = SysState::initial(3);
        s.dir.add_sharer(NodeId(1));
        s.dir.owner = Some(NodeId(2));
        s.dir.chain_slots.push((NodeId(0), 2));
        s.caches[0].data = Some(1);
        s.caches[0].pending = Some(Access::Store);
        s.caches[1].chain_slots.push((NodeId(2), 1));
        s.caches[2].acks_expected = Some(2);
        s.ghost = 1;
        s.send(Msg {
            mtype: MsgId(4),
            src: NodeId(0),
            dst: NodeId(3),
            req: NodeId(0),
            ack_count: Some(1),
            data: Some(1),
        });
        s.send(Msg {
            mtype: MsgId(2),
            src: NodeId(3),
            dst: NodeId(2),
            req: NodeId(1),
            ack_count: None,
            data: None,
        });
        for p in permutations(3) {
            let inv = invert(&p);
            let mut streamed = Vec::new();
            s.encode_permuted_to(&p, &inv, &mut streamed);
            assert_eq!(streamed, s.permuted(&p).encode(), "perm {p:?}");
        }
    }

    #[test]
    fn invert_round_trips() {
        for p in permutations(4) {
            let inv = invert(&p);
            for i in 0..4u8 {
                assert_eq!(inv[p[i as usize] as usize], i);
            }
        }
    }

    #[test]
    fn permutation_remaps_sharers_and_owner() {
        let mut s = SysState::initial(3);
        s.dir.add_sharer(NodeId(0));
        s.dir.owner = Some(NodeId(2));
        let p = s.permuted(&[1, 0, 2]);
        assert!(p.dir.is_sharer(NodeId(1)));
        assert!(!p.dir.is_sharer(NodeId(0)));
        assert_eq!(p.dir.owner, Some(NodeId(2)));
    }
}
