//! The sharded visited-state store: 64-bit fingerprints, packed
//! parent-pointer records, and the per-shard hash map that deduplicates
//! them.
//!
//! Instead of keying the visited set by an owned byte encoding of each
//! state (the seed design: an owned `Vec<u8>` of ~100–250 bytes per state
//! plus `HashMap` overhead), each state is reduced to a 64-bit fingerprint
//! of its canonical encoding, and the only per-state storage is one packed
//! [`StateRec`] (24 bytes) plus a `u64 → u32` map entry. States are
//! partitioned across shards by `fingerprint % n_shards`, so a given state
//! is only ever inserted, deduplicated, or parent-updated by its owning
//! shard — no locking on the store itself.
//!
//! Fingerprinting is lossy by construction (hash compaction, as in Murϕ's
//! `-b` mode): two distinct states may collide and be treated as one, in
//! which case part of the state space is silently pruned. DESIGN.md §3
//! carries the collision-risk arithmetic; at the default 20 M-state budget
//! the expected number of colliding pairs is ≈ 1.1 × 10⁻⁵.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Upper bound on worker threads / shards (the global-id packing gives a
/// shard 5 bits).
pub const MAX_SHARDS: usize = 32;

const LOCAL_BITS: u32 = 27;
const LOCAL_MASK: u32 = (1 << LOCAL_BITS) - 1;

/// The most states one shard's record vector can hold (the packed global
/// id gives a local index 27 bits). The explorer's dedup phase enforces
/// this bound *before* inserting — overflow surfaces as a structured
/// [`crate::ResourceLimit::ShardCapacity`] outcome, never as a panic
/// mid-run.
pub const SHARD_CAPACITY: usize = LOCAL_MASK as usize + 1;

/// A packed global state id: 5 bits of owning shard, 27 bits of index into
/// that shard's record vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Gid(u32);

impl Gid {
    pub(crate) fn pack(shard: usize, local: usize) -> Gid {
        // Only for ids that exist by construction (frontier entries carry
        // lids the checked insert path already admitted). The insert path
        // itself goes through `try_pack`: a `debug_assert!` alone would
        // let a release-mode overflow wrap silently into a *wrong but
        // valid-looking* Gid and corrupt parent chains.
        Gid::try_pack(shard, local).expect("unpackable global state id")
    }

    /// Checked pack: `None` when `shard` or `local` exceeds its packed
    /// field — in release builds too. The dedup path uses this as the
    /// authoritative capacity guard, surfacing overflow as a structured
    /// [`crate::ResourceLimit::ShardCapacity`] outcome with partial stats
    /// instead of wrapping.
    pub(crate) fn try_pack(shard: usize, local: usize) -> Option<Gid> {
        if shard < MAX_SHARDS && local < SHARD_CAPACITY {
            Some(Gid(((shard as u32) << LOCAL_BITS) | local as u32))
        } else {
            None
        }
    }

    pub(crate) fn shard(self) -> usize {
        (self.0 >> LOCAL_BITS) as usize
    }

    pub(crate) fn local(self) -> usize {
        (self.0 & LOCAL_MASK) as usize
    }

    /// The packed representation, for the checkpoint codec.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a Gid from its packed representation. Only the checkpoint
    /// loader uses this, and only for bytes that already passed the
    /// checksum gate — the id was packed by `try_pack` when the
    /// checkpoint was written.
    pub(crate) fn from_raw(raw: u32) -> Gid {
        Gid(raw)
    }
}

/// Sentinel for "no step" in a packed step slot (the root record, and
/// deadlock violations which have no final step).
pub(crate) const STEP_NONE: u32 = u32::MAX;

/// One visited state, packed to 24 bytes. The state itself is *not*
/// stored — only the (parent, step) edge used for counterexample-trace
/// reconstruction (the state's own fingerprint lives in the `FpMap` key
/// and in the frontier entry, so the record does not repeat it).
/// `parent_fp` is kept so that when the same state is reached from
/// several parents within one BFS level, the surviving edge is the
/// minimum of `(parent_fp, step)` — a thread-interleaving-independent
/// choice that keeps traces byte-identical run to run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StateRec {
    /// Fingerprint of the parent state (tie-break key for same-level
    /// parent races).
    pub parent_fp: u64,
    /// The parent's global id; self-referential for the root.
    pub parent: Gid,
    /// Packed step taken from the parent ([`STEP_NONE`] for the root).
    pub step: u32,
    /// BFS depth (the root is 0). A state's depth is its true BFS
    /// distance: level synchronization guarantees first insertion happens
    /// at the minimal level.
    pub depth: u32,
}

/// Pass-through hasher for fingerprint keys: the fingerprint is already a
/// well-mixed 64-bit hash, so re-hashing it would be pure waste.
#[derive(Debug, Default, Clone)]
pub struct FpPassthroughHasher(u64);

impl Hasher for FpPassthroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        // SAFETY OF THE UNREACHABLE: this hasher is only ever installed
        // in `FpMap` (`HashMap<u64, u32, _>`), whose key type hashes
        // exclusively through `write_u64`. No byte-slice key can reach
        // here without changing the map's key type, which would fail to
        // compile against `FpMap`'s alias anyway — so this is a checker
        // bug, not an input condition, and panicking is correct.
        unreachable!("fingerprint maps only hash u64 keys");
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

type FpBuild = BuildHasherDefault<FpPassthroughHasher>;

/// `fingerprint → shard-local record index`.
pub(crate) type FpMap = HashMap<u64, u32, FpBuild>;

/// Serialized width of one [`StateRec`] in the spill tier.
const REC_BYTES: usize = 20;

/// One shard of the visited set: the fingerprint map plus the packed
/// record vector it indexes. Owned exclusively by one worker thread.
///
/// Under a memory budget the record vector is *tiered*: at epoch
/// boundaries every record is frozen (BFS level synchronization means
/// only records inserted in the current epoch are ever parent-updated),
/// so the explorer may flush the whole hot vector to a page-aligned
/// spill chunk and keep exploring. [`ShardStore::rec`] reads through the
/// tier transparently; only counterexample-trace reconstruction ever
/// touches frozen records. The fingerprint map itself always stays in
/// RAM — it is the dedup hot path. In fingerprint-only mode no records
/// exist at all and the map is the entire shard.
#[derive(Debug, Default)]
pub(crate) struct ShardStore {
    pub map: FpMap,
    /// Hot records, `spilled..spilled + recs.len()` in shard-local ids.
    recs: Vec<StateRec>,
    /// Records frozen to the spill file (they precede `recs`).
    spilled: usize,
    /// `(first_local_id, count, file_offset)` per frozen chunk, in id
    /// order.
    chunks: Vec<(usize, usize, u64)>,
    spill: Option<crate::spill::SpillFile>,
}

impl ShardStore {
    pub(crate) fn new() -> Self {
        ShardStore::default()
    }

    /// States this shard holds (identical in every store mode: each
    /// admitted state is exactly one map entry).
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Appends the record for the next shard-local id.
    pub(crate) fn push_rec(&mut self, rec: StateRec) {
        self.recs.push(rec);
    }

    /// The record for `local`, reading the spill tier when it is frozen.
    pub(crate) fn rec(&self, local: usize) -> StateRec {
        if local >= self.spilled {
            return self.recs[local - self.spilled];
        }
        let ci = self.chunks.partition_point(|&(first, count, _)| first + count <= local);
        let (first, _, file_off) = self.chunks[ci];
        let mut buf = [0u8; REC_BYTES];
        self.spill
            .as_ref()
            .expect("frozen records imply a spill file")
            .read_exact_at(&mut buf, file_off + ((local - first) * REC_BYTES) as u64)
            .expect("spill read failed");
        StateRec {
            parent_fp: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            parent: Gid(u32::from_le_bytes(buf[8..12].try_into().unwrap())),
            step: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            depth: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
        }
    }

    /// Mutable access to a *hot* record (same-epoch parent-race updates
    /// only touch records inserted this epoch, which are never frozen).
    pub(crate) fn rec_mut(&mut self, local: usize) -> &mut StateRec {
        &mut self.recs[local - self.spilled]
    }

    /// Freezes every hot record to one spill chunk and clears the hot
    /// vector. Called only at epoch boundaries, where all existing
    /// records are final.
    pub(crate) fn spill_frozen(&mut self, tag: &str) -> std::io::Result<()> {
        if self.recs.is_empty() {
            return Ok(());
        }
        let spill = match self.spill.as_mut() {
            Some(s) => s,
            None => self.spill.insert(crate::spill::SpillFile::create(tag)?),
        };
        let mut bytes = Vec::with_capacity(self.recs.len() * REC_BYTES);
        for r in &self.recs {
            bytes.extend_from_slice(&r.parent_fp.to_le_bytes());
            bytes.extend_from_slice(&r.parent.0.to_le_bytes());
            bytes.extend_from_slice(&r.step.to_le_bytes());
            bytes.extend_from_slice(&r.depth.to_le_bytes());
        }
        let file_off = spill.append_chunk(&bytes)?;
        self.chunks.push((self.spilled, self.recs.len(), file_off));
        self.spilled += self.recs.len();
        self.recs.clear();
        Ok(())
    }

    /// Estimated RAM held by this shard's visited set (map entries at
    /// key+value+control width, hot records at their packed size; frozen
    /// records live on disk and cost one chunk descriptor each).
    pub(crate) fn mem_bytes(&self) -> usize {
        self.map.capacity() * (std::mem::size_of::<(u64, u32)>() + 1)
            + self.recs.capacity() * std::mem::size_of::<StateRec>()
            + self.chunks.capacity() * std::mem::size_of::<(usize, usize, u64)>()
    }

    /// Cumulative `(payload bytes, chunks)` written to this shard's spill
    /// file.
    pub(crate) fn spill_totals(&self) -> (u64, u64) {
        self.spill.as_ref().map_or((0, 0), |s| (s.total_written(), s.total_chunks()))
    }

    /// Snapshot for the checkpoint tier: fingerprints in shard-local id
    /// order (the map inverted — lids are dense `0..len`), plus every
    /// record when the store mode keeps them, frozen ones read back
    /// through the spill tier. Called only at an epoch boundary, where
    /// all records are final.
    pub(crate) fn snapshot(&self, keeps_recs: bool) -> (Vec<u64>, Vec<StateRec>) {
        let mut fps = vec![0u64; self.len()];
        for (&fp, &lid) in &self.map {
            fps[lid as usize] = fp;
        }
        let recs =
            if keeps_recs { (0..self.len()).map(|i| self.rec(i)).collect() } else { Vec::new() };
        (fps, recs)
    }

    /// Rebuilds a shard from a checkpoint snapshot. Everything comes back
    /// hot (no spill tier): a resumed run re-freezes under its own memory
    /// budget exactly as a fresh one would.
    pub(crate) fn restore(fps: &[u64], recs: Vec<StateRec>) -> ShardStore {
        let mut s = ShardStore::new();
        s.map.reserve(fps.len());
        for (lid, &fp) in fps.iter().enumerate() {
            s.map.insert(fp, lid as u32);
        }
        s.recs = recs;
        s
    }
}

pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a full-avalanche bijection on `u64`.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One absorption step of the fingerprint chain: the chunk is folded into
/// the running accumulator through the splitmix64 finalizer, so every
/// input bit avalanches across all 64 output bits. Shared with the
/// canonicalizer's sort-key hashing (`crate::canon`).
#[inline(always)]
pub(crate) fn absorb(h: u64, chunk: u64) -> u64 {
    mix64(h ^ chunk).wrapping_add(GOLDEN)
}

/// The 64-bit fingerprint of a byte string.
///
/// Bytes are read little-endian in 8-byte words (a short tail is
/// zero-padded); each word is absorbed into the running accumulator, and
/// the final digest also absorbs the length, separating prefixes. The
/// seed is fixed — fingerprints (and therefore exploration results and
/// checkpoints) are identical run to run and release to release; the
/// golden digests in this module's tests pin the function.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h = GOLDEN;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = absorb(h, u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = absorb(h, u64::from_le_bytes(last));
    }
    mix64(h ^ bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gid_packs_and_unpacks() {
        let g = Gid::pack(31, 0x7FF_FFFF);
        assert_eq!(g.shard(), 31);
        assert_eq!(g.local(), 0x7FF_FFFF);
        let g = Gid::pack(0, 0);
        assert_eq!(g.shard(), 0);
        assert_eq!(g.local(), 0);
    }

    #[test]
    fn gid_try_pack_rejects_overflow_in_release_builds_too() {
        // The former debug_assert!-only guard wrapped silently in release;
        // the checked path must reject at the exact field boundaries
        // regardless of build profile.
        assert!(Gid::try_pack(MAX_SHARDS - 1, SHARD_CAPACITY - 1).is_some());
        assert!(Gid::try_pack(0, SHARD_CAPACITY).is_none());
        assert!(Gid::try_pack(MAX_SHARDS, 0).is_none());
        assert!(Gid::try_pack(usize::MAX, usize::MAX).is_none());
    }

    /// The definition `fingerprint_bytes` must keep computing: one byte at
    /// a time into a little-endian 8-byte accumulator, flushed when full.
    fn fingerprint_bytewise(bytes: &[u8]) -> u64 {
        let (mut h, mut buf, mut buf_len) = (GOLDEN, 0u64, 0u32);
        for &b in bytes {
            buf |= (b as u64) << (8 * buf_len);
            buf_len += 1;
            if buf_len == 8 {
                h = absorb(h, buf);
                (buf, buf_len) = (0, 0);
            }
        }
        if buf_len > 0 {
            h = absorb(h, buf);
        }
        mix64(h ^ bytes.len() as u64)
    }

    #[test]
    fn fingerprint_is_chunking_independent() {
        // The digest must depend only on the byte stream, not on how the
        // word-wide reader happens to chunk it: every length around the
        // word boundaries agrees with the byte-at-a-time definition.
        let data: Vec<u8> = (0u8..=200).collect();
        for len in (0..=40).chain([63, 64, 65, 200, 201]) {
            assert_eq!(
                fingerprint_bytes(&data[..len]),
                fingerprint_bytewise(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn fingerprint_digests_are_pinned() {
        // Recorded from the commit before the word-wide reader: stored
        // checkpoints and every pinned count depend on these exact values,
        // so a change here is a deliberate format break.
        let data = |len: usize| (0..len).map(|i| (i * 7 + 3) as u8).collect::<Vec<u8>>();
        for (len, want) in [
            (0, 0xe220a8397b1dcdaf_u64),
            (1, 0x86d6fd953217ae03),
            (7, 0xb3dbf4478908e322),
            (8, 0xa3dd130d5106e4ef),
            (9, 0xb3c5737673fc1bfe),
            (200, 0xf217dcf5ea973e2d),
        ] {
            assert_eq!(fingerprint_bytes(&data(len)), want, "length {len}");
        }
    }

    #[test]
    fn fingerprint_separates_prefixes_and_permutations() {
        assert_ne!(fingerprint_bytes(b"ab"), fingerprint_bytes(b"abc"));
        assert_ne!(fingerprint_bytes(b"abc"), fingerprint_bytes(b"acb"));
        assert_ne!(fingerprint_bytes(b""), fingerprint_bytes(b"\0"));
        assert_ne!(fingerprint_bytes(b"\0"), fingerprint_bytes(b"\0\0"));
    }

    #[test]
    fn fingerprint_has_no_collisions_over_systematic_corpus() {
        // 256 × 257 ≈ 66k near-identical short strings (the adversarial
        // case for weak multiply-only hashes): all distinct digests.
        let mut seen = std::collections::HashSet::new();
        for a in 0u16..=255 {
            for b in 0u16..=256 {
                let mut v = vec![0u8; 12];
                v[3] = a as u8;
                if b <= 255 {
                    v[9] = b as u8;
                } else {
                    v.push(0);
                }
                assert!(seen.insert(fingerprint_bytes(&v)), "collision at ({a},{b})");
            }
        }
    }

    #[test]
    fn shard_store_reports_mem_bytes() {
        let mut s = ShardStore::new();
        assert_eq!(s.mem_bytes(), 0);
        s.map.insert(7, 0);
        s.push_rec(StateRec { parent_fp: 7, parent: Gid::pack(0, 0), step: STEP_NONE, depth: 0 });
        assert!(s.mem_bytes() >= std::mem::size_of::<StateRec>());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn shard_store_reads_through_the_spill_tier() {
        if !crate::spill::SPILL_SUPPORTED {
            return;
        }
        let mut s = ShardStore::new();
        let rec = |i: u64| StateRec {
            parent_fp: i * 31,
            parent: Gid::pack(1, i as usize),
            step: i as u32,
            depth: i as u32 / 3,
        };
        for i in 0..10 {
            s.push_rec(rec(i));
        }
        s.spill_frozen("test").unwrap();
        for i in 10..25 {
            s.push_rec(rec(i));
        }
        s.spill_frozen("test").unwrap();
        for i in 25..30 {
            s.push_rec(rec(i));
        }
        // Hot reads, frozen reads across both chunks, and mutation of a
        // hot record must all agree with what was pushed.
        for i in 0..30u64 {
            let r = s.rec(i as usize);
            let want = rec(i);
            assert_eq!(
                (r.parent_fp, r.parent, r.step, r.depth),
                (want.parent_fp, want.parent, want.step, want.depth),
                "record {i}"
            );
        }
        s.rec_mut(27).step = 999;
        assert_eq!(s.rec(27).step, 999);
        let (bytes, chunks) = s.spill_totals();
        assert_eq!(chunks, 2);
        assert_eq!(bytes, 25 * REC_BYTES as u64);
    }
}
