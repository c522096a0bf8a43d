//! The sharded visited-state store: 64-bit fingerprints, packed
//! parent-pointer records, and the per-shard hash map that deduplicates
//! them.
//!
//! Instead of keying the visited set by an owned byte encoding of each
//! state (the seed design: an owned `Vec<u8>` of ~100–250 bytes per state
//! plus `HashMap` overhead), each state is reduced to a 64-bit fingerprint
//! of its canonical encoding, and the only per-state storage is one packed
//! [`StateRec`] (16 bytes) plus a `u64 → u32` map entry. States are
//! partitioned across shards by `fingerprint % n_shards`, so a given state
//! is only ever inserted, deduplicated, or parent-updated by its owning
//! shard — no locking on the store itself.
//!
//! Nothing in a shard grows as one block: the map is [`PARTS`] tables
//! that resize independently (a resize rehashes 1/`PARTS` of the map, and
//! the block it frees fits the next part's growth), and records live in
//! fixed [`CHUNK_RECS`]-record chunks that are never reallocated. A second
//! verification in the same process therefore reuses the first one's
//! blocks instead of stacking fresh multi-MB ones on a fragmented heap.
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

/// The most states one shard can hold (the packed global id gives a
/// local index 27 bits). The explorer's dedup phase enforces this bound
/// *before* inserting — overflow surfaces as a structured
/// [`crate::ResourceLimit::ShardCapacity`] outcome, never as a panic
/// mid-run.
pub const SHARD_CAPACITY: usize = LOCAL_MASK as usize + 1;

/// A packed global state id: 5 bits of owning shard, 27 bits of index into
/// that shard's records.
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

/// One visited state, packed to 16 bytes. The state itself is *not*
/// stored — only the (parent, step) edge used for counterexample-trace
/// reconstruction (the state's own fingerprint lives in the `FpMap` key
/// and in the frontier entry, so the record does not repeat it). Nor is
/// its BFS depth: records are appended level by level, so the shard
/// derives it from where each level starts ([`ShardStore::depth`]).
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
        // in `FpMap`'s parts (`HashMap<u64, u32, _>`), whose key type
        // hashes exclusively through `write_u64`. No byte-slice key can
        // reach here without changing the parts' key type, which would
        // fail to compile against `FpMap`'s `get`/`insert` anyway — so this
        // is a checker bug, not an input condition, and panicking is
        // correct.
        unreachable!("fingerprint maps only hash u64 keys");
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

type FpBuild = BuildHasherDefault<FpPassthroughHasher>;

/// Tables the fingerprint map is split into.
const PARTS: usize = 64;

/// First fingerprint bit of the part index (bits 32..38 for 64 parts).
/// No table reads them: hashbrown takes its bucket index from the low bits
/// and its 7-bit control tag from the top ones, and shard routing
/// (`fp % threads`) reads the low bits for power-of-two thread counts.
const PART_SHIFT: u32 = 32;

/// Control bytes hashbrown appends to every allocated table (one SSE2
/// group, mirroring the first).
const GROUP_WIDTH: usize = 16;

/// Entries a part makes room for on its first insert (32 buckets, 560
/// bytes). A part then skips the 4 → 8 → 16-bucket steps, which in a
/// space of ~1,300 states (~20 a part) were over a third of the map's
/// cost.
const PART_FIRST: usize = 28;

/// Bytes allocated by a table of `cap` = `capacity()`: hashbrown holds
/// `cap + 1` buckets below 8 and `cap / 7 × 8` from there (no entry is
/// ever removed, so `capacity()` is exactly the load limit of its
/// buckets), each one padded `(u64, u32)` slot plus one control byte.
fn table_bytes(cap: usize) -> usize {
    if cap == 0 {
        return 0;
    }
    let buckets = if cap < 8 { cap + 1 } else { cap / 7 * 8 };
    buckets * (std::mem::size_of::<(u64, u32)>() + 1) + GROUP_WIDTH
}

/// `fingerprint → shard-local record index`, as [`PARTS`] tables chosen
/// by fingerprint bits [`PART_SHIFT`]`..`: a resize rehashes one part, and
/// no allocation is ever larger than a part.
#[derive(Debug)]
pub(crate) struct FpMap {
    parts: [HashMap<u64, u32, FpBuild>; PARTS],
    /// Entries over all parts.
    len: usize,
    /// Bytes allocated over all parts, kept current on every resize so
    /// that the budget check reading it stays O(1).
    bytes: usize,
}

impl FpMap {
    fn new() -> FpMap {
        FpMap { parts: std::array::from_fn(|_| HashMap::default()), len: 0, bytes: 0 }
    }

    fn part(fp: u64) -> usize {
        (fp >> PART_SHIFT) as usize % PARTS
    }

    pub(crate) fn get(&self, fp: u64) -> Option<u32> {
        self.parts[Self::part(fp)].get(&fp).copied()
    }

    pub(crate) fn insert(&mut self, fp: u64, lid: u32) {
        let part = &mut self.parts[Self::part(fp)];
        let cap = part.capacity();
        if cap == 0 {
            part.reserve(PART_FIRST);
        }
        if part.insert(fp, lid).is_none() {
            self.len += 1;
        }
        if part.capacity() != cap {
            self.bytes = self.bytes + table_bytes(part.capacity()) - table_bytes(cap);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The map inverted: fingerprints in shard-local id order (ids are
    /// dense `0..len`).
    pub(crate) fn by_lid(&self) -> Vec<u64> {
        let mut fps = vec![0u64; self.len];
        for (&fp, &lid) in self.parts.iter().flatten() {
            fps[lid as usize] = fp;
        }
        fps
    }
}

/// Records per hot chunk: 2¹² × 16 B = 64 KiB, allocated whole and never
/// reallocated — below glibc's default mmap threshold, so a chunk is
/// always heap memory the next chunk (or the next run) can reuse.
const CHUNK_RECS: usize = 1 << 12;

/// Serialized width of one [`StateRec`] in the spill tier.
const REC_BYTES: usize = 16;

/// One shard of the visited set: the fingerprint map plus the packed
/// records it indexes. Owned exclusively by one worker thread.
///
/// Under a memory budget the records are *tiered*: at epoch boundaries
/// every record is frozen (BFS level synchronization means only records
/// inserted in the current epoch are ever parent-updated), so the
/// explorer may flush every hot chunk to one page-aligned spill chunk and
/// keep exploring; the emptied chunks take the next epochs' records.
/// [`ShardStore::rec`] reads through the tier transparently; only
/// counterexample-trace reconstruction and checkpoints ever touch frozen
/// records. The fingerprint map itself always stays in RAM — it is the
/// dedup hot path. In fingerprint-only mode no records exist at all and
/// the map is the entire shard.
#[derive(Debug)]
pub(crate) struct ShardStore {
    pub map: FpMap,
    /// Hot records in fixed chunks: record `spilled + i` is
    /// `hot[i / CHUNK_RECS][i % CHUNK_RECS]`.
    hot: Vec<Vec<StateRec>>,
    /// Emptied chunks waiting for the next records.
    free: Vec<Vec<StateRec>>,
    /// Records frozen to the spill file (they precede the hot ones).
    spilled: usize,
    /// `(first_local_id, count, file_offset)` per frozen chunk, in id
    /// order.
    frozen: Vec<(usize, usize, u64)>,
    spill: Option<crate::spill::SpillFile>,
    /// `levels[d]` is the first record of BFS depth `d`: records are
    /// appended level by level, so a record's depth is the last level
    /// starting at or before it.
    levels: Vec<u32>,
}

impl ShardStore {
    pub(crate) fn new() -> Self {
        ShardStore {
            map: FpMap::new(),
            hot: Vec::new(),
            free: Vec::new(),
            spilled: 0,
            frozen: Vec::new(),
            spill: None,
            levels: vec![0],
        }
    }

    /// States this shard holds (identical in every store mode: each
    /// admitted state is exactly one map entry).
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Records this shard holds: [`ShardStore::len`] when the store mode
    /// keeps them, 0 in fingerprint-only mode.
    pub(crate) fn rec_count(&self) -> usize {
        self.spilled + self.hot.last().map_or(0, |c| (self.hot.len() - 1) * CHUNK_RECS + c.len())
    }

    /// Appends the record for the next shard-local id, at the depth of
    /// the last level opened.
    pub(crate) fn push_rec(&mut self, rec: StateRec) {
        if self.hot.last().is_none_or(|c| c.len() == CHUNK_RECS) {
            let chunk = self.free.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK_RECS));
            self.hot.push(chunk);
        }
        self.hot.last_mut().expect("a chunk with room was just ensured").push(rec);
    }

    /// Opens the next BFS level: records pushed from here on are one
    /// deeper. Returns the level's first record id.
    pub(crate) fn open_level(&mut self) -> u32 {
        let start = self.rec_count() as u32;
        self.levels.push(start);
        start
    }

    /// Opens levels until `depth` is open (a checkpointed shard's levels
    /// may be empty at its tail).
    pub(crate) fn open_levels_through(&mut self, depth: u32) {
        while self.levels.len() <= depth as usize {
            self.open_level();
        }
    }

    /// Appends a record of known depth — the checkpoint loader's path,
    /// which rebuilds the level starts from per-record depths. Depths
    /// must not decrease; a smaller one is refused with the depth of the
    /// level already open.
    pub(crate) fn push_rec_at(&mut self, rec: StateRec, depth: u32) -> Result<(), u32> {
        let open = self.levels.len() as u32 - 1;
        if depth < open {
            return Err(open);
        }
        self.open_levels_through(depth);
        self.push_rec(rec);
        Ok(())
    }

    /// The BFS depth of record `local` (the root is 0). A state's depth
    /// is its true BFS distance: level synchronization guarantees first
    /// insertion happens at the minimal level.
    pub(crate) fn depth(&self, local: usize) -> u32 {
        (self.levels.partition_point(|&start| start as usize <= local) - 1) as u32
    }

    /// The record for `local`, reading the spill tier when it is frozen.
    pub(crate) fn rec(&self, local: usize) -> StateRec {
        if local >= self.spilled {
            let i = local - self.spilled;
            return self.hot[i / CHUNK_RECS][i % CHUNK_RECS];
        }
        let ci = self.frozen.partition_point(|&(first, count, _)| first + count <= local);
        let (first, _, file_off) = self.frozen[ci];
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
        }
    }

    /// Mutable access to a *hot* record (same-epoch parent-race updates
    /// only touch records inserted this epoch, which are never frozen).
    pub(crate) fn rec_mut(&mut self, local: usize) -> &mut StateRec {
        let i = local - self.spilled;
        &mut self.hot[i / CHUNK_RECS][i % CHUNK_RECS]
    }

    /// Freezes every hot record to one spill chunk, serialized chunk by
    /// chunk, and keeps the emptied chunks for the next records. Called
    /// only at epoch boundaries, where all existing records are final.
    pub(crate) fn spill_frozen(&mut self, tag: &str) -> std::io::Result<()> {
        let count = self.rec_count() - self.spilled;
        if count == 0 {
            return Ok(());
        }
        let spill = match self.spill.as_mut() {
            Some(s) => s,
            None => self.spill.insert(crate::spill::SpillFile::create(tag)?),
        };
        let mut bytes = Vec::with_capacity(count.min(CHUNK_RECS) * REC_BYTES);
        for chunk in &self.hot {
            bytes.clear();
            for r in chunk {
                bytes.extend_from_slice(&r.parent_fp.to_le_bytes());
                bytes.extend_from_slice(&r.parent.0.to_le_bytes());
                bytes.extend_from_slice(&r.step.to_le_bytes());
            }
            spill.write_part(&bytes)?;
        }
        let file_off = spill.end_chunk()?;
        self.frozen.push((self.spilled, count, file_off));
        self.spilled += count;
        self.free.extend(self.hot.drain(..).map(|mut c| {
            c.clear();
            c
        }));
        Ok(())
    }

    /// RAM held by this shard's visited set: every allocated map bucket
    /// plus control bytes, every record chunk whole (hot or free), and
    /// the bookkeeping vectors; frozen records live on disk and cost one
    /// descriptor each. O(1): the budget check reads it per insert.
    pub(crate) fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.map.bytes
            + (self.hot.len() + self.free.len()) * CHUNK_RECS * size_of::<StateRec>()
            + (self.hot.capacity() + self.free.capacity()) * size_of::<Vec<StateRec>>()
            + self.frozen.capacity() * size_of::<(usize, usize, u64)>()
            + self.levels.capacity() * size_of::<u32>()
    }

    /// Cumulative `(payload bytes, chunks)` written to this shard's spill
    /// file.
    pub(crate) fn spill_totals(&self) -> (u64, u64) {
        self.spill.as_ref().map_or((0, 0), |s| (s.total_written(), s.total_chunks()))
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

    fn rec(i: u64) -> StateRec {
        StateRec { parent_fp: i * 31, parent: Gid::pack(1, i as usize), step: i as u32 }
    }

    fn fields(r: StateRec) -> (u64, Gid, u32) {
        (r.parent_fp, r.parent, r.step)
    }

    #[test]
    fn state_records_are_16_bytes() {
        assert_eq!(std::mem::size_of::<StateRec>(), 16);
        assert_eq!(REC_BYTES, 16);
    }

    #[test]
    fn shard_store_reports_mem_bytes() {
        let mut s = ShardStore::new();
        let empty = s.mem_bytes();
        assert!(empty < 64, "an empty shard holds no table and no chunk: {empty}");
        s.map.insert(7, 0);
        s.push_rec(StateRec { parent_fp: 7, parent: Gid::pack(0, 0), step: STEP_NONE });
        // One part's first table, one whole record chunk.
        let chunk = CHUNK_RECS * std::mem::size_of::<StateRec>();
        assert_eq!(s.map.bytes, table_bytes(PART_FIRST));
        assert_eq!(table_bytes(PART_FIRST), 32 * 17 + GROUP_WIDTH);
        assert!(s.mem_bytes() >= s.map.bytes + chunk);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn map_bytes_charge_allocated_buckets_not_capacity() {
        // hashbrown's load limit is 7/8 of its buckets: the 254,130-state
        // shard of MESI stalling @4 sits in 2¹⁹ buckets, not 458,752.
        assert_eq!(table_bytes(458_752), 524_288 * 17 + GROUP_WIDTH);
        assert_eq!(table_bytes(7), 8 * 17 + GROUP_WIDTH);
        assert_eq!(table_bytes(0), 0);
        // The running total is the sum over parts, and no part holds more
        // than a few times its fair share.
        let mut m = FpMap::new();
        for i in 0..50_000u64 {
            m.insert(mix64(i), i as u32);
        }
        assert_eq!(m.len(), 50_000);
        let parts: usize = m.parts.iter().map(|p| table_bytes(p.capacity())).sum();
        assert_eq!(m.bytes, parts);
        let largest = m.parts.iter().map(|p| p.len()).max().unwrap();
        assert!(largest < 2 * 50_000 / PARTS, "parts are unbalanced: {largest}");
        assert_eq!(m.get(mix64(123)), Some(123));
        assert_eq!(m.get(mix64(50_000)), None);
        let fps = m.by_lid();
        assert!(fps.iter().enumerate().all(|(i, &fp)| fp == mix64(i as u64)));
    }

    #[test]
    fn derived_depth_is_the_insertion_level_hot_spilled_and_restored() {
        // Two shards' worth of shapes: one holding the root (level 0 has
        // one record), one whose first levels are empty. Levels of 0..=6
        // records and a level larger than a chunk, spilling after some.
        for (root, sizes) in
            [(true, vec![3, 0, 5, 1, CHUNK_RECS + 7, 2]), (false, vec![0, 0, 4, 6, 0])]
        {
            let mut s = ShardStore::new();
            let mut want = Vec::new();
            if root {
                s.push_rec(rec(0));
                want.push(0);
            }
            for (d, &n) in sizes.iter().enumerate() {
                let d = d as u32 + 1;
                assert_eq!(s.open_level() as usize, want.len());
                for _ in 0..n {
                    s.push_rec(rec(want.len() as u64));
                    want.push(d);
                }
                if crate::spill::SPILL_SUPPORTED && d.is_multiple_of(2) {
                    s.spill_frozen("test").unwrap();
                }
            }
            let top = sizes.len() as u32;
            for (lid, &d) in want.iter().enumerate() {
                assert_eq!(s.depth(lid), d, "record {lid}");
            }
            // The checkpoint loader's path: per-record depths back in.
            let mut r = ShardStore::new();
            for (lid, &d) in want.iter().enumerate() {
                r.push_rec_at(s.rec(lid), d).unwrap();
            }
            r.open_levels_through(top);
            assert_eq!(r.levels, s.levels);
            for (lid, &d) in want.iter().enumerate() {
                assert_eq!(r.depth(lid), d, "restored record {lid}");
                assert_eq!(fields(r.rec(lid)), fields(rec(lid as u64)));
            }
        }
    }

    #[test]
    fn restoring_refuses_a_decreasing_depth_sequence() {
        let mut s = ShardStore::new();
        s.push_rec_at(rec(0), 0).unwrap();
        s.push_rec_at(rec(1), 2).unwrap();
        s.push_rec_at(rec(2), 2).unwrap();
        assert_eq!(s.push_rec_at(rec(3), 1), Err(2));
        assert_eq!(s.rec_count(), 3, "a refused record is not appended");
        assert_eq!((s.depth(0), s.depth(1), s.depth(2)), (0, 2, 2));
    }

    #[test]
    fn spilled_chunks_are_recycled_not_reallocated() {
        if !crate::spill::SPILL_SUPPORTED {
            return;
        }
        let mut s = ShardStore::new();
        let n = 2 * CHUNK_RECS + 5;
        for i in 0..n {
            s.push_rec(rec(i as u64));
        }
        let held = s.mem_bytes();
        s.spill_frozen("test").unwrap();
        assert_eq!((s.hot.len(), s.free.len()), (0, 3));
        // The emptied chunks stay for the next epoch (and stay accounted);
        // only bookkeeping is added.
        assert!((held..held + 256).contains(&s.mem_bytes()), "{held} -> {}", s.mem_bytes());
        for i in n..=n + CHUNK_RECS {
            s.push_rec(rec(i as u64));
        }
        assert_eq!((s.hot.len(), s.free.len()), (2, 1));
        for i in [0, CHUNK_RECS, n - 1, n, n + CHUNK_RECS] {
            assert_eq!(fields(s.rec(i)), fields(rec(i as u64)), "record {i}");
        }
        assert_eq!(s.spill_totals(), ((n * REC_BYTES) as u64, 1));
    }

    #[test]
    fn shard_store_reads_through_the_spill_tier() {
        if !crate::spill::SPILL_SUPPORTED {
            return;
        }
        let mut s = ShardStore::new();
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
            assert_eq!(fields(s.rec(i as usize)), fields(rec(i)), "record {i}");
        }
        s.rec_mut(27).step = 999;
        assert_eq!(s.rec(27).step, 999);
        let (bytes, chunks) = s.spill_totals();
        assert_eq!(chunks, 2);
        assert_eq!(bytes, 25 * REC_BYTES as u64);
    }
}
