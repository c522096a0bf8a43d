//! The sharded visited-state store: 64-bit fingerprints, packed
//! parent-pointer records, and the per-shard map that deduplicates them.
//!
//! Instead of keying the visited set by an owned byte encoding of each
//! state (the seed design: an owned `Vec<u8>` of ~100–250 bytes per state
//! plus hash-table overhead), each state is reduced to a 64-bit fingerprint
//! of its canonical encoding, and the only per-state storage is one packed
//! [`StateRec`] (16 bytes), the fingerprint itself in an id-ordered column
//! (8 bytes) and one 4-byte slot of the map that indexes it. States are
//! partitioned across shards by `fingerprint % n_shards`, so a given state
//! is only ever inserted, deduplicated, or parent-updated by its owning
//! shard — no locking on the store itself.
//!
//! Nothing in a shard grows as one block: the map's slots are [`PARTS`]
//! tables that resize independently (a resize rehashes 1/`PARTS` of the
//! map, and the block it frees fits the next part's growth), and the
//! fingerprint column and the records live in fixed 64 KiB chunks that
//! are never reallocated. A second verification in the same process
//! therefore reuses the first one's blocks instead of stacking fresh
//! multi-MB ones on a fragmented heap.
//!
//! Fingerprinting is lossy by construction (hash compaction, as in Murϕ's
//! `-b` mode): two distinct states may collide and be treated as one, in
//! which case part of the state space is silently pruned. DESIGN.md §3
//! carries the collision-risk arithmetic; at the default 20 M-state budget
//! the expected number of colliding pairs is ≈ 1.1 × 10⁻⁵.

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
/// reconstruction (the state's own fingerprint lives in the [`FpMap`]
/// column and in the frontier entry, so the record does not repeat it). Nor is
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

/// Parts the fingerprint map's slots are split into.
const PARTS: usize = 64;

/// First fingerprint bit of the part index (bits 32..38 for 64 parts).
const PART_SHIFT: u32 = 32;

/// First fingerprint bit of a slot's home index: a part of 2^k slots
/// probes from bits 38..38+k (k ≤ 26), which the part index does not read
/// and shard routing (`fp % threads`, the low bits for power-of-two
/// thread counts) does not either.
const HOME_SHIFT: u32 = 38;

/// First fingerprint bit of the 24-bit field a slot's tag is folded
/// from (bits 8..32): disjoint from the home index, the part index and
/// power-of-two shard routing, so entries that share a part and a home
/// slot still spread over all 15 tags.
const TAG_SHIFT: u32 = 8;

/// Low slot bits holding the tag (1..=15; an all-zero slot is empty).
const TAG_BITS: u32 = 4;
const TAG_MASK: u32 = (1 << TAG_BITS) - 1;

// Every shard-local id fits a slot beside its tag.
const _: () = assert!(LOCAL_BITS + TAG_BITS <= u32::BITS);

/// Slots a part allocates on its first insert (128 bytes, 24 entries
/// below the load limit): a space of ~1,300 states (~20 a part) never
/// resizes.
const PART_FIRST: usize = 32;

/// A part doubles before an insert would fill more than
/// `LOAD_NUM / LOAD_DEN` of its slots.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// Fingerprints per column chunk: 2¹³ × 8 B = 64 KiB, allocated whole and
/// never reallocated, like the record chunks.
const COL_CHUNK: usize = 1 << 13;

/// The slot an entry of fingerprint `fp` starts probing from.
fn home(fp: u64, mask: usize) -> usize {
    (fp >> HOME_SHIFT) as usize & mask
}

/// The tag a slot of fingerprint `fp` carries, in 1..=15.
fn tag(fp: u64) -> u32 {
    ((fp >> TAG_SHIFT) as u32 & 0xFF_FFFF) % TAG_MASK + 1
}

/// Writes `slot` into the first empty slot at or after `fp`'s home.
fn place(slots: &mut [u32], fp: u64, slot: u32) {
    let mask = slots.len() - 1;
    let mut i = home(fp, mask);
    while slots[i] != 0 {
        i = (i + 1) & mask;
    }
    slots[i] = slot;
}

/// What the fingerprint map did over a run, counted per shard in plain
/// fields of the worker that owns it and summed when the run ends.
///
/// `lookups` is one per dedup query, so it is the same at every thread
/// count. `probes` and `column_reads` depend on where entries landed in
/// their parts, which follows insertion order, which follows batch
/// arrival at 2+ threads: they are telemetry, not a pinned count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Fingerprints looked up (a resumed run counts the checkpoint
    /// loader's duplicate checks too).
    pub lookups: u64,
    /// Slots read by those lookups.
    pub probes: u64,
    /// Tag matches confirmed against the fingerprint column.
    pub column_reads: u64,
}

impl std::ops::AddAssign for StoreCounters {
    fn add_assign(&mut self, o: StoreCounters) {
        self.lookups += o.lookups;
        self.probes += o.probes;
        self.column_reads += o.column_reads;
    }
}

/// The visited set's accounted bytes by component, each charged as
/// allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBytes {
    /// Fingerprint-column chunks, whole, and their directory.
    pub column: usize,
    /// The map parts' slot tables.
    pub slots: usize,
    /// Record chunks (hot and free), their directories, the spill-chunk
    /// directory and the level starts.
    pub records: usize,
}

impl StoreBytes {
    /// All three components.
    pub fn total(&self) -> usize {
        self.column + self.slots + self.records
    }
}

impl std::ops::AddAssign for StoreBytes {
    fn add_assign(&mut self, o: StoreBytes) {
        self.column += o.column;
        self.slots += o.slots;
        self.records += o.records;
    }
}

/// One part of the map: open-addressed slots `lid << 4 | tag`, probed
/// linearly.
#[derive(Debug, Default)]
struct Part {
    slots: Vec<u32>,
    len: usize,
}

/// `fingerprint → shard-local id`: the shard's fingerprints in id order
/// (the column), indexed by [`PARTS`] tables of 4-byte slots chosen by
/// fingerprint bits [`PART_SHIFT`]`..`. A slot holds an id and a 4-bit
/// tag; every tag match is confirmed against the full fingerprint in the
/// column, so the map answers exactly what a `u64 → u32` map would. A
/// part doubles on its own past its load limit, rehashing its entries
/// from the column, so no allocation is ever larger than a part.
#[derive(Debug)]
pub(crate) struct FpMap {
    /// Fingerprint of id `i` at `column[i / COL_CHUNK][i % COL_CHUNK]`.
    column: Vec<Vec<u64>>,
    parts: [Part; PARTS],
    len: usize,
    /// Bytes of all slot tables, kept current on every resize so that
    /// the budget check reading it stays O(1).
    slot_bytes: usize,
    pub(crate) counters: StoreCounters,
}

impl FpMap {
    fn new() -> FpMap {
        FpMap {
            column: Vec::new(),
            parts: std::array::from_fn(|_| Part::default()),
            len: 0,
            slot_bytes: 0,
            counters: StoreCounters::default(),
        }
    }

    fn part(fp: u64) -> usize {
        (fp >> PART_SHIFT) as usize % PARTS
    }

    /// The fingerprint of shard-local id `lid`.
    fn fp(&self, lid: u32) -> u64 {
        let i = lid as usize;
        self.column[i / COL_CHUNK][i % COL_CHUNK]
    }

    pub(crate) fn get(&mut self, fp: u64) -> Option<u32> {
        let slots = &self.parts[Self::part(fp)].slots;
        let (mut probes, mut reads, mut found) = (0, 0, None);
        if !slots.is_empty() {
            let (mask, tag) = (slots.len() - 1, tag(fp));
            let mut i = home(fp, mask);
            loop {
                let s = slots[i];
                probes += 1;
                if s == 0 {
                    break;
                }
                if s & TAG_MASK == tag {
                    reads += 1;
                    if self.fp(s >> TAG_BITS) == fp {
                        found = Some(s >> TAG_BITS);
                        break;
                    }
                }
                i = (i + 1) & mask;
            }
        }
        self.counters.lookups += 1;
        self.counters.probes += probes;
        self.counters.column_reads += reads;
        found
    }

    /// Appends `fp` as the next shard-local id. The caller has checked
    /// that `get(fp)` is `None`.
    pub(crate) fn push(&mut self, fp: u64) {
        let lid = self.len as u32;
        if self.column.last().is_none_or(|c| c.len() == COL_CHUNK) {
            self.column.push(Vec::with_capacity(COL_CHUNK));
        }
        self.column.last_mut().expect("a chunk with room was just ensured").push(fp);
        self.len += 1;
        let p = Self::part(fp);
        if (self.parts[p].len + 1) * LOAD_DEN > self.parts[p].slots.len() * LOAD_NUM {
            self.grow(p);
        }
        let part = &mut self.parts[p];
        part.len += 1;
        place(&mut part.slots, fp, (lid << TAG_BITS) | tag(fp));
    }

    /// Doubles part `p`, re-placing its entries from the column.
    fn grow(&mut self, p: usize) {
        let old = &self.parts[p].slots;
        let mut slots = vec![0u32; if old.is_empty() { PART_FIRST } else { 2 * old.len() }];
        for &s in old.iter().filter(|&&s| s != 0) {
            place(&mut slots, self.fp(s >> TAG_BITS), s);
        }
        self.slot_bytes += (slots.len() - old.len()) * std::mem::size_of::<u32>();
        self.parts[p].slots = slots;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The shard's fingerprints in shard-local id order (ids are dense
    /// `0..len`): the column itself.
    pub(crate) fn by_lid(&self) -> impl Iterator<Item = u64> + '_ {
        self.column.iter().flatten().copied()
    }

    /// Bytes of the column: every chunk whole, plus the chunk directory.
    fn column_bytes(&self) -> usize {
        use std::mem::size_of;
        self.column.len() * COL_CHUNK * size_of::<u64>()
            + self.column.capacity() * size_of::<Vec<u64>>()
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
/// records. The fingerprint map (column and slots) always stays in RAM —
/// it is the dedup hot path. In fingerprint-only mode no records exist at
/// all and the map is the entire shard.
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

    /// RAM held by this shard's visited set: every column chunk and
    /// record chunk whole (hot or free), every slot table, and the
    /// bookkeeping vectors; frozen records live on disk and cost one
    /// descriptor each. O(1): the budget check reads it per insert.
    pub(crate) fn mem_bytes(&self) -> usize {
        self.bytes().total()
    }

    /// [`ShardStore::mem_bytes`] by component.
    pub(crate) fn bytes(&self) -> StoreBytes {
        use std::mem::size_of;
        StoreBytes {
            column: self.map.column_bytes(),
            slots: self.map.slot_bytes,
            records: (self.hot.len() + self.free.len()) * CHUNK_RECS * size_of::<StateRec>()
                + (self.hot.capacity() + self.free.capacity()) * size_of::<Vec<StateRec>>()
                + self.frozen.capacity() * size_of::<(usize, usize, u64)>()
                + self.levels.capacity() * size_of::<u32>(),
        }
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
    use std::collections::HashMap;

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
        s.map.push(7);
        s.push_rec(StateRec { parent_fp: 7, parent: Gid::pack(0, 0), step: STEP_NONE });
        // One column chunk, one part's first slot table, one record chunk.
        let b = s.bytes();
        let directory = s.map.column.capacity() * std::mem::size_of::<Vec<u64>>();
        assert_eq!(b.column, COL_CHUNK * 8 + directory);
        assert_eq!(b.slots, PART_FIRST * 4);
        assert!(b.records >= CHUNK_RECS * std::mem::size_of::<StateRec>());
        assert_eq!(s.mem_bytes(), b.total());
        assert_eq!(s.len(), 1);
    }

    /// Bytes the map holds, recounted from its allocations.
    fn recount(m: &FpMap) -> usize {
        m.column.len() * COL_CHUNK * 8
            + m.column.capacity() * std::mem::size_of::<Vec<u64>>()
            + m.parts.iter().map(|p| p.slots.len() * 4).sum::<usize>()
    }

    #[test]
    fn map_agrees_with_a_hash_map_oracle() {
        // Adversarial fingerprints first: 0 and u64::MAX, then 512 that
        // share one part, one home slot at every table size and one tag
        // (they differ only in bits 0..8 and in bits 32..38's neighbour
        // part for the second half), so probe chains run long and every
        // tag match must be settled by the column.
        let crowd = 0xABCD_EF01_2345_6789_u64 & !0xFF;
        let mut fps: Vec<u64> = vec![0, u64::MAX];
        fps.extend((0..256).map(|low| crowd | low));
        fps.extend((0..256).map(|low| (crowd ^ (1 << PART_SHIFT)) | low));
        let shared = fps[2..].iter().filter(|&&fp| FpMap::part(fp) == FpMap::part(crowd));
        assert!(shared.clone().all(|&fp| tag(fp) == tag(crowd) && home(fp, !0) == home(crowd, !0)));
        assert_eq!(shared.count(), 256);
        // Then 10⁵ pseudo-random ones, a few of them repeats.
        fps.extend((0..100_000u64).map(|i| mix64((i % 99_000) ^ 0x5EED)));

        let mut m = FpMap::new();
        let mut oracle: HashMap<u64, u32> = HashMap::new();
        let mut order = Vec::new();
        for (i, &fp) in fps.iter().enumerate() {
            assert_eq!(m.get(fp), oracle.get(&fp).copied(), "lookup of {fp:#x} before insert {i}");
            if oracle.contains_key(&fp) {
                continue;
            }
            oracle.insert(fp, order.len() as u32);
            order.push(fp);
            m.push(fp);
            assert_eq!(m.get(fp), Some(order.len() as u32 - 1), "{fp:#x} just inserted");
            // An earlier key and a key never inserted agree too.
            let earlier = order[mix64(i as u64) as usize % order.len()];
            assert_eq!(m.get(earlier), oracle.get(&earlier).copied());
            let absent = mix64(fp ^ 0xDEAD);
            assert_eq!(m.get(absent), oracle.get(&absent).copied());
            assert_eq!(m.column_bytes() + m.slot_bytes, recount(&m), "after insert {i}");
            if i % 4096 == 0 {
                assert!(oracle.iter().all(|(&fp, &lid)| m.get(fp) == Some(lid)));
            }
        }
        assert!(oracle.iter().all(|(&fp, &lid)| m.get(fp) == Some(lid)));
        assert_eq!(m.len(), oracle.len());
        assert_eq!(m.by_lid().collect::<Vec<_>>(), order, "by_lid is insertion order");
        for p in &m.parts {
            assert_eq!(p.len, p.slots.iter().filter(|&&s| s != 0).count());
            assert!(p.len * LOAD_DEN <= p.slots.len() * LOAD_NUM, "a part is over its load limit");
        }
        let largest = m.parts.iter().map(|p| p.len).max().unwrap();
        assert!(largest < 2 * m.len() / PARTS, "parts are unbalanced: {largest}");
        let c = m.counters;
        assert!(c.lookups > 0 && c.probes >= c.lookups && c.column_reads > 0, "{c:?}");
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
