//! Epoch-boundary checkpoint/resume for long verifications.
//!
//! A checkpoint captures the explorer's complete logical state at the one
//! point in an epoch where it is both minimal and final: the top of the
//! epoch, immediately after the frontier swap. There, every visited
//! record is frozen (same-level parent races only ever touch records of
//! the epoch that just closed), the next frontier level is empty, all
//! batch queues are drained, and the current level is not yet read — so a
//! shard's state is exactly its fingerprint map, its records (each written
//! with its derived depth), and one level of frontier records. (The side
//! column of parent-race keys is empty there: the level it served was
//! frozen when the next one opened.) Those are written verbatim (the
//! frontier's records, delta-compressed or not, are the on-disk format
//! — the §9 codec reused), each shard to its own
//! checksummed file, with a versioned manifest committed last via rename.
//! A process killed at any instant — including `kill -9` mid-write —
//! therefore leaves either a complete committed checkpoint or none: shard
//! files without a manifest are invisible to resume.
//!
//! Resume rebuilds the workers from the newest committed checkpoint and
//! re-enters the epoch loop at the recorded depth. Because the checkpoint
//! is a byte-faithful copy of the deterministic explorer state, a resumed
//! run produces byte-identical states, transitions, violation, and
//! counterexample trace to an uninterrupted one (pinned by
//! `tests/checkpoint_conformance.rs` and the CI `resume` job). The one
//! caveat: pair coverage ([`crate::CheckResult::coverage`]) is recorded
//! per worker and not checkpointed, so a resumed run only reports
//! coverage for the epochs it actually executed.
//!
//! DESIGN.md §13 carries the consistency argument in full.

use crate::explore::{put_record, Frontier, Record};
use crate::flat::McConfig;
use crate::frontier::Coordinator;
use crate::store::{fingerprint_bytes, Gid, ShardStore, StateRec, MAX_SHARDS};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;

/// Shard-file magic ("PGCK") and manifest magic ("PGMF"), little-endian.
const SHARD_MAGIC: u32 = 0x4B43_4750;
const MANIFEST_MAGIC: u32 = 0x464D_4750;
/// The layout this build writes. Bump on any layout change: resume refuses
/// versions it does not know outright rather than misreading them.
///
/// Version 3 writes the frontier level as the explorer holds it: a count
/// and a byte length, then its records back to back (see
/// [`crate::explore::put_record`]). Versions 1 and 2 wrote an index (a
/// global arena offset, length, id and delta flag per entry) and the arena
/// it pointed into; the loader still reads them, converting each entry to a
/// record. Versions 2 and 3 write a visited record as its parent's id and
/// depth (8 bytes). Version 1 also wrote each record's parent fingerprint
/// and step and each entry's fingerprint: the loader drops the first two
/// (the explorer keeps them only for the level being inserted, and a
/// checkpoint is taken between levels) and checks each entry's fingerprint
/// against the column.
const VERSION: u32 = 3;

/// Why a checkpoint could not be loaded. Always a hard, descriptive
/// error: a checkpoint that fails validation must never be silently
/// skipped or partially applied — resuming from wrong bytes would
/// *pass* verification of a space that was never explored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(String);

impl CheckpointError {
    fn new(m: impl Into<String>) -> CheckpointError {
        CheckpointError(m.into())
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

/// One shard's restored state: the visited store (every record hot, no
/// spill tier — a resumed run re-freezes under its own memory budget
/// exactly as a fresh one would), and the frontier records of the level
/// about to be expanded, back to back, and their count.
pub(crate) struct ShardSnapshot {
    pub store: ShardStore,
    pub records: Vec<u8>,
    pub count: usize,
}

/// A committed checkpoint, loaded and validated, ready to seed workers.
pub(crate) struct LoadedCheckpoint {
    pub depth: u32,
    pub threads: usize,
    pub total_states: usize,
    pub transitions: usize,
    pub shards: Vec<ShardSnapshot>,
}

// ---------------------------------------------------------------------
// Little-endian byte codec (append-only writer, checked reader).

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Checked sequential reader over a checkpoint byte string. Every read
/// is bounds-checked so a truncated file surfaces as a structured error,
/// never a panic or a silent short read.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], what: &'a str) -> Reader<'a> {
        Reader { bytes, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            CheckpointError::new(format!(
                "{} is truncated (wanted {} bytes at offset {}, file has {})",
                self.what,
                n,
                self.pos,
                self.bytes.len()
            ))
        })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// A `u64` length field validated against what the file could
    /// possibly hold, so a corrupt count errors instead of attempting a
    /// multi-exabyte allocation.
    fn len(&mut self, elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if elem_bytes != 0 && n > remaining / elem_bytes.max(1) + 1 {
            return Err(CheckpointError::new(format!(
                "{} is corrupt: implausible element count {} at offset {}",
                self.what, n, self.pos
            )));
        }
        Ok(n)
    }
}

/// Splits `bytes` into (payload, trailing checksum) and verifies the
/// checksum — the first gate every checkpoint file passes before any
/// field is interpreted.
fn checked_payload<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8], CheckpointError> {
    if bytes.len() < 8 {
        return Err(CheckpointError::new(format!("{what} is truncated ({} bytes)", bytes.len())));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte slice"));
    let actual = fingerprint_bytes(payload);
    if stored != actual {
        return Err(CheckpointError::new(format!(
            "{what} is corrupt: checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// Writing.

fn ck_dir(dir: &Path, depth: u32) -> PathBuf {
    dir.join(format!("ck-{depth}"))
}

fn shard_path(dir: &Path, depth: u32, shard: usize) -> PathBuf {
    ck_dir(dir, depth).join(format!("shard-{shard}.bin"))
}

/// Serializes one shard (visited store + the frontier's current level) and
/// writes it under the (not-yet-committed) checkpoint directory for
/// `depth`. Each visited record carries its derived depth, frozen ones
/// read back through the spill tier, and so do spilled frontier pages.
pub(crate) fn write_shard(
    dir: &Path,
    depth: u32,
    shard: usize,
    store: &ShardStore,
    frontier: &Frontier,
    keeps_recs: bool,
) -> io::Result<()> {
    std::fs::create_dir_all(ck_dir(dir, depth))?;
    let n = store.len();
    let (records, records_len) = frontier.cur_size();

    let mut out = Vec::with_capacity(64 + n * 16 + records_len);
    put_u32(&mut out, SHARD_MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, shard as u32);
    put_u32(&mut out, depth);
    put_u64(&mut out, n as u64);
    for fp in store.map.by_lid() {
        put_u64(&mut out, fp);
    }
    out.push(keeps_recs as u8);
    if keeps_recs {
        for lid in 0..n {
            put_u32(&mut out, store.rec(lid).parent.raw());
            put_u32(&mut out, store.depth(lid));
        }
    }
    put_u64(&mut out, records as u64);
    put_u64(&mut out, records_len as u64);
    frontier.append_cur_to(&mut out)?;
    let sum = fingerprint_bytes(&out);
    put_u64(&mut out, sum);
    std::fs::write(shard_path(dir, depth, shard), &out)
}

/// Commits the checkpoint for `depth`: writes the manifest (last, via
/// tmp-file + rename, so a kill can only leave a complete manifest or
/// none) and prunes every other `ck-*` directory. Run by the last
/// arriver at the checkpoint rendezvous, after all shard files exist.
pub(crate) fn commit(
    dir: &Path,
    depth: u32,
    threads: usize,
    identity: (u64, u64),
    coord: &Coordinator,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(96 + threads * 16);
    put_u32(&mut out, MANIFEST_MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, depth);
    put_u32(&mut out, threads as u32);
    put_u64(&mut out, coord.total_states.load(Relaxed) as u64);
    put_u64(&mut out, coord.transitions.load(Relaxed) as u64);
    put_u64(&mut out, identity.0);
    put_u64(&mut out, identity.1);
    for t in 0..threads {
        // The shard's length and its own trailing checksum, lifted into the
        // manifest so resume can verify each file against an
        // independently-committed record of it.
        let f = std::fs::read(shard_path(dir, depth, t))?;
        let sum = f.len().checked_sub(8).ok_or_else(|| io::Error::other("short shard file"))?;
        put_u64(&mut out, f.len() as u64);
        out.extend_from_slice(&f[sum..]);
    }
    let sum = fingerprint_bytes(&out);
    put_u64(&mut out, sum);
    let tmp = ck_dir(dir, depth).join("manifest.tmp");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, ck_dir(dir, depth).join("manifest.bin"))?;
    // The new checkpoint is committed: older (and any orphaned) ones are
    // dead weight. Pruning is best-effort — a leftover directory without
    // a newer manifest is ignored by resume anyway.
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("ck-") && name != format!("ck-{depth}") {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Loading.

/// Depths of committed checkpoints (manifest present) under `dir`,
/// ascending.
fn committed_depths(dir: &Path) -> Result<Vec<u32>, CheckpointError> {
    let rd = std::fs::read_dir(dir).map_err(|e| {
        CheckpointError::new(format!("cannot read checkpoint dir {}: {e}", dir.display()))
    })?;
    let mut depths = Vec::new();
    for entry in rd.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(d) = name.strip_prefix("ck-").and_then(|d| d.parse::<u32>().ok()) {
            if entry.path().join("manifest.bin").is_file() {
                depths.push(d);
            }
        }
    }
    depths.sort_unstable();
    Ok(depths)
}

/// Loads and fully validates the newest committed checkpoint under
/// `cfg`'s checkpoint directory against the resuming system's `identity`
/// ([`crate::TransitionSystem::identity_fp`]) and `cfg`'s store mode.
/// Every validation failure is a hard error with a description of what
/// did not match — a questionable checkpoint is never silently skipped in
/// favour of an older one.
pub(crate) fn load_latest(
    cfg: &McConfig,
    identity: (u64, u64),
) -> Result<LoadedCheckpoint, CheckpointError> {
    let dir = cfg.checkpoint_dir.as_deref();
    let dir =
        dir.ok_or_else(|| CheckpointError::new("resume requires checkpoint_dir to be set"))?;
    let depths = committed_depths(dir)?;
    let &depth = depths.last().ok_or_else(|| {
        CheckpointError::new(format!("no committed checkpoint found in {}", dir.display()))
    })?;

    let mpath = ck_dir(dir, depth).join("manifest.bin");
    let mbytes = std::fs::read(&mpath)
        .map_err(|e| CheckpointError::new(format!("cannot read {}: {e}", mpath.display())))?;
    let payload = checked_payload(&mbytes, "manifest")?;
    let mut r = Reader::new(payload, "manifest");
    if r.u32()? != MANIFEST_MAGIC {
        return Err(CheckpointError::new("manifest has wrong magic (not a checkpoint manifest)"));
    }
    let version = r.u32()?;
    if !(1..=VERSION).contains(&version) {
        return Err(CheckpointError::new(format!(
            "manifest version {version} unsupported (this build reads versions 1 to {VERSION})"
        )));
    }
    let mdepth = r.u32()?;
    if mdepth != depth {
        return Err(CheckpointError::new(format!(
            "manifest depth {mdepth} does not match its directory ck-{depth}"
        )));
    }
    let threads = r.u32()? as usize;
    if threads == 0 || threads > MAX_SHARDS {
        return Err(CheckpointError::new(format!("manifest thread count {threads} out of range")));
    }
    let total_states = r.u64()? as usize;
    let transitions = r.u64()? as usize;
    let want_cfg = r.u64()?;
    if want_cfg != identity.0 {
        return Err(CheckpointError::new(
            "checkpoint was written under a different checker configuration (flat vs \
             composed, cache count or topology, value domain, channel cap, ordering, \
             symmetry, store mode, and property set must all match)",
        ));
    }
    let want_fsm = r.u64()?;
    if want_fsm != identity.1 {
        return Err(CheckpointError::new(
            "checkpoint was written for different generated FSMs (protocol, generation \
             config, or derived glue mismatch)",
        ));
    }
    let mut shard_meta = Vec::with_capacity(threads);
    for _ in 0..threads {
        shard_meta.push((r.u64()?, r.u64()?));
    }

    let mut shards = Vec::with_capacity(threads);
    for (t, &(want_len, want_sum)) in shard_meta.iter().enumerate() {
        let keeps_recs = cfg.store.keeps_recs();
        shards.push(load_shard(dir, depth, t, threads, want_len, want_sum, keeps_recs)?);
    }
    // The manifest's count drives `max_states` after the resume: it must
    // be the states the shards actually hold.
    let held: usize = shards.iter().map(|s| s.store.len()).sum();
    if held != total_states {
        return Err(CheckpointError::new(format!(
            "manifest is corrupt: it records {total_states} states but its shards hold {held}"
        )));
    }
    Ok(LoadedCheckpoint { depth, threads, total_states, transitions, shards })
}

/// Loads shard `shard` of a `threads`-shard checkpoint.
fn load_shard(
    dir: &Path,
    depth: u32,
    shard: usize,
    threads: usize,
    want_len: u64,
    want_sum: u64,
    keeps_recs: bool,
) -> Result<ShardSnapshot, CheckpointError> {
    let path = shard_path(dir, depth, shard);
    let what = format!("shard file {}", path.display());
    let bytes = std::fs::read(&path)
        .map_err(|e| CheckpointError::new(format!("cannot read {}: {e}", path.display())))?;
    if bytes.len() as u64 != want_len {
        return Err(CheckpointError::new(format!(
            "{what} is truncated or altered: {} bytes on disk, manifest recorded {want_len}",
            bytes.len()
        )));
    }
    let payload = checked_payload(&bytes, &what)?;
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte slice"));
    if stored != want_sum {
        return Err(CheckpointError::new(format!(
            "{what} does not match the manifest (checksum {stored:#018x}, manifest {want_sum:#018x})"
        )));
    }
    let mut r = Reader::new(payload, &what);
    if r.u32()? != SHARD_MAGIC {
        return Err(CheckpointError::new(format!("{what} has wrong magic")));
    }
    let version = r.u32()?;
    if !(1..=VERSION).contains(&version) {
        return Err(CheckpointError::new(format!("{what} has unsupported version {version}")));
    }
    let v1 = version == 1;
    let fshard = r.u32()? as usize;
    let fdepth = r.u32()?;
    if fshard != shard || fdepth != depth {
        return Err(CheckpointError::new(format!(
            "{what} labels itself shard {fshard} depth {fdepth}, expected shard {shard} \
             depth {depth}"
        )));
    }
    let n = r.len(8)?;
    let mut store = ShardStore::new();
    for lid in 0..n {
        // A repeated fingerprint would leave the shard one state short of
        // its records and shift every later id; one owned by another
        // shard would never be found by dedup and be explored again.
        let fp = r.u64()?;
        if let Some(first) = store.map.get(fp) {
            return Err(CheckpointError::new(format!(
                "{what} is corrupt: state {lid} repeats the fingerprint {fp:#018x} of state {first}"
            )));
        }
        let owner = fp % threads as u64;
        if owner != shard as u64 {
            return Err(CheckpointError::new(format!(
                "{what} is corrupt: state {lid}'s fingerprint {fp:#018x} belongs to shard {owner}"
            )));
        }
        store.map.push(fp);
    }
    let file_keeps = r.u8()? != 0;
    if file_keeps != keeps_recs {
        return Err(CheckpointError::new(format!(
            "{what} was written {} parent records but the configured store mode {} them",
            if file_keeps { "with" } else { "without" },
            if keeps_recs { "requires" } else { "omits" },
        )));
    }
    if file_keeps {
        for lid in 0..n {
            if v1 {
                r.u64()?; // the parent's fingerprint
            }
            let parent = Gid::from_raw(r.u32()?);
            if v1 {
                r.u32()?; // the step
            }
            let rdepth = r.u32()?;
            // Records were appended level by level, so their depths rebuild
            // the store's level starts; any other order is corruption.
            if rdepth > depth {
                return Err(CheckpointError::new(format!(
                    "{what} is corrupt: record {lid} has depth {rdepth}, past the checkpoint's \
                     {depth}"
                )));
            }
            if let Err(open) = store.push_rec_at(StateRec { parent }, rdepth) {
                return Err(CheckpointError::new(format!(
                    "{what} is corrupt: record {lid} has depth {rdepth} after a record of depth \
                     {open}"
                )));
            }
        }
    }
    store.open_levels_through(depth);
    let (records, count) = if version == VERSION {
        let count = r.len(5)?;
        let len = r.len(1)?;
        (r.take(len)?.to_vec(), count)
    } else {
        convert_index(&mut r, v1, &store, &what)?
    };
    check_records(&records, count, n, &what)?;
    Ok(ShardSnapshot { store, records, count })
}

/// Reads a version-1 or -2 frontier — an index of `(global offset, length,
/// id, delta flag)` entries, plus each entry's fingerprint in version 1,
/// then the arena the offsets point into — and converts it to the record
/// stream version 3 writes. Returns the stream and its record count.
fn convert_index(
    r: &mut Reader<'_>,
    v1: bool,
    store: &ShardStore,
    what: &str,
) -> Result<(Vec<u8>, usize), CheckpointError> {
    let n_entries = r.len(if v1 { 25 } else { 17 })?;
    let mut entries = Vec::with_capacity(n_entries);
    for i in 0..n_entries {
        let (off, len, lid, delta) = (r.u64()?, r.u32()?, r.u32()?, r.u8()? != 0);
        if v1 {
            let fp = r.u64()?;
            if (lid as usize) < store.len() && store.map.fp(lid) != fp {
                return Err(CheckpointError::new(format!(
                    "{what} is corrupt: frontier entry {i} carries fingerprint {fp:#018x}, but \
                     state {lid}'s is {:#018x}",
                    store.map.fp(lid)
                )));
            }
        }
        entries.push((off, len as usize, lid, delta));
    }
    let arena_len = r.len(1)?;
    let arena = r.take(arena_len)?;
    // Entry offsets must tile the arena: cheap, and it turns "checksum
    // passed but the writer had a bug" into an error instead of a wrong
    // resume.
    let mut records = Vec::with_capacity(arena.len() + 8 * entries.len());
    let mut expect_off = 0usize;
    for &(off, len, lid, delta) in &entries {
        let body = arena.get(expect_off..expect_off.saturating_add(len));
        let Some(body) = body.filter(|_| off == expect_off as u64) else {
            return Err(CheckpointError::new(format!(
                "{what} frontier index is inconsistent (entry at offset {off}, expected \
                 {expect_off}, {len} bytes of an arena of {})",
                arena.len()
            )));
        };
        put_record(&mut records, lid, delta, body);
        expect_off += len;
    }
    if expect_off != arena.len() {
        return Err(CheckpointError::new(format!(
            "{what} frontier arena is {} bytes but the index spans {expect_off}",
            arena.len()
        )));
    }
    Ok((records, entries.len()))
}

/// Checks a frontier record stream before a worker reads it: `count` whole
/// records, each naming one of the shard's `n` states, the first a full
/// encoding (a delta needs a previous record).
fn check_records(
    records: &[u8],
    count: usize,
    n: usize,
    what: &str,
) -> Result<(), CheckpointError> {
    let corrupt = |m: String| CheckpointError::new(format!("{what} is corrupt: {m}"));
    let (mut at, mut seen) = (0usize, 0usize);
    while at < records.len() {
        let (rec, len) = Record::parse(&records[at..])
            .ok_or_else(|| corrupt(format!("frontier record {seen} is cut short")))?;
        if rec.lid as usize >= n {
            return Err(corrupt(format!("frontier record {seen} names state {} of {n}", rec.lid)));
        }
        if seen == 0 && rec.delta {
            return Err(corrupt("frontier record 0 is a delta with no base".into()));
        }
        at += len;
        seen += 1;
    }
    if seen != count {
        return Err(corrupt(format!("the frontier holds {seen} records, its header says {count}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{McConfig, ModelChecker};
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "protogen-ck-test-{}-{tag}-{:x}",
            std::process::id(),
            fingerprint_bytes(tag.as_bytes())
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(i: u64) -> StateRec {
        StateRec { parent: Gid::from_raw(i as u32 & 0x0FFF_FFFF) }
    }

    /// The depth `build` files record `lid` under.
    fn depth_of(lid: usize) -> u32 {
        (lid / 7) as u32
    }

    /// A checkpoint depth no `build` record exceeds (at most 200 states).
    const TOP: u32 = 30;

    /// Builds a (store, frontier) pair from proptest-chosen shapes, and the
    /// frontier's record stream.
    fn build(fps: &[u64], entry_lens: &[u32], keeps_recs: bool) -> (ShardStore, Frontier, Vec<u8>) {
        let mut store = ShardStore::new();
        for (lid, &fp) in fps.iter().enumerate() {
            store.map.push(fp);
            if keeps_recs {
                store.push_rec_at(rec(lid as u64), depth_of(lid)).unwrap();
            }
        }
        let mut records = Vec::new();
        for (i, &len) in entry_lens.iter().enumerate() {
            let body: Vec<u8> =
                (0..len).map(|k| (k as u8).wrapping_mul(31).wrapping_add(i as u8)).collect();
            let lid = (i % fps.len().max(1)) as u32;
            put_record(&mut records, lid, i % 3 == 0 && i > 0, &body);
        }
        let mut frontier = Frontier::default();
        frontier.restore(records.clone(), entry_lens.len());
        (store, frontier, records)
    }

    /// Round-trip one shard through write_shard + load_shard directly
    /// (the manifest path is exercised by the explorer integration
    /// tests).
    fn roundtrip(fps: Vec<u64>, entry_lens: Vec<u32>, keeps_recs: bool) {
        // Deduplicate fingerprints: the map inverts them by lid.
        let mut fps = fps;
        fps.sort_unstable();
        fps.dedup();
        if fps.is_empty() {
            fps.push(7);
        }
        let (store, cur, records) = build(&fps, &entry_lens, keeps_recs);
        let dir = tmpdir("roundtrip");
        write_shard(&dir, TOP, 0, &store, &cur, keeps_recs).unwrap();
        let path = shard_path(&dir, TOP, 0);
        let bytes = std::fs::read(&path).unwrap();
        let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let snap = load_shard(&dir, TOP, 0, 1, bytes.len() as u64, sum, keeps_recs).unwrap();
        assert_eq!(snap.store.map.by_lid().collect::<Vec<_>>(), fps);
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
        assert_eq!((&snap.records, snap.count), (&records, entry_lens.len()));
        if keeps_recs {
            assert_eq!(snap.store.rec_count(), store.len());
            for lid in 0..store.len() {
                let (r, w) = (snap.store.rec(lid), rec(lid as u64));
                assert_eq!(
                    (r.parent.raw(), snap.store.depth(lid)),
                    (w.parent.raw(), depth_of(lid))
                );
            }
        } else {
            assert_eq!(snap.store.rec_count(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The version-3 snapshot codec is an exact round-trip for arbitrary
        /// store and frontier shapes (records of up to 66,990 bytes, so some
        /// get pages of their own), with and without parent records
        /// (mirroring the delta codec's `delta_prop.rs` discipline).
        #[test]
        fn shard_snapshot_round_trips(
            fps in proptest::collection::vec(any::<u64>(), 1..200),
            lens in proptest::collection::vec(
                (0u32..300, 0u8..8)
                    .prop_map(|(len, pick)| if pick == 0 { 64_000 + 10 * len } else { len }),
                0..60,
            ),
            keeps in any::<bool>(),
        ) {
            roundtrip(fps, lens, keeps);
        }

        /// Any single corrupted byte in a shard file is detected — the
        /// checksum gate runs before any field is interpreted.
        #[test]
        fn corrupted_shard_fails_with_a_clear_error(
            at_pct in 0u16..1000,
            flip in 1u16..256,
        ) {
            let flip = flip as u8;
            let fps = vec![11, 22, 33, 44];
            let (store, cur, _) = build(&fps, &[5, 9, 0, 17], true);
            let dir = tmpdir("corrupt");
            write_shard(&dir, 1, 0, &store, &cur, true).unwrap();
            let path = shard_path(&dir, 1, 0);
            let mut bytes = std::fs::read(&path).unwrap();
            let at = (at_pct as usize * (bytes.len() - 1)) / 1000;
            bytes[at] ^= flip;
            std::fs::write(&path, &bytes).unwrap();
            let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
            // Whether the flip landed in the payload or the trailing
            // checksum itself, load must fail; use the *original* sum as
            // the manifest record so a tail flip is caught either way.
            let err = load_shard(&dir, 1, 0, 1, bytes.len() as u64, sum, true)
                .err()
                .expect("corrupt shard must not load");
            let msg = err.to_string();
            prop_assert!(
                msg.contains("corrupt") || msg.contains("truncated") || msg.contains("manifest"),
                "unhelpful error: {msg}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn truncated_shard_fails_with_a_clear_error() {
        let fps = vec![5, 6, 7];
        let (store, cur, _) = build(&fps, &[4, 4], true);
        let dir = tmpdir("trunc");
        write_shard(&dir, 2, 0, &store, &cur, true).unwrap();
        let path = shard_path(&dir, 2, 0);
        let full = std::fs::read(&path).unwrap();
        for keep in [0, 3, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let err = load_shard(&dir, 2, 0, 1, keep as u64, 0, true)
                .err()
                .expect("truncated shard must not load");
            assert!(
                err.to_string().contains("truncated") || err.to_string().contains("corrupt"),
                "unhelpful error at {keep}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_record_depths_are_refused_not_a_panic() {
        // Four records of depth 0 written at depth 1; rewrite record depths
        // (after magic, version, shard, depth, count, 4 fingerprints and
        // the keeps flag, 8 bytes a record, depth last) and re-seal the
        // checksum, so only the loader's order check can catch them.
        let (store, cur, _) = build(&[11, 22, 33, 44], &[3], true);
        let dir = tmpdir("depths");
        write_shard(&dir, 1, 0, &store, &cur, true).unwrap();
        let path = shard_path(&dir, 1, 0);
        let good = std::fs::read(&path).unwrap();
        let depth_at = |i: usize| 24 + 4 * 8 + 1 + 8 * i + 4;
        for (depths, want) in [
            ([0, 1, 1, 0], "record 3 has depth 0 after a record of depth 1"),
            ([0, 0, 1, 2], "record 3 has depth 2, past the checkpoint's 1"),
        ] {
            let mut bytes = good.clone();
            for (i, d) in depths.into_iter().enumerate() {
                bytes[depth_at(i)..depth_at(i) + 4].copy_from_slice(&(d as u32).to_le_bytes());
            }
            let body = bytes.len() - 8;
            let sum = fingerprint_bytes(&bytes[..body]);
            bytes[body..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = load_shard(&dir, 1, 0, 1, bytes.len() as u64, sum, true)
                .err()
                .expect("out-of-order depths must not load");
            assert!(err.to_string().contains(want), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A version-2 shard — an index of entries and the arena it points into
    /// — loads as the record stream version 3 writes, and an index that
    /// does not tile its arena is refused.
    #[test]
    fn version_2_shards_convert_to_records() {
        let fps = [3u64, 5, 9];
        let bodies: [&[u8]; 4] = [b"abcdef", b"", b"xy", b"0123456789"];
        let v2 = |offs: [u64; 4]| {
            let mut out = Vec::new();
            for v in [SHARD_MAGIC, 2, 0, 1] {
                put_u32(&mut out, v);
            }
            put_u64(&mut out, fps.len() as u64);
            for fp in fps {
                put_u64(&mut out, fp);
            }
            out.push(1);
            for lid in 0..fps.len() as u32 {
                put_u32(&mut out, Gid::pack(0, lid as usize).raw());
                put_u32(&mut out, lid.min(1));
            }
            put_u64(&mut out, bodies.len() as u64);
            for (i, body) in bodies.iter().enumerate() {
                put_u64(&mut out, offs[i]);
                put_u32(&mut out, body.len() as u32);
                put_u32(&mut out, i as u32 % 3);
                out.push(u8::from(i == 2));
            }
            put_u64(&mut out, bodies.iter().map(|b| b.len() as u64).sum());
            for body in bodies {
                out.extend_from_slice(body);
            }
            let sum = fingerprint_bytes(&out);
            put_u64(&mut out, sum);
            out
        };
        let dir = tmpdir("v2");
        std::fs::create_dir_all(ck_dir(&dir, 1)).unwrap();
        let load = |bytes: &[u8]| {
            std::fs::write(shard_path(&dir, 1, 0), bytes).unwrap();
            let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
            load_shard(&dir, 1, 0, 1, bytes.len() as u64, sum, true)
        };
        let snap = load(&v2([0, 6, 6, 8])).unwrap();
        let mut want = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            put_record(&mut want, i as u32 % 3, i == 2, body);
        }
        assert_eq!((&snap.records, snap.count), (&want, bodies.len()));
        assert_eq!(snap.store.len(), 3);
        let err = load(&v2([0, 6, 7, 8])).err().expect("a gap in the arena must not load");
        assert!(err.to_string().contains("frontier index is inconsistent"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A version-1 shard file (the committed MSI @3 fixture) loads with its
    /// records' parent fingerprints and steps dropped, and an entry whose
    /// fingerprint is not its state's in the column is refused.
    #[test]
    fn version_1_shards_load_and_their_entry_fingerprints_are_checked() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ck-msi3-parent");
        let good = std::fs::read(shard_path(&fixture, 1, 0)).unwrap();
        assert_eq!(u32::from_le_bytes(good[4..8].try_into().unwrap()), 1, "a version-1 file");
        let dir = tmpdir("v1");
        std::fs::create_dir_all(ck_dir(&dir, 1)).unwrap();
        let load = |bytes: &[u8]| {
            std::fs::write(shard_path(&dir, 1, 0), bytes).unwrap();
            let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
            load_shard(&dir, 1, 0, 2, bytes.len() as u64, sum, true)
        };
        let snap = load(&good).unwrap();
        let n = snap.store.len();
        assert!(n > 0 && !snap.records.is_empty() && snap.store.rec_count() == n);
        // Entry 0's fingerprint: past the header, the column, the flag, the
        // 20-byte records and the entry count, 17 bytes into the entry.
        let at = 24 + 8 * n + 1 + 20 * n + 8 + 17;
        let mut bad = good.clone();
        bad[at] ^= 1;
        let body = bad.len() - 8;
        let sum = fingerprint_bytes(&bad[..body]);
        bad[body..].copy_from_slice(&sum.to_le_bytes());
        let err = load(&bad).err().expect("a wrong entry fingerprint must not load");
        assert!(err.to_string().contains("frontier entry 0 carries fingerprint"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_and_empty_dir_error_clearly() {
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let mut cfg = McConfig::with_caches(2);
        cfg.checkpoint_dir = Some(PathBuf::from("/nonexistent/protogen-ck"));
        let mc = ModelChecker::new(&g.cache, &g.directory, cfg.clone());
        let err = mc.resume().expect_err("missing dir must error");
        assert!(err.to_string().contains("cannot read checkpoint dir"), "{err}");

        let empty = tmpdir("empty");
        cfg.checkpoint_dir = Some(empty.clone());
        let mc = ModelChecker::new(&g.cache, &g.directory, cfg);
        let err = mc.resume().expect_err("empty dir must error");
        assert!(err.to_string().contains("no committed checkpoint"), "{err}");
        let _ = std::fs::remove_dir_all(&empty);
    }
}
