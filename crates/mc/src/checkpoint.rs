//! Epoch-boundary checkpoint/resume for long verifications.
//!
//! A checkpoint captures the explorer's complete logical state at the one
//! point in an epoch where it is both minimal and final: the top of the
//! epoch, immediately after the frontier swap. There, every visited
//! record is frozen (same-level parent races only ever touch records of
//! the epoch that just closed), the next-frontier arena is empty, all
//! batch queues are drained, and the current frontier is read-only for
//! the rest of the run — so a shard's state is exactly its fingerprint
//! map, its records (each written with its derived depth), and one
//! encoding arena. Those are written verbatim (delta-compressed arenas
//! stay delta-compressed — the §9 codec is reused as the on-disk format),
//! each shard to its own checksummed file, with a versioned manifest
//! committed last via rename. A process killed at any instant — including
//! `kill -9` mid-write — therefore leaves either a complete committed
//! checkpoint or none: shard files without a manifest are invisible to
//! resume.
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

use crate::explore::{FrontEntry, FrontierBuf};
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
/// Bump on any layout change: resume refuses other versions outright
/// rather than misreading them.
const VERSION: u32 = 1;

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
/// exactly as a fresh one would), and the frontier index + arena for the
/// epoch about to run.
pub(crate) struct ShardSnapshot {
    pub store: ShardStore,
    pub entries: Vec<FrontEntry>,
    pub arena: Vec<u8>,
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

/// Serializes one shard (visited store + current frontier) and writes it
/// under the (not-yet-committed) checkpoint directory for `depth`. Each
/// record carries its derived depth, frozen ones read back through the
/// spill tier.
pub(crate) fn write_shard(
    dir: &Path,
    depth: u32,
    shard: usize,
    store: &ShardStore,
    cur: &FrontierBuf,
    keeps_recs: bool,
) -> io::Result<()> {
    std::fs::create_dir_all(ck_dir(dir, depth))?;
    let n = store.len();
    let arena_len = cur.global_len();

    let mut out = Vec::with_capacity(64 + n * 28 + cur.index.len() * 25 + arena_len);
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
            let r = store.rec(lid);
            put_u64(&mut out, r.parent_fp);
            put_u32(&mut out, r.parent.raw());
            put_u32(&mut out, r.step);
            put_u32(&mut out, store.depth(lid));
        }
    }
    put_u64(&mut out, cur.index.len() as u64);
    for e in &cur.index {
        put_u64(&mut out, e.off as u64);
        put_u32(&mut out, e.len);
        put_u32(&mut out, e.lid);
        out.push(e.delta as u8);
        put_u64(&mut out, e.fp);
    }
    put_u64(&mut out, arena_len as u64);
    cur.append_global_to(&mut out)?;
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
    if version != VERSION {
        return Err(CheckpointError::new(format!(
            "manifest version {version} unsupported (this build reads version {VERSION})"
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
    if version != VERSION {
        return Err(CheckpointError::new(format!("{what} has unsupported version {version}")));
    }
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
            let parent_fp = r.u64()?;
            let parent = Gid::from_raw(r.u32()?);
            let step = r.u32()?;
            let rdepth = r.u32()?;
            // Records were appended level by level, so their depths rebuild
            // the store's level starts; any other order is corruption.
            if rdepth > depth {
                return Err(CheckpointError::new(format!(
                    "{what} is corrupt: record {lid} has depth {rdepth}, past the checkpoint's \
                     {depth}"
                )));
            }
            if let Err(open) = store.push_rec_at(StateRec { parent_fp, parent, step }, rdepth) {
                return Err(CheckpointError::new(format!(
                    "{what} is corrupt: record {lid} has depth {rdepth} after a record of depth \
                     {open}"
                )));
            }
        }
    }
    store.open_levels_through(depth);
    let n_entries = r.len(25)?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let off = r.u64()? as usize;
        let len = r.u32()?;
        let lid = r.u32()?;
        let delta = r.u8()? != 0;
        let fp = r.u64()?;
        entries.push(FrontEntry { off, len, lid, delta, fp });
    }
    let arena_len = r.len(1)?;
    let arena = r.take(arena_len)?.to_vec();
    // Structural cross-checks: entry offsets must tile the arena, lids
    // must be in range. Cheap, and they turn "checksum passed but the
    // writer had a bug" into an error instead of a wrong resume.
    let mut expect_off = 0usize;
    for e in &entries {
        if e.off != expect_off || e.lid as usize >= n {
            return Err(CheckpointError::new(format!(
                "{what} frontier index is inconsistent (entry at offset {}, expected {}, \
                 lid {} of {} states)",
                e.off, expect_off, e.lid, n
            )));
        }
        expect_off += e.len as usize;
    }
    if expect_off != arena.len() {
        return Err(CheckpointError::new(format!(
            "{what} frontier arena is {} bytes but the index spans {expect_off}",
            arena.len()
        )));
    }
    Ok(ShardSnapshot { store, entries, arena })
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
        StateRec {
            parent_fp: i.wrapping_mul(0x9E37_79B9),
            parent: Gid::from_raw(i as u32 & 0x0FFF_FFFF),
            step: i as u32,
        }
    }

    /// The depth `build` files record `lid` under.
    fn depth_of(lid: usize) -> u32 {
        (lid / 7) as u32
    }

    /// A checkpoint depth no `build` record exceeds (at most 200 states).
    const TOP: u32 = 30;

    /// Builds a (store, frontier) pair from proptest-chosen shapes.
    fn build(
        fps: &[u64],
        entry_lens: &[u16],
        keeps_recs: bool,
    ) -> (ShardStore, FrontierBuf, Vec<u8>) {
        let mut store = ShardStore::new();
        for (lid, &fp) in fps.iter().enumerate() {
            store.map.push(fp);
            if keeps_recs {
                store.push_rec_at(rec(lid as u64), depth_of(lid)).unwrap();
            }
        }
        let mut cur = FrontierBuf::default();
        let mut arena = Vec::new();
        let mut off = 0usize;
        for (i, &len) in entry_lens.iter().enumerate() {
            let len = len as usize;
            let lid = (i % fps.len().max(1)) as u32;
            for k in 0..len {
                arena.push((k as u8).wrapping_mul(31).wrapping_add(i as u8));
            }
            cur.index.push(FrontEntry {
                off,
                len: len as u32,
                lid,
                delta: i % 3 == 0 && i > 0,
                fp: fps.get(lid as usize).copied().unwrap_or(0),
            });
            off += len;
        }
        cur.bytes = arena.clone();
        (store, cur, arena)
    }

    /// Round-trip one shard through write_shard + load_shard directly
    /// (the manifest path is exercised by the explorer integration
    /// tests).
    fn roundtrip(fps: Vec<u64>, entry_lens: Vec<u16>, keeps_recs: bool) {
        // Deduplicate fingerprints: the map inverts them by lid.
        let mut fps = fps;
        fps.sort_unstable();
        fps.dedup();
        if fps.is_empty() {
            fps.push(7);
        }
        let (store, cur, arena) = build(&fps, &entry_lens, keeps_recs);
        let dir = tmpdir("roundtrip");
        write_shard(&dir, TOP, 0, &store, &cur, keeps_recs).unwrap();
        let path = shard_path(&dir, TOP, 0);
        let bytes = std::fs::read(&path).unwrap();
        let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let snap = load_shard(&dir, TOP, 0, 1, bytes.len() as u64, sum, keeps_recs).unwrap();
        assert_eq!(snap.store.map.by_lid().collect::<Vec<_>>(), fps);
        assert_eq!(snap.arena, arena);
        assert_eq!(snap.entries.len(), cur.index.len());
        for (a, b) in snap.entries.iter().zip(cur.index.iter()) {
            assert_eq!((a.off, a.len, a.lid, a.delta, a.fp), (b.off, b.len, b.lid, b.delta, b.fp));
        }
        if keeps_recs {
            assert_eq!(snap.store.rec_count(), store.len());
            for lid in 0..store.len() {
                let (r, w) = (snap.store.rec(lid), rec(lid as u64));
                assert_eq!(
                    (r.parent_fp, r.parent.raw(), r.step, snap.store.depth(lid)),
                    (w.parent_fp, w.parent.raw(), w.step, depth_of(lid))
                );
            }
        } else {
            assert_eq!(snap.store.rec_count(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The snapshot codec is an exact round-trip for arbitrary store
        /// and frontier shapes, with and without parent records
        /// (mirroring the delta codec's `delta_prop.rs` discipline).
        #[test]
        fn shard_snapshot_round_trips(
            fps in proptest::collection::vec(any::<u64>(), 1..200),
            lens in proptest::collection::vec(0u16..300, 0..60),
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
        // the keeps flag, 20 bytes a record, depth last) and re-seal the
        // checksum, so only the loader's order check can catch them.
        let (store, cur, _) = build(&[11, 22, 33, 44], &[3], true);
        let dir = tmpdir("depths");
        write_shard(&dir, 1, 0, &store, &cur, true).unwrap();
        let path = shard_path(&dir, 1, 0);
        let good = std::fs::read(&path).unwrap();
        let depth_at = |i: usize| 24 + 4 * 8 + 1 + 20 * i + 16;
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
