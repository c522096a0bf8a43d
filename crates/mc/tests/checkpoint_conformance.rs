//! Resume determinism: a verification stopped mid-run and resumed from
//! its newest committed checkpoint must report byte-identical states,
//! transitions, violation, and counterexample trace to an uninterrupted
//! run. A `kill -9` and an in-process stop are indistinguishable to
//! resume — both leave only the on-disk checkpoint — so these tests pin
//! the contract the CI `resume` job exercises with a real SIGKILL.

use protogen_core::{compose, generate, Composed, GenConfig};
use protogen_mc::{
    HierChecker, HierConfig, McConfig, ModelChecker, PropertySet, ResourceLimit, StoreMode,
};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "protogen-ck-it-{}-{tag}-{:x}",
        std::process::id(),
        protogen_mc::fingerprint_bytes(tag.as_bytes())
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Runs to the `max_states` budget with checkpointing on (leaving
/// committed checkpoints behind, exactly like a killed process), then
/// resumes without the budget and compares against an uninterrupted run.
fn assert_resume_matches(tag: &str, cfg_base: McConfig, interrupt_at: usize) {
    let ssp = protogen_protocols::msi();
    let g = generate(&ssp, &GenConfig::stalling()).unwrap();

    let full = ModelChecker::new(&g.cache, &g.directory, cfg_base.clone()).run();
    assert!(full.passed(), "baseline must pass: {:?}", full.violation);

    let dir = tmpdir(tag);
    let mut cfg = cfg_base.clone();
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 1;
    // Checkpointing alone — no interruption — never changes the exploration.
    let checked = ModelChecker::new(&g.cache, &g.directory, cfg.clone()).run();
    assert_eq!((checked.states, checked.transitions), (full.states, full.transitions));
    cfg.max_states = interrupt_at;
    let partial = ModelChecker::new(&g.cache, &g.directory, cfg.clone()).run();
    assert_eq!(partial.limit, Some(ResourceLimit::StateBudget), "interruption must trigger");
    assert!(partial.states < full.states, "interruption must be mid-run");

    // Resume with the budget lifted — and a *different* configured thread
    // count, which resume must override from the manifest.
    cfg.max_states = cfg_base.max_states;
    cfg.threads = cfg_base.threads % 2 + 1;
    let resumed = ModelChecker::new(&g.cache, &g.directory, cfg).resume().unwrap();
    assert_eq!(resumed.states, full.states, "states must match uninterrupted run");
    assert_eq!(resumed.transitions, full.transitions, "transitions must match");
    assert!(resumed.passed());
    let threads = protogen_core::par::threads(cfg_base.threads, protogen_mc::MAX_SHARDS);
    assert_eq!(resumed.threads, threads, "threads come from the manifest");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_run_matches_uninterrupted_counts() {
    let cfg = McConfig::with_caches_and_threads(2, 2);
    assert_resume_matches("basic", cfg, 200);
}

#[test]
fn resume_matches_across_store_modes() {
    for (mode, tag) in
        [(StoreMode::Full, "full"), (StoreMode::Delta, "delta"), (StoreMode::FpOnly, "fp")]
    {
        let mut cfg = McConfig::with_caches_and_threads(2, 2);
        cfg.store = mode;
        assert_resume_matches(tag, cfg, 300);
    }
}

#[test]
fn resume_matches_with_spill_tier_active() {
    if !cfg!(unix) {
        // Spilling needs positioned file reads (mirrors the checker's own
        // SPILL_SUPPORTED gate); elsewhere the budget is ignored.
        return;
    }
    // A 1-byte budget forces both frontier-chunk and frozen-record
    // spilling, so the checkpoint writer must read arenas and records
    // back through the spill tier.
    let mut cfg = McConfig::with_caches_and_threads(2, 2);
    cfg.mem_budget_bytes = 1;
    cfg.spill_chunk_bytes = 1;
    assert_resume_matches("spill", cfg, 250);
}

#[test]
fn resumed_violation_trace_is_byte_identical() {
    // TSO-CC under the SC property set fails (the fuzz campaign's
    // calibration control): the resumed run must find the *same*
    // violation with the *same* counterexample trace.
    let ssp = protogen_protocols::tso_cc();
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    let mut cfg = McConfig::with_caches_and_threads(2, 2);
    cfg.properties = PropertySet::sc();

    let full = ModelChecker::new(&g.cache, &g.directory, cfg.clone()).run();
    let want = full.violation.as_ref().expect("tso-cc must violate SC");

    let dir = tmpdir("vio");
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 1;
    cfg.max_states = 40;
    let partial = ModelChecker::new(&g.cache, &g.directory, cfg.clone()).run();
    assert!(
        partial.violation.is_none() && partial.limit == Some(ResourceLimit::StateBudget),
        "interruption must land before the violation (partial: {:?})",
        partial.violation
    );

    cfg.max_states = McConfig::default().max_states;
    let resumed = ModelChecker::new(&g.cache, &g.directory, cfg).resume().unwrap();
    let got = resumed.violation.as_ref().expect("resumed run must refind the violation");
    assert_eq!(format!("{:?}", got.kind), format!("{:?}", want.kind));
    assert_eq!(format!("{:?}", got.trace), format!("{:?}", want.trace), "trace must be identical");
    assert_eq!(resumed.states, full.states);
    assert_eq!(resumed.transitions, full.transitions);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scratch copy of the one-epoch, two-shard checkpoint tree
/// `tests/fixtures/<name>`.
fn fixture_copy(name: &str) -> PathBuf {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let dir = tmpdir(name);
    std::fs::create_dir_all(dir.join("ck-1")).unwrap();
    for file in ["manifest.bin", "shard-0.bin", "shard-1.bin"] {
        std::fs::copy(fixture.join("ck-1").join(file), dir.join("ck-1").join(file)).unwrap();
    }
    dir
}

/// A checkpoint written by the commit before ISSUE 15's hot-path rework
/// (MSI stalling @ 3 caches, 2 threads, stopped after one epoch; the
/// `fixtures/ck-msi3-parent` tree) resumes under this one to the counts
/// of an uninterrupted run: the encoding layout, the fingerprint, the
/// sharding rule and the identity fingerprint it was written under are
/// all still what this build computes. If the generator or the identity
/// string changes on purpose, resume reports "different checker
/// configuration" here; re-record the fixture then (`checkpoint_every =
/// 1`, `max_states = 4`, keep `ck-1`).
#[test]
fn a_checkpoint_from_before_the_hot_path_rework_resumes() {
    let ssp = protogen_protocols::msi();
    let g = generate(&ssp, &GenConfig::stalling()).unwrap();
    let dir = fixture_copy("ck-msi3-parent");
    let mut cfg = McConfig::with_caches_and_threads(3, 1);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = u32::MAX;
    let resumed = ModelChecker::new(&g.cache, &g.directory, cfg).resume().unwrap();
    assert!(resumed.passed(), "{:?}", resumed.violation);
    assert_eq!((resumed.states, resumed.transitions), (18_326, 65_420));
    assert_eq!(resumed.threads, 2, "threads come from the manifest");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A composed checkpoint written by the commit before ISSUE 17 changed
/// the composed representative rule (`msi_under_msi(1, 2)` stalling, 2
/// threads, stopped after one epoch; that commit resumes it to 3,120 /
/// 9,018): its stored states are byte-minimal representatives, which this
/// build would take for new states beside its own. The `canon=` tag in the
/// identity fingerprint makes it a configuration mismatch — an error,
/// never counts.
#[test]
fn a_composed_checkpoint_from_the_byte_minimal_rule_is_refused() {
    let comp = protogen_protocols::msi_under_msi(1, 2);
    let dir = fixture_copy("ck-hier12-parent");
    let cfg = HierConfig {
        threads: 2,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: u32::MAX,
        ..HierConfig::default()
    };
    let hc = HierChecker::new(&compose(&comp, &GenConfig::stalling()).unwrap(), cfg);
    let err = hc.resume().map(|r| (r.states, r.transitions));
    let err = err.expect_err("a checkpoint under another representative rule resumed");
    assert!(err.to_string().contains("different checker configuration"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_mismatched_configuration() {
    let ssp = protogen_protocols::msi();
    let g = generate(&ssp, &GenConfig::stalling()).unwrap();
    let dir = tmpdir("mismatch");
    let mut cfg = McConfig::with_caches_and_threads(2, 2);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 1;
    cfg.max_states = 200;
    ModelChecker::new(&g.cache, &g.directory, cfg.clone()).run();

    // Different channel bound ⇒ different reachable space: refuse.
    let mut wrong = cfg.clone();
    wrong.channel_cap = 3;
    let err = ModelChecker::new(&g.cache, &g.directory, wrong).resume().err().unwrap();
    assert!(err.to_string().contains("configuration"), "{err}");

    // Different generated FSMs (other protocol) ⇒ refuse.
    let mesi = generate(&protogen_protocols::mesi(), &GenConfig::stalling()).unwrap();
    let err = ModelChecker::new(&mesi.cache, &mesi.directory, cfg.clone()).resume().err().unwrap();
    assert!(err.to_string().contains("FSM"), "{err}");

    // A flipped byte in a shard file ⇒ hard error, never a silent
    // fallback to an older checkpoint or a fresh start.
    let ck = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .find(|e| e.file_name().to_string_lossy().starts_with("ck-"))
        .expect("a committed checkpoint")
        .path();
    let shard0 = ck.join("shard-0.bin");
    let mut bytes = std::fs::read(&shard0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&shard0, &bytes).unwrap();
    let err = ModelChecker::new(&g.cache, &g.directory, cfg).resume().err().unwrap();
    let msg = err.to_string();
    assert!(msg.contains("corrupt") || msg.contains("manifest"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The 2×2 MSI-under-MSI stack, optionally with the fuzz campaign's glue
/// control applied (`GetM` gate weakened `ReadWrite → Read`, which must
/// break leaf-level SWMR).
fn stack(weaken_glue: bool) -> Composed {
    let comp = protogen_protocols::msi_under_msi(2, 2);
    let mut composed = compose(&comp, &GenConfig::stalling()).unwrap();
    if weaken_glue {
        let getm = comp.levels[0].ssp.msg_by_name("GetM").unwrap().as_usize();
        composed.glue[0].needed_perm[getm] = protogen_spec::Perm::Read;
    }
    composed
}

/// Composed stacks checkpoint and resume under the flat checker's
/// contract: a run checkpointed every epoch, dropped mid-way (state
/// budget) and resumed — at another thread count — reproduces the
/// uninterrupted counts, and for a failing stack the violation and its
/// counterexample trace byte-for-byte.
#[test]
fn composed_resume_matches_uninterrupted_counts_and_trace() {
    for (weaken_glue, interrupt_at, tag) in [(false, 3_000, "hier"), (true, 300, "hier-vio")] {
        let composed = stack(weaken_glue);
        // The passing stack is bounded (the exhaustive 343k-state space is
        // pinned elsewhere); the failing one runs to its violation.
        let max_states = if weaken_glue { HierConfig::default().max_states } else { 12_000 };
        let base = HierConfig { threads: 2, max_states, ..HierConfig::default() };
        let full = HierChecker::new(&composed, base.clone()).check();
        assert_eq!(full.violation.is_some(), weaken_glue, "{tag}: {:?}", full.violation);

        let dir = tmpdir(tag);
        let mut cfg = HierConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            max_states: interrupt_at,
            ..base
        };
        let partial = HierChecker::new(&composed, cfg.clone()).check();
        assert_eq!(partial.limit, Some(ResourceLimit::StateBudget), "{tag}: must interrupt");
        assert!(partial.states < full.states && partial.violation.is_none(), "{tag}");

        cfg.max_states = max_states;
        cfg.threads = 1; // overridden by the manifest
        let resumed = HierChecker::new(&composed, cfg).resume().unwrap();
        assert_eq!(resumed.threads, 2, "{tag}: threads come from the manifest");
        assert_eq!((resumed.states, resumed.transitions), (full.states, full.transitions), "{tag}");
        assert_eq!(resumed.limit, full.limit, "{tag}");
        assert_eq!(
            format!("{:?}", resumed.violation.map(|v| (v.kind, v.trace))),
            format!("{:?}", full.violation.map(|v| (v.kind, v.trace))),
            "{tag}: violation and trace must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint belongs to the system that wrote it: a flat run's is
/// refused by a composed checker and vice versa (identity-fingerprint
/// mismatch), as is a composed one from a differently-glued stack.
#[test]
fn flat_and_composed_checkpoints_refuse_each_other() {
    let g = generate(&protogen_protocols::msi(), &GenConfig::stalling()).unwrap();
    let composed = stack(false);
    let dir = tmpdir("cross");
    let flat_cfg = McConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        max_states: 200,
        ..McConfig::with_caches_and_threads(2, 2)
    };
    let hier_cfg = flat_cfg.clone();

    ModelChecker::new(&g.cache, &g.directory, flat_cfg.clone()).run();
    let err = HierChecker::new(&composed, hier_cfg.clone()).resume().err().unwrap();
    assert!(err.to_string().contains("configuration"), "{err}");

    HierChecker::new(&composed, hier_cfg.clone()).check();
    let err = ModelChecker::new(&g.cache, &g.directory, flat_cfg).resume().err().unwrap();
    assert!(err.to_string().contains("configuration"), "{err}");
    let err = HierChecker::new(&stack(true), hier_cfg).resume().err().unwrap();
    assert!(err.to_string().contains("glue"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs MSI @2 on two shards, checkpointing every epoch up to a
/// 200-state budget; returns the run's configuration and the directory
/// of its committed checkpoint.
fn committed_checkpoint(tag: &str) -> (McConfig, PathBuf) {
    let g = generate(&protogen_protocols::msi(), &GenConfig::stalling()).unwrap();
    let dir = tmpdir(tag);
    let cfg = McConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        max_states: 200,
        ..McConfig::with_caches_and_threads(2, 2)
    };
    ModelChecker::new(&g.cache, &g.directory, cfg.clone()).run();
    let ck = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.join("manifest.bin").is_file())
        .expect("a committed checkpoint");
    (cfg, ck)
}

/// Rewrites shard `t` of the checkpoint in `ck` through `edit` (given the
/// payload), then re-signs the shard's checksum and the manifest's record
/// of it and its own checksum with `fingerprint_bytes` — so only the
/// loader's structural checks can refuse the edit.
fn edit_and_resign(ck: &std::path::Path, t: usize, edit: impl FnOnce(&mut [u8])) {
    let resign = |bytes: &mut Vec<u8>| {
        let body = bytes.len() - 8;
        let sum = protogen_mc::fingerprint_bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        sum
    };
    let path = ck.join(format!("shard-{t}.bin"));
    let mut shard = std::fs::read(&path).unwrap();
    let body = shard.len() - 8;
    edit(&mut shard[..body]);
    let sum = resign(&mut shard);
    std::fs::write(&path, &shard).unwrap();
    // Manifest: 48 header bytes, then `(length, checksum)` per shard.
    let mpath = ck.join("manifest.bin");
    let mut manifest = std::fs::read(&mpath).unwrap();
    let at = 48 + 16 * t + 8;
    manifest[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    resign(&mut manifest);
    std::fs::write(&mpath, &manifest).unwrap();
}

/// Shard-file layout: the fingerprint of state `lid` at byte 24 + 8·lid.
fn fp_at(shard: &[u8], lid: usize) -> u64 {
    u64::from_le_bytes(shard[24 + 8 * lid..32 + 8 * lid].try_into().unwrap())
}

fn set_fp(shard: &mut [u8], lid: usize, fp: u64) {
    shard[24 + 8 * lid..32 + 8 * lid].copy_from_slice(&fp.to_le_bytes());
}

fn resume_error(cfg: McConfig) -> String {
    let g = generate(&protogen_protocols::msi(), &GenConfig::stalling()).unwrap();
    let err = ModelChecker::new(&g.cache, &g.directory, cfg).resume();
    err.map(|r| r.states).expect_err("a corrupt checkpoint resumed").to_string()
}

/// A fingerprint listed twice in one shard used to overwrite the first
/// one's id: the shard then counted one state fewer than its records and
/// every later id pointed at the wrong state.
#[test]
fn a_shard_repeating_a_fingerprint_is_refused() {
    let (cfg, ck) = committed_checkpoint("repeat");
    edit_and_resign(&ck, 0, |s| {
        let first = fp_at(s, 0);
        set_fp(s, 1, first);
    });
    let err = resume_error(cfg);
    assert!(err.contains("corrupt") && err.contains("state 1 repeats"), "{err}");
    let _ = std::fs::remove_dir_all(ck.parent().unwrap());
}

/// A fingerprint that another shard owns (`fp % threads`) used to load
/// where no dedup query would ever look for it, so its state was explored
/// again.
#[test]
fn a_shard_holding_another_shards_fingerprint_is_refused() {
    let (cfg, ck) = committed_checkpoint("owner");
    edit_and_resign(&ck, 1, |s| {
        let moved = fp_at(s, 0) ^ 1;
        set_fp(s, 0, moved);
    });
    let err = resume_error(cfg);
    assert!(err.contains("corrupt") && err.contains("belongs to shard 0"), "{err}");
    let _ = std::fs::remove_dir_all(ck.parent().unwrap());
}

/// The manifest's state count drives `--max-states` after a resume; it
/// used to be taken on trust.
#[test]
fn a_manifest_miscounting_its_shards_is_refused() {
    let (cfg, ck) = committed_checkpoint("total");
    // The count sits at byte 16; an empty shard edit re-signs the
    // manifest around it.
    let mpath = ck.join("manifest.bin");
    let mut manifest = std::fs::read(&mpath).unwrap();
    let total = u64::from_le_bytes(manifest[16..24].try_into().unwrap());
    manifest[16..24].copy_from_slice(&(total + 1).to_le_bytes());
    std::fs::write(&mpath, &manifest).unwrap();
    edit_and_resign(&ck, 0, |_| {});
    let err = resume_error(cfg);
    assert!(
        err.contains(&format!("records {} states but its shards hold {total}", total + 1)),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(ck.parent().unwrap());
}
