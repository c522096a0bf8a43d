//! The fuzzing driver: seeded mutant derivation, negative controls,
//! multi-threaded batch execution, and the deterministic report.
//!
//! Mutants are sharded statically across workers (`index % threads`, the
//! same discipline as the simulator's sweep sharding) and every mutant
//! derives its RNG stream from the fuzz seed and its index alone — never
//! from thread identity or timing — so the merged report is
//! **byte-identical for any thread count**. CI diffs the JSON to enforce
//! exactly that.

use crate::compose::{glue_control, run_composed_mutant};
use crate::harness::{run_mutant, Outcome};
use crate::mutate::{apply, site_count, MutOp, Mutation};
use crate::script::Script;
use crate::shrink::shrink;
use protogen_sim::Json;
use protogen_spec::Ssp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fuzzing-run parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every mutant derives its own stream from this and its
    /// index.
    pub seed: u64,
    /// Number of mutants to derive and run.
    pub mutants: usize,
    /// Worker threads; `0` means all available cores. Results are
    /// identical for every value.
    pub threads: usize,
    /// Model-checker state budget per mutant (quick-check mode).
    pub budget: usize,
    /// CLI names of the base protocols to mutate (see
    /// `protogen_protocols::NAMES`).
    pub protocols: Vec<String>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            mutants: 100,
            threads: 0,
            budget: 50_000,
            protocols: protogen_protocols::NAMES.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl FuzzConfig {
    /// The worker count actually used.
    pub fn effective_threads(&self) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        t.clamp(1, self.mutants.max(1))
    }
}

/// SplitMix64 — derives one mutant's seed from the fuzz seed and the
/// mutant index, independent of thread assignment.
fn mutant_seed(fuzz_seed: u64, index: usize) -> u64 {
    let mut z = fuzz_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One derived mutant: which base protocol, which generator
/// configuration, and which mutations.
#[derive(Debug, Clone)]
pub struct MutantSpec {
    /// Position in the run.
    pub index: usize,
    /// Index into the run's protocol list.
    pub protocol_idx: usize,
    /// Stalling (`true`) or non-stalling generation.
    pub stalling: bool,
    /// The ordered mutation list (1–3 mutations).
    pub mutations: Vec<Mutation>,
}

/// Derives mutant `index` of a run: a pure function of `(seed, index)`
/// and the (ordered) base-protocol list.
pub fn derive_mutant(seed: u64, index: usize, bases: &[Ssp]) -> MutantSpec {
    let mut rng = StdRng::seed_from_u64(mutant_seed(seed, index));
    let protocol_idx = rng.gen_range(0..bases.len());
    let stalling = rng.gen_bool(0.5);
    let n_muts = 1 + rng.gen_range(0usize..3);
    let mut ssp = bases[protocol_idx].clone();
    let mut mutations = Vec::with_capacity(n_muts);
    for _ in 0..n_muts {
        // Cycle through the catalog from a seeded starting point until an
        // operator with at least one site on the *current* (already
        // mutated) SSP is found.
        let start = rng.gen_range(0..MutOp::ALL.len());
        for k in 0..MutOp::ALL.len() {
            let op = MutOp::ALL[(start + k) % MutOp::ALL.len()];
            let n = site_count(op, &ssp);
            if n == 0 {
                continue;
            }
            let m = Mutation { op, site: rng.gen_range(0..n) };
            apply(&mut ssp, m).expect("site drawn from site_count is in range");
            mutations.push(m);
            break;
        }
    }
    MutantSpec { index, protocol_idx, stalling, mutations }
}

/// A seeded known-bad mutant (or invariant relaxation) the checker
/// *must* catch — the fuzzer's calibration set.
#[derive(Debug, Clone)]
pub struct Control {
    /// Stable control name.
    pub name: &'static str,
    /// What the control injects.
    pub script: Script,
    /// Run the full invariant set even for relaxed protocols (the TSO-CC
    /// relaxation control).
    pub full_invariants: bool,
}

/// The bundled negative controls: the TSO-CC invariant relaxation plus
/// four hand-seeded protocol bugs. A fuzzing run that misses any of them
/// is broken by construction.
pub fn negative_controls() -> Vec<Control> {
    let mutation = |op, site| Mutation { op, site };
    let msi = |mutations| Script { protocol: "msi".into(), stalling: false, mutations };
    vec![
        // TSO-CC trades physical SWMR / data-value freshness by design
        // (§VI-D): under the *full* invariant set it must fail.
        Control {
            name: "tso-cc-relaxation",
            script: Script { protocol: "tso-cc".into(), stalling: false, mutations: vec![] },
            full_invariants: true,
        },
        // S silently gains write permission: two sharers become two
        // writers (SWMR).
        Control {
            name: "msi-s-gains-write-permission",
            script: msi(vec![mutation(MutOp::FlipPermission, 1)]),
            full_invariants: false,
        },
        // The directory's S+GetM reaction is deleted: a store from S hits
        // an unhandled request (completeness).
        Control {
            name: "msi-dir-drops-s-getm",
            script: msi(vec![mutation(MutOp::DropDirReaction, 3)]),
            full_invariants: false,
        },
        // The I-store transaction completes into the wrong stable state.
        Control {
            name: "msi-store-completes-into-wrong-state",
            script: msi(vec![mutation(MutOp::SwapTransitionTarget, 1)]),
            full_invariants: false,
        },
        // The cache's Inv reaction no longer sends Inv-Ack: the upgrading
        // store waits forever (deadlock).
        Control {
            name: "msi-inv-ack-never-sent",
            script: msi(vec![mutation(MutOp::DropAck, 0)]),
            full_invariants: false,
        },
    ]
}

/// A control's result.
#[derive(Debug, Clone)]
pub struct ControlRecord {
    /// The control's name.
    pub name: &'static str,
    /// Outcome label the run produced.
    pub outcome: String,
    /// Property family that caught the control (`swmr`, `deadlock`, …),
    /// when the checker did the catching.
    pub family: Option<String>,
    /// Outcome detail (violation kind, …).
    pub detail: String,
    /// Whether the checker caught it (`outcome == "rejected-by-checker"`).
    pub caught: bool,
}

/// A shrunk reproducer attached to an unexpected outcome.
#[derive(Debug, Clone)]
pub struct ShrunkCase {
    /// The replayable mutation script.
    pub script: String,
    /// Outcome label of the shrunk reproducer.
    pub outcome: String,
    /// Outcome detail of the shrunk reproducer.
    pub detail: String,
    /// Counterexample trace of the shrunk reproducer, when the checker
    /// produced one.
    pub trace: Vec<String>,
}

/// One mutant's record in the report.
#[derive(Debug, Clone)]
pub struct MutantRecord {
    /// Position in the run.
    pub index: usize,
    /// Base protocol CLI name.
    pub protocol: String,
    /// `"stalling"` or `"non-stalling"`.
    pub config: &'static str,
    /// The applied mutations.
    pub mutations: Vec<Mutation>,
    /// Outcome label.
    pub outcome: String,
    /// Property family that fired (`rejected-by-checker` outcomes only):
    /// a built-in invariant slug.
    pub family: Option<String>,
    /// Outcome detail.
    pub detail: String,
    /// Present exactly when the outcome was unexpected.
    pub shrunk: Option<ShrunkCase>,
}

/// Classification labels in report order.
pub const LABELS: [&str; 9] = [
    "rejected-at-build",
    "rejected-by-generator",
    "rejected-by-checker",
    "silent-pass",
    "resource-exhausted",
    "generator-panic",
    "exec-violation",
    "checker-panic",
    "mutation-inapplicable",
];

/// The merged result of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The seed the run used.
    pub seed: u64,
    /// The per-mutant state budget.
    pub budget: usize,
    /// The base protocols mutated.
    pub protocols: Vec<String>,
    /// Every mutant, ordered by index.
    pub records: Vec<MutantRecord>,
    /// Every negative control's result.
    pub controls: Vec<ControlRecord>,
}

impl FuzzReport {
    /// `(label, count)` over [`LABELS`], including zero rows.
    pub fn distribution(&self) -> Vec<(&'static str, usize)> {
        LABELS
            .iter()
            .map(|&l| (l, self.records.iter().filter(|r| r.outcome == l).count()))
            .collect()
    }

    /// The mutants whose outcome was unexpected (toolchain bugs).
    pub fn unexpected(&self) -> Vec<&MutantRecord> {
        self.records.iter().filter(|r| r.shrunk.is_some()).collect()
    }

    /// `(family, count)` over the checker-caught mutants: the
    /// property-aware refinement of the `rejected-by-checker` row.
    /// Families are sorted by name, so the breakdown is deterministic for
    /// any thread count.
    pub fn checker_families(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for r in &self.records {
            if let Some(f) = r.family.as_deref() {
                *counts.entry(f).or_insert(0) += 1;
            }
        }
        counts.into_iter().map(|(f, c)| (f.to_string(), c)).collect()
    }

    /// Whether every negative control was caught.
    pub fn all_controls_caught(&self) -> bool {
        self.controls.iter().all(|c| c.caught)
    }

    /// The whole run as one deterministic JSON document (no wall-clock
    /// timing: byte-identical for a fixed seed at any thread count).
    pub fn to_json(&self) -> Json {
        let dist = Json::Obj(
            self.distribution()
                .into_iter()
                .map(|(l, c)| (l.to_string(), Json::U64(c as u64)))
                .collect(),
        );
        let families = Json::Obj(
            self.checker_families().into_iter().map(|(f, c)| (f, Json::U64(c as u64))).collect(),
        );
        let controls = Json::Arr(
            self.controls
                .iter()
                .map(|c| {
                    Json::obj([
                        ("name", Json::Str(c.name.to_string())),
                        ("outcome", Json::Str(c.outcome.clone())),
                        ("family", Json::Str(c.family.clone().unwrap_or_default())),
                        ("detail", Json::Str(c.detail.clone())),
                        ("caught", Json::Bool(c.caught)),
                    ])
                })
                .collect(),
        );
        let unexpected = Json::Arr(
            self.unexpected()
                .iter()
                .map(|r| {
                    let s = r.shrunk.as_ref().expect("unexpected() filters on shrunk");
                    Json::obj([
                        ("index", Json::U64(r.index as u64)),
                        ("protocol", Json::Str(r.protocol.clone())),
                        ("config", Json::Str(r.config.to_string())),
                        ("outcome", Json::Str(r.outcome.clone())),
                        ("detail", Json::Str(r.detail.clone())),
                        ("script", Json::Str(s.script.clone())),
                        ("trace", Json::Arr(s.trace.iter().cloned().map(Json::Str).collect())),
                    ])
                })
                .collect(),
        );
        let mutants = Json::Arr(
            self.records
                .iter()
                .map(|r| {
                    let muts =
                        r.mutations.iter().map(|m| m.to_string()).collect::<Vec<_>>().join("; ");
                    Json::obj([
                        ("index", Json::U64(r.index as u64)),
                        ("protocol", Json::Str(r.protocol.clone())),
                        ("config", Json::Str(r.config.to_string())),
                        ("mutations", Json::Str(muts)),
                        ("outcome", Json::Str(r.outcome.clone())),
                        ("family", Json::Str(r.family.clone().unwrap_or_default())),
                        ("detail", Json::Str(r.detail.clone())),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("seed", Json::U64(self.seed)),
            ("mutants", Json::U64(self.records.len() as u64)),
            ("budget", Json::U64(self.budget as u64)),
            ("protocols", Json::Arr(self.protocols.iter().cloned().map(Json::Str).collect())),
            ("distribution", dist),
            ("checker_families", families),
            ("controls_caught", Json::Bool(self.all_controls_caught())),
            ("controls", controls),
            ("unexpected", unexpected),
            ("results", mutants),
        ])
    }
}

/// Runs one control through the pipeline.
fn run_control(c: &Control, bases: &dyn Fn(&str) -> Option<Ssp>, budget: usize) -> ControlRecord {
    let Some(base) = bases(&c.script.protocol) else {
        return ControlRecord {
            name: c.name,
            outcome: "unknown-protocol".into(),
            family: None,
            detail: c.script.protocol.clone(),
            caught: false,
        };
    };
    let r =
        run_mutant(&base, &c.script.mutations, &c.script.gen_config(), budget, c.full_invariants);
    ControlRecord {
        name: c.name,
        outcome: r.outcome.label().to_string(),
        family: r.outcome.family().map(str::to_string),
        detail: r.outcome.detail(),
        caught: matches!(r.outcome, Outcome::Caught { .. }),
    }
}

/// Runs the crash-recovery negative control: a live `serve` run whose
/// crashed cache uses the planted [`unsafe_reset`] recovery bug —
/// dropping its lines without the write-back/invalidate traffic — which
/// the serve-side conformance oracle (protocol error, envelope escape,
/// or a non-quiescent stop reason) must flag. The other controls
/// calibrate the *checker's* oracles; this one calibrates the *live
/// run's*.
///
/// The live run is multi-threaded, so which seed first produces a
/// non-vacuous caught run can vary with scheduling; the record carries
/// only the aggregate verdict and fixed text, keeping the fuzz report
/// byte-identical across thread counts.
///
/// [`unsafe_reset`]: protogen_serve::FaultConfig::unsafe_reset
pub fn run_recovery_control(budget: usize) -> ControlRecord {
    use protogen_serve::{checked_envelope, serve, FaultConfig, ServeConfig, StopReason};

    /// The planted bug usually wedges the run, and a wedged run is only
    /// "caught" once its deadline passes: this is how long every campaign
    /// (and every test that runs one) sleeps. A healthy run of this size
    /// quiesces in about 10 ms, so 2 s is not mistaken for a wedge.
    const DEADLINE_SECONDS: f64 = 2.0;

    let name = "serve-crash-recovery-drops-lines";
    let miss = |detail: &str| ControlRecord {
        name,
        outcome: "silent-pass".into(),
        family: None,
        detail: detail.into(),
        caught: false,
    };
    let ssp = protogen_protocols::msi();
    let Ok(g) = protogen_core::generate(&ssp, &protogen_core::GenConfig::non_stalling()) else {
        return miss("base protocol failed to generate");
    };
    // MSI@2 exhausts in well under the default quick-check budget; raise
    // the cap for generous budgets so the envelope is never partial.
    let mut mc_cfg = protogen_mc::McConfig::with_caches(2);
    mc_cfg.max_states = mc_cfg.max_states.max(budget);
    let Ok(envelope) = checked_envelope(&g.cache, &g.directory, mc_cfg) else {
        return miss("envelope verification failed");
    };
    for seed in 0..5u64 {
        let mut cfg = ServeConfig::new(2);
        cfg.dir_shards = 2;
        cfg.n_addrs = 4;
        cfg.total_ops = 8_000;
        cfg.mailbox_cap = 16;
        cfg.max_seconds = DEADLINE_SECONDS;
        // Store-heavy: the crashed cache almost surely holds lines to lose.
        cfg.workload = protogen_sim::Workload::Uniform { store_pct: 90 };
        cfg.seed = seed;
        cfg.faults =
            Some(FaultConfig { crashes: 1, unsafe_reset: true, ..FaultConfig::none(seed) });
        let caught = match serve(&g.cache, &g.directory, &cfg) {
            Err(_) => true, // dropped state made a later message unhandleable
            Ok(report) => {
                if report.faults.is_some_and(|f| f.lines_lost == 0) {
                    continue; // vacuous: nothing was held at the crash point
                }
                !report.escapes(&envelope).is_empty() || report.stop_reason != StopReason::Quiesced
            }
        };
        if caught {
            return ControlRecord {
                name,
                outcome: "rejected-by-oracle".into(),
                family: Some("serve-conformance".into()),
                detail: "planted lossy crash recovery flagged by the live-run oracle".into(),
                caught: true,
            };
        }
        return miss("lines were lost but no oracle fired");
    }
    miss("every seed was vacuous (no lines held at the crash point)")
}

/// Runs the composed negative control: MSI-under-MSI 2×2 with the `GetM`
/// glue gate weakened `ReadWrite → Read` (see [`crate::compose`]), checked
/// hierarchically. The flat controls calibrate the flat pipeline; this one
/// calibrates the composition pass and the hierarchical checker.
pub fn run_glue_control(budget: usize) -> ControlRecord {
    let (comp, m) = glue_control();
    let r = run_composed_mutant(&comp, &[m], &protogen_core::GenConfig::stalling(), budget);
    ControlRecord {
        name: "msi-under-msi-glue-getm-weakened",
        outcome: r.outcome.label().to_string(),
        family: r.outcome.family().map(str::to_string),
        detail: r.outcome.detail(),
        caught: matches!(r.outcome, Outcome::Caught { .. }),
    }
}

/// Runs a full fuzzing campaign: every negative control, then `mutants`
/// seeded mutants fanned across [`FuzzConfig::effective_threads`]
/// workers, with every unexpected outcome shrunk to a minimal
/// reproducer.
///
/// # Errors
///
/// Returns an error message when a configured protocol name is unknown.
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    let mut bases = Vec::with_capacity(cfg.protocols.len());
    for name in &cfg.protocols {
        let ssp = protogen_protocols::by_name(name).ok_or_else(|| {
            format!("unknown protocol `{name}` (try {})", protogen_protocols::NAMES.join(", "))
        })?;
        bases.push(ssp);
    }
    if bases.is_empty() {
        return Err("no base protocols configured".into());
    }

    let mut controls: Vec<ControlRecord> = negative_controls()
        .iter()
        .map(|c| run_control(c, &|n| protogen_protocols::by_name(n), cfg.budget))
        .collect();
    controls.push(run_glue_control(cfg.budget));
    controls.push(run_recovery_control(cfg.budget));

    let threads = cfg.effective_threads();
    let bases_ref = &bases;
    let worker = |w: usize| -> Vec<MutantRecord> {
        (0..cfg.mutants)
            .filter(|i| i % threads == w)
            .map(|index| {
                let spec = derive_mutant(cfg.seed, index, bases_ref);
                let base = &bases_ref[spec.protocol_idx];
                let gen_cfg = if spec.stalling {
                    protogen_core::GenConfig::stalling()
                } else {
                    protogen_core::GenConfig::non_stalling()
                };
                let r = run_mutant(base, &spec.mutations, &gen_cfg, cfg.budget, false);
                let shrunk = r.outcome.is_unexpected().then(|| {
                    let s = shrink(base, &spec.mutations, &gen_cfg, cfg.budget, r.outcome.label());
                    let script = Script {
                        protocol: cfg.protocols[spec.protocol_idx].clone(),
                        stalling: spec.stalling,
                        mutations: s.mutations.clone(),
                    };
                    ShrunkCase {
                        script: script.render(&format!(
                            "seed {} mutant {} — outcome {}",
                            cfg.seed,
                            index,
                            s.result.outcome.label()
                        )),
                        outcome: s.result.outcome.label().to_string(),
                        detail: s.result.outcome.detail(),
                        trace: s.result.trace,
                    }
                });
                MutantRecord {
                    index,
                    protocol: cfg.protocols[spec.protocol_idx].clone(),
                    config: if spec.stalling { "stalling" } else { "non-stalling" },
                    mutations: spec.mutations,
                    outcome: r.outcome.label().to_string(),
                    family: r.outcome.family().map(str::to_string),
                    detail: r.outcome.detail(),
                    shrunk,
                }
            })
            .collect()
    };

    let mut merged: Vec<Option<MutantRecord>> = Vec::new();
    merged.resize_with(cfg.mutants, || None);
    let per_worker: Vec<Vec<MutantRecord>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|w| s.spawn(move || worker(w))).collect();
        handles.into_iter().map(|h| h.join().expect("fuzz worker panicked")).collect()
    });
    for rec in per_worker.into_iter().flatten() {
        let slot = rec.index;
        merged[slot] = Some(rec);
    }
    let records: Vec<MutantRecord> =
        merged.into_iter().map(|r| r.expect("every index sharded to one worker")).collect();

    Ok(FuzzReport {
        seed: cfg.seed,
        budget: cfg.budget,
        protocols: cfg.protocols.clone(),
        records,
        controls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutant_derivation_is_a_pure_function_of_seed_and_index() {
        let bases: Vec<Ssp> = vec![protogen_protocols::msi(), protogen_protocols::mesi()];
        for index in 0..16 {
            let a = derive_mutant(7, index, &bases);
            let b = derive_mutant(7, index, &bases);
            assert_eq!(a.mutations, b.mutations, "mutant {index} drifted");
            assert_eq!(a.protocol_idx, b.protocol_idx);
            assert_eq!(a.stalling, b.stalling);
            assert!(!a.mutations.is_empty() && a.mutations.len() <= 3);
        }
        // Different seeds diverge somewhere in a small window.
        let differs = (0..16).any(|i| {
            derive_mutant(7, i, &bases).mutations != derive_mutant(8, i, &bases).mutations
        });
        assert!(differs, "seed does not influence derivation");
    }

    #[test]
    fn every_negative_control_is_caught() {
        for c in negative_controls() {
            let rec = run_control(&c, &|n| protogen_protocols::by_name(n), 200_000);
            assert!(rec.caught, "{}: {} — {}", c.name, rec.outcome, rec.detail);
            assert!(rec.family.is_some(), "{}: caught without a property family", c.name);
        }
    }

    #[test]
    fn controls_are_caught_by_the_expected_property_families() {
        // The taxonomy is property-aware: each seeded bug names *which*
        // invariant family fired, not just that something did.
        let expected =
            [("msi-s-gains-write-permission", "swmr"), ("msi-inv-ack-never-sent", "deadlock")];
        for (name, family) in expected {
            let c = negative_controls().into_iter().find(|c| c.name == name).unwrap();
            let rec = run_control(&c, &|n| protogen_protocols::by_name(n), 200_000);
            assert_eq!(rec.family.as_deref(), Some(family), "{name}: {}", rec.detail);
        }
    }

    #[test]
    fn recovery_control_is_caught_by_the_live_oracle() {
        let rec = run_recovery_control(20_000);
        assert!(rec.caught, "{}: {} — {}", rec.name, rec.outcome, rec.detail);
        assert_eq!(rec.family.as_deref(), Some("serve-conformance"));
    }

    #[test]
    fn small_run_is_thread_count_invariant() {
        let base = FuzzConfig {
            seed: 3,
            mutants: 12,
            budget: 20_000,
            protocols: vec!["msi".into(), "mesi".into()],
            threads: 1,
        };
        let one = run_fuzz(&base).unwrap();
        let four = run_fuzz(&FuzzConfig { threads: 4, ..base }).unwrap();
        assert_eq!(one.to_json().render(), four.to_json().render());
    }
}
