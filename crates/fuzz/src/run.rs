//! The fuzzing driver: seeded mutant derivation, negative controls,
//! multi-threaded batch execution, and the deterministic report.
//!
//! Mutants fan out through [`protogen_core::par`] (mutant `i` on worker
//! `i % threads`, as the simulator's sweep does) and every mutant derives
//! its RNG stream from the fuzz seed and its index alone
//! ([`par::job_seed`]) — never from thread identity or timing — so the
//! merged report is **byte-identical for any thread count**. CI diffs the
//! JSON to enforce exactly that.

use crate::compose::glue_control;
use crate::harness::{classify, Outcome, RunResult, Subject, SERVE_CONFORMANCE};
use crate::mutate::{apply, site_count, MutOp, Mutation};
use crate::script::Script;
use crate::shrink::{shrink, Shrunk};
use protogen_core::{par, GenConfig};
use protogen_runtime::Json;
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

/// Derives mutant `index` of a run — its base and its script, 1–3
/// mutations — as a pure function of `(seed, index)` and the (ordered)
/// `(name, base)` list.
fn derive_mutant(seed: u64, index: usize, bases: &[(String, Ssp)]) -> (&Ssp, Script) {
    let mut rng = StdRng::seed_from_u64(par::job_seed(seed, index));
    let (protocol, base) = &bases[rng.gen_range(0..bases.len())];
    let stalling = rng.gen_bool(0.5);
    let n_muts = 1 + rng.gen_range(0usize..3);
    let mut ssp = base.clone();
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
    (base, Script { protocol: protocol.clone(), stalling, mutations })
}

/// A negative control's result.
#[derive(Debug, Clone)]
pub struct ControlRecord {
    /// The control's name.
    pub name: &'static str,
    /// The property family that must catch the control.
    pub family: &'static str,
    /// What the run produced.
    pub result: RunResult,
}

impl ControlRecord {
    /// Whether the control was caught, by the family that must catch it.
    pub fn caught(&self) -> bool {
        self.result.outcome.family() == Some(self.family)
    }
}

/// Runs the calibration set every campaign starts with: known-bad
/// subjects the checker must catch, each by a named property family, then
/// the live recovery control. A campaign that misses any of them is
/// broken by construction.
fn run_controls(budget: usize) -> Vec<ControlRecord> {
    let flat = |base, mutations, full_invariants| Subject::Flat {
        base,
        mutations,
        gen: GenConfig::non_stalling(),
        full_invariants,
    };
    let msi = |op, site| flat(protogen_protocols::msi(), vec![Mutation { op, site }], false);
    let (comp, getm) = glue_control();
    let subjects = [
        // TSO-CC trades physical SWMR / data-value freshness by design
        // (§VI-D): under the *full* invariant set it must fail.
        ("tso-cc-relaxation", "swmr", flat(protogen_protocols::tso_cc(), vec![], true)),
        // S silently gains write permission: two sharers become two
        // writers.
        ("msi-s-gains-write-permission", "swmr", msi(MutOp::FlipPermission, 1)),
        // The directory's S+GetM reaction is deleted: a store from S hits
        // an unhandled request (completeness).
        ("msi-dir-drops-s-getm", "unexpected-message", msi(MutOp::DropDirReaction, 3)),
        // The I-store transaction completes into the wrong stable state.
        (
            "msi-store-completes-into-wrong-state",
            "unexpected-message",
            msi(MutOp::SwapTransitionTarget, 1),
        ),
        // The cache's Inv reaction no longer sends Inv-Ack: the upgrading
        // store waits forever.
        ("msi-inv-ack-never-sent", "deadlock", msi(MutOp::DropAck, 0)),
        // A parent holding only a read copy serves an inner write
        // (`crate::compose`).
        (
            "msi-under-msi-glue-getm-weakened",
            "swmr",
            Subject::Glue { comp, mutations: vec![getm], gen: GenConfig::stalling() },
        ),
    ];
    let mut records: Vec<ControlRecord> = subjects
        .into_iter()
        .map(|(name, family, subject)| ControlRecord { name, family, result: subject.run(budget) })
        .collect();
    records.push(ControlRecord {
        name: "serve-crash-recovery-drops-lines",
        family: SERVE_CONFORMANCE,
        result: recovery_control(budget),
    });
    records
}

/// The crash-recovery negative control: a live `serve` run whose crashed
/// cache uses the planted [`unsafe_reset`] recovery bug — dropping its
/// lines without the write-back/invalidate traffic — which the serve-side
/// conformance oracle (protocol error, envelope escape, or a non-quiescent
/// stop reason) must flag. The other controls calibrate the *checker's*
/// oracles; this one calibrates the *live run's*.
///
/// The live run is multi-threaded, so which seed first produces a
/// non-vacuous caught run can vary with scheduling; the result carries
/// only the verdict and fixed text, keeping the fuzz report byte-identical
/// across thread counts.
///
/// [`unsafe_reset`]: protogen_serve::FaultConfig::unsafe_reset
fn recovery_control(budget: usize) -> RunResult {
    use protogen_serve::{serve, FaultConfig, ServeConfig, StopReason};

    /// The planted bug usually wedges the run, and a wedged run is only
    /// "caught" once its deadline passes: this is how long every campaign
    /// (and every test that runs one) sleeps. A healthy run of this size
    /// quiesces in about 10 ms, so 2 s is not mistaken for a wedge.
    const DEADLINE_SECONDS: f64 = 2.0;

    let no_trace = |outcome| RunResult { outcome, trace: Vec::new() };
    let g = match protogen_core::generate(&protogen_protocols::msi(), &GenConfig::non_stalling()) {
        Ok(g) => g,
        Err(e) => return no_trace(Outcome::RejectedByGenerator(e.to_string())),
    };
    // The envelope: MSI@2 exhausts in well under the default quick-check
    // budget; raise the cap for generous budgets so it is never partial.
    let mut mc_cfg = protogen_mc::McConfig::with_caches(2);
    mc_cfg.max_states = mc_cfg.max_states.max(budget);
    let envelope = protogen_mc::ModelChecker::new(&g.cache, &g.directory, mc_cfg).run();
    if !envelope.passed() {
        return classify(envelope);
    }
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
        let flagged = match serve(&g.cache, &g.directory, &cfg) {
            Err(_) => true, // dropped state made a later message unhandleable
            Ok(report) => {
                if report.faults.is_some_and(|f| f.lines_lost == 0) {
                    continue; // vacuous: nothing was held at the crash point
                }
                !report.escapes(&envelope.coverage).is_empty()
                    || report.stop_reason != StopReason::Quiesced
            }
        };
        return no_trace(if flagged {
            let detail = "planted lossy crash recovery flagged by the live-run oracle".into();
            Outcome::Caught { family: SERVE_CONFORMANCE, detail }
        } else {
            // Lines were lost, yet the run quiesced inside the envelope.
            Outcome::SilentPass { states: envelope.states, transitions: envelope.transitions }
        });
    }
    no_trace(Outcome::ResourceExhausted(
        "every seed was vacuous (no lines held at the crash point)".into(),
    ))
}

/// One mutant's record in the report.
#[derive(Debug, Clone)]
pub struct MutantRecord {
    /// Position in the run.
    pub index: usize,
    /// The mutant: base protocol, generator configuration, mutations.
    pub script: Script,
    /// What the run produced.
    pub result: RunResult,
    /// The shrunk reproducer, present exactly when the outcome was
    /// unexpected.
    pub shrunk: Option<Shrunk>,
}

impl MutantRecord {
    /// The shrunk reproducer as a replayable script, headed by the
    /// campaign's `seed`, the mutant's index and the reproducer's outcome.
    pub fn reproducer(&self, seed: u64) -> Option<String> {
        let s = self.shrunk.as_ref()?;
        let label = s.result.outcome.label();
        Some(s.script.render(&format!("seed {seed} mutant {} — outcome {label}", self.index)))
    }
}

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
    /// `(label, count)` over every outcome class in report order,
    /// including zero rows.
    pub fn distribution(&self) -> Vec<(&'static str, usize)> {
        let count = |l| self.records.iter().filter(|r| r.result.outcome.label() == l).count();
        Outcome::CLASSES.iter().map(|c| (c.label(), count(c.label()))).collect()
    }

    /// The mutants whose outcome was unexpected (toolchain bugs).
    pub fn unexpected(&self) -> Vec<&MutantRecord> {
        self.records.iter().filter(|r| r.shrunk.is_some()).collect()
    }

    /// `(family, count)` over the checker-caught mutants: the
    /// property-aware refinement of the `rejected-by-checker` row.
    /// Families are sorted by name, so the breakdown is deterministic for
    /// any thread count.
    pub fn checker_families(&self) -> Vec<(&'static str, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for f in self.records.iter().filter_map(|r| r.result.outcome.family()) {
            *counts.entry(f).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Whether every negative control was caught.
    pub fn all_controls_caught(&self) -> bool {
        self.controls.iter().all(ControlRecord::caught)
    }

    /// The whole run as one deterministic JSON document (no wall-clock
    /// timing: byte-identical for a fixed seed at any thread count).
    pub fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        let counts = |rows: Vec<(&str, usize)>| {
            Json::Obj(rows.into_iter().map(|(k, c)| (k.to_string(), Json::U64(c as u64))).collect())
        };
        let controls = self.controls.iter().map(|c| {
            let o = &c.result.outcome;
            Json::obj([
                ("name", text(c.name)),
                ("outcome", text(o.label())),
                ("family", text(o.family().unwrap_or_default())),
                ("detail", Json::Str(o.detail())),
                ("caught", Json::Bool(c.caught())),
            ])
        });
        let unexpected = self.unexpected().into_iter().map(|r| {
            let (o, s) = (&r.result.outcome, r.shrunk.as_ref().expect("unexpected() filters"));
            Json::obj([
                ("index", Json::U64(r.index as u64)),
                ("protocol", text(&r.script.protocol)),
                ("config", text(r.script.config())),
                ("outcome", text(o.label())),
                ("detail", Json::Str(o.detail())),
                ("script", Json::Str(r.reproducer(self.seed).unwrap_or_default())),
                ("trace", Json::Arr(s.result.trace.iter().map(|l| text(l)).collect())),
            ])
        });
        let mutants = self.records.iter().map(|r| {
            let o = &r.result.outcome;
            let muts = r.script.mutations.iter().map(|m| m.to_string()).collect::<Vec<_>>();
            Json::obj([
                ("index", Json::U64(r.index as u64)),
                ("protocol", text(&r.script.protocol)),
                ("config", text(r.script.config())),
                ("mutations", Json::Str(muts.join("; "))),
                ("outcome", text(o.label())),
                ("family", text(o.family().unwrap_or_default())),
                ("detail", Json::Str(o.detail())),
            ])
        });
        Json::obj([
            ("seed", Json::U64(self.seed)),
            ("mutants", Json::U64(self.records.len() as u64)),
            ("budget", Json::U64(self.budget as u64)),
            ("protocols", Json::Arr(self.protocols.iter().map(|p| text(p)).collect())),
            ("distribution", counts(self.distribution())),
            ("checker_families", counts(self.checker_families())),
            ("controls_caught", Json::Bool(self.all_controls_caught())),
            ("controls", Json::Arr(controls.collect())),
            ("unexpected", Json::Arr(unexpected.collect())),
            ("results", Json::Arr(mutants.collect())),
        ])
    }

    /// The files `fuzz --out` writes, by name: the report as `fuzz.json`,
    /// then a `repro-<index>.mut` script per unexpected mutant.
    pub fn files(&self) -> Vec<(String, String)> {
        let scripts = self.unexpected().into_iter().map(|r| {
            let script = r.reproducer(self.seed).expect("unexpected records carry a shrunk case");
            (format!("repro-{}.mut", r.index), script)
        });
        std::iter::once(("fuzz.json".to_string(), self.to_json().render())).chain(scripts).collect()
    }

    /// `fuzz`'s text report: the outcome distribution with the checker's
    /// breakdown by family, each control's verdict, and every unexpected
    /// mutant with its reproducer script.
    pub fn render_text(&self) -> String {
        let (seed, budget) = (self.seed, self.budget);
        let mut out =
            format!("fuzz: seed {seed}, {} mutants, budget {budget}\n", self.records.len());
        for (class, (label, count)) in Outcome::CLASSES.iter().zip(self.distribution()) {
            if count > 0 {
                out += &format!("  {label:<22} {count:>6}\n");
            }
            // The property-aware breakdown of what the checker caught.
            if class.family().is_some() {
                for (family, n) in self.checker_families() {
                    out += &format!("    {family:<20} {n:>6}\n");
                }
            }
        }
        for c in &self.controls {
            let caught = if c.caught() { "CAUGHT" } else { "MISSED" };
            out += &format!("control {:<38} {caught} ({})\n", c.name, c.result.outcome.detail());
        }
        for r in self.unexpected() {
            let o = &r.result.outcome;
            out += &format!("unexpected mutant {}: {} — {}\n", r.index, o.label(), o.detail());
            for line in r.reproducer(self.seed).unwrap_or_default().lines() {
                out += &format!("  {line}\n");
            }
        }
        out
    }
}

/// Runs a full fuzzing campaign: every negative control, then `mutants`
/// seeded mutants fanned across `cfg.threads` workers
/// ([`par::map_indexed`]), with every unexpected outcome shrunk to a minimal
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
        bases.push((name.clone(), ssp));
    }
    if bases.is_empty() {
        return Err("no base protocols configured".into());
    }
    let controls = run_controls(cfg.budget);
    let records = par::map_indexed(cfg.mutants, cfg.threads, |index| {
        let (base, script) = derive_mutant(cfg.seed, index, &bases);
        let result = script.subject(base.clone()).run(cfg.budget);
        let shrunk = result
            .outcome
            .is_unexpected()
            .then(|| shrink(base, &script, cfg.budget, &result.outcome));
        MutantRecord { index, script, result, shrunk }
    });
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
        let bases =
            ["msi", "mesi"].map(|n| (n.to_string(), protogen_protocols::by_name(n).unwrap()));
        for index in 0..16 {
            let (a, b) = (derive_mutant(7, index, &bases), derive_mutant(7, index, &bases));
            assert_eq!(a.1, b.1, "mutant {index} drifted");
            let named = &bases.iter().find(|(n, _)| *n == a.1.protocol).unwrap().1;
            assert!(std::ptr::eq(a.0, named), "the script names its base");
            assert!(!a.1.mutations.is_empty() && a.1.mutations.len() <= 3);
        }
        // Different seeds diverge somewhere in a small window.
        let differs =
            (0..16).any(|i| derive_mutant(7, i, &bases).1 != derive_mutant(8, i, &bases).1);
        assert!(differs, "seed does not influence derivation");
    }

    #[test]
    fn every_negative_control_is_caught() {
        // The taxonomy is property-aware: each control names *which*
        // family must catch it, and nothing else counts as a catch.
        let expected = [
            ("tso-cc-relaxation", "swmr"),
            ("msi-s-gains-write-permission", "swmr"),
            ("msi-dir-drops-s-getm", "unexpected-message"),
            ("msi-store-completes-into-wrong-state", "unexpected-message"),
            ("msi-inv-ack-never-sent", "deadlock"),
            ("msi-under-msi-glue-getm-weakened", "swmr"),
            ("serve-crash-recovery-drops-lines", "serve-conformance"),
        ];
        let records = run_controls(200_000);
        assert_eq!(records.len(), expected.len());
        for (rec, (name, family)) in records.iter().zip(expected) {
            let o = &rec.result.outcome;
            assert_eq!((rec.name, rec.family), (name, family));
            assert_eq!(o.family(), Some(family), "{name}: {} — {}", o.label(), o.detail());
            assert!(rec.caught(), "{name}");
        }
    }

    #[test]
    fn controls_are_caught_by_the_expected_property_families() {
        // A control counts as caught only when the family it names fires:
        // another family's catch, or no catch at all, is a miss.
        let record = |outcome| ControlRecord {
            name: "msi-inv-ack-never-sent",
            family: "deadlock",
            result: RunResult { outcome, trace: Vec::new() },
        };
        let caught_by = |family| Outcome::Caught { family, detail: String::new() };
        assert!(record(caught_by("deadlock")).caught());
        assert!(!record(caught_by("swmr")).caught());
        assert!(!record(Outcome::SilentPass { states: 1, transitions: 0 }).caught());
        assert!(!record(Outcome::CheckerPanic("boom".into())).caught());
    }

    #[test]
    fn recovery_control_is_caught_by_the_live_oracle() {
        // The live run's verdict carries no trace and fixed text, so the
        // report stays byte-identical across thread counts.
        let o = recovery_control(20_000);
        assert_eq!(o.outcome.family(), Some(SERVE_CONFORMANCE), "{}", o.outcome.detail());
        assert!(o.trace.is_empty());
        assert_eq!(
            o.outcome.detail(),
            "planted lossy crash recovery flagged by the live-run oracle"
        );
    }

    #[test]
    fn reproducers_name_seed_mutant_and_outcome() {
        let mutations = vec![Mutation { op: MutOp::DropAck, site: 0 }];
        let script = Script { protocol: "msi".into(), stalling: true, mutations };
        let result = RunResult { outcome: Outcome::CheckerPanic("boom".into()), trace: vec![] };
        let shrunk = Shrunk { script: script.clone(), result: result.clone() };
        let r = MutantRecord { index: 4, script, result, shrunk: Some(shrunk) };
        assert_eq!(
            r.reproducer(9).unwrap(),
            "# protogen fuzz reproducer\n# seed 9 mutant 4 — outcome checker-panic\n\
             protocol msi\nconfig stalling\nmutate drop-ack 0\n"
        );
        assert_eq!(MutantRecord { shrunk: None, ..r }.reproducer(9), None);
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
        let one = run_fuzz(&base).unwrap().to_json().render();
        let four = run_fuzz(&FuzzConfig { threads: 4, ..base }).unwrap().to_json().render();
        assert_eq!(one, four);
        // Every byte of the report, as the previous pipeline rendered it.
        assert_eq!(protogen_mc::fingerprint_bytes(one.as_bytes()), 0x8f6a_cf7d_8044_4366, "{one}");
    }
}
