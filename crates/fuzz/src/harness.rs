//! The pipeline: one [`Subject`] through its guarded stages to one typed
//! [`RunResult`].
//!
//! A subject is a base SSP with mutations (`mutate → validate → generate →
//! model-check`) or a composition with glue mutations (`compose → mutate
//! glue → hierarchical check`). Every stage runs under the one stage guard,
//! which turns the stage's structured error or panic into that stage's
//! [`Outcome`], so a subject can *never* abort the fuzzing process: a
//! panic anywhere in the pipeline is captured and classified as an
//! unexpected outcome (the bug class the fuzzer exists to find).
//!
//! The model-check stage runs in budgeted quick-check mode: 2 caches (or
//! the composition's tree), one worker thread, a configurable state
//! budget, and the structured resource-exhaustion outcome from
//! [`protogen_mc`] when the budget is spent — never an abort.

use crate::compose::{apply_glue, GlueMutation};
use crate::mutate::{apply_all, Mutation};
use protogen_core::{compose, generate, GenConfig};
use protogen_mc::{CheckResult, HierChecker, HierConfig, McConfig, ModelChecker};
use protogen_mc::{PropertySet, ViolationKind};
use protogen_spec::{Composition, Ssp};
use std::convert::Infallible;
use std::fmt::Display;
use std::panic::AssertUnwindSafe;

/// What running one subject through the pipeline produced.
///
/// The first three variants are the *working* rejection paths (the
/// toolchain noticed something was off and said so); `Caught` is an
/// oracle doing its job; the `…Panic` and `ExecViolation` variants are
/// **unexpected** — evidence of a toolchain bug — and get shrunk to a
/// minimal reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A mutation site was out of range (only reachable while shrinking).
    MutationInapplicable(String),
    /// `Ssp::validate` rejected the mutant.
    RejectedAtBuild(String),
    /// `generate` (or `compose`) returned a structured
    /// [`protogen_core::GenError`].
    RejectedByGenerator(String),
    /// A pre-checking stage (mutation application, validation, or the
    /// generator itself) panicked — an unexpected toolchain bug. The
    /// message names the stage.
    GeneratorPanic(String),
    /// An oracle found a protocol violation: the model checker (SWMR, data
    /// value, deadlock, unexpected message, channel overflow, illegal
    /// action) or, for the live recovery control, the serve-side
    /// conformance oracle (family `serve-conformance`, label
    /// `rejected-by-oracle`).
    Caught {
        /// Which property family fired: `swmr`, `data-value`,
        /// `deadlock`, `unexpected-message`, `channel-overflow`,
        /// `illegal-action` or `serve-conformance`.
        family: &'static str,
        /// The rendered violation.
        detail: String,
    },
    /// The checker hit a [`ViolationKind::Exec`] violation: the runtime
    /// rejected an action the generator emitted — an unexpected
    /// generator bug surfaced at run time.
    ExecViolation(String),
    /// The model checker itself panicked — an unexpected toolchain bug.
    CheckerPanic(String),
    /// A resource limit stopped the run before it reached a verdict;
    /// carries the limit's wording.
    ResourceExhausted(String),
    /// The subject generated and verified clean: the mutation was
    /// behaviour-preserving or unobservable at 2 caches.
    SilentPass {
        /// States the quick-check explored.
        states: usize,
        /// Transitions it fired.
        transitions: usize,
    },
}

/// The family of a violation the live `serve` run's conformance oracle
/// flags (a protocol error, an envelope escape or a wedged run), as
/// opposed to one the model checker finds.
pub(crate) const SERVE_CONFORMANCE: &str = "serve-conformance";

impl Outcome {
    /// One outcome of every class a mutant can end in, in report order.
    pub(crate) const CLASSES: [Outcome; 9] = [
        Outcome::RejectedAtBuild(String::new()),
        Outcome::RejectedByGenerator(String::new()),
        Outcome::Caught { family: "", detail: String::new() },
        Outcome::SilentPass { states: 0, transitions: 0 },
        Outcome::ResourceExhausted(String::new()),
        Outcome::GeneratorPanic(String::new()),
        Outcome::ExecViolation(String::new()),
        Outcome::CheckerPanic(String::new()),
        Outcome::MutationInapplicable(String::new()),
    ];

    /// Stable classification label (the report's distribution key).
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::MutationInapplicable(_) => "mutation-inapplicable",
            Outcome::RejectedAtBuild(_) => "rejected-at-build",
            Outcome::RejectedByGenerator(_) => "rejected-by-generator",
            Outcome::GeneratorPanic(_) => "generator-panic",
            Outcome::Caught { family: SERVE_CONFORMANCE, .. } => "rejected-by-oracle",
            Outcome::Caught { .. } => "rejected-by-checker",
            Outcome::ExecViolation(_) => "exec-violation",
            Outcome::CheckerPanic(_) => "checker-panic",
            Outcome::ResourceExhausted(_) => "resource-exhausted",
            Outcome::SilentPass { .. } => "silent-pass",
        }
    }

    /// Whether this outcome is evidence of a toolchain bug (and must be
    /// shrunk and reported).
    pub fn is_unexpected(&self) -> bool {
        matches!(
            self,
            Outcome::GeneratorPanic(_) | Outcome::ExecViolation(_) | Outcome::CheckerPanic(_)
        )
    }

    /// The violated property's family label — the property-aware
    /// taxonomy key (`swmr`, `deadlock`, …) — when an oracle caught the
    /// subject; `None` for every other outcome.
    pub fn family(&self) -> Option<&'static str> {
        match self {
            Outcome::Caught { family, .. } => Some(family),
            _ => None,
        }
    }

    /// The outcome's detail line (violation kind, error message, …).
    pub fn detail(&self) -> String {
        match self {
            Outcome::MutationInapplicable(d)
            | Outcome::RejectedAtBuild(d)
            | Outcome::RejectedByGenerator(d)
            | Outcome::GeneratorPanic(d)
            | Outcome::Caught { detail: d, .. }
            | Outcome::ExecViolation(d)
            | Outcome::CheckerPanic(d)
            | Outcome::ResourceExhausted(d) => d.clone(),
            Outcome::SilentPass { states, transitions } => {
                format!("{states} states, {transitions} transitions")
            }
        }
    }
}

/// The result of running one subject: its outcome plus the checker's
/// counterexample trace when one exists.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The classified outcome.
    pub outcome: Outcome,
    /// Counterexample trace lines (empty unless the checker found a
    /// violation).
    pub trace: Vec<String>,
}

impl RunResult {
    /// `fuzz --replay`'s text report: the outcome's label and detail, then
    /// the counterexample trace, indented.
    pub fn render_text(&self) -> String {
        let mut out = format!("{}: {}\n", self.outcome.label(), self.outcome.detail());
        for line in &self.trace {
            out += &format!("  {line}\n");
        }
        out
    }
}

/// What one pipeline run checks.
#[derive(Debug, Clone)]
pub enum Subject {
    /// A base SSP with mutations, generated under `gen` and checked flat.
    Flat {
        /// The unmutated protocol.
        base: Ssp,
        /// The ordered mutation list.
        mutations: Vec<Mutation>,
        /// The generator configuration.
        gen: GenConfig,
        /// Check the full SC invariant set instead of the properties the
        /// base's memory model promises (the TSO-CC relaxation control).
        full_invariants: bool,
    },
    /// A composition whose derived glue gets mutations, generated under
    /// `gen` and checked hierarchically.
    Glue {
        /// The stack.
        comp: Composition,
        /// The ordered glue mutation list.
        mutations: Vec<GlueMutation>,
        /// The generator configuration of every level.
        gen: GenConfig,
    },
}

impl Subject {
    /// Runs the subject through its stages with a `budget`-state
    /// quick-check. Never panics: every stage is guarded, every failure
    /// is classified.
    pub fn run(&self, budget: usize) -> RunResult {
        let checked = match self {
            Subject::Flat { base, mutations, gen, full_invariants } => {
                flat(base, mutations, gen, budget, *full_invariants)
            }
            Subject::Glue { comp, mutations, gen } => glue(comp, mutations, gen, budget),
        };
        checked.map_or_else(|outcome| RunResult { outcome, trace: Vec::new() }, classify)
    }
}

/// The flat stages: mutate → validate → generate → model-check.
fn flat(
    base: &Ssp,
    mutations: &[Mutation],
    gen: &GenConfig,
    budget: usize,
    full_invariants: bool,
) -> Result<CheckResult, Outcome> {
    let ssp =
        guard(|| apply_all(base, mutations), Outcome::MutationInapplicable, during("mutation"))?;
    guard(|| ssp.validate(), Outcome::RejectedAtBuild, during("validation"))?;
    let g = guard(|| generate(&ssp, gen), Outcome::RejectedByGenerator, Outcome::GeneratorPanic)?;
    let cfg = quick_check_config(&ssp, budget, full_invariants);
    checked(|| ModelChecker::new(&g.cache, &g.directory, cfg).run())
}

/// The glue stages: compose → mutate the derived glue → hierarchical
/// check, on one checker thread as flat mutants get (the campaign
/// parallelizes across mutants instead).
fn glue(
    comp: &Composition,
    mutations: &[GlueMutation],
    gen: &GenConfig,
    budget: usize,
) -> Result<CheckResult, Outcome> {
    let mut composed =
        guard(|| compose(comp, gen), Outcome::RejectedByGenerator, Outcome::GeneratorPanic)?;
    let mutate = || mutations.iter().try_for_each(|&m| apply_glue(&mut composed, m));
    guard(mutate, Outcome::MutationInapplicable, during("mutation"))?;
    let cfg = HierConfig { max_states: budget.max(1), threads: 1, ..HierConfig::default() };
    checked(|| HierChecker::new(&composed, cfg).check())
}

/// The one stage guard: runs `stage`, turning its structured error into
/// `rejected(message)` and a panic into `panicked(message)`.
fn guard<T, E: Display>(
    stage: impl FnOnce() -> Result<T, E>,
    rejected: impl FnOnce(String) -> Outcome,
    panicked: impl FnOnce(String) -> Outcome,
) -> Result<T, Outcome> {
    match std::panic::catch_unwind(AssertUnwindSafe(stage)) {
        Ok(result) => result.map_err(|e| rejected(e.to_string())),
        Err(payload) => Err(panicked(panic_message(payload))),
    }
}

/// A panic in a stage before generation, named after the stage.
fn during(stage: &'static str) -> impl FnOnce(String) -> Outcome {
    move |p| Outcome::GeneratorPanic(format!("during {stage}: {p}"))
}

/// The check stage: a checker has no structured error, only a verdict or
/// a panic.
fn checked(check: impl FnOnce() -> CheckResult) -> Result<CheckResult, Outcome> {
    guard(|| Ok::<_, Infallible>(check()), Outcome::CheckerPanic, Outcome::CheckerPanic)
}

/// Renders a captured panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The property-aware taxonomy key for a caught violation: which
/// checker property family fired, so report distributions distinguish
/// *which* property did the catching.
fn violation_family(kind: &ViolationKind) -> &'static str {
    match kind {
        ViolationKind::Swmr(_) => "swmr",
        ViolationKind::DataValue(_) => "data-value",
        ViolationKind::Deadlock => "deadlock",
        ViolationKind::UnexpectedMessage(_) => "unexpected-message",
        ViolationKind::ChannelOverflow(_) => "channel-overflow",
        ViolationKind::IllegalAction(_) => "illegal-action",
        // `Exec` is classified as `Outcome::ExecViolation` before this
        // function is ever consulted.
        ViolationKind::Exec(_) => "exec",
    }
}

/// The verdict rule for a finished checker run, flat or composed: a
/// violation is caught (or, for [`ViolationKind::Exec`], a generator bug),
/// a resource limit leaves the verdict unknown, and anything else passed.
pub(crate) fn classify(r: CheckResult) -> RunResult {
    let outcome = match (&r.violation, r.limit) {
        (Some(v), _) => match &v.kind {
            ViolationKind::Exec(d) => Outcome::ExecViolation(d.clone()),
            kind => Outcome::Caught { family: violation_family(kind), detail: kind.to_string() },
        },
        (None, Some(limit)) => Outcome::ResourceExhausted(limit.to_string()),
        (None, None) => Outcome::SilentPass { states: r.states, transitions: r.transitions },
    };
    RunResult { outcome, trace: r.violation.map(|v| v.trace).unwrap_or_default() }
}

/// The budgeted quick-check configuration for `ssp`: 2 caches, one
/// worker, `budget` states. Mutants are checked against the property set
/// their base spec's memory model promises
/// ([`protogen_mc::PropertySet::promised`]), exactly as the conformance
/// matrix does; `full_invariants` forces the complete SC set anyway (the
/// relaxation negative control).
fn quick_check_config(ssp: &Ssp, budget: usize, full_invariants: bool) -> McConfig {
    let mut cfg = McConfig::with_caches(2);
    cfg.threads = 1;
    cfg.max_states = budget.max(1);
    cfg.ordered = ssp.network_ordered;
    if !full_invariants {
        // Check the properties the mutated spec's base model promises —
        // SC mutants keep the full set, weak-memory mutants get theirs.
        cfg.properties = PropertySet::promised(ssp.consistency);
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::MutOp;

    fn run_mutant(
        base: &Ssp,
        mutations: &[Mutation],
        gen: &GenConfig,
        budget: usize,
        full_invariants: bool,
    ) -> RunResult {
        let (base, mutations, gen) = (base.clone(), mutations.to_vec(), gen.clone());
        Subject::Flat { base, mutations, gen, full_invariants }.run(budget)
    }

    #[test]
    fn unmutated_msi_passes_silently() {
        let ssp = protogen_protocols::msi();
        let r = run_mutant(&ssp, &[], &GenConfig::non_stalling(), 200_000, false);
        assert!(matches!(r.outcome, Outcome::SilentPass { .. }), "{:?}", r.outcome);
        assert!(r.trace.is_empty());
    }

    #[test]
    fn tiny_budget_reports_resource_exhaustion() {
        let ssp = protogen_protocols::msi();
        let r = run_mutant(&ssp, &[], &GenConfig::non_stalling(), 10, false);
        assert!(matches!(r.outcome, Outcome::ResourceExhausted(_)), "{:?}", r.outcome);
    }

    #[test]
    fn tso_cc_full_invariants_are_caught() {
        let ssp = protogen_protocols::tso_cc();
        let r = run_mutant(&ssp, &[], &GenConfig::non_stalling(), 200_000, true);
        assert!(matches!(r.outcome, Outcome::Caught { .. }), "{:?}", r.outcome);
        assert!(r.outcome.family().is_some(), "caught outcomes carry a property family");
        assert!(!r.trace.is_empty(), "caught outcomes carry the counterexample");
        // …and with its own contract it passes.
        let r = run_mutant(&ssp, &[], &GenConfig::non_stalling(), 200_000, false);
        assert!(matches!(r.outcome, Outcome::SilentPass { .. }), "{:?}", r.outcome);
    }

    #[test]
    fn readable_state_without_data_is_rejected_at_build() {
        // Fuzz regression (seed 1, mutant 4): flipping I's permission to
        // Read used to generate controllers whose transient hit arcs
        // failed at run time with an exec violation ("load on invalid
        // data"). The contradiction is now rejected at build.
        let ssp = protogen_protocols::msi();
        let muts = [crate::mutate::Mutation { op: MutOp::FlipPermission, site: 0 }];
        let r = run_mutant(&ssp, &muts, &GenConfig::non_stalling(), 50_000, false);
        assert!(matches!(r.outcome, Outcome::RejectedAtBuild(_)), "{:?}", r.outcome);
        assert!(r.outcome.detail().contains("`I`"), "{}", r.outcome.detail());
    }

    #[test]
    fn ambiguous_forward_error_text_is_pinned() {
        // Fuzz regression (seed 1, mutant 112): a retargeted completion
        // makes a transaction from S end in S, so `Inv` is associated with
        // both its initial and its final state. The generator's message
        // is user-visible (it is the record's detail line) and once
        // carried 30 spaces from a lost line continuation.
        let script = crate::Script::parse(
            "protocol mosi\nconfig non-stalling\nmutate swap-transition-target 5\n",
        )
        .unwrap();
        let r = script.subject(protogen_protocols::by_name(&script.protocol).unwrap()).run(50_000);
        assert_eq!(
            r.outcome,
            Outcome::RejectedByGenerator(
                "ambiguous specification: forward `Inv` can arrive in both the initial state S \
                 and a final state S of the same transaction; it needs renaming"
                    .into()
            )
        );
    }

    #[test]
    fn send_to_missing_owner_is_caught_not_unexpected() {
        // Fuzz regression (seed 1, mutant 444): retargeting
        // msi-unordered's forward sends twice makes the directory address
        // an owner it never recorded. The runtime's refusal is a
        // *protocol* violation the checker catches (an illegal action),
        // not a toolchain bug.
        let ssp = protogen_protocols::msi_unordered();
        let muts = [
            crate::mutate::Mutation { op: MutOp::RetargetForward, site: 0 },
            crate::mutate::Mutation { op: MutOp::RetargetForward, site: 0 },
        ];
        let r = run_mutant(&ssp, &muts, &GenConfig::stalling(), 50_000, false);
        assert!(matches!(r.outcome, Outcome::Caught { .. }), "{:?}", r.outcome);
        assert_eq!(r.outcome.family(), Some("illegal-action"));
        assert!(r.outcome.detail().contains("illegal action"), "{}", r.outcome.detail());
        assert!(!r.outcome.is_unexpected());
    }

    #[test]
    fn out_of_range_site_is_classified_not_fatal() {
        let ssp = protogen_protocols::msi();
        let muts = [crate::mutate::Mutation { op: MutOp::DropDirReaction, site: 9999 }];
        let r = run_mutant(&ssp, &muts, &GenConfig::non_stalling(), 1000, false);
        assert!(matches!(r.outcome, Outcome::MutationInapplicable(_)));
    }
}
