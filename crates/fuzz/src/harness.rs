//! Running one mutant through the pipeline and classifying what happened.
//!
//! The harness drives `validate → generate → model-check` with every stage
//! under `catch_unwind`, so a mutant can *never* abort the fuzzing
//! process: a panic anywhere in the pipeline is captured and classified
//! as an unexpected outcome (the bug class the fuzzer exists to find).
//!
//! The model-check stage runs in budgeted quick-check mode: 2 caches, one
//! worker thread, a configurable state budget, and the structured
//! resource-exhaustion outcome from [`protogen_mc`] when the budget is
//! spent — never an abort.

use crate::mutate::{apply_all, Mutation};
use protogen_core::{generate, GenConfig};
use protogen_mc::{McConfig, ModelChecker, PropertySet, ViolationKind};
use protogen_spec::Ssp;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What running one mutant through the pipeline produced.
///
/// The first three variants are the *working* rejection paths (the
/// toolchain noticed something was off and said so); `Caught` is the
/// checker doing its oracle job; the `…Panic` and `ExecViolation`
/// variants are **unexpected** — evidence of a toolchain bug — and get
/// shrunk to a minimal reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A mutation site was out of range (only reachable while shrinking).
    MutationInapplicable(String),
    /// `Ssp::validate` rejected the mutant.
    RejectedAtBuild(String),
    /// `generate` returned a structured [`protogen_core::GenError`].
    RejectedByGenerator(String),
    /// A pre-checking stage (mutation application, validation, or the
    /// generator itself) panicked — an unexpected toolchain bug. The
    /// message names the stage.
    GeneratorPanic(String),
    /// The model checker found a protocol violation (SWMR, data value,
    /// deadlock, unexpected message, channel overflow, a named custom
    /// property): the oracle caught the mutant. Carries the violated
    /// property's family label (the property-aware taxonomy key) and the
    /// rendered violation kind.
    Caught {
        /// Which property family fired: `swmr`, `data-value`,
        /// `deadlock`, `unexpected-message`, `channel-overflow`,
        /// `illegal-action`, or `property:<name>` for a custom
        /// [`protogen_mc::Predicate`].
        family: String,
        /// The rendered violation kind.
        detail: String,
    },
    /// The checker hit a [`ViolationKind::Exec`] violation: the runtime
    /// rejected an action the generator emitted — an unexpected
    /// generator bug surfaced at run time.
    ExecViolation(String),
    /// The model checker itself panicked — an unexpected toolchain bug.
    CheckerPanic(String),
    /// The budgeted quick-check ran out of states before exhausting the
    /// space (verdict unknown).
    ResourceExhausted(String),
    /// The mutant generated and verified clean: the mutation was
    /// behaviour-preserving or unobservable at 2 caches.
    SilentPass {
        /// States the quick-check explored.
        states: usize,
        /// Transitions it fired.
        transitions: usize,
    },
}

impl Outcome {
    /// Stable classification label (the report's distribution key).
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::MutationInapplicable(_) => "mutation-inapplicable",
            Outcome::RejectedAtBuild(_) => "rejected-at-build",
            Outcome::RejectedByGenerator(_) => "rejected-by-generator",
            Outcome::GeneratorPanic(_) => "generator-panic",
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
    /// taxonomy key (`swmr`, `deadlock`, `property:<name>`, …) — when
    /// the checker caught this mutant; `None` for every other outcome.
    pub fn family(&self) -> Option<&str> {
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

/// The result of running one mutant: its outcome plus the checker's
/// counterexample trace when one exists.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The classified outcome.
    pub outcome: Outcome,
    /// Counterexample trace lines (empty unless the checker found a
    /// violation).
    pub trace: Vec<String>,
}

/// The property-aware taxonomy key for a caught violation: which
/// checker property family fired. Built-in invariants get a fixed slug;
/// custom predicates get `property:<name>` so report distributions
/// distinguish *which* property did the catching.
pub(crate) fn violation_family(kind: &ViolationKind) -> String {
    match kind {
        ViolationKind::Swmr(_) => "swmr".to_string(),
        ViolationKind::DataValue(_) => "data-value".to_string(),
        ViolationKind::Deadlock => "deadlock".to_string(),
        ViolationKind::UnexpectedMessage(_) => "unexpected-message".to_string(),
        ViolationKind::ChannelOverflow(_) => "channel-overflow".to_string(),
        ViolationKind::IllegalAction(_) => "illegal-action".to_string(),
        ViolationKind::Property { property, .. } => format!("property:{property}"),
        // `Exec` is classified as `Outcome::ExecViolation` before this
        // function is ever consulted.
        ViolationKind::Exec(_) => "exec".to_string(),
    }
}

/// Renders a captured panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The budgeted quick-check configuration for `ssp`: 2 caches, one
/// worker, `budget` states. Mutants are checked against the property set
/// their base spec's memory model promises
/// ([`protogen_mc::PropertySet::promised`]), exactly as the conformance
/// matrix does; `full_invariants` forces the complete SC set anyway (the
/// relaxation negative control).
pub fn quick_check_config(ssp: &Ssp, budget: usize, full_invariants: bool) -> McConfig {
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

/// Runs `base + mutations` through the pipeline under `gen_cfg`.
///
/// Never panics: every stage is wrapped, every failure is classified.
pub fn run_mutant(
    base: &Ssp,
    mutations: &[Mutation],
    gen_cfg: &GenConfig,
    budget: usize,
    full_invariants: bool,
) -> RunResult {
    let no_trace = |outcome| RunResult { outcome, trace: Vec::new() };
    // Mutation application and validation are wrapped like every later
    // stage: the harness contract is that *no* mutant input can abort
    // the campaign, however pathological.
    let ssp = match catch_unwind(AssertUnwindSafe(|| apply_all(base, mutations))) {
        Ok(Ok(ssp)) => ssp,
        Ok(Err(e)) => return no_trace(Outcome::MutationInapplicable(e.to_string())),
        Err(payload) => {
            return no_trace(Outcome::GeneratorPanic(format!(
                "during mutation: {}",
                panic_message(payload)
            )))
        }
    };
    match catch_unwind(AssertUnwindSafe(|| ssp.validate())) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return no_trace(Outcome::RejectedAtBuild(e.to_string())),
        Err(payload) => {
            return no_trace(Outcome::GeneratorPanic(format!(
                "during validation: {}",
                panic_message(payload)
            )))
        }
    }
    let generated = match catch_unwind(AssertUnwindSafe(|| generate(&ssp, gen_cfg))) {
        Ok(Ok(g)) => g,
        Ok(Err(e)) => return no_trace(Outcome::RejectedByGenerator(e.to_string())),
        Err(payload) => return no_trace(Outcome::GeneratorPanic(panic_message(payload))),
    };
    let mc_cfg = quick_check_config(&ssp, budget, full_invariants);
    let result = catch_unwind(AssertUnwindSafe(|| {
        ModelChecker::new(&generated.cache, &generated.directory, mc_cfg).run()
    }));
    match result {
        Err(payload) => no_trace(Outcome::CheckerPanic(panic_message(payload))),
        Ok(r) => {
            if let Some(v) = r.violation {
                let outcome = match &v.kind {
                    ViolationKind::Exec(d) => Outcome::ExecViolation(d.clone()),
                    kind => {
                        Outcome::Caught { family: violation_family(kind), detail: kind.to_string() }
                    }
                };
                RunResult { outcome, trace: v.trace }
            } else if let Some(limit) = r.limit {
                no_trace(Outcome::ResourceExhausted(limit.to_string()))
            } else {
                no_trace(Outcome::SilentPass { states: r.states, transitions: r.transitions })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::MutOp;

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
        let ssp = protogen_protocols::by_name(&script.protocol).unwrap();
        let r = run_mutant(&ssp, &script.mutations, &script.gen_config(), 50_000, false);
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
