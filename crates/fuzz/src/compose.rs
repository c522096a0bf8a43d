//! Composition-aware mutation: perturb the *derived glue* of a composed
//! stack and require the hierarchical checker to notice.
//!
//! The flat operators in [`crate::mutate`] rewrite an SSP before
//! generation; a composed stack has a second attack surface the SSP never
//! sees — the glue the composition pass derives between levels. The
//! operator here weakens one inner message's outer-permission gate
//! (e.g. `GetM: ReadWrite → Read`), which is precisely the read-holding
//! bug class the exclusive-at-parent discipline exists to prevent
//! (DESIGN.md §12): a parent holding only a read copy serves an inner
//! write, and two subtrees end up with incompatible leaf permissions. The
//! seeded negative control pins that the hierarchical checker catches it.

use crate::harness::{panic_message, violation_family, Outcome, RunResult};
use protogen_core::{compose, Composed, GenConfig};
use protogen_mc::{HierChecker, HierConfig, ViolationKind};
use protogen_spec::{Composition, Perm};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One glue mutation: weaken the outer permission that inner message
/// `msg` of glue layer `level` needs at its hosting node before delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlueMutation {
    /// Glue layer index (`0` gates level 0's directory behind level 1's
    /// cache side).
    pub level: usize,
    /// Inner `MsgId` index whose gate is rewritten.
    pub msg: usize,
    /// The weakened requirement.
    pub to: Perm,
}

impl std::fmt::Display for GlueMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "glue[{}].needed_perm[{}] -> {}", self.level, self.msg, self.to)
    }
}

/// Applies `m` to a composed stack's derived glue.
///
/// # Errors
///
/// Returns a message when the site is out of range or the mutation does
/// not actually *weaken* the gate (a no-op or strengthening mutant would
/// silently pass and prove nothing).
pub fn apply_glue(c: &mut Composed, m: GlueMutation) -> Result<(), String> {
    let layers = c.glue.len();
    let glue = c
        .glue
        .get_mut(m.level)
        .ok_or(format!("glue level {} out of range 0..{layers}", m.level))?;
    let slot =
        glue.needed_perm.get_mut(m.msg).ok_or(format!("message index {} out of range", m.msg))?;
    if m.to >= *slot {
        return Err(format!("{} does not weaken the derived gate {}", m.to, *slot));
    }
    *slot = m.to;
    Ok(())
}

/// Runs a composition with `mutations` applied to its derived glue
/// through the hierarchical checker, classifying the outcome exactly as
/// [`crate::run_mutant`] does for flat mutants. Never panics.
pub fn run_composed_mutant(
    comp: &Composition,
    mutations: &[GlueMutation],
    gen_cfg: &GenConfig,
    budget: usize,
) -> RunResult {
    let no_trace = |outcome| RunResult { outcome, trace: Vec::new() };
    let mut composed = match catch_unwind(AssertUnwindSafe(|| compose(comp, gen_cfg))) {
        Ok(Ok(c)) => c,
        Ok(Err(e)) => return no_trace(Outcome::RejectedByGenerator(e.to_string())),
        Err(payload) => return no_trace(Outcome::GeneratorPanic(panic_message(payload))),
    };
    for &m in mutations {
        if let Err(e) = apply_glue(&mut composed, m) {
            return no_trace(Outcome::MutationInapplicable(e));
        }
    }
    // One checker thread per mutant, as `quick_check_config` pins for flat
    // mutants: the campaign parallelizes across mutants instead.
    let cfg = HierConfig { max_states: budget.max(1), threads: 1, ..HierConfig::default() };
    let result = catch_unwind(AssertUnwindSafe(|| HierChecker::new(&composed, cfg).check()));
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
            } else if r.hit_state_limit {
                no_trace(Outcome::ResourceExhausted(format!("state budget of {budget} exhausted")))
            } else {
                no_trace(Outcome::SilentPass { states: r.states, transitions: r.transitions })
            }
        }
    }
}

/// The seeded composed negative control: the 2×2 MSI-under-MSI stack
/// with the `GetM` gate weakened `ReadWrite → Read`. Returns the
/// composition and the mutation so callers (the campaign, tests, CI) run
/// it identically.
pub fn glue_control() -> (Composition, GlueMutation) {
    let comp = protogen_protocols::msi_under_msi(2, 2);
    let getm =
        comp.levels[0].ssp.msg_by_name("GetM").expect("bundled MSI declares GetM").as_usize();
    (comp, GlueMutation { level: 0, msg: getm, to: Perm::Read })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmutated_composition_passes_silently() {
        let (comp, _) = glue_control();
        let r = run_composed_mutant(&comp, &[], &GenConfig::stalling(), 1_000_000);
        assert!(matches!(r.outcome, Outcome::SilentPass { .. }), "{:?}", r.outcome);
    }

    #[test]
    fn weakened_getm_gate_is_caught() {
        // The must-catch control: serving an inner write from a
        // read-holding parent breaks leaf-level coherence, and the
        // checker must say so with a counterexample.
        let (comp, m) = glue_control();
        let r = run_composed_mutant(&comp, &[m], &GenConfig::stalling(), 1_000_000);
        let Outcome::Caught { family, .. } = &r.outcome else {
            panic!("expected a caught violation, got {:?}", r.outcome);
        };
        assert_eq!(family, "swmr", "a weakened write gate must break SWMR");
        assert!(!r.trace.is_empty(), "caught outcomes carry the counterexample");
    }

    #[test]
    fn non_weakening_mutations_are_inapplicable() {
        let (comp, mut m) = glue_control();
        m.to = Perm::ReadWrite; // no-op, not a weakening
        let r = run_composed_mutant(&comp, &[m], &GenConfig::stalling(), 10_000);
        assert!(matches!(r.outcome, Outcome::MutationInapplicable(_)), "{:?}", r.outcome);
        m.msg = 9999;
        let r = run_composed_mutant(&comp, &[m], &GenConfig::stalling(), 10_000);
        assert!(matches!(r.outcome, Outcome::MutationInapplicable(_)), "{:?}", r.outcome);
    }
}
