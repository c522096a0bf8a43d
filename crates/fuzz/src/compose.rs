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

use protogen_core::Composed;
use protogen_spec::{Composition, Perm};

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

/// The seeded composed negative control: the 2×2 MSI-under-MSI stack
/// with the `GetM` gate weakened `ReadWrite → Read`. Returns the
/// composition and the mutation so callers (the campaign, tests, CI) run
/// it identically; [`crate::Subject::Glue`] runs it through the pipeline.
pub fn glue_control() -> (Composition, GlueMutation) {
    let comp = protogen_protocols::msi_under_msi(2, 2);
    let getm =
        comp.levels[0].ssp.msg_by_name("GetM").expect("bundled MSI declares GetM").as_usize();
    (comp, GlueMutation { level: 0, msg: getm, to: Perm::Read })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, RunResult, Subject};
    use protogen_core::GenConfig;

    fn run_glue(
        comp: &Composition,
        mutations: &[GlueMutation],
        gen: &GenConfig,
        budget: usize,
    ) -> RunResult {
        let (comp, mutations, gen) = (comp.clone(), mutations.to_vec(), gen.clone());
        Subject::Glue { comp, mutations, gen }.run(budget)
    }

    #[test]
    fn unmutated_composition_passes_silently() {
        let (comp, _) = glue_control();
        let r = run_glue(&comp, &[], &GenConfig::stalling(), 1_000_000);
        assert!(matches!(r.outcome, Outcome::SilentPass { .. }), "{:?}", r.outcome);
    }

    #[test]
    fn weakened_getm_gate_is_caught() {
        // The must-catch control: serving an inner write from a
        // read-holding parent breaks leaf-level coherence, and the
        // checker must say so with a counterexample.
        let (comp, m) = glue_control();
        let r = run_glue(&comp, &[m], &GenConfig::stalling(), 1_000_000);
        let Outcome::Caught { family, .. } = &r.outcome else {
            panic!("expected a caught violation, got {:?}", r.outcome);
        };
        assert_eq!(*family, "swmr", "a weakened write gate must break SWMR");
        assert!(!r.trace.is_empty(), "caught outcomes carry the counterexample");
    }

    #[test]
    fn budget_stops_name_the_limit_like_flat_ones() {
        let (comp, _) = glue_control();
        let r = run_glue(&comp, &[], &GenConfig::stalling(), 10);
        assert_eq!(r.outcome, Outcome::ResourceExhausted("state budget exhausted".into()));
        assert!(r.trace.is_empty());
    }

    #[test]
    fn non_weakening_mutations_are_inapplicable() {
        let (comp, mut m) = glue_control();
        m.to = Perm::ReadWrite; // no-op, not a weakening
        let r = run_glue(&comp, &[m], &GenConfig::stalling(), 10_000);
        assert!(matches!(r.outcome, Outcome::MutationInapplicable(_)), "{:?}", r.outcome);
        m.msg = 9999;
        let r = run_glue(&comp, &[m], &GenConfig::stalling(), 10_000);
        assert!(matches!(r.outcome, Outcome::MutationInapplicable(_)), "{:?}", r.outcome);
    }
}
