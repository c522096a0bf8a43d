//! Greedy counterexample shrinking: reduce a mutation list to a minimal
//! set that still produces the same outcome class.
//!
//! The fuzzer applies 1–3 mutations per mutant, so the search space is
//! tiny; a greedy delta-debugging loop (try dropping each mutation, keep
//! the drop while the outcome label is preserved, repeat to fixpoint) is
//! exact enough and deterministic.

use crate::harness::{Outcome, RunResult};
use crate::script::Script;
use protogen_spec::Ssp;

/// A shrunk reproducer: the minimal script plus the rerun that confirms
/// it still produces the target outcome.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The script with the minimal mutation list (never empty unless the
    /// base protocol itself produces the outcome).
    pub script: Script,
    /// The confirming run of the minimal script.
    pub result: RunResult,
}

/// Shrinks `script`'s mutations against `base`, preserving the *label* of
/// the original run's `target` outcome (panic messages may differ between
/// equivalent reproducers; the class is what matters).
///
/// Deterministic: the scan order is left to right, restarting after every
/// successful removal, so the result depends only on the inputs.
pub fn shrink(base: &Ssp, script: &Script, budget: usize, target: &Outcome) -> Shrunk {
    let mut current = script.clone();
    'outer: loop {
        for i in 0..current.mutations.len() {
            let mut candidate = current.clone();
            candidate.mutations.remove(i);
            let r = candidate.subject(base.clone()).run(budget);
            if r.outcome.label() == target.label() {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    let result = current.subject(base.clone()).run(budget);
    Shrunk { script: current, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::{MutOp, Mutation};

    #[test]
    fn shrinking_drops_irrelevant_mutations() {
        // A caught mutation (flip S to ReadWrite) padded with a harmless
        // one (reorder wait arcs): shrinking must isolate the flip.
        let base = protogen_protocols::msi();
        let s = base.cache.state_by_name("S").unwrap();
        let muts = vec![
            Mutation { op: MutOp::ReorderWaitArcs, site: 0 },
            Mutation { op: MutOp::FlipPermission, site: s.as_usize() },
        ];
        let script = Script { protocol: "msi".into(), stalling: false, mutations: muts };
        let full = script.subject(base.clone()).run(200_000);
        assert_eq!(full.outcome.label(), "rejected-by-checker", "{:?}", full.outcome);
        let shrunk = shrink(&base, &script, 200_000, &full.outcome);
        assert_eq!(shrunk.script.mutations.len(), 1, "{:?}", shrunk.script);
        assert_eq!(shrunk.script.mutations[0].op, MutOp::FlipPermission);
        assert_eq!(shrunk.result.outcome.label(), "rejected-by-checker");
    }
}
