//! Control-coverage bookkeeping shared by the model checker and the
//! simulator.
//!
//! Both tools drive the same generated FSMs through [`crate::Machine`];
//! recording every `(machine, state, event)` dispatch they attempt makes
//! the two comparable: a simulated run under an ordered network must never
//! observe a pair the exhaustive model checker did not visit at the same
//! cache count (the conformance property tested in
//! `tests/sim_conformance.rs`).
//!
//! With hierarchical composition (DESIGN.md §12) a system runs several
//! protocol levels at once, so a tag is no longer just "cache or
//! directory": it is a *(level, role)* pair. Level 0 is the leaf protocol;
//! level `j`'s directory side is physically hosted by the level-`j+1`
//! nodes. Flat single-level tools use the [`MachineTag::CACHE`] /
//! [`MachineTag::DIRECTORY`] constants, which keep the old ordering
//! (caches sort before directories) so existing pair sets are unchanged.

use protogen_spec::{Event, FsmStateId};
use std::collections::BTreeSet;

/// Which side of a protocol level a machine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MachineRole {
    /// A cache controller (the requesting side of its level).
    Cache,
    /// A directory controller (the serving side of its level).
    Directory,
}

/// Which controller observed a pair: a role at a protocol level.
///
/// In a flat system there is exactly one level, so every tag is
/// [`MachineTag::CACHE`] or [`MachineTag::DIRECTORY`]. In a composed
/// system (`protogen-mc`'s hierarchical checker) the level says which
/// protocol of the composition the machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineTag {
    /// Protocol level, leaf-first: 0 is the leaf protocol.
    pub level: u8,
    /// Cache or directory side of that level.
    pub role: MachineRole,
}

impl MachineTag {
    /// The flat (single-level) cache controller tag.
    pub const CACHE: MachineTag = MachineTag { level: 0, role: MachineRole::Cache };

    /// The flat (single-level) directory controller tag.
    pub const DIRECTORY: MachineTag = MachineTag { level: 0, role: MachineRole::Directory };

    /// The cache-side tag of protocol level `level`.
    pub fn cache(level: u8) -> MachineTag {
        MachineTag { level, role: MachineRole::Cache }
    }

    /// The directory-side tag of protocol level `level`.
    pub fn directory(level: u8) -> MachineTag {
        MachineTag { level, role: MachineRole::Directory }
    }
}

/// One observed dispatch: this machine, in this FSM state, saw this event.
pub type StateEventPair = (MachineTag, FsmStateId, Event);

/// The set of `(machine, state, event)` pairs a run dispatched on.
///
/// A `BTreeSet` so that unions merge deterministically regardless of the
/// order shards or cycles contributed their observations.
pub type PairSet = BTreeSet<StateEventPair>;

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_spec::Access;

    #[test]
    fn pair_sets_union_and_compare_as_sets() {
        let mut sim = PairSet::new();
        sim.insert((MachineTag::CACHE, FsmStateId(0), Event::Access(Access::Load)));
        let mut mc = sim.clone();
        mc.insert((MachineTag::DIRECTORY, FsmStateId(1), Event::Access(Access::Store)));
        assert!(sim.is_subset(&mc));
        assert!(!mc.is_subset(&sim));
    }

    #[test]
    fn tags_order_by_level_then_role() {
        assert!(MachineTag::CACHE < MachineTag::DIRECTORY);
        assert!(MachineTag::DIRECTORY < MachineTag::cache(1));
        assert!(MachineTag::cache(1) < MachineTag::directory(1));
    }
}
