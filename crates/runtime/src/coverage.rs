//! Control coverage: the one record of which `(machine, state, event)`
//! dispatches an executor attempted.
//!
//! The checkers, the simulator and the live service drive the same
//! generated FSMs through [`crate::Machine`], and each records every
//! dispatch it attempts through a [`Coverage`], always. That makes them
//! comparable: a simulated or live run must never dispatch on a pair the
//! exhaustive model checker did not visit at the same cache count (the
//! conformance property of `tests/sim_conformance.rs` and `serve`'s
//! checked envelope).
//!
//! With hierarchical composition (DESIGN.md §12) a system runs several
//! protocol levels at once, so a tag is no longer just "cache or
//! directory": it is a *(level, role)* pair. Level 0 is the leaf protocol;
//! level `j`'s directory side is physically hosted by the level-`j+1`
//! nodes. Flat single-level tools use the [`MachineTag::CACHE`] /
//! [`MachineTag::DIRECTORY`] constants, which keep the old ordering
//! (caches sort before directories) so existing pair sets are unchanged.

use crate::index::{event_at, event_offset};
use protogen_spec::{Event, Fsm, FsmStateId};
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

/// One machine's record of the dispatches a worker attempted: one bit per
/// `(state, event)` slot, laid out like [`crate::FsmIndex`]'s table, so
/// recording is a single OR on the hot path. Each worker keeps its own
/// recorders and [`Coverage::merge`] folds them into one [`PairSet`] when
/// the run ends — no shared line is written while it runs.
#[derive(Debug, Clone)]
pub struct Coverage {
    tag: MachineTag,
    events_per_state: usize,
    bits: Vec<u64>,
}

impl Coverage {
    /// An empty record for the machine `tag` names, which runs `fsm`.
    pub fn new(fsm: &Fsm, tag: MachineTag) -> Coverage {
        let events_per_state = 3 + fsm.messages.len();
        let slots = fsm.state_count() * events_per_state;
        Coverage { tag, events_per_state, bits: vec![0; slots.div_ceil(64)] }
    }

    /// Empty records for both sides of protocol level `level`, cache first.
    pub fn level(cache: &Fsm, dir: &Fsm, level: u8) -> [Coverage; 2] {
        [
            Coverage::new(cache, MachineTag::cache(level)),
            Coverage::new(dir, MachineTag::directory(level)),
        ]
    }

    /// Notes that the machine, in `state`, was offered `event`.
    #[inline]
    pub fn record(&mut self, state: FsmStateId, event: Event) {
        let slot = state.as_usize() * self.events_per_state + event_offset(event);
        self.bits[slot / 64] |= 1 << (slot % 64);
    }

    /// Every pair the recorders hold, as one set: their union, whatever
    /// the order they come in.
    pub fn merge<'c>(recorders: impl IntoIterator<Item = &'c Coverage>) -> PairSet {
        let mut out = PairSet::new();
        for cov in recorders {
            for (word_ix, &word) in cov.bits.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let slot = word_ix * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    let state = FsmStateId((slot / cov.events_per_state) as u32);
                    out.insert((cov.tag, state, event_at(slot % cov.events_per_state)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_spec::{Access, FsmState, FsmStateKind, MachineKind, MsgClass, MsgDecl, MsgId};
    use protogen_spec::{Perm, StableId};

    /// A directory FSM of 5 states and 10 message types: 5 × 13 = 65 slots,
    /// so the record spans two words and slot 64 is the second's first bit.
    fn two_word_fsm() -> Fsm {
        let state = |i: u16| FsmState {
            name: format!("S{i}"),
            kind: FsmStateKind::Stable(StableId(i)),
            state_sets: vec![],
            perm: Perm::None,
            data_valid: false,
            merged_names: vec![],
        };
        Fsm {
            protocol: "t".into(),
            machine: MachineKind::Directory,
            messages: (0..10).map(|m| MsgDecl::new(format!("M{m}"), MsgClass::Request)).collect(),
            states: (0..5).map(state).collect(),
            arcs: vec![],
        }
    }

    /// Every `(state, event)` slot of `two_word_fsm`, in slot order.
    fn all_slots() -> Vec<(FsmStateId, Event)> {
        let events: Vec<Event> = Access::ALL
            .into_iter()
            .map(Event::Access)
            .chain((0..10).map(|m| Event::Msg(MsgId(m))))
            .collect();
        (0..5).flat_map(|s| events.iter().map(move |&e| (FsmStateId(s), e))).collect()
    }

    fn recorded(slots: &[(FsmStateId, Event)]) -> Coverage {
        let mut cov = Coverage::new(&two_word_fsm(), MachineTag::DIRECTORY);
        for &(state, event) in slots {
            cov.record(state, event);
        }
        cov
    }

    #[test]
    fn every_recorded_slot_merges_back_exactly_once() {
        let slots = all_slots();
        assert_eq!(slots.len(), 65, "the record must cross a word boundary");
        // Each slot recorded twice: a record is a set, not a count.
        let cov = recorded(&[slots.clone(), slots.clone()].concat());
        let merged = Coverage::merge([&cov]);
        let want: PairSet = slots.iter().map(|&(s, e)| (MachineTag::DIRECTORY, s, e)).collect();
        assert_eq!(merged, want);
        // A sparse subset straddling the boundary comes back as itself.
        let some: Vec<_> = (slots.iter().enumerate())
            .filter(|(i, _)| i % 7 == 0 || *i >= 63)
            .map(|(_, &slot)| slot)
            .collect();
        let merged = Coverage::merge([&recorded(&some)]);
        assert_eq!(merged.len(), some.len());
        assert!(some.iter().all(|&(s, e)| merged.contains(&(MachineTag::DIRECTORY, s, e))));
    }

    #[test]
    fn merging_recorders_is_their_union_in_any_order() {
        let slots = all_slots();
        let (evens, thirds): (Vec<_>, Vec<_>) = (
            slots.iter().copied().step_by(2).collect(),
            slots.iter().copied().skip(1).step_by(3).collect(),
        );
        let (a, b) = (recorded(&evens), recorded(&thirds));
        let union: PairSet = Coverage::merge([&a]).union(&Coverage::merge([&b])).copied().collect();
        assert_eq!(Coverage::merge([&a, &b]), union);
        assert_eq!(Coverage::merge([&b, &a]), union);
        assert!(Coverage::merge(std::iter::empty()).is_empty());
    }

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
