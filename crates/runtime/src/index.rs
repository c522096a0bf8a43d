//! Precomputed arc lookup tables for the exploration hot path.
//!
//! Scanning every arc of the FSM on each event would be fine for a
//! simulator driving one block, but the model checker selects arcs hundreds
//! of millions of times. [`FsmIndex`] buckets the arcs of an [`Fsm`] by
//! `(source state, event)` once, preserving arc order (first-match
//! semantics), so a lookup touches only the candidate arcs for that slot. The index is immutable after construction and holds
//! no interior mutability, so it is `Sync` and can be shared freely across
//! worker threads.

use protogen_spec::{Access, Event, Fsm, FsmStateId, MsgId};

/// A dense `(state, event) → candidate arcs` table for one [`Fsm`].
///
/// Events are laid out per state as `[Load, Store, Replacement,
/// Msg(0), Msg(1), …]`; each slot holds a contiguous range of indices into
/// a flat arc-index list, in original `Fsm::arcs` order.
#[derive(Debug, Clone)]
pub struct FsmIndex {
    /// Events per state: the three accesses plus one slot per message type.
    events_per_state: usize,
    /// `slots[state * events_per_state + event]` = `(start, end)` into
    /// `arc_ids`.
    slots: Vec<(u32, u32)>,
    /// Arc indices grouped by slot, preserving declaration order within
    /// each slot.
    arc_ids: Vec<u32>,
}

/// Where `event` sits among one state's slots: `[Load, Store,
/// Replacement, Msg(0), Msg(1), …]` (shared with [`crate::Coverage`]).
pub(crate) fn event_offset(event: Event) -> usize {
    match event {
        Event::Access(Access::Load) => 0,
        Event::Access(Access::Store) => 1,
        Event::Access(Access::Replacement) => 2,
        Event::Msg(m) => 3 + m.as_usize(),
    }
}

/// The event at `offset` among one state's slots: [`event_offset`]'s
/// inverse.
pub(crate) fn event_at(offset: usize) -> Event {
    match Access::ALL.get(offset) {
        Some(&access) => Event::Access(access),
        None => Event::Msg(MsgId((offset - 3) as u16)),
    }
}

impl FsmIndex {
    /// Builds the index for `fsm`.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the offending arc when an arc's source
    /// state or message id is out of range for `fsm` — a malformed FSM
    /// would otherwise be silently mis-bucketed into a neighbouring
    /// state's slots.
    pub fn new(fsm: &Fsm) -> Self {
        let events_per_state = 3 + fsm.messages.len();
        let n_slots = fsm.state_count() * events_per_state;
        for (i, arc) in fsm.arcs.iter().enumerate() {
            assert!(
                arc.from.as_usize() < fsm.state_count(),
                "arc {i} leaves unknown state {} (fsm has {} states)",
                arc.from,
                fsm.state_count()
            );
            if let Event::Msg(m) = arc.event {
                assert!(
                    m.as_usize() < fsm.messages.len(),
                    "arc {i} from {} fires on unknown message {} (fsm has {} message types)",
                    arc.from,
                    m,
                    fsm.messages.len()
                );
            }
        }
        // Two passes: count arcs per slot, then fill in order.
        let mut counts = vec![0u32; n_slots];
        let slot_of = |a: &protogen_spec::Arc| -> usize {
            a.from.as_usize() * events_per_state + event_offset(a.event)
        };
        for arc in &fsm.arcs {
            counts[slot_of(arc)] += 1;
        }
        let mut slots = Vec::with_capacity(n_slots);
        let mut start = 0u32;
        for &c in &counts {
            slots.push((start, start));
            start += c;
        }
        let mut arc_ids = vec![0u32; fsm.arcs.len()];
        for (i, arc) in fsm.arcs.iter().enumerate() {
            let slot = &mut slots[slot_of(arc)];
            arc_ids[slot.1 as usize] = i as u32;
            slot.1 += 1;
        }
        FsmIndex { events_per_state, slots, arc_ids }
    }

    /// Indices (into `Fsm::arcs`) of the candidate arcs for `(state,
    /// event)`, in declaration order. Empty when the FSM has no transition
    /// for the event.
    pub fn candidates(&self, state: FsmStateId, event: Event) -> &[u32] {
        let slot = state.as_usize() * self.events_per_state + event_offset(event);
        match self.slots.get(slot) {
            Some(&(start, end)) => &self.arc_ids[start as usize..end as usize],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_spec::{Action, Arc, ArcKind, ArcNote, Guard, MsgId};

    fn fsm_with_arcs(arcs: Vec<Arc>) -> Fsm {
        Fsm {
            protocol: "t".into(),
            machine: protogen_spec::MachineKind::Cache,
            messages: vec![
                protogen_spec::MsgDecl::new("A", protogen_spec::MsgClass::Request),
                protogen_spec::MsgDecl::new("B", protogen_spec::MsgClass::Response),
            ],
            states: vec![],
            arcs,
        }
    }

    fn arc(from: u32, event: Event, guards: Vec<Guard>) -> Arc {
        Arc {
            from: FsmStateId(from),
            event,
            guards,
            actions: vec![Action::PerformAccess],
            to: FsmStateId(from),
            kind: ArcKind::Normal,
            note: ArcNote::Ssp,
        }
    }

    #[test]
    #[should_panic(expected = "leaves unknown state")]
    fn index_rejects_arc_from_unknown_state() {
        let fsm = fsm_with_arcs(vec![arc(5, Event::Access(Access::Load), vec![])]);
        // `fsm` has no states at all, so state 5 is out of range.
        let _ = FsmIndex::new(&fsm);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn index_rejects_arc_on_unknown_message() {
        let mut fsm = fsm_with_arcs(vec![arc(0, Event::Msg(MsgId(7)), vec![])]);
        fsm.states = vec![protogen_spec::FsmState {
            name: "a".into(),
            kind: protogen_spec::FsmStateKind::Stable(protogen_spec::StableId(0)),
            state_sets: vec![],
            perm: protogen_spec::Perm::None,
            data_valid: false,
            merged_names: vec![],
        }];
        // Only messages 0 and 1 are declared.
        let _ = FsmIndex::new(&fsm);
    }

    #[test]
    fn index_groups_by_state_and_event_preserving_order() {
        let fsm = fsm_with_arcs(vec![
            arc(0, Event::Msg(MsgId(1)), vec![Guard::SharersNonEmpty]),
            arc(1, Event::Access(Access::Load), vec![]),
            arc(0, Event::Msg(MsgId(1)), vec![]),
            arc(0, Event::Access(Access::Store), vec![]),
        ]);
        // States vec is empty but ids 0/1 are referenced; size the index off
        // the arcs' max state to mirror real FSMs where states are present.
        let mut fsm2 = fsm.clone();
        fsm2.states = vec![
            protogen_spec::FsmState {
                name: "a".into(),
                kind: protogen_spec::FsmStateKind::Stable(protogen_spec::StableId(0)),
                state_sets: vec![],
                perm: protogen_spec::Perm::None,
                data_valid: false,
                merged_names: vec![],
            };
            2
        ];
        let idx = FsmIndex::new(&fsm2);
        // Guarded arc first, fallback second — declaration order kept.
        assert_eq!(idx.candidates(FsmStateId(0), Event::Msg(MsgId(1))), &[0, 2]);
        assert_eq!(idx.candidates(FsmStateId(1), Event::Access(Access::Load)), &[1]);
        assert_eq!(idx.candidates(FsmStateId(0), Event::Access(Access::Store)), &[3]);
        assert!(idx.candidates(FsmStateId(0), Event::Msg(MsgId(0))).is_empty());
        assert!(idx.candidates(FsmStateId(1), Event::Msg(MsgId(1))).is_empty());
    }
}
