//! Generated, executable finite state machines.

use crate::action::Action;
use crate::guard::Guard;
use crate::ids::{MsgId, StableId};
use crate::msg::MsgDecl;
use crate::ssp::{Access, MachineKind, Perm};
use std::fmt;

/// Identifier of a state in a generated [`Fsm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FsmStateId(pub u32);

impl FsmStateId {
    /// Creates an id from a vector index.
    pub fn from_usize(i: usize) -> Self {
        FsmStateId(u32::try_from(i).expect("more than u32::MAX states"))
    }

    /// Returns the id as a vector index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FsmStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// An event a generated FSM reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// A core access.
    Access(Access),
    /// An incoming coherence message.
    Msg(MsgId),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Access(a) => write!(f, "{a}"),
            Event::Msg(m) => write!(f, "{m}"),
        }
    }
}

/// Whether an arc consumes its event or stalls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArcKind {
    /// The event is consumed and the actions performed.
    Normal,
    /// The event is *not* consumed: the message stays at the head of its
    /// queue (blocking that queue) or the access remains pending.
    Stall,
}

/// Provenance of an arc, recorded for reporting and table rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArcNote {
    /// Copied directly from the SSP (stable-state behaviour).
    Ssp,
    /// Created in Step 2: an await point of a transaction (no concurrency).
    Step2,
    /// Case 1 of Step 3: the racing transaction was ordered *earlier* at the
    /// directory; respond immediately and restart the own transaction.
    Case1,
    /// Case 2 of Step 3: the racing transaction was ordered *later*; either
    /// stall or transition with (possibly deferred) responses.
    Case2,
    /// Sending of deferred responses when the own transaction completes.
    Completion,
    /// The synthesized directory rule acknowledging stale Put requests.
    StalePut,
    /// The directory reinterpreting a request that cannot occur in its
    /// current state (§V-D1, Upgrade → GetM).
    Reinterpret,
    /// The single-access-after-invalidation livelock fix (§VI-B).
    LivelockFix,
    /// Defensive handler for forwards made possible only by stale directory
    /// auxiliary state (design note N6).
    Defensive,
    /// A self-invalidation primitive ([`crate::EntryNote::SelfInvalidate`]):
    /// the cache may spontaneously drop this copy at a sync point.
    SelfInv,
    /// A self-downgrade primitive ([`crate::EntryNote::SelfDowngrade`]):
    /// the cache may spontaneously write back ownership.
    SelfDown,
}

impl fmt::Display for ArcNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArcNote::Ssp => "ssp",
            ArcNote::Step2 => "step2",
            ArcNote::Case1 => "case1",
            ArcNote::Case2 => "case2",
            ArcNote::Completion => "completion",
            ArcNote::StalePut => "stale-put",
            ArcNote::Reinterpret => "reinterpret",
            ArcNote::LivelockFix => "livelock-fix",
            ArcNote::Defensive => "defensive",
            ArcNote::SelfInv => "self-inv",
            ArcNote::SelfDown => "self-down",
        };
        f.write_str(s)
    }
}

/// A transition of a generated FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arc {
    /// Source state.
    pub from: FsmStateId,
    /// Triggering event.
    pub event: Event,
    /// Optional guard.
    pub guards: Vec<Guard>,
    /// Actions performed when the arc fires (empty for stalls).
    pub actions: Vec<Action>,
    /// Destination state (equal to `from` for stalls and self-loops).
    pub to: FsmStateId,
    /// Normal or stall.
    pub kind: ArcKind,
    /// Provenance.
    pub note: ArcNote,
}

/// One processed-forward record in a transient state's deferral chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// The forwarded request that was processed.
    pub forward: MsgId,
    /// The stable state the forward logically moved the block to.
    pub logical_to: StableId,
    /// Whether a deferred response (to be sent at completion) is owed for
    /// this link; if so, the link owns one requestor slot of transient
    /// auxiliary state.
    pub has_deferred_response: bool,
}

/// Metadata of a transient state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransientMeta {
    /// Initial stable state of the pending own transaction (after any
    /// Case 1 restart, this is the restarted state).
    pub own_from: StableId,
    /// Final stable state the pending own transaction completes into
    /// (before applying the chain).
    pub own_to: StableId,
    /// Await-point tag (`"AD"`, `"A"`, `"D"`, …).
    pub wait_tag: String,
    /// Forwards processed while the own transaction was in flight, oldest
    /// first. The chain's last `logical_to` is the state entered once the
    /// own transaction completes and all deferred responses are sent.
    pub chain: Vec<ChainLink>,
}

impl TransientMeta {
    /// Number of deferred-response requestor slots this state needs.
    pub fn deferred_slots(&self) -> usize {
        self.chain.iter().filter(|l| l.has_deferred_response).count()
    }
}

/// Classification of a state of a generated FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmStateKind {
    /// One of the SSP's stable states.
    Stable(StableId),
    /// A generated transient state.
    Transient(TransientMeta),
}

/// How a state treats a given access, summarized for table rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessSummary {
    /// The access is performed locally ("hit").
    Hit,
    /// The access stalls until the state changes.
    Stall,
    /// The access issues a coherence transaction leading to `to`.
    Issue(FsmStateId),
    /// The SSP defines no behaviour (e.g. replacement of an invalid block).
    Undefined,
}

impl AccessSummary {
    /// The summary of an access that `first`, a state's first arc for it,
    /// decides (`None`: the state has no arc for the access).
    pub fn of(first: Option<&Arc>) -> AccessSummary {
        let Some(a) = first else { return AccessSummary::Undefined };
        if a.kind == ArcKind::Stall {
            AccessSummary::Stall
        } else if a.to == a.from && a.actions.iter().all(|x| matches!(x, Action::PerformAccess)) {
            AccessSummary::Hit
        } else {
            AccessSummary::Issue(a.to)
        }
    }
}

/// A state of a generated FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmState {
    /// Human-readable name (`"M"`, `"IM_AD"`, `"IM_A_S"`, …).
    pub name: String,
    /// Stable or transient, with metadata.
    pub kind: FsmStateKind,
    /// Which State Sets the state belongs to (§V-B): the stable states the
    /// directory may currently believe this cache to be in.
    pub state_sets: Vec<StableId>,
    /// Access permission granted while in this state (Step 4).
    pub perm: Perm,
    /// For stable states: whether a block in this state holds a valid data
    /// copy (from the SSP). Transient states track data validity
    /// dynamically, so this is `false` for them.
    pub data_valid: bool,
    /// Names of states merged into this one during minimization (reported as
    /// `IM_A_S=SM_A_S`, matching Table VI of the paper).
    pub merged_names: Vec<String>,
}

impl FsmState {
    /// Whether the state is one of the SSP's stable states.
    pub fn is_stable(&self) -> bool {
        matches!(self.kind, FsmStateKind::Stable(_))
    }

    /// The transient metadata, if any.
    pub fn transient(&self) -> Option<&TransientMeta> {
        match &self.kind {
            FsmStateKind::Transient(m) => Some(m),
            FsmStateKind::Stable(_) => None,
        }
    }

    /// Display name including merged aliases (`"IM_A_S=SM_A_S"`).
    pub fn full_name(&self) -> String {
        if self.merged_names.is_empty() {
            self.name.clone()
        } else {
            let mut s = self.name.clone();
            for m in &self.merged_names {
                s.push('=');
                s.push_str(m);
            }
            s
        }
    }
}

/// A complete generated controller: all states (stable and transient) and
/// all transitions, directly executable by `protogen-runtime`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsm {
    /// Protocol name this FSM was generated from.
    pub protocol: String,
    /// Which controller this is.
    pub machine: MachineKind,
    /// Message table (copied from the preprocessed SSP so the FSM is
    /// self-contained).
    pub messages: Vec<MsgDecl>,
    /// States; index 0 is the initial state.
    pub states: Vec<FsmState>,
    /// Transitions, grouped by source state (sorted by `from`).
    pub arcs: Vec<Arc>,
}

impl Fsm {
    /// Returns the state with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: FsmStateId) -> &FsmState {
        &self.states[id.as_usize()]
    }

    /// Looks up a state id by (primary) name.
    pub fn state_by_name(&self, name: &str) -> Option<FsmStateId> {
        self.states
            .iter()
            .position(|s| s.name == name || s.merged_names.iter().any(|m| m == name))
            .map(FsmStateId::from_usize)
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = FsmStateId> + '_ {
        (0..self.states.len()).map(FsmStateId::from_usize)
    }

    /// All arcs leaving `state`.
    pub fn arcs_from(&self, state: FsmStateId) -> impl Iterator<Item = &Arc> + '_ {
        self.arcs.iter().filter(move |a| a.from == state)
    }

    /// All arcs leaving `state` for `event`.
    pub fn arcs_for(&self, state: FsmStateId, event: Event) -> Vec<&Arc> {
        self.arcs.iter().filter(|a| a.from == state && a.event == event).collect()
    }

    /// The message declaration for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn msg(&self, id: MsgId) -> &MsgDecl {
        &self.messages[id.as_usize()]
    }

    /// Looks up a message id by name.
    pub fn msg_by_name(&self, name: &str) -> Option<MsgId> {
        self.messages.iter().position(|m| m.name == name).map(MsgId::from_usize)
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions, counted the way the paper counts them for
    /// §VI-B ("46-60 transitions"): distinct non-stall (state, event, guard)
    /// entries.
    pub fn transition_count(&self) -> usize {
        self.arcs.iter().filter(|a| a.kind == ArcKind::Normal).count()
    }

    /// Number of stall entries.
    pub fn stall_count(&self) -> usize {
        self.arcs.iter().filter(|a| a.kind == ArcKind::Stall).count()
    }

    /// Returns the ids of all transient states.
    pub fn transient_states(&self) -> Vec<FsmStateId> {
        self.state_ids().filter(|&s| !self.state(s.to_owned()).is_stable()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fsm() -> Fsm {
        Fsm {
            protocol: "toy".into(),
            machine: MachineKind::Cache,
            messages: vec![MsgDecl {
                carries_data: true,
                ..MsgDecl::new("Data", crate::MsgClass::Response)
            }],
            states: vec![
                FsmState {
                    name: "I".into(),
                    kind: FsmStateKind::Stable(StableId(0)),
                    state_sets: vec![StableId(0)],
                    perm: Perm::None,
                    data_valid: false,
                    merged_names: vec![],
                },
                FsmState {
                    name: "IV_D".into(),
                    kind: FsmStateKind::Transient(TransientMeta {
                        own_from: StableId(0),
                        own_to: StableId(1),
                        wait_tag: "D".into(),
                        chain: vec![],
                    }),
                    state_sets: vec![StableId(0), StableId(1)],
                    perm: Perm::None,
                    data_valid: false,
                    merged_names: vec!["XY_D".into()],
                },
            ],
            arcs: vec![
                Arc {
                    from: FsmStateId(0),
                    event: Event::Access(Access::Load),
                    guards: vec![],
                    actions: vec![],
                    to: FsmStateId(1),
                    kind: ArcKind::Normal,
                    note: ArcNote::Step2,
                },
                Arc {
                    from: FsmStateId(1),
                    event: Event::Access(Access::Store),
                    guards: vec![],
                    actions: vec![],
                    to: FsmStateId(1),
                    kind: ArcKind::Stall,
                    note: ArcNote::Step2,
                },
            ],
        }
    }

    #[test]
    fn counts_exclude_stalls() {
        let f = tiny_fsm();
        assert_eq!(f.state_count(), 2);
        assert_eq!(f.transition_count(), 1);
        assert_eq!(f.stall_count(), 1);
    }

    #[test]
    fn name_lookup_includes_merged() {
        let f = tiny_fsm();
        assert_eq!(f.state_by_name("XY_D"), Some(FsmStateId(1)));
        assert_eq!(f.state(FsmStateId(1)).full_name(), "IV_D=XY_D");
    }

    #[test]
    fn transient_meta_final_state() {
        let m = TransientMeta {
            own_from: StableId(0),
            own_to: StableId(2),
            wait_tag: "AD".into(),
            chain: vec![ChainLink {
                forward: MsgId(0),
                logical_to: StableId(1),
                has_deferred_response: true,
            }],
        };
        assert_eq!(m.deferred_slots(), 1);
    }
}
