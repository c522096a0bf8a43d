//! Arc selection (guard evaluation) and action application.

use crate::msg::{Msg, NodeId, Val};
use crate::state::{CacheBlock, DirEntry};
use protogen_spec::{
    Access, AckSrc, Action, Arc, ArcKind, DataSrc, Dst, Event, Fsm, FsmStateId, Guard, ReqField,
};
use std::error::Error;
use std::fmt;

/// Errors raised while executing an FSM. Any of these indicates a bug in
/// the generated protocol (or the harness), never a legal protocol state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A send needed the block's data but the copy is invalid.
    MissingData(String),
    /// An action needed the triggering message but the event was an access.
    MissingMsg(String),
    /// A send was addressed to the owner but no owner is recorded.
    NoOwner(String),
    /// A deferred-obligation slot index was out of range.
    BadSlot(String),
    /// A load was performed on a block without valid data.
    LoadWithoutData(String),
}

impl ExecError {
    /// Whether the action failed against the *system state* (no owner
    /// recorded, no valid data to send or read) rather than against the
    /// machine's own structure. State errors are protocol-correctness
    /// violations a model checker should report as caught protocol bugs;
    /// the rest (absent message context, bad deferred slot) are internal
    /// inconsistencies of the generated machine itself — generator bugs.
    pub fn is_state_error(&self) -> bool {
        matches!(
            self,
            ExecError::MissingData(_) | ExecError::NoOwner(_) | ExecError::LoadWithoutData(_)
        )
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingData(c) => write!(f, "send needs data the machine lacks ({c})"),
            ExecError::MissingMsg(c) => write!(f, "action needs a message context ({c})"),
            ExecError::NoOwner(c) => write!(f, "send addressed to missing owner ({c})"),
            ExecError::BadSlot(c) => write!(f, "deferred slot out of range ({c})"),
            ExecError::LoadWithoutData(c) => write!(f, "load on invalid data ({c})"),
        }
    }
}

impl Error for ExecError {}

/// The machine an arc executes against.
#[derive(Debug)]
pub enum MachineCtx<'a> {
    /// A cache controller.
    Cache {
        /// The block being driven.
        block: &'a mut CacheBlock,
        /// This cache's node id.
        self_id: NodeId,
        /// The directory's node id.
        dir_id: NodeId,
    },
    /// The directory controller.
    Dir {
        /// The directory entry being driven.
        entry: &'a mut DirEntry,
        /// The directory's node id.
        self_id: NodeId,
    },
}

/// What applying an arc did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ApplyOutcome {
    /// Messages to inject into the network, in send order.
    pub outgoing: Vec<Msg>,
    /// An access that was performed, with the value a load returned.
    pub performed: Option<(Access, Option<Val>)>,
}

impl ApplyOutcome {
    /// Resets the outcome for reuse, keeping the `outgoing` allocation —
    /// the point of [`apply_into`]'s sink-style signature.
    pub fn clear(&mut self) {
        self.outgoing.clear();
        self.performed = None;
    }
}

/// Selects the first arc of `fsm` out of `state` for `event` whose guards
/// all pass, examining only the candidates `index` lists for `(state,
/// event)`; `index` must have been built from this `fsm`. Returns `None`
/// when the machine has no transition for the event.
///
/// The primitive under [`crate::Machine::select`], which is what executors
/// call.
pub fn select_arc_indexed<'f>(
    fsm: &'f Fsm,
    index: &crate::FsmIndex,
    state: FsmStateId,
    event: Event,
    msg: Option<&Msg>,
    cache: Option<&CacheBlock>,
    dir: Option<&DirEntry>,
) -> Option<&'f Arc> {
    index
        .candidates(state, event)
        .iter()
        .map(|&i| &fsm.arcs[i as usize])
        .find(|a| a.guards.iter().all(|g| eval_guard(*g, fsm, msg, cache, dir)))
}

fn eval_guard(
    g: Guard,
    fsm: &Fsm,
    msg: Option<&Msg>,
    cache: Option<&CacheBlock>,
    dir: Option<&DirEntry>,
) -> bool {
    let ack_count = msg.and_then(|m| m.ack_count).unwrap_or(0);
    match g {
        Guard::AckCountIsZero => ack_count == 0,
        Guard::AckCountNonZero => ack_count > 0,
        Guard::AcksComplete | Guard::AcksIncomplete => {
            let Some(c) = cache else { return false };
            let complete = match msg {
                Some(m) if fsm.msg(m.mtype).carries_ack_count => {
                    // A response carrying the expected count: complete when
                    // the early acknowledgments already cover it
                    // (footnote 2 of the paper).
                    m.ack_count.unwrap_or(0) == c.acks_received
                }
                Some(_) => {
                    // An acknowledgment: complete when it is the last one
                    // and the expected count is known.
                    c.acks_expected == Some(c.acks_received + 1)
                }
                None => false,
            };
            if g == Guard::AcksComplete {
                complete
            } else {
                !complete
            }
        }
        _ => {
            let Some(d) = dir else { return false };
            let Some(m) = msg else { return false };
            let req = m.req;
            match g {
                Guard::ReqIsOwner => d.owner == Some(req),
                Guard::ReqIsNotOwner => d.owner != Some(req),
                Guard::ReqInSharers => d.is_sharer(req),
                Guard::ReqNotInSharers => !d.is_sharer(req),
                Guard::ReqIsLastSharer => d.sharers == (1 << req.0),
                Guard::ReqIsNotLastSharer => d.sharers != (1 << req.0),
                Guard::SharersEmpty => d.sharers == 0,
                Guard::SharersNonEmpty => d.sharers != 0,
                Guard::NoSharersExceptReq => d.sharer_count_except(req) == 0,
                Guard::SomeSharersExceptReq => d.sharer_count_except(req) > 0,
                _ => unreachable!("cache guards handled above"),
            }
        }
    }
}

/// Applies `arc` to the machine, writing the outgoing messages and the
/// access performed, if any, into the caller-owned `out` — every executor
/// reuses one outcome (and its `outgoing` buffer) across millions of
/// transitions. The outcome is cleared on entry; on error it holds
/// whatever was produced before the failure and must not be interpreted.
/// A stall arc does nothing. The primitive under [`crate::Machine::apply`].
///
/// `store_value` is the value a store writes when one is performed (the
/// harness chooses it; the model checker uses a bounded ghost counter).
///
/// # Errors
///
/// Returns an [`ExecError`] when the arc's actions are inconsistent with
/// the machine's runtime state — always a protocol or generator bug.
pub fn apply_into(
    fsm: &Fsm,
    arc: &Arc,
    msg: Option<&Msg>,
    mut machine: MachineCtx<'_>,
    store_value: Val,
    out: &mut ApplyOutcome,
) -> Result<(), ExecError> {
    out.clear();
    if arc.kind == ArcKind::Stall {
        return Ok(());
    }
    let ctx = || format!("{} state {}", fsm.machine, fsm.state(arc.from).name);

    for action in &arc.actions {
        match (action, &mut machine) {
            (Action::Send(sp), m) => {
                build_sends_into(fsm, sp, msg, &*m, &ctx, &mut out.outgoing)?;
            }
            (Action::PerformAccess, MachineCtx::Cache { block, .. }) => {
                // On an access event this performs that access; on a message
                // event it completes the pending transaction's access.
                let access = match arc.event {
                    Event::Access(a) => a,
                    Event::Msg(_) => match block.pending.take() {
                        Some(a) => a,
                        None => continue, // nothing pending (drained zombie)
                    },
                };
                let loaded = match access {
                    Access::Load => {
                        let v = block.data.ok_or_else(|| ExecError::LoadWithoutData(ctx()))?;
                        Some(v)
                    }
                    Access::Store => {
                        block.data = Some(store_value);
                        None
                    }
                    Access::Replacement => None,
                };
                out.performed = Some((access, loaded));
            }
            (Action::SetExpectedAcksFromMsg, MachineCtx::Cache { block, .. }) => {
                let m = msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?;
                block.acks_expected = Some(m.ack_count.unwrap_or(0));
            }
            (Action::IncAcksReceived, MachineCtx::Cache { block, .. }) => {
                block.acks_received += 1;
            }
            (Action::ResetAcks, MachineCtx::Cache { block, .. }) => {
                block.acks_received = 0;
                block.acks_expected = None;
            }
            (Action::CopyDataFromMsg, MachineCtx::Cache { block, .. }) => {
                let m = msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?;
                block.data = Some(m.data.ok_or_else(|| ExecError::MissingData(ctx()))?);
            }
            (Action::CopyDataFromMsg, MachineCtx::Dir { entry, .. }) => {
                let m = msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?;
                entry.data = m.data.ok_or_else(|| ExecError::MissingData(ctx()))?;
            }
            (Action::InvalidateData, MachineCtx::Cache { block, .. }) => {
                block.data = None;
            }
            (Action::RecordChainReq, MachineCtx::Cache { block, .. }) => {
                let m = msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?;
                block.chain_slots.push((m.req, m.ack_count.unwrap_or(0)));
            }
            (Action::RecordChainReq, MachineCtx::Dir { entry, .. }) => {
                let m = msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?;
                let captured = entry.sharer_count_except(m.req);
                entry.chain_slots.push((m.req, captured));
            }
            (Action::SetOwnerToReq, MachineCtx::Dir { entry, .. }) => {
                let m = msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?;
                entry.owner = Some(m.req);
            }
            (Action::ClearOwner, MachineCtx::Dir { entry, .. }) => {
                entry.owner = None;
            }
            (Action::AddReqToSharers, MachineCtx::Dir { entry, .. }) => {
                let m = msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?;
                entry.add_sharer(m.req);
            }
            (Action::AddOwnerToSharers, MachineCtx::Dir { entry, .. }) => {
                if let Some(o) = entry.owner {
                    entry.add_sharer(o);
                }
            }
            (Action::RemoveReqFromSharers, MachineCtx::Dir { entry, .. }) => {
                let m = msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?;
                entry.remove_sharer(m.req);
            }
            (Action::ClearSharers, MachineCtx::Dir { entry, .. }) => {
                entry.sharers = 0;
            }
            // Actions on the wrong machine are rejected by SSP validation;
            // reaching here is a generator bug.
            (a, _) => {
                return Err(ExecError::MissingMsg(format!("{a} on wrong machine at {}", ctx())));
            }
        }
    }

    // Transition and canonicalize.
    match machine {
        MachineCtx::Cache { block, .. } => {
            // Record the pending access when an access event launches a
            // transaction (an access arc without PerformAccess).
            if let Event::Access(a) = arc.event {
                let performed_now = out.performed.is_some();
                if !performed_now && arc.to != arc.from {
                    block.pending = Some(a);
                }
            }
            block.state = arc.to;
            let target = fsm.state(arc.to);
            let slots = target.transient().map_or(0, |m| m.deferred_slots());
            block.chain_slots.truncate(slots);
            if target.is_stable() {
                block.acks_received = 0;
                block.acks_expected = None;
                if !target.data_valid {
                    block.data = None;
                }
            }
        }
        MachineCtx::Dir { entry, .. } => {
            entry.state = arc.to;
            let target = fsm.state(arc.to);
            let slots = target.transient().map_or(0, |m| m.deferred_slots());
            entry.chain_slots.truncate(slots);
        }
    }
    Ok(())
}

fn build_sends_into(
    _fsm: &Fsm,
    sp: &protogen_spec::SendSpec,
    msg: Option<&Msg>,
    machine: &MachineCtx<'_>,
    ctx: &dyn Fn() -> String,
    out: &mut Vec<Msg>,
) -> Result<(), ExecError> {
    let (self_id, dir_id, slots): (NodeId, NodeId, &[(NodeId, u8)]) = match machine {
        MachineCtx::Cache { block, self_id, dir_id } => (*self_id, *dir_id, &block.chain_slots),
        MachineCtx::Dir { entry, self_id } => (*self_id, *self_id, &entry.chain_slots),
    };
    let slot_of_dst = match sp.dst {
        Dst::ChainReq(i) => Some(i),
        _ => None,
    };
    let req = match sp.req {
        ReqField::SelfNode => self_id,
        ReqField::FromMsg => msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?.req,
        ReqField::Chain(i) => slots.get(i).ok_or_else(|| ExecError::BadSlot(ctx()))?.0,
    };
    let data = match sp.data {
        None => None,
        Some(DataSrc::FromMsg) => Some(
            msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?
                .data
                .ok_or_else(|| ExecError::MissingData(ctx()))?,
        ),
        Some(DataSrc::OwnBlock) => match machine {
            MachineCtx::Cache { block, .. } => {
                Some(block.data.ok_or_else(|| ExecError::MissingData(ctx()))?)
            }
            MachineCtx::Dir { entry, .. } => Some(entry.data),
        },
    };
    let ack_count = match sp.ack_count {
        None => None,
        Some(AckSrc::Zero) => Some(0),
        Some(AckSrc::FromMsg) => {
            Some(msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?.ack_count.unwrap_or(0))
        }
        Some(AckSrc::Captured) => {
            let i = slot_of_dst.ok_or_else(|| ExecError::BadSlot(ctx()))?;
            Some(slots.get(i).ok_or_else(|| ExecError::BadSlot(ctx()))?.1)
        }
        Some(AckSrc::SharersExceptReqCount) => match machine {
            MachineCtx::Dir { entry, .. } => Some(entry.sharer_count_except(req)),
            MachineCtx::Cache { .. } => {
                return Err(ExecError::MissingMsg(format!("sharer count at {}", ctx())))
            }
        },
    };

    let push = |dst: NodeId, out: &mut Vec<Msg>| {
        out.push(Msg { mtype: sp.msg, src: self_id, dst, req, ack_count, data });
    };
    match sp.dst {
        Dst::Dir => push(dir_id, out),
        Dst::Req => push(msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?.req, out),
        Dst::Sender => push(msg.ok_or_else(|| ExecError::MissingMsg(ctx()))?.src, out),
        Dst::ChainReq(i) => {
            push(slots.get(i).ok_or_else(|| ExecError::BadSlot(ctx()))?.0, out);
        }
        Dst::Owner => match machine {
            MachineCtx::Dir { entry, .. } => {
                push(entry.owner.ok_or_else(|| ExecError::NoOwner(ctx()))?, out);
            }
            MachineCtx::Cache { .. } => return Err(ExecError::NoOwner(ctx())),
        },
        // Iterate the sharer bitmask directly: the `sharers_except` helper
        // allocates a Vec per call, which this path cannot afford.
        Dst::SharersExceptReq => match machine {
            MachineCtx::Dir { entry, .. } => {
                for i in 0u8..8 {
                    if entry.sharers & (1u8 << i) != 0 && i != req.0 {
                        push(NodeId(i), out);
                    }
                }
            }
            MachineCtx::Cache { .. } => return Err(ExecError::NoOwner(ctx())),
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_spec::{ArcNote, MsgClass, MsgDecl, MsgId};

    fn data_msg_fsm() -> Fsm {
        Fsm {
            protocol: "t".into(),
            machine: protogen_spec::MachineKind::Cache,
            messages: vec![
                MsgDecl {
                    carries_data: true,
                    carries_ack_count: true,
                    ..MsgDecl::new("Data", MsgClass::Response)
                },
                MsgDecl::new("Inv_Ack", MsgClass::Response),
            ],
            states: vec![
                protogen_spec::FsmState {
                    name: "I".into(),
                    kind: protogen_spec::FsmStateKind::Stable(protogen_spec::StableId(0)),
                    state_sets: vec![],
                    perm: protogen_spec::Perm::None,
                    data_valid: false,
                    merged_names: vec![],
                },
                protogen_spec::FsmState {
                    name: "M".into(),
                    kind: protogen_spec::FsmStateKind::Stable(protogen_spec::StableId(1)),
                    state_sets: vec![],
                    perm: protogen_spec::Perm::ReadWrite,
                    data_valid: true,
                    merged_names: vec![],
                },
            ],
            arcs: vec![],
        }
    }

    fn msg(mtype: u16, acks: Option<u8>, data: Option<u8>) -> Msg {
        Msg {
            mtype: MsgId(mtype),
            src: NodeId(1),
            dst: NodeId(0),
            req: NodeId(1),
            ack_count: acks,
            data,
        }
    }

    #[test]
    fn acks_complete_counts_early_acknowledgments() {
        let fsm = data_msg_fsm();
        let mut block = CacheBlock::new();
        block.acks_received = 2;
        // Data carrying count 2: the two early acks already cover it.
        let m = msg(0, Some(2), Some(7));
        assert!(eval_guard(Guard::AcksComplete, &fsm, Some(&m), Some(&block), None));
        // Count 3: one ack still outstanding.
        let m = msg(0, Some(3), Some(7));
        assert!(eval_guard(Guard::AcksIncomplete, &fsm, Some(&m), Some(&block), None));
        // A final Inv_Ack: complete only when expected is known.
        let m = msg(1, None, None);
        assert!(!eval_guard(Guard::AcksComplete, &fsm, Some(&m), Some(&block), None));
        block.acks_expected = Some(3);
        assert!(eval_guard(Guard::AcksComplete, &fsm, Some(&m), Some(&block), None));
    }

    #[test]
    fn apply_copies_data_performs_store_and_canonicalizes() {
        let fsm = data_msg_fsm();
        let mut block = CacheBlock::new();
        block.pending = Some(Access::Store);
        let arc = Arc {
            from: FsmStateId(0),
            event: Event::Msg(MsgId(0)),
            guards: vec![],
            actions: vec![Action::CopyDataFromMsg, Action::PerformAccess, Action::ResetAcks],
            to: FsmStateId(1),
            kind: ArcKind::Normal,
            note: ArcNote::Step2,
        };
        let m = msg(0, Some(0), Some(7));
        let mut out = ApplyOutcome::default();
        apply_into(
            &fsm,
            &arc,
            Some(&m),
            MachineCtx::Cache { block: &mut block, self_id: NodeId(0), dir_id: NodeId(3) },
            9,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.performed, Some((Access::Store, None)));
        assert_eq!(block.data, Some(9)); // the store overwrote the copy
        assert_eq!(block.state, FsmStateId(1));
        assert!(block.pending.is_none());
    }

    #[test]
    fn entering_invalid_stable_state_drops_data() {
        let fsm = data_msg_fsm();
        let mut block = CacheBlock::new();
        block.data = Some(4);
        block.state = FsmStateId(1);
        let arc = Arc {
            from: FsmStateId(1),
            event: Event::Msg(MsgId(1)),
            guards: vec![],
            actions: vec![],
            to: FsmStateId(0),
            kind: ArcKind::Normal,
            note: ArcNote::Ssp,
        };
        let m = msg(1, None, None);
        apply_into(
            &fsm,
            &arc,
            Some(&m),
            MachineCtx::Cache { block: &mut block, self_id: NodeId(0), dir_id: NodeId(3) },
            0,
            &mut ApplyOutcome::default(),
        )
        .unwrap();
        assert_eq!(block.data, None);
    }

    #[test]
    fn stall_arcs_do_nothing() {
        let fsm = data_msg_fsm();
        let mut block = CacheBlock::new();
        let arc = Arc {
            from: FsmStateId(0),
            event: Event::Msg(MsgId(0)),
            guards: vec![],
            actions: vec![],
            to: FsmStateId(0),
            kind: ArcKind::Stall,
            note: ArcNote::Case2,
        };
        let m = msg(0, None, Some(1));
        let mut out = ApplyOutcome::default();
        apply_into(
            &fsm,
            &arc,
            Some(&m),
            MachineCtx::Cache { block: &mut block, self_id: NodeId(0), dir_id: NodeId(3) },
            0,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, ApplyOutcome::default());
        assert_eq!(block, CacheBlock::new());
    }

    #[test]
    fn dir_record_chain_captures_sharer_count() {
        let mut fsm = data_msg_fsm();
        // A transient state with one deferred-obligation slot, so the slot
        // recorded on the way in survives the transition.
        fsm.states.push(protogen_spec::FsmState {
            name: "MS_D_M".into(),
            kind: protogen_spec::FsmStateKind::Transient(protogen_spec::TransientMeta {
                own_from: protogen_spec::StableId(0),
                own_to: protogen_spec::StableId(1),
                wait_tag: "D".into(),
                chain: vec![protogen_spec::ChainLink {
                    forward: MsgId(0),
                    logical_to: protogen_spec::StableId(1),
                    has_deferred_response: true,
                }],
            }),
            state_sets: vec![],
            perm: protogen_spec::Perm::None,
            data_valid: false,
            merged_names: vec![],
        });
        let mut entry = DirEntry::new(0);
        entry.add_sharer(NodeId(0));
        entry.add_sharer(NodeId(2));
        let arc = Arc {
            from: FsmStateId(0),
            event: Event::Msg(MsgId(0)),
            guards: vec![],
            actions: vec![Action::RecordChainReq],
            to: FsmStateId(2),
            kind: ArcKind::Normal,
            note: ArcNote::Case2,
        };
        let m = msg(0, None, Some(1));
        let dir = MachineCtx::Dir { entry: &mut entry, self_id: NodeId(3) };
        apply_into(&fsm, &arc, Some(&m), dir, 0, &mut ApplyOutcome::default()).unwrap();
        // Requestor is n1; sharers {n0, n2} minus n1 = 2 captured.
        assert_eq!(entry.chain_slots, vec![(NodeId(1), 2)]);
        assert_eq!(entry.state, FsmStateId(2));
    }
}
