//! Lowering: AST → `protogen_spec::Ssp`.

use crate::ast::*;
use crate::DslError;
use protogen_spec::{
    Access, AckSrc, Action, DataSrc, Dst, Effect, EntryNote, Guard, MachineKind, MachineSsp,
    MemoryModel, MsgClass, MsgDecl, MsgId, Perm, ReqField, SendSpec, SspEntry, StableDecl, Trigger,
    VirtualNet, WaitArc, WaitChain, WaitNode, WaitTo,
};

/// Lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// Lowers a parsed [`Spec`] into a validated [`protogen_spec::Ssp`].
///
/// # Errors
///
/// Returns [`DslError::Lower`] for unknown names or malformed send
/// arguments, and [`DslError::Spec`] with the validator's own error for a
/// specification the IR rejects.
pub fn lower(spec: &Spec) -> Result<protogen_spec::Ssp, DslError> {
    let ssp = lower_unchecked(spec)?;
    ssp.validate().map_err(DslError::Spec)?;
    Ok(ssp)
}

/// [`lower`] without the validator.
fn lower_unchecked(spec: &Spec) -> Result<protogen_spec::Ssp, LowerError> {
    if !spec.compose.is_empty() {
        return Err(LowerError(
            "composition specs do not lower to a single SSP; resolve the `compose` levels \
             against a protocol registry (`parse` returns them as `Spec::compose`)"
                .into(),
        ));
    }
    let mut messages = Vec::new();
    for m in &spec.messages {
        let class = match m.class.as_str() {
            "request" => MsgClass::Request,
            "forward" => MsgClass::Forward,
            "response" => MsgClass::Response,
            other => return Err(LowerError(format!("unknown message class `{other}`"))),
        };
        let mut decl = MsgDecl::new(m.name.clone(), class);
        for f in &m.fields {
            match f.as_str() {
                "data" => decl.carries_data = true,
                "acks" => decl.carries_ack_count = true,
                other => return Err(LowerError(format!("unknown message field `{other}`"))),
            }
        }
        if let Some(v) = &m.vnet {
            decl.vnet = match v.as_str() {
                "request_net" => VirtualNet::Request,
                "forward_net" => VirtualNet::Forward,
                "response_net" => VirtualNet::Response,
                other => return Err(LowerError(format!("unknown virtual network `{other}`"))),
            };
        }
        messages.push(decl);
    }

    let lower_states = |decls: &[StateDecl]| -> Result<Vec<StableDecl>, LowerError> {
        decls
            .iter()
            .map(|d| {
                let perm = match d.perm.as_str() {
                    "none" => Perm::None,
                    "read" => Perm::Read,
                    "readwrite" => Perm::ReadWrite,
                    other => return Err(LowerError(format!("unknown permission `{other}`"))),
                };
                Ok(StableDecl {
                    name: d.name.clone(),
                    perm,
                    data_valid: d.data || perm != Perm::None,
                })
            })
            .collect()
    };

    let consistency: MemoryModel = spec.consistency.parse().map_err(LowerError)?;
    let mut ssp = protogen_spec::Ssp {
        name: spec.name.clone(),
        messages,
        cache: MachineSsp::new(MachineKind::Cache),
        directory: MachineSsp::new(MachineKind::Directory),
        network_ordered: spec.ordered,
        consistency,
        si_epoch: spec.si_epoch,
    };
    ssp.cache.states = lower_states(&spec.cache_states)?;
    ssp.directory.states = lower_states(&spec.dir_states)?;

    let cache_entries = lower_procs(&ssp, MachineKind::Cache, &spec.cache_procs)?;
    ssp.cache.entries = cache_entries;
    let dir_entries = lower_procs(&ssp, MachineKind::Directory, &spec.dir_procs)?;
    ssp.directory.entries = dir_entries;

    Ok(ssp)
}

fn lower_procs(
    ssp: &protogen_spec::Ssp,
    kind: MachineKind,
    procs: &[Process],
) -> Result<Vec<SspEntry>, LowerError> {
    let machine = ssp.machine(kind);
    let mut out = Vec::new();
    for p in procs {
        let state = machine
            .state_by_name(&p.state)
            .ok_or_else(|| LowerError(format!("unknown state `{}`", p.state)))?;
        // The SI/SD primitives are spelled as their own triggers in the DSL
        // (`process(S, self_invalidate)`) but are replacement transitions
        // with a provenance note underneath: spontaneous evictions and
        // downgrades reuse the whole replacement machinery.
        let (trigger, note) = match p.trigger.as_str() {
            "load" => (Trigger::Access(Access::Load), EntryNote::Demand),
            "store" => (Trigger::Access(Access::Store), EntryNote::Demand),
            "replacement" => (Trigger::Access(Access::Replacement), EntryNote::Demand),
            "self_invalidate" => (Trigger::Access(Access::Replacement), EntryNote::SelfInvalidate),
            "self_downgrade" => (Trigger::Access(Access::Replacement), EntryNote::SelfDowngrade),
            name => (Trigger::Msg(msg_id(ssp, name)?), EntryNote::Demand),
        };
        let guards = p.guards.iter().map(|g| guard(g)).collect::<Result<Vec<_>, _>>()?;
        let actions = p.body.iter().map(|s| stmt(ssp, kind, s)).collect::<Result<Vec<_>, _>>()?;
        let effect = if p.awaits.is_empty() {
            let next = p
                .next
                .as_ref()
                .map(|n| {
                    machine
                        .state_by_name(n)
                        .ok_or_else(|| LowerError(format!("unknown state `{n}`")))
                })
                .transpose()?;
            Effect::Local { actions, next }
        } else {
            let tags: Vec<&str> = p.awaits.iter().map(|a| a.tag.as_str()).collect();
            let mut nodes = Vec::new();
            for blk in &p.awaits {
                let mut arcs = Vec::new();
                for arm in &blk.whens {
                    let to = match &arm.target {
                        WhenTarget::Done(s) => WaitTo::Done(
                            machine
                                .state_by_name(s)
                                .ok_or_else(|| LowerError(format!("unknown state `{s}`")))?,
                        ),
                        WhenTarget::Wait(tag) => {
                            let idx = tags
                                .iter()
                                .position(|t| *t == tag)
                                .ok_or_else(|| LowerError(format!("unknown await tag `{tag}`")))?;
                            WaitTo::Wait(idx)
                        }
                    };
                    arcs.push(WaitArc {
                        msg: msg_id(ssp, &arm.msg)?,
                        guards: arm.guards.iter().map(|g| guard(g)).collect::<Result<_, _>>()?,
                        actions: arm
                            .stmts
                            .iter()
                            .map(|s| stmt(ssp, kind, s))
                            .collect::<Result<_, _>>()?,
                        to,
                    });
                }
                nodes.push(WaitNode { tag: blk.tag.clone(), arcs });
            }
            Effect::Issue { request: actions, chain: WaitChain { nodes } }
        };
        out.push(SspEntry { state, trigger, guards, effect, note });
    }
    Ok(out)
}

fn msg_id(ssp: &protogen_spec::Ssp, name: &str) -> Result<MsgId, LowerError> {
    ssp.msg_by_name(name).ok_or_else(|| LowerError(format!("unknown message `{name}`")))
}

fn guard(g: &str) -> Result<Guard, LowerError> {
    Ok(match g {
        "ack_zero" => Guard::AckCountIsZero,
        "ack_nonzero" => Guard::AckCountNonZero,
        "acks_complete" => Guard::AcksComplete,
        "acks_incomplete" => Guard::AcksIncomplete,
        "owner" => Guard::ReqIsOwner,
        "not_owner" => Guard::ReqIsNotOwner,
        "sharer" => Guard::ReqInSharers,
        "not_sharer" => Guard::ReqNotInSharers,
        "last_sharer" => Guard::ReqIsLastSharer,
        "not_last_sharer" => Guard::ReqIsNotLastSharer,
        "no_sharers" => Guard::SharersEmpty,
        "has_sharers" => Guard::SharersNonEmpty,
        "no_other_sharers" => Guard::NoSharersExceptReq,
        "other_sharers" => Guard::SomeSharersExceptReq,
        other => return Err(LowerError(format!("unknown guard `{other}`"))),
    })
}

fn stmt(ssp: &protogen_spec::Ssp, kind: MachineKind, s: &Stmt) -> Result<Action, LowerError> {
    match s {
        Stmt::Send { msg, args, dst } => {
            let dst = match dst.as_str() {
                "dir" => Dst::Dir,
                "req" => Dst::Req,
                "sender" => Dst::Sender,
                "owner" => Dst::Owner,
                "sharers" => Dst::SharersExceptReq,
                other => return Err(LowerError(format!("unknown destination `{other}`"))),
            };
            let mut sp = SendSpec::new(msg_id(ssp, msg)?, dst);
            // Requests carry the sender as requestor; everything a machine
            // emits on behalf of a message propagates that message's
            // requestor.
            if kind == MachineKind::Directory || !matches!(dst, Dst::Dir) {
                sp.req = ReqField::FromMsg;
            }
            for a in args {
                match a.as_str() {
                    "data" => sp.data = Some(DataSrc::OwnBlock),
                    "data=msg" => sp.data = Some(DataSrc::FromMsg),
                    "acks" => sp.ack_count = Some(AckSrc::SharersExceptReqCount),
                    "acks=msg" => sp.ack_count = Some(AckSrc::FromMsg),
                    "acks=0" => sp.ack_count = Some(AckSrc::Zero),
                    other => return Err(LowerError(format!("unknown send argument `{other}`"))),
                }
            }
            Ok(Action::Send(sp))
        }
        Stmt::Word(w) => Ok(match w.as_str() {
            "perform" => Action::PerformAccess,
            "copy_data" => Action::CopyDataFromMsg,
            "invalidate" => Action::InvalidateData,
            "set_expected" => Action::SetExpectedAcksFromMsg,
            "inc_acks" => Action::IncAcksReceived,
            "reset_acks" => Action::ResetAcks,
            "set_owner" => Action::SetOwnerToReq,
            "clear_owner" => Action::ClearOwner,
            "add_sharer" => Action::AddReqToSharers,
            "add_owner_to_sharers" => Action::AddOwnerToSharers,
            "remove_sharer" => Action::RemoveReqFromSharers,
            "clear_sharers" => Action::ClearSharers,
            other => return Err(LowerError(format!("unknown action `{other}`"))),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn lowers_toy_protocol() {
        let src = r#"
            protocol Toy;
            message Get : request;
            message Data : response { data };
            cache { state I; state V read; }
            directory { state I; state V; }
            architecture cache {
                process(V, load) { perform; }
                process(I, load) {
                    send Get to dir;
                    await D { when Data: copy_data; perform; -> V; }
                }
            }
            architecture directory {
                process(I, Get) { send Data(data) to req; add_sharer; -> V; }
            }
        "#;
        let ssp = lower(&parse(src).unwrap()).unwrap();
        assert_eq!(ssp.name, "Toy");
        assert_eq!(ssp.cache.states.len(), 2);
        // The issue process produced an Issue effect with one await node.
        let i = ssp.cache.state_by_name("I").unwrap();
        let entries = ssp.cache.entries_for(i, Trigger::Access(Access::Load));
        assert!(
            matches!(entries[0].effect, Effect::Issue { ref chain, .. } if chain.nodes.len() == 1)
        );
    }

    #[test]
    fn unknown_names_are_rejected() {
        let src = r#"
            protocol Bad;
            message Get : request;
            cache { state I; }
            directory { state I; }
            architecture cache {
                process(I, load) { send Nope to dir; }
            }
            architecture directory { }
        "#;
        let err = lower(&parse(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("Nope"));
    }
}
