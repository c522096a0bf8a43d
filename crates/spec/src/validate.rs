//! Structural validation of stable state protocols.

use crate::action::{Action, Dst};
use crate::error::SpecError;
use crate::msg::MsgClass;
use crate::ssp::{Access, Effect, EntryNote, MachineKind, MachineSsp, Trigger, WaitTo};
use crate::Ssp;

/// Validates an SSP's structure.
///
/// This checks well-formedness, not protocol intent: ProtoGen requires a
/// *correct* SSP as input and cannot fix protocol bugs (§IV-C). The checks:
///
/// * id ranges (states, messages, wait nodes) are in bounds;
/// * wait chains are non-empty, their nodes reachable, and every await point
///   has at least one arc;
/// * accesses only trigger cache entries; directory entries only react to
///   requests or responses; caches react to forwards and responses;
/// * initial requests are sent to the directory; cache entries never use
///   directory-only destinations or guards.
///
/// # Errors
///
/// Returns the first problem found as a [`SpecError`].
pub fn validate(ssp: &Ssp) -> Result<(), SpecError> {
    // Duplicate message names confuse every later lookup.
    for (i, m) in ssp.messages.iter().enumerate() {
        if ssp.messages[..i].iter().any(|o| o.name == m.name) {
            return Err(SpecError::DuplicateName(m.name.clone()));
        }
    }
    validate_machine(ssp, &ssp.cache)?;
    validate_machine(ssp, &ssp.directory)?;
    // `si epoch` without a single self-invalidating entry is a spec bug:
    // the author asked for epoch-granular decay of nothing.
    if ssp.si_epoch && !ssp.cache.entries.iter().any(|e| e.note == EntryNote::SelfInvalidate) {
        return Err(SpecError::Invalid(
            "si_epoch set but no cache entry is marked self-invalidate".into(),
        ));
    }
    Ok(())
}

fn validate_machine(ssp: &Ssp, m: &MachineSsp) -> Result<(), SpecError> {
    let n_states = m.states.len();
    if n_states == 0 {
        return Err(SpecError::Invalid(format!("{} has no states", m.kind)));
    }
    for (i, s) in m.states.iter().enumerate() {
        if m.states[..i].iter().any(|o| o.name == s.name) {
            return Err(SpecError::DuplicateName(s.name.clone()));
        }
        // A readable stable state without a valid data copy is
        // contradictory: a load hit reads the block, so the declaration
        // promises data the state cannot supply. Left unrejected, the
        // generator dutifully emits hit arcs that fail at run time
        // ("load on invalid data" — found by fuzzing permission flips).
        if m.kind == MachineKind::Cache && s.perm.allows(crate::ssp::Access::Load) && !s.data_valid
        {
            return Err(SpecError::Invalid(format!(
                "cache state `{}` grants {} permission but holds no valid data",
                s.name, s.perm
            )));
        }
    }
    for (idx, e) in m.entries.iter().enumerate() {
        let ctx = |msg: String| SpecError::Invalid(format!("{} entry #{idx}: {msg}", m.kind));
        if e.state.as_usize() >= n_states {
            return Err(ctx(format!("state {} out of range", e.state)));
        }
        match e.trigger {
            Trigger::Access(_) => {
                if m.kind == MachineKind::Directory {
                    return Err(ctx("directory entries cannot trigger on accesses".into()));
                }
            }
            Trigger::Msg(id) => {
                if id.as_usize() >= ssp.messages.len() {
                    return Err(ctx(format!("message {id} out of range")));
                }
                let class = ssp.msg(id).class;
                match (m.kind, class) {
                    (MachineKind::Cache, MsgClass::Request) => {
                        return Err(ctx(format!(
                            "cache cannot receive request `{}`",
                            ssp.msg(id).name
                        )));
                    }
                    (MachineKind::Directory, MsgClass::Forward) => {
                        return Err(ctx(format!(
                            "directory cannot receive forward `{}`",
                            ssp.msg(id).name
                        )));
                    }
                    _ => {}
                }
            }
        }
        if e.note != EntryNote::Demand {
            if m.kind == MachineKind::Directory {
                return Err(ctx(format!("directory entries cannot be {}", e.note)));
            }
            if e.trigger != Trigger::Access(Access::Replacement) {
                return Err(ctx(format!(
                    "{} entries must trigger on replacement (they are spontaneous)",
                    e.note
                )));
            }
            match (e.note, &e.effect) {
                // A self-invalidation drops a copy nobody is told about:
                // it must be silent, or it is really a demand writeback.
                (EntryNote::SelfInvalidate, Effect::Local { actions, .. }) => {
                    if actions.iter().any(|a| matches!(a, Action::Send(_))) {
                        return Err(ctx("self-invalidation must be silent (no sends)".into()));
                    }
                }
                (EntryNote::SelfInvalidate, Effect::Issue { .. }) => {
                    return Err(ctx("self-invalidation cannot start a transaction".into()));
                }
                // A self-downgrade gives up dirty ownership: the directory
                // must learn about it, so it has to be a real transaction.
                (EntryNote::SelfDowngrade, Effect::Local { .. }) => {
                    return Err(ctx("self-downgrade must write back through a transaction".into()));
                }
                (EntryNote::SelfDowngrade, Effect::Issue { .. }) | (EntryNote::Demand, _) => {}
            }
        }
        match &e.effect {
            Effect::Local { actions, next } => {
                if let Some(n) = next {
                    if n.as_usize() >= n_states {
                        return Err(ctx(format!("next state {n} out of range")));
                    }
                }
                validate_actions(ssp, m, actions).map_err(&ctx)?;
            }
            Effect::Issue { request, chain } => {
                validate_actions(ssp, m, request).map_err(&ctx)?;
                if chain.nodes.is_empty() {
                    return Err(ctx("transaction with empty wait chain".into()));
                }
                let mut reachable = vec![false; chain.nodes.len()];
                reachable[0] = true;
                // Chains are tiny; a quadratic fixpoint is clearest.
                for _ in 0..chain.nodes.len() {
                    for (i, node) in chain.nodes.iter().enumerate() {
                        if !reachable[i] {
                            continue;
                        }
                        for arc in &node.arcs {
                            if let WaitTo::Wait(j) = arc.to {
                                if j >= chain.nodes.len() {
                                    return Err(ctx(format!("wait target {j} out of range")));
                                }
                                reachable[j] = true;
                            }
                        }
                    }
                }
                if let Some(i) = reachable.iter().position(|r| !r) {
                    return Err(ctx(format!("wait node {i} unreachable")));
                }
                for (i, node) in chain.nodes.iter().enumerate() {
                    if node.arcs.is_empty() {
                        return Err(ctx(format!("wait node {i} has no arcs")));
                    }
                    for arc in &node.arcs {
                        if arc.msg.as_usize() >= ssp.messages.len() {
                            return Err(ctx(format!("awaited message {} out of range", arc.msg)));
                        }
                        if let WaitTo::Done(s) = arc.to {
                            if s.as_usize() >= n_states {
                                return Err(ctx(format!("done state {s} out of range")));
                            }
                        }
                        validate_actions(ssp, m, &arc.actions).map_err(&ctx)?;
                    }
                }
            }
        }
    }
    Ok(())
}

fn validate_actions(ssp: &Ssp, m: &MachineSsp, actions: &[Action]) -> Result<(), String> {
    for a in actions {
        match a {
            Action::Send(s) => {
                if s.msg.as_usize() >= ssp.messages.len() {
                    return Err(format!("sent message {} out of range", s.msg));
                }
                let decl = ssp.msg(s.msg);
                if s.data.is_some() && !decl.carries_data {
                    return Err(format!("`{}` does not carry data", decl.name));
                }
                if s.ack_count.is_some() && !decl.carries_ack_count {
                    return Err(format!("`{}` does not carry an ack count", decl.name));
                }
                match (m.kind, s.dst) {
                    (MachineKind::Cache, Dst::Owner | Dst::SharersExceptReq) => {
                        return Err(format!("cache cannot address {}", s.dst));
                    }
                    (MachineKind::Directory, Dst::Dir) => {
                        return Err("directory cannot send to itself".into());
                    }
                    _ => {}
                }
            }
            Action::SetOwnerToReq
            | Action::ClearOwner
            | Action::AddReqToSharers
            | Action::AddOwnerToSharers
            | Action::RemoveReqFromSharers
            | Action::ClearSharers => {
                if m.kind == MachineKind::Cache {
                    return Err(format!("cache cannot perform directory action `{a}`"));
                }
            }
            Action::SetExpectedAcksFromMsg
            | Action::IncAcksReceived
            | Action::ResetAcks
            | Action::PerformAccess => {
                if m.kind == MachineKind::Directory {
                    return Err(format!("directory cannot perform cache action `{a}`"));
                }
            }
            Action::CopyDataFromMsg | Action::InvalidateData | Action::RecordChainReq => {}
        }
    }
    Ok(())
}
