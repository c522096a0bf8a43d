//! Preprocessing: make every forwarded request arrive at exactly one stable
//! state (§V-A, Tables III and IV of the paper).

use crate::error::GenError;
use crate::report::Rename;
use protogen_spec::{Action, Effect, MsgClass, MsgDecl, MsgId, Ssp, StableId, Trigger};
use std::collections::BTreeMap;

/// Ensures the invariant that a given forwarded request can arrive at
/// exactly one cache stable state.
///
/// When an input SSP lets the same forward arrive at two stable states
/// (MOSI's `Fwd_GetS` at both M and O), the forward keeps its name for the
/// highest-permission state and is cloned under a new name
/// (`O_Fwd_GetS`) for each other state. Directory send sites are rewritten
/// according to the directory state they send from: a directory in state O
/// believes the owner's block is in cache state O, so its sends become
/// `O_Fwd_GetS`. Directory states are paired with cache states by name.
///
/// Returns the rewritten SSP and the renames performed.
///
/// # Errors
///
/// Returns [`GenError::Ambiguous`] when a directory send site cannot be
/// paired with a cache state by name.
pub fn preprocess(ssp: &Ssp) -> Result<(Ssp, Vec<Rename>), GenError> {
    let mut out = ssp.clone();
    let mut renames = Vec::new();

    for m in ssp.msg_ids() {
        if ssp.msg(m).class != MsgClass::Forward {
            continue;
        }
        let mut arrivals: Vec<StableId> =
            ssp.cache.state_ids().filter(|&s| ssp.cache.handles(s, Trigger::Msg(m))).collect();
        if arrivals.len() <= 1 {
            continue;
        }
        // Renaming requires the directory to *know* which arrival state the
        // target cache is in when it sends the forward. We pair directory
        // send sites with cache states by name; when any send site has no
        // same-named cache state (MESI's "EM" directory state cannot tell E
        // from M after silent upgrades), the forward keeps one name and the
        // generator resolves the association per context instead.
        let mappable =
            ssp.directory.entries.iter().filter(|e| entry_sends(&e.effect, m)).all(|e| {
                let dir_name = &ssp.directory.states[e.state.as_usize()].name;
                ssp.cache.state_by_name(dir_name).is_some()
            });
        if !mappable {
            continue;
        }
        // Highest permission keeps the original name (the paper keeps
        // `Fwd_GetS` for M and renames O's copy).
        arrivals.sort_by_key(|&s| {
            let d = ssp.cache.state(s);
            (std::cmp::Reverse(d.perm), s.as_usize())
        });
        let mut clone_for: BTreeMap<StableId, MsgId> = BTreeMap::new();
        for &state in arrivals.iter().skip(1) {
            let orig = ssp.msg(m);
            let new_name = format!("{}_{}", ssp.cache.state(state).name, orig.name);
            let new_id = MsgId::from_usize(out.messages.len());
            out.messages.push(MsgDecl { name: new_name.clone(), ..orig.clone() });
            clone_for.insert(state, new_id);
            renames.push(Rename {
                original: orig.name.clone(),
                renamed: new_name,
                state: ssp.cache.state(state).name.clone(),
            });
        }

        // Rewrite the cache reactions at the renamed states.
        for e in &mut out.cache.entries {
            if e.trigger == Trigger::Msg(m) {
                if let Some(&new_id) = clone_for.get(&e.state) {
                    e.trigger = Trigger::Msg(new_id);
                }
            }
        }

        // Rewrite directory send sites: the believed cache state is the
        // cache state with the same name as the directory state the entry
        // fires in.
        for e in &mut out.directory.entries {
            let dir_name = &ssp.directory.states[e.state.as_usize()].name;
            let believed = ssp.cache.state_by_name(dir_name);
            let sends_m = entry_sends(&e.effect, m);
            if !sends_m {
                continue;
            }
            let Some(cstate) = believed else {
                return Err(GenError::Ambiguous(format!(
                    "directory state `{dir_name}` sends forward `{}` but has no \
                     same-named cache state to pair with for renaming",
                    ssp.msg(m).name
                )));
            };
            if let Some(&new_id) = clone_for.get(&cstate) {
                rewrite_entry(&mut e.effect, m, new_id);
            }
        }
    }

    Ok((out, renames))
}

fn entry_sends(effect: &Effect, m: MsgId) -> bool {
    let in_actions =
        |acts: &[Action]| acts.iter().any(|a| matches!(a, Action::Send(s) if s.msg == m));
    match effect {
        Effect::Local { actions, .. } => in_actions(actions),
        Effect::Issue { request, chain } => {
            in_actions(request)
                || chain.nodes.iter().flat_map(|n| n.arcs.iter()).any(|a| in_actions(&a.actions))
        }
    }
}

fn rewrite_entry(effect: &mut Effect, from: MsgId, to: MsgId) {
    let rewrite = |acts: &mut Vec<Action>| {
        for a in acts {
            if let Action::Send(s) = a {
                if s.msg == from {
                    s.msg = to;
                }
            }
        }
    };
    match effect {
        Effect::Local { actions, .. } => rewrite(actions),
        Effect::Issue { request, chain } => {
            rewrite(request);
            for node in &mut chain.nodes {
                for arc in &mut node.arcs {
                    rewrite(&mut arc.actions);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_spec::MsgClass;

    /// A MOSI fragment reproducing Tables III/IV: Fwd_GetS arrives at both
    /// M and O.
    const MOSI_FRAGMENT: &str = r#"
        protocol mosi_fragment;
        message GetS : request;
        message Fwd_GetS : forward;
        message Data : response { data };
        cache { state I; state S read; state O read data; state M readwrite; }
        directory { state I; state S; state O; state M; }
        architecture cache {
            // M + Fwd_GetS: send data, downgrade to O.
            process(M, Fwd_GetS) { send Data(data) to req; -> O; }
            // O + Fwd_GetS: send data, stay O.
            process(O, Fwd_GetS) { send Data(data) to req; }
            // I + load so the protocol has at least one transaction.
            process(I, load) {
                reset_acks;
                send GetS to dir;
                await D { when Data: copy_data; perform; -> I; }
            }
        }
        architecture directory {
            // M + GetS and O + GetS both forward.
            process(M, GetS) { send Fwd_GetS to owner; add_sharer; -> O; }
            process(O, GetS) { send Fwd_GetS to owner; add_sharer; }
            process(I, GetS) { send Data(data) to req; add_sharer; }
        }
    "#;

    fn mosi_fragment() -> Ssp {
        protogen_dsl::parse_protocol(MOSI_FRAGMENT).expect("fragment is valid")
    }

    #[test]
    fn renames_forward_at_lower_permission_state() {
        let ssp = mosi_fragment();
        let (out, renames) = preprocess(&ssp).unwrap();
        // Exactly one rename: O's copy of Fwd_GetS.
        assert_eq!(renames.len(), 1);
        assert_eq!(renames[0].original, "Fwd_GetS");
        assert_eq!(renames[0].renamed, "O_Fwd_GetS");
        assert_eq!(renames[0].state, "O");
        // The new message exists and is a forward.
        let new_id = out.msg_by_name("O_Fwd_GetS").unwrap();
        assert_eq!(out.msg(new_id).class, MsgClass::Forward);
        // The cache reaction at O now listens for the new name.
        let o = out.cache.state_by_name("O").unwrap();
        assert!(out.cache.handles(o, Trigger::Msg(new_id)));
        let old_id = out.msg_by_name("Fwd_GetS").unwrap();
        assert!(!out.cache.handles(o, Trigger::Msg(old_id)));
        // M still listens for the original.
        let m = out.cache.state_by_name("M").unwrap();
        assert!(out.cache.handles(m, Trigger::Msg(old_id)));
    }

    #[test]
    fn rewrites_directory_send_site_by_state_name() {
        let ssp = mosi_fragment();
        let (out, _) = preprocess(&ssp).unwrap();
        let new_id = out.msg_by_name("O_Fwd_GetS").unwrap();
        let old_id = out.msg_by_name("Fwd_GetS").unwrap();
        let do_ = out.directory.state_by_name("O").unwrap();
        let dm = out.directory.state_by_name("M").unwrap();
        // Directory O sends the renamed forward; directory M the original.
        let sends = |state, id| {
            out.directory
                .entries
                .iter()
                .filter(|e| e.state == state)
                .any(|e| entry_sends(&e.effect, id))
        };
        assert!(sends(do_, new_id));
        assert!(!sends(do_, old_id));
        assert!(sends(dm, old_id));
        assert!(!sends(dm, new_id));
    }

    #[test]
    fn unique_forwards_untouched() {
        let ssp = mosi_fragment();
        let (once, _) = preprocess(&ssp).unwrap();
        let (twice, renames) = preprocess(&once).unwrap();
        assert!(renames.is_empty(), "preprocessing is idempotent");
        assert_eq!(once, twice);
    }
}
