//! Static analysis of a (preprocessed) SSP: transaction catalog, forward
//! associations, request classification.

use crate::error::GenError;
use protogen_spec::{
    Access, Action, Dst, Effect, Guard, MsgClass, MsgId, Perm, SpecError, Ssp, SspEntry, StableId,
    Trigger, WaitChain, WaitTo,
};
use std::collections::{BTreeMap, BTreeSet};

/// One transaction: an SSP entry that issues a request and waits. A cache
/// transaction is triggered by an access (`I` + store sends GetM and awaits
/// Data); a directory transaction by a request whose processing spans an
/// await (`M` + GetS awaits the owner's writeback).
#[derive(Debug, Clone)]
pub struct Txn {
    /// Index of the SSP entry this transaction came from.
    pub entry_idx: usize,
    /// Initial stable state `S_i`.
    pub from: StableId,
    /// What starts the transaction: an access (cache) or a request
    /// (directory).
    pub trigger: Trigger,
    /// Guards on the trigger (directory entries only).
    pub guards: Vec<Guard>,
    /// The primary request message sent to the directory (cache
    /// transactions only).
    pub request_msg: Option<MsgId>,
    /// The await structure.
    pub chain: WaitChain,
    /// All stable states the transaction can complete into; exactly one for
    /// a directory transaction.
    pub finals: Vec<StableId>,
    /// Per await point: whether the block still holds the (valid) data copy
    /// it had in `from` on every path to that point. Drives the Step-4
    /// access rule for chain states.
    pub retains_data: Vec<bool>,
    /// Per await point: whether a valid data copy is present on every path
    /// (either retained from `from` or received). Drives response deferral.
    pub data_present: Vec<bool>,
}

impl Txn {
    /// Catalogues `entry` if it issues a request and waits; `from_valid`
    /// says whether the block holds valid data when the transaction starts.
    fn new(ssp: &Ssp, entry_idx: usize, entry: &SspEntry, from_valid: bool) -> Option<Txn> {
        let Effect::Issue { request, chain } = &entry.effect else { return None };
        Some(Txn {
            entry_idx,
            from: entry.state,
            trigger: entry.trigger,
            guards: entry.guards.clone(),
            request_msg: primary_request(ssp, request),
            chain: chain.clone(),
            finals: chain.final_states(),
            retains_data: flow_data(chain, from_valid, FlowMode::Retains),
            data_present: flow_data(chain, from_valid, FlowMode::Present),
        })
    }
}

/// Results of analyzing a preprocessed SSP.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Forward message → the cache stable states it can arrive in. After
    /// preprocessing this is a single state whenever the directory can
    /// distinguish the sending situations (§V-A); it remains a set when it
    /// cannot (MESI's Fwd_GetS arrives at E or M, which silent upgrades
    /// make indistinguishable at the directory — the generator resolves
    /// the ambiguity per context instead).
    pub fwd_assoc: BTreeMap<MsgId, Vec<StableId>>,
    /// Cache stable state → forwards that can arrive there.
    pub fwds_at: Vec<Vec<MsgId>>,
    /// Cache transactions.
    pub txns: Vec<Txn>,
    /// `(state, access)` → transaction index.
    pub txn_by_trigger: BTreeMap<(StableId, Access), usize>,
    /// Directory transactions.
    pub dir_txns: Vec<Txn>,
    /// Request message → the `(access, cache state)` sites that issue it.
    pub request_sites: BTreeMap<MsgId, Vec<(Access, StableId)>>,
    /// Requests that only ever downgrade permissions (Put-class). The
    /// directory acknowledges these when they arrive stale (§V-F).
    pub downgrades: BTreeSet<MsgId>,
    /// Downgrade request → the acknowledgment its issuer awaits (used by the
    /// synthesized stale-Put rule).
    pub stale_ack: BTreeMap<MsgId, MsgId>,
}

impl Analysis {
    /// Analyzes a preprocessed SSP.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] when the SSP violates the generator's structural
    /// assumptions (ambiguous forward association, duplicate transactions
    /// for one `(state, access)` pair, multi-final directory transactions).
    pub fn of(ssp: &Ssp) -> Result<Analysis, GenError> {
        let mut fwd_assoc = BTreeMap::new();
        let mut fwds_at = vec![Vec::new(); ssp.cache.states.len()];

        for m in ssp.msg_ids() {
            if ssp.msg(m).class != MsgClass::Forward {
                continue;
            }
            let arrivals: Vec<StableId> =
                ssp.cache.state_ids().filter(|&s| ssp.cache.handles(s, Trigger::Msg(m))).collect();
            if arrivals.is_empty() {
                continue; // declared but unused; harmless
            }
            for &s in &arrivals {
                fwds_at[s.as_usize()].push(m);
            }
            fwd_assoc.insert(m, arrivals);
        }

        let mut txns = Vec::new();
        let mut txn_by_trigger = BTreeMap::new();
        let mut request_sites: BTreeMap<MsgId, Vec<(Access, StableId)>> = BTreeMap::new();

        for (entry_idx, e) in ssp.cache.entries.iter().enumerate() {
            let Trigger::Access(access) = e.trigger else {
                continue;
            };
            let from_valid = ssp.cache.state(e.state).data_valid;
            let Some(txn) = Txn::new(ssp, entry_idx, e, from_valid) else {
                continue;
            };
            if let Some(r) = txn.request_msg {
                request_sites.entry(r).or_default().push((access, e.state));
            }
            if txn.finals.is_empty() {
                return Err(GenError::Spec(SpecError::Invalid(format!(
                    "cache transaction from {} on {access} never completes",
                    ssp.cache.state(e.state).name
                ))));
            }
            if txn_by_trigger.insert((e.state, access), txns.len()).is_some() {
                return Err(GenError::Unsupported(format!(
                    "two transactions for ({}, {access})",
                    ssp.cache.state(e.state).name
                )));
            }
            txns.push(txn);
        }

        let mut dir_txns = Vec::new();
        for (entry_idx, e) in ssp.directory.entries.iter().enumerate() {
            let Trigger::Msg(trigger) = e.trigger else {
                continue;
            };
            // The directory's data copy is stale while a cache owns the
            // block, which is exactly when the SSP makes it wait for a
            // writeback; model "present" as false until data arrives.
            let Some(txn) = Txn::new(ssp, entry_idx, e, false) else {
                continue;
            };
            if txn.finals.len() != 1 {
                return Err(GenError::Unsupported(format!(
                    "directory transaction at {} on `{}` has {} final states (need exactly 1)",
                    ssp.directory.state(e.state).name,
                    ssp.msg(trigger).name,
                    txn.finals.len()
                )));
            }
            dir_txns.push(txn);
        }

        // A request is a downgrade (Put-class) when every transaction that
        // issues it moves to a strictly lower permission level.
        let mut downgrades = BTreeSet::new();
        let mut stale_ack = BTreeMap::new();
        for (&req, sites) in &request_sites {
            let mut all_down = true;
            let mut ack: Option<MsgId> = None;
            for &(access, from) in sites {
                let txn = &txns[txn_by_trigger[&(from, access)]];
                let from_perm = ssp.cache.state(from).perm;
                let down = txn
                    .finals
                    .iter()
                    .all(|&f| ssp.cache.state(f).perm < from_perm || from_perm == Perm::None);
                if !down || from_perm == Perm::None {
                    all_down = false;
                }
                // The acknowledgment the issuer awaits first: the message of
                // the entry await point's arcs.
                if let Some(first) = txn.chain.nodes.first().and_then(|n| n.arcs.first()) {
                    ack.get_or_insert(first.msg);
                }
            }
            if all_down {
                downgrades.insert(req);
                if let Some(a) = ack {
                    stale_ack.insert(req, a);
                }
            }
        }

        Ok(Analysis {
            fwd_assoc,
            fwds_at,
            txns,
            txn_by_trigger,
            dir_txns,
            request_sites,
            downgrades,
            stale_ack,
        })
    }

    /// The directory transaction index for an SSP entry index, if that entry
    /// is a transaction.
    pub fn dir_txn_by_entry(&self, entry_idx: usize) -> Option<usize> {
        self.dir_txns.iter().position(|t| t.entry_idx == entry_idx)
    }
}

/// The primary request of a transaction: the first request-class send.
fn primary_request(ssp: &Ssp, actions: &[Action]) -> Option<MsgId> {
    actions.iter().find_map(|a| match a {
        Action::Send(s) if s.dst == Dst::Dir && ssp.msg(s.msg).class == MsgClass::Request => {
            Some(s.msg)
        }
        _ => None,
    })
}

#[derive(Clone, Copy, PartialEq)]
enum FlowMode {
    /// True while no arc consumed new data (the block still holds the
    /// initial copy) — requires the initial copy to be valid.
    Retains,
    /// True when a valid copy is present (initial or received).
    Present,
}

/// All-paths dataflow over a wait chain for data validity.
fn flow_data(chain: &WaitChain, from_valid: bool, mode: FlowMode) -> Vec<bool> {
    let n = chain.nodes.len();
    let mut val = vec![true; n];
    // An empty chain is reported by the caller ("never completes").
    if let Some(entry) = val.first_mut() {
        *entry = from_valid;
    }
    // Small chains: iterate to a fixpoint with an all-paths AND.
    for _ in 0..=n {
        for (i, node) in chain.nodes.iter().enumerate() {
            for arc in &node.arcs {
                let WaitTo::Wait(j) = arc.to else { continue };
                if j == i {
                    continue; // self-loops never change data validity
                }
                let copies = arc.actions.iter().any(|a| matches!(a, Action::CopyDataFromMsg));
                let incoming = match mode {
                    FlowMode::Retains => val[i] && !copies,
                    FlowMode::Present => val[i] || copies,
                };
                val[j] = val[j] && incoming;
            }
        }
    }
    val
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small MSI-like SSP for analysis tests: MSI's cache side without
    /// Fwd_GetS and PutS, over a partial directory (enough for validity).
    const MINI: &str = r#"
        protocol mini;
        message GetS : request;
        message GetM : request;
        message PutM : request { data };
        message Inv : forward;
        message Fwd_GetM : forward;
        message Data : response { data, acks };
        message Inv_Ack : response;
        message Put_Ack : response;
        cache { state I; state S read; state M readwrite; }
        directory { state I; state S; state M; }
        architecture cache {
            process(S, load) { perform; }
            process(M, load) { perform; }
            process(M, store) { perform; }
            process(I, load) {
                reset_acks;
                send GetS to dir;
                await D { when Data: copy_data; perform; -> S; }
            }
            process(I, store) {
                reset_acks;
                send GetM to dir;
                await AD {
                    when Data if acks_complete: copy_data; perform; reset_acks; -> M;
                    when Data if acks_incomplete: copy_data; set_expected; => A;
                    when Inv_Ack: inc_acks; => AD;
                }
                await A {
                    when Inv_Ack if acks_complete: inc_acks; perform; reset_acks; -> M;
                    when Inv_Ack if acks_incomplete: inc_acks; => A;
                }
            }
            process(S, store) {
                reset_acks;
                send GetM to dir;
                await AD {
                    when Data if acks_complete: copy_data; perform; reset_acks; -> M;
                    when Data if acks_incomplete: copy_data; set_expected; => A;
                    when Inv_Ack: inc_acks; => AD;
                }
                await A {
                    when Inv_Ack if acks_complete: inc_acks; perform; reset_acks; -> M;
                    when Inv_Ack if acks_incomplete: inc_acks; => A;
                }
            }
            process(M, replacement) {
                reset_acks;
                send PutM(data) to dir;
                await A { when Put_Ack: perform; -> I; }
            }
            process(S, Inv) { send Inv_Ack to req; -> I; }
            process(M, Fwd_GetM) { send Data(data) to req; -> I; }
        }
        architecture directory {
            process(I, GetS) { send Data(data) to req; add_sharer; -> S; }
            process(I, GetM) { send Data(data, acks) to req; set_owner; -> M; }
            process(S, GetM) {
                send Data(data, acks) to req;
                send Inv to sharers;
                set_owner;
                clear_sharers;
                -> M;
            }
            process(M, GetM) { send Fwd_GetM to owner; set_owner; }
            process(M, PutM) if owner { copy_data; send Put_Ack to req; clear_owner; -> I; }
        }
    "#;

    fn mini() -> Ssp {
        protogen_dsl::parse_protocol(MINI).expect("mini SSP is valid")
    }

    #[test]
    fn forward_association_is_unique() {
        let ssp = mini();
        let an = Analysis::of(&ssp).unwrap();
        let inv = ssp.msg_by_name("Inv").unwrap();
        let s = ssp.cache.state_by_name("S").unwrap();
        assert_eq!(an.fwd_assoc[&inv], vec![s]);
        let m = ssp.cache.state_by_name("M").unwrap();
        assert_eq!(an.fwds_at[m.as_usize()].len(), 1);
    }

    #[test]
    fn transactions_catalogued() {
        let ssp = mini();
        let an = Analysis::of(&ssp).unwrap();
        assert_eq!(an.txns.len(), 4);
        let i = ssp.cache.state_by_name("I").unwrap();
        let t = &an.txns[an.txn_by_trigger[&(i, Access::Store)]];
        assert_eq!(t.request_msg, ssp.msg_by_name("GetM"));
        assert_eq!(t.finals, vec![ssp.cache.state_by_name("M").unwrap()]);
        // Two await points: AD then A.
        assert_eq!(t.chain.nodes.len(), 2);
        // I holds no data: nothing retained; data present only after Data.
        assert_eq!(t.retains_data, vec![false, false]);
        assert_eq!(t.data_present, vec![false, true]);
    }

    #[test]
    fn put_m_is_a_downgrade_with_ack() {
        let ssp = mini();
        let an = Analysis::of(&ssp).unwrap();
        let put_m = ssp.msg_by_name("PutM").unwrap();
        assert!(an.downgrades.contains(&put_m));
        assert_eq!(an.stale_ack[&put_m], ssp.msg_by_name("Put_Ack").unwrap());
        // GetM upgrades; not a downgrade.
        assert!(!an.downgrades.contains(&ssp.msg_by_name("GetM").unwrap()));
    }

    #[test]
    fn retains_data_for_valid_initial_copy() {
        let ssp = mini();
        let an = Analysis::of(&ssp).unwrap();
        let s = ssp.cache.state_by_name("S").unwrap();
        let t = &an.txns[an.txn_by_trigger[&(s, Access::Store)]];
        // S holds data: the AD point retains it; after Data arrives (A
        // point) the initial copy has been overwritten.
        assert_eq!(t.retains_data, vec![true, false]);
        assert_eq!(t.data_present, vec![true, true]);
    }
}
