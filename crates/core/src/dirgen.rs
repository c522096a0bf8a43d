//! Directory controller generation (§V-F), as a policy over the generation
//! kernel ([`crate::weave`]).
//!
//! The directory is the serialization point, so there is no Case 1: every
//! request arriving while the directory is mid-transaction belongs to a
//! *later*-ordered transaction. The directory-specific machinery is the
//! synthesized stale-Put rule, request reinterpretation (§V-D1), and the
//! bound of one outstanding multi-step transaction (design note N9).

use crate::analysis::{Analysis, Txn};
use crate::config::{Concurrency, GenConfig};
use crate::error::GenError;
use crate::report::Reinterpretation;
use crate::weave::{defer_sends, At, Elem, Key, Weave};
use protogen_spec::{
    Action, ArcNote, DataSrc, Dst, Effect, Event, Fsm, FsmStateId, Guard, MachineKind, MsgClass,
    MsgId, Perm, ReqField, SendSpec, Ssp, StableId, Trigger,
};

/// An SSP entry that processes a request in some directory state, under
/// the guards and provenance it is used with there.
struct Handler<'a> {
    /// Index of the SSP entry.
    entry: usize,
    guards: Vec<Guard>,
    effect: &'a Effect,
    note: ArcNote,
}

/// Whether a set of handlers for one trigger covers all cases: an unguarded
/// entry, or a complementary guard pair.
fn covered(handlers: &[Handler]) -> bool {
    if handlers.iter().any(|h| h.guards.is_empty()) {
        return true;
    }
    let guards: Vec<Guard> =
        handlers.iter().filter(|h| h.guards.len() == 1).map(|h| h.guards[0]).collect();
    guards.iter().any(|g| guards.contains(&g.negate()))
}

/// The stable state the directory logically occupies at an await point of
/// `t` behind `chain`.
fn logical_state(t: &Txn, chain: &[Elem]) -> StableId {
    chain.last().map_or(t.finals[0], |e| e.logical_to)
}

pub(crate) struct DirGen<'a> {
    ssp: &'a Ssp,
    cfg: &'a GenConfig,
    an: &'a Analysis,
    w: Weave<'a>,
    reinterpretations: Vec<Reinterpretation>,
    warnings: Vec<String>,
}

impl<'a> DirGen<'a> {
    /// Generates the directory controller FSM.
    pub(crate) fn run(
        ssp: &'a Ssp,
        cfg: &'a GenConfig,
        an: &'a Analysis,
    ) -> Result<(Fsm, Vec<Reinterpretation>, Vec<String>), GenError> {
        let mut g = DirGen {
            ssp,
            cfg,
            an,
            w: Weave::new(ssp, MachineKind::Directory, &an.dir_txns, cfg.pending_limit),
            reinterpretations: Vec::new(),
            warnings: Vec::new(),
        };
        while let Some((id, key)) = g.w.next() {
            match key {
                Key::Stable(s) => g.emit_stable(id, s)?,
                Key::Wait { txn, w, chain } => g.emit_wait(At { id, txn, w, chain: &chain })?,
                Key::Zombie { .. } => unreachable!("the directory has no Case 1"),
            }
        }
        let fsm = g.w.finish(|_, _, key| {
            let logical = match key {
                Key::Stable(s) => *s,
                Key::Wait { txn, chain, .. } => logical_state(&an.dir_txns[*txn], chain),
                Key::Zombie { logical, .. } => *logical,
            };
            (vec![logical], Perm::None, true)
        });
        Ok((fsm, g.reinterpretations, g.warnings))
    }

    fn sname(&self, s: StableId) -> &str {
        &self.ssp.directory.state(s).name
    }

    /// All messages the directory can receive: requests, plus any
    /// response-class messages the SSP reacts to outside transactions
    /// (handshake protocols).
    fn receivable(&self) -> Vec<MsgId> {
        self.ssp.msg_ids().filter(|&m| self.ssp.msg(m).class != MsgClass::Forward).collect()
    }

    /// The SSP entries for `m` in stable state `s`, in declaration order.
    fn handlers(&self, s: StableId, m: MsgId, note: ArcNote) -> Vec<Handler<'a>> {
        let entries = self.ssp.directory.entries.iter().enumerate();
        entries
            .filter(|(_, e)| e.state == s && e.trigger == Trigger::Msg(m))
            .map(|(entry, e)| Handler { entry, guards: e.guards.clone(), effect: &e.effect, note })
            .collect()
    }

    fn emit_handler(&mut self, id: FsmStateId, m: MsgId, h: &Handler) -> Result<(), GenError> {
        let txn = self.an.dir_txn_by_entry(h.entry);
        self.w.emit_entry(id, Event::Msg(m), h.guards.clone(), h.effect, txn, h.note)
    }

    fn emit_stable(&mut self, id: FsmStateId, s: StableId) -> Result<(), GenError> {
        for m in self.receivable() {
            let direct = self.handlers(s, m, ArcNote::Ssp);
            if direct.is_empty() {
                self.emit_missing(id, s, m)?;
                continue;
            }
            for h in &direct {
                self.emit_handler(id, m, h)?;
            }
            if covered(&direct) {
                continue;
            }
            if self.an.downgrades.contains(&m) {
                // Guarded entries may not cover every requestor (PutM from a
                // non-owner at M): append the stale-Put fallback as an "else".
                self.stale_fallback(id, m);
            } else if self.ssp.msg(m).class == MsgClass::Request {
                // Guarded *upgrade* entries that do not cover every requestor
                // (Upgrade from a cache that is no longer a sharer, §V-D1):
                // append the reinterpretation as the "else" branch.
                for h in self.reinterp_entries(s, m) {
                    self.emit_handler(id, m, &h)?;
                }
            }
        }
        Ok(())
    }

    /// No SSP entry handles `m` in stable state `s`: synthesize a
    /// reinterpretation (§V-D1) and/or the stale-Put acknowledgment (§V-F).
    fn emit_missing(&mut self, id: FsmStateId, s: StableId, m: MsgId) -> Result<(), GenError> {
        if self.ssp.msg(m).class != MsgClass::Request {
            return Ok(()); // responses outside transactions: nothing to do
        }
        // Reinterpretation first: a downgrade from the *current owner*
        // whose cache state was demoted behind its back (PutM arriving at a
        // MOSI directory in O: the owner was demoted M→O by a read, so its
        // PutM is this state's PutO); an upgrade from a state the requestor
        // no longer occupies (Upgrade → GetM).
        for h in self.reinterp_entries(s, m) {
            self.emit_handler(id, m, &h)?;
        }
        if self.an.downgrades.contains(&m) {
            self.stale_fallback(id, m);
        }
        Ok(())
    }

    /// The synthesized stale-Put rule: acknowledge so the issuer can
    /// complete its stale transaction; optionally clean the sharer list.
    fn stale_fallback(&mut self, id: FsmStateId, m: MsgId) {
        let Some(&ack) = self.an.stale_ack.get(&m) else {
            self.warnings.push(format!(
                "no acknowledgment known for stale `{}`; leaving unhandled",
                self.ssp.msg(m).name
            ));
            return;
        };
        let mut actions =
            vec![Action::Send(SendSpec::new(ack, Dst::Req).req_field(ReqField::FromMsg))];
        if self.cfg.dir_stale_put_cleanup {
            actions.push(Action::RemoveReqFromSharers);
        }
        self.w.push(id, Event::Msg(m), vec![], actions, id, ArcNote::StalePut);
    }

    // ----- transient states -------------------------------------------------

    fn emit_wait(&mut self, at: At) -> Result<(), GenError> {
        let logical = logical_state(&self.an.dir_txns[at.txn], at.chain);
        // Own transaction arcs (awaiting the owner's writeback) come first:
        // interning order is the state-id assignment.
        self.w.own_arcs(at);

        // Requests racing with the transaction: always ordered after.
        let awaited = &self.an.dir_txns[at.txn].chain.nodes[at.w].arcs;
        for m in self.receivable() {
            if awaited.iter().any(|a| a.msg == m) || self.ssp.msg(m).class != MsgClass::Request {
                continue;
            }
            let is_downgrade = self.an.downgrades.contains(&m);
            // §V-D2 footnote 3: without point-to-point ordering the
            // directory serializes racing transactions by stalling the
            // second — *including* stale Puts, whose acknowledgment could
            // otherwise overtake an in-flight forward to the Put's issuer.
            // Unordered channels make stalling safe (a stalled message
            // blocks nothing). On ordered channels the opposite holds: a
            // stalled Put would block the writeback behind it on the same
            // channel, so downgrades are processed even by a stalling
            // directory, and their acknowledgments cannot overtake anything
            // (same channel).
            if !self.ssp.network_ordered
                || (self.cfg.concurrency == Concurrency::Stalling && !is_downgrade)
            {
                self.w.stall(at.id, Event::Msg(m), ArcNote::Case2);
                continue;
            }
            let entries = self.entries_with_reinterp(logical, m);
            for h in &entries {
                match h.effect {
                    Effect::Local { actions, next } => {
                        self.case2_local(at, m, h, actions, logical, next.unwrap_or(logical));
                    }
                    Effect::Issue { .. } => {
                        // Starting a second multi-step transaction while one
                        // is outstanding: serialize by stalling (note N9).
                        self.w.stall_guarded(
                            at.id,
                            Event::Msg(m),
                            h.guards.clone(),
                            ArcNote::Case2,
                        );
                    }
                }
            }
            // Guard coverage at transient states mirrors stable states.
            if is_downgrade && !covered(&entries) {
                self.stale_fallback(at.id, m);
            }
        }
        Ok(())
    }

    /// SSP entries for `(state, msg)`, following one reinterpretation hop
    /// when there is no direct entry or the direct entries do not cover
    /// every case.
    fn entries_with_reinterp(&mut self, s: StableId, m: MsgId) -> Vec<Handler<'a>> {
        let mut entries = self.handlers(s, m, ArcNote::Case2);
        if entries.is_empty() || !covered(&entries) {
            entries.extend(self.reinterp_entries(s, m));
        }
        entries
    }

    /// The entries a reinterpreted request maps to: the request the same
    /// access issues from a different cache state, when this directory
    /// state handles that request (§V-D1).
    fn reinterp_entries(&mut self, s: StableId, m: MsgId) -> Vec<Handler<'a>> {
        if self.ssp.msg(m).class != MsgClass::Request {
            return vec![];
        }
        // For downgrades, precision matters (data and ownership move): the
        // alternative must be the request the same access issues from the
        // cache state this directory state corresponds to by name (a PutM
        // at directory O is the demoted owner's PutO, never a PutS).
        let is_downgrade = self.an.downgrades.contains(&m);
        let required_from = if is_downgrade {
            match self.ssp.cache.state_by_name(self.sname(s)) {
                Some(cs) => Some(cs),
                None => return vec![],
            }
        } else {
            None
        };
        let sites = self.an.request_sites.get(&m).map_or(&[][..], Vec::as_slice);
        for &(access, _) in sites {
            for (&(from2, acc2), &txn2) in self.an.txn_by_trigger.iter() {
                if acc2 != access || required_from.is_some_and(|rf| from2 != rf) {
                    continue;
                }
                let Some(alt) = self.an.txns[txn2].request_msg else { continue };
                if alt == m {
                    continue;
                }
                let mut alt_entries = self.handlers(s, alt, ArcNote::Reinterpret);
                if alt_entries.is_empty() {
                    continue;
                }
                if is_downgrade {
                    // Only the current owner's stale downgrade carries
                    // current data and ownership; anyone else's falls
                    // through to the stale-Put acknowledgment.
                    for h in &mut alt_entries {
                        h.guards.insert(0, Guard::ReqIsOwner);
                    }
                }
                let rec = Reinterpretation {
                    original: self.ssp.msg(m).name.clone(),
                    treated_as: self.ssp.msg(alt).name.clone(),
                    dir_state: self.sname(s).to_string(),
                };
                if !self.reinterpretations.contains(&rec) {
                    self.reinterpretations.push(rec);
                }
                return alt_entries;
            }
        }
        vec![]
    }

    /// Case 2 processing of a single-step reaction at a transient directory
    /// state: apply auxiliary updates and data-free sends immediately, defer
    /// data-bearing sends the directory cannot satisfy yet.
    fn case2_local(
        &mut self,
        at: At,
        m: MsgId,
        h: &Handler,
        actions: &[Action],
        logical: StableId,
        logical_to: StableId,
    ) {
        let data_ready = self.an.dir_txns[at.txn].data_present[at.w];
        let updates_data = actions.iter().any(|a| matches!(a, Action::CopyDataFromMsg));
        if updates_data && at.chain.iter().any(|e| !e.deferred.is_empty()) {
            // A deferred data response serialized *before* this writeback is
            // still owed; completing it later with the newer data would let
            // an earlier reader observe a later write. Serialize by
            // stalling the writeback until the own transaction completes.
            // The stall keeps the entry's guards: a *stale* Put from some
            // other cache must fall through to the acknowledgment fallback
            // or it would block the channel carrying the writeback.
            self.w.stall_guarded(at.id, Event::Msg(m), h.guards.clone(), ArcNote::Case2);
            return;
        }
        let (immediate, deferred) =
            defer_sends(actions, at.chain, |sp| sp.data == Some(DataSrc::OwnBlock) && !data_ready);
        let elem = Elem { msg: m, entry: h.entry, logical_to, deferred, updates_data };
        self.w.extend_chain(at, h.guards.clone(), immediate, elem, logical, h.note);
    }
}

#[cfg(test)]
mod tests {
    use crate::{generate, GenConfig};

    /// Directory states always hold the block: the generator never reads a
    /// directory `StableDecl::data_valid`, so flipping every one of them
    /// leaves both generated machines unchanged.
    #[test]
    fn directory_data_valid_is_not_read() {
        for ssp in [protogen_protocols::msi(), protogen_protocols::mesi()] {
            let mut flipped = ssp.clone();
            for s in &mut flipped.directory.states {
                s.data_valid = !s.data_valid;
            }
            for cfg in [GenConfig::stalling(), GenConfig::non_stalling()] {
                let (a, b) = (generate(&ssp, &cfg).unwrap(), generate(&flipped, &cfg).unwrap());
                assert_eq!(a.cache, b.cache, "{} cache", ssp.name);
                assert_eq!(a.directory, b.directory, "{} directory", ssp.name);
            }
        }
    }
}
