//! Cache controller generation: Steps 1–4 of §V, as a policy over the
//! generation kernel ([`crate::weave`]). What is the cache's own: access
//! permissions in transient states (Step 4), Case 1 and late Case 1,
//! zombies, defensive handlers, and when a racing forward is stalled or its
//! data response deferred.

use crate::analysis::{Analysis, Txn};
use crate::config::{Concurrency, GenConfig, ResponsePolicy, TransientAccessPolicy};
use crate::error::GenError;
use crate::report::Reinterpretation;
use crate::weave::{defer_sends, At, Elem, Key, Weave};
use protogen_spec::{
    Access, Action, ArcNote, Effect, EntryNote, Event, Fsm, FsmStateId, MachineKind, MsgId, Perm,
    Ssp, StableId, Trigger, WaitTo,
};

pub(crate) struct CacheGen<'a> {
    ssp: &'a Ssp,
    cfg: &'a GenConfig,
    an: &'a Analysis,
    w: Weave<'a>,
    reinterpretations: Vec<Reinterpretation>,
    warnings: Vec<String>,
}

/// Whether a reaction sends the block's data.
fn sends_data(actions: &[Action]) -> bool {
    actions.iter().any(|a| matches!(a, Action::Send(sp) if sp.data.is_some()))
}

impl<'a> CacheGen<'a> {
    /// Generates the cache controller FSM.
    pub(crate) fn run(
        ssp: &'a Ssp,
        cfg: &'a GenConfig,
        an: &'a Analysis,
    ) -> Result<(Fsm, Vec<Reinterpretation>, Vec<String>), GenError> {
        let mut g = CacheGen {
            ssp,
            cfg,
            an,
            w: Weave::new(ssp, MachineKind::Cache, &an.txns, cfg.pending_limit),
            reinterpretations: Vec::new(),
            warnings: Vec::new(),
        };
        while let Some((id, key)) = g.w.next() {
            match key {
                Key::Stable(s) => g.emit_stable(id, s)?,
                Key::Wait { txn, w, chain } => g.emit_wait(At { id, txn, w, chain: &chain })?,
                Key::Zombie { txn, w, logical } => g.emit_zombie(id, txn, w, logical)?,
            }
        }
        if cfg.defensive_stable_handlers {
            g.emit_defensive()?;
        }
        let fsm = g.w.finish(|w, id, key| {
            // Step 4 output: the permission a transient state grants,
            // derived from its generated access arcs.
            let granted = || {
                if w.performs(id, Access::Store) {
                    Perm::ReadWrite
                } else if w.performs(id, Access::Load) {
                    Perm::Read
                } else {
                    Perm::None
                }
            };
            match key {
                Key::Stable(s) => {
                    let decl = ssp.cache.state(*s);
                    (vec![*s], decl.perm, decl.data_valid)
                }
                Key::Wait { txn, w: wait, chain } => {
                    let sets = match chain.last() {
                        Some(last) => vec![last.logical_to],
                        None => {
                            let t = &an.txns[*txn];
                            let mut v = if *wait == 0 { vec![t.from] } else { vec![] };
                            v.extend(t.finals.iter().copied());
                            v.sort();
                            v.dedup();
                            v
                        }
                    };
                    (sets, granted(), false)
                }
                Key::Zombie { logical, .. } => (vec![*logical], granted(), false),
            }
        });
        Ok((fsm, g.reinterpretations, g.warnings))
    }

    fn sname(&self, s: StableId) -> &str {
        &self.ssp.cache.state(s).name
    }

    fn txn(&self, txn: usize) -> &'a Txn {
        &self.an.txns[txn]
    }

    // ----- stable states --------------------------------------------------

    fn emit_stable(&mut self, id: FsmStateId, s: StableId) -> Result<(), GenError> {
        // Accesses: hits, silent transitions, and transaction issues,
        // straight from the SSP.
        for access in Access::ALL {
            let entries = self.ssp.cache.entries_for(s, Trigger::Access(access));
            let Some(e) = entries.first() else { continue };
            // SI/SD provenance survives generation so memory-model tooling
            // (the litmus harness) can find the spontaneous sync arcs in
            // the concurrent FSM.
            let note = match e.note {
                EntryNote::Demand => ArcNote::Ssp,
                EntryNote::SelfInvalidate => ArcNote::SelfInv,
                EntryNote::SelfDowngrade => ArcNote::SelfDown,
            };
            let txn = self.an.txn_by_trigger.get(&(s, access)).copied();
            self.w.emit_entry(id, Event::Access(access), vec![], &e.effect, txn, note)?;
        }
        // Forwards arriving in this stable state, straight from the SSP.
        for &f in &self.an.fwds_at[s.as_usize()] {
            let (actions, next) = self.reaction(s, f)?;
            let to = next.map_or(id, |n| self.w.intern(Key::Stable(n)));
            self.w.push(id, Event::Msg(f), vec![], actions, to, ArcNote::Ssp);
        }
        Ok(())
    }

    /// The (single, unguarded) SSP reaction to forward `f` in stable state
    /// `s`.
    fn reaction(&self, s: StableId, f: MsgId) -> Result<(Vec<Action>, Option<StableId>), GenError> {
        let entries = self.ssp.cache.entries_for(s, Trigger::Msg(f));
        let e = entries.first().ok_or_else(|| {
            GenError::Internal(format!(
                "no reaction for `{}` at {}",
                self.ssp.msg(f).name,
                self.sname(s)
            ))
        })?;
        match &e.effect {
            Effect::Local { actions, next } => Ok((actions.clone(), *next)),
            Effect::Issue { .. } => Err(GenError::Unsupported(format!(
                "forward `{}` triggers a transaction at {}; cache forwards must react locally",
                self.ssp.msg(f).name,
                self.sname(s)
            ))),
        }
    }

    /// Defensive stale-forward handlers (design note N6).
    ///
    /// A forwarded request can arrive after the epoch it belongs to has
    /// ended: a racing replacement's Put is acknowledged on the response
    /// network while the forward is still in flight on the forward network.
    /// Any state with no arc for such a forward can only be reached after
    /// the forward's epoch ended, so the correct reaction is to send the
    /// acknowledgment the forward demands (unblocking its requestor) and
    /// stay. Only forwards whose reaction is data-free qualify; data-bearing
    /// forwards (owner forwards) are provably consumed by the owner states
    /// that hold the data.
    fn emit_defensive(&mut self) -> Result<(), GenError> {
        for (&f, assoc_states) in &self.an.fwd_assoc {
            // All associated states must demand the same data-free response
            // for a context-free defensive handler to exist.
            let mut acks: Option<Vec<Action>> = None;
            let mut ok = true;
            for &assoc in assoc_states {
                let (actions, _next) = self.reaction(assoc, f)?;
                if sends_data(&actions) {
                    ok = false;
                    break;
                }
                let these: Vec<Action> =
                    actions.iter().filter(|a| matches!(a, Action::Send(_))).cloned().collect();
                if let Some(prev) = &acks {
                    if *prev != these {
                        ok = false;
                        break;
                    }
                } else {
                    acks = Some(these);
                }
            }
            let Some(acks) = acks else { continue };
            if !ok {
                continue;
            }
            for id in self.w.state_ids() {
                if !self.w.handles(id, Event::Msg(f)) {
                    self.w.push(id, Event::Msg(f), vec![], acks.clone(), id, ArcNote::Defensive);
                }
            }
        }
        Ok(())
    }

    // ----- transient states ------------------------------------------------

    fn emit_wait(&mut self, at: At) -> Result<(), GenError> {
        self.emit_wait_accesses(at);
        // Interning order is the state-id assignment: own arcs first.
        self.w.own_arcs(at);
        self.emit_wait_forwards(at)
    }

    /// Step 4: access permissions in transient states.
    fn emit_wait_accesses(&mut self, at: At) {
        let t = self.txn(at.txn);
        for access in Access::ALL {
            let allowed = match (access, self.cfg.transient_access) {
                (Access::Replacement, _) => false, // never evict mid-transaction
                (_, TransientAccessPolicy::Conservative) => false,
                (_, TransientAccessPolicy::Paper) => {
                    let perm_ok = |s: StableId| self.ssp.cache.state(s).perm.allows(access);
                    perm_ok(t.from)
                        && t.finals.iter().all(|&f| perm_ok(f))
                        && at.chain.iter().all(|e| perm_ok(e.logical_to))
                        && (at.chain.is_empty() || t.retains_data[at.w])
                }
            };
            let event = Event::Access(access);
            if allowed {
                self.w.push(
                    at.id,
                    event,
                    vec![],
                    vec![Action::PerformAccess],
                    at.id,
                    ArcNote::Step2,
                );
            } else {
                self.w.stall(at.id, event, ArcNote::Step2);
            }
        }
    }

    /// Step 3: forwards racing with the own transaction.
    fn emit_wait_forwards(&mut self, at: At) -> Result<(), GenError> {
        let t = self.txn(at.txn);
        let an = self.an;
        let fwds_at = |s: StableId| &an.fwds_at[s.as_usize()];
        if let Some(last) = at.chain.last() {
            // With a non-empty chain the own request is known to be
            // serialized and every earlier racing transaction has been
            // observed; only forwards associated with the chain's current
            // logical state can arrive.
            for &f in fwds_at(last.logical_to) {
                self.case2(at, f, last.logical_to)?;
            }
        } else {
            // Case 1 candidates: forwards associated with the initial stable
            // state can only arrive while the directory may not yet have
            // serialized the own request — that is, before any response has
            // moved the transaction past its entry await point.
            if at.w == 0 {
                for &f in fwds_at(t.from) {
                    self.case1(at.id, at.txn, f)?;
                }
            }
            // Case 2 candidates: forwards associated with any final state.
            // A forward associated with *both* the initial and a final state
            // would make the serialization order undecidable at the cache —
            // preprocessing must have renamed it (§V-A).
            let mut seen = Vec::new();
            for &fin in &t.finals {
                for &f in fwds_at(fin) {
                    if seen.contains(&f) {
                        continue;
                    }
                    if an.fwd_assoc[&f].contains(&t.from) && at.w == 0 {
                        return Err(GenError::Ambiguous(format!(
                            "forward `{}` can arrive in both the initial state {} and a \
                             final state {} of the same transaction; it needs renaming",
                            self.ssp.msg(f).name,
                            self.sname(t.from),
                            self.sname(fin)
                        )));
                    }
                    seen.push(f);
                    self.case2(at, f, fin)?;
                }
            }
        }
        // Late Case 1: a forward associated with the *initial* state is
        // ordered earlier at the directory even when it arrives after the
        // serialization proof — responses travel a different virtual
        // network and can overtake it (MOSI: AckCount overtakes
        // O_Fwd_GetS). Respond immediately and continue; possible only
        // while the reaction leaves the initial state's view unchanged and
        // the block still holds the initial data.
        if at.w > 0 || !at.chain.is_empty() {
            for &f in fwds_at(t.from) {
                if self.w.handles(at.id, Event::Msg(f)) {
                    continue;
                }
                let (actions, next) = self.reaction(t.from, f)?;
                if next.unwrap_or(t.from) != t.from {
                    continue; // epoch-ending; unreachable here, let MC judge
                }
                if sends_data(&actions) && !t.retains_data[at.w] {
                    self.warnings.push(format!(
                        "late forward `{}` at {} would need data the block no longer holds",
                        self.ssp.msg(f).name,
                        self.w.name(at.id)
                    ));
                    continue;
                }
                self.w.push(at.id, Event::Msg(f), vec![], actions, at.id, ArcNote::Case1);
            }
        }
        Ok(())
    }

    /// Case 1 (§V-D1): the other transaction was ordered earlier at the
    /// directory. Respond immediately (stalling would deadlock), then
    /// logically restart the own transaction from the reaction's target
    /// state.
    fn case1(&mut self, id: FsmStateId, txn: usize, f: MsgId) -> Result<(), GenError> {
        let t = self.txn(txn);
        let (mut resp, next) = self.reaction(t.from, f)?;
        let s_l = next.unwrap_or(t.from);
        let restart = self.ssp.cache.entries_for(s_l, t.trigger);
        let to = match restart.first().map(|e| &e.effect) {
            None => {
                // The restarted access is moot (a replacement from a state
                // with no replacement behaviour): drain the outstanding
                // response of the already-issued request. The directory's
                // stale-Put rule guarantees that response arrives.
                self.w.intern(Key::Zombie { txn, w: 0, logical: s_l })
            }
            Some(Effect::Issue { .. }) => {
                let Trigger::Access(access) = t.trigger else {
                    unreachable!("cache transactions start on an access")
                };
                let txn2 = self.an.txn_by_trigger[&(s_l, access)];
                let t2 = self.txn(txn2);
                if t2.request_msg != t.request_msg {
                    // The same access issues a different request from the
                    // restarted state (Upgrade vs GetM): the earlier request
                    // cannot be rescinded, so the directory must reinterpret
                    // it (§V-D1). Recorded here; synthesized in dirgen.
                    let orig = t.request_msg.map(|m| self.ssp.msg(m).name.clone());
                    let new = t2.request_msg.map(|m| self.ssp.msg(m).name.clone());
                    if let (Some(original), Some(treated_as)) = (orig, new) {
                        let rec = Reinterpretation {
                            original,
                            treated_as,
                            dir_state: String::new(), // filled in by dirgen
                        };
                        if !self.reinterpretations.contains(&rec) {
                            self.reinterpretations.push(rec);
                        }
                    }
                }
                // Do NOT re-execute the request actions: the original
                // request is still in flight and the acknowledgment
                // counters must survive the restart.
                self.w.intern(Key::Wait { txn: txn2, w: 0, chain: vec![] })
            }
            Some(Effect::Local { actions, next }) => {
                // The restarted access is satisfiable locally (a silent
                // eviction from the reaction's target state, TSO-CC style):
                // perform it now and drain the outstanding response of the
                // already-issued request.
                let logical = next.unwrap_or(s_l);
                resp.extend(actions.iter().cloned());
                self.w.intern(Key::Zombie { txn, w: 0, logical })
            }
        };
        self.w.push(id, Event::Msg(f), vec![], resp, to, ArcNote::Case1);
        Ok(())
    }

    /// Case 2 (§V-D2): the other transaction was ordered later. Stall, or
    /// transition immediately with (possibly deferred) responses.
    fn case2(&mut self, at: At, f: MsgId, logical_from: StableId) -> Result<(), GenError> {
        let (actions, next) = self.reaction(logical_from, f)?;
        // On an ordered network every Case 2 stall is safe. Without
        // ordering, a *stale* forward (one serialized before the own
        // request, whose epoch-ending acknowledgment overtook it) can
        // appear here, and stalling its data-free acknowledgment can
        // close a dependency cycle (the supplier of the own response
        // waits for exactly that acknowledgment). Process data-free
        // forwards; stall only data-bearing ones (harmless when
        // channels do not block).
        if self.cfg.concurrency == Concurrency::Stalling
            && (self.ssp.network_ordered || sends_data(&actions))
        {
            self.w.stall(at.id, Event::Msg(f), ArcNote::Case2);
            return Ok(());
        }
        let defers_data = self.defers_data(at.txn, at.w);
        let (immediate, deferred) =
            defer_sends(&actions, at.chain, |sp| sp.data.is_some() && defers_data);
        let elem = Elem {
            msg: f,
            entry: 0,
            logical_to: next.unwrap_or(logical_from),
            deferred,
            updates_data: false,
        };
        self.w.extend_chain(at, vec![], immediate, elem, logical_from, ArcNote::Case2);
        Ok(())
    }

    /// Whether a data-bearing response processed at await point `w` must be
    /// deferred until the own transaction completes.
    fn defers_data(&self, txn: usize, w: usize) -> bool {
        match self.cfg.response_policy {
            // Deferring every data response preserves SWMR in physical time.
            ResponsePolicy::DeferData => true,
            // Immediate mode sends data as soon as it is present — but a
            // pending *store* must still complete first or readers would
            // observe pre-store data from a logically earlier epoch.
            ResponsePolicy::Immediate => {
                let t = self.txn(txn);
                t.trigger == Trigger::Access(Access::Store) || !t.data_present[w]
            }
        }
    }

    // ----- zombie states ---------------------------------------------------

    fn emit_zombie(
        &mut self,
        id: FsmStateId,
        txn: usize,
        w: usize,
        logical: StableId,
    ) -> Result<(), GenError> {
        for access in Access::ALL {
            self.w.stall(id, Event::Access(access), ArcNote::Case1);
        }
        // Drain the original transaction's responses; the pending access is
        // completed trivially (the replacement's work was done by the
        // earlier-ordered transaction).
        for arc in &self.txn(txn).chain.nodes[w].arcs {
            let keep: Vec<Action> = arc
                .actions
                .iter()
                .filter(|a| matches!(a, Action::PerformAccess))
                .cloned()
                .collect();
            let to = self.w.intern(match arc.to {
                WaitTo::Wait(w2) => Key::Zombie { txn, w: w2, logical },
                WaitTo::Done(_) => Key::Stable(logical),
            });
            self.w.push(id, Event::Msg(arc.msg), arc.guards.clone(), keep, to, ArcNote::Case1);
        }
        // Forwards can still arrive for the logical state.
        for &f in &self.an.fwds_at[logical.as_usize()] {
            let (actions, next) = self.reaction(logical, f)?;
            if sends_data(&actions) && !self.ssp.cache.state(logical).data_valid {
                return Err(GenError::Unsupported(format!(
                    "forward `{}` at drained state {} needs data the cache no longer holds",
                    self.ssp.msg(f).name,
                    self.sname(logical)
                )));
            }
            let logical2 = next.unwrap_or(logical);
            let to = if logical2 == logical {
                id
            } else {
                self.w.intern(Key::Zombie { txn, w, logical: logical2 })
            };
            self.w.push(id, Event::Msg(f), vec![], actions, to, ArcNote::Case2);
        }
        Ok(())
    }
}
