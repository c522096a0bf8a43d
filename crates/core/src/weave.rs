//! The generation kernel: the FSM under construction, and the parts of §V
//! that are the same for a cache and a directory.
//!
//! §V describes one algorithm and derives the directory controller as its
//! instance without Case 1 (§V-F). [`Weave`] is that algorithm's shared
//! half, called by [`crate::cachegen`] and [`crate::dirgen`]:
//!
//! * state identity ([`Key`]), interning and naming — interning order *is*
//!   the state-id assignment, so it is part of the generators' output;
//! * the only place arcs are pushed and states are built;
//! * the arc for an SSP entry ([`Weave::emit_entry`]), a transaction's own
//!   response arcs including chain completion ([`Weave::own_arcs`]), and
//!   Case 2's deferral of sends ([`defer_sends`]) and chain extension
//!   ([`Weave::extend_chain`]).
//!
//! Which messages race with a transaction, and whether each is stalled,
//! answered or deferred, is each generator's policy.

use crate::analysis::Txn;
use crate::error::GenError;
use crate::fx::{FxMap, FxSet};
use protogen_spec::{
    Access, AckSrc, Action, Arc, ArcKind, ArcNote, ChainLink, Dst, Effect, Event, Fsm, FsmState,
    FsmStateId, FsmStateKind, Guard, MachineKind, MsgId, Perm, ReqField, SendSpec, Ssp, StableId,
    TransientMeta, WaitTo,
};

/// One later-ordered message processed while the own transaction was in
/// flight, with its (already rewritten) deferred completion sends.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Elem {
    /// The forward (cache) or request (directory) that was processed.
    pub msg: MsgId,
    /// Directory: index of the SSP entry that processed the request
    /// (distinguishes guarded variants with different targets). Caches
    /// react with one unguarded entry and leave this 0.
    pub entry: usize,
    pub logical_to: StableId,
    /// Deferred sends, rewritten to address `Dst::ChainReq(slot)`.
    pub deferred: Vec<Action>,
    /// The element installed a newer data copy (a writeback serialized
    /// after the own transaction): the own transaction's completion must
    /// not overwrite it. Only a directory sets this.
    pub updates_data: bool,
}

/// Identity of a generated state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    Stable(StableId),
    /// Await point `w` of transaction `txn` with a deferral chain.
    Wait {
        txn: usize,
        w: usize,
        chain: Vec<Elem>,
    },
    /// The own transaction became moot (Case 1 with no restart); drain the
    /// outstanding response and land in `logical`. Caches only.
    Zombie {
        txn: usize,
        w: usize,
        logical: StableId,
    },
}

/// A `Key::Wait` state being emitted.
#[derive(Clone, Copy)]
pub(crate) struct At<'c> {
    pub id: FsmStateId,
    pub txn: usize,
    pub w: usize,
    pub chain: &'c [Elem],
}

/// One controller under construction.
pub(crate) struct Weave<'a> {
    ssp: &'a Ssp,
    /// Which of the SSP's two machines is being generated.
    kind: MachineKind,
    /// That machine's transactions (`Key::Wait::txn` indexes this).
    txns: &'a [Txn],
    pending_limit: usize,
    states: Vec<(Key, String)>,
    index: FxMap<Key, FsmStateId>,
    names: FxSet<String>,
    arcs: Vec<Arc>,
    /// Indices into `arcs` of each state's arcs, in push order.
    arcs_of: Vec<Vec<usize>>,
    /// States `..emitted` have had their arcs generated.
    emitted: usize,
}

impl<'a> Weave<'a> {
    /// Step 1: every stable state is interned first, so ids line up with
    /// the SSP and the initial state is id 0.
    pub(crate) fn new(
        ssp: &'a Ssp,
        kind: MachineKind,
        txns: &'a [Txn],
        pending_limit: usize,
    ) -> Self {
        let mut w = Weave {
            ssp,
            kind,
            txns,
            pending_limit,
            states: Vec::new(),
            index: FxMap::default(),
            names: FxSet::default(),
            arcs: Vec::new(),
            arcs_of: Vec::new(),
            emitted: 0,
        };
        for s in ssp.machine(kind).state_ids() {
            w.intern(Key::Stable(s));
        }
        w
    }

    /// The next state whose arcs have not been generated, in id order.
    pub(crate) fn next(&mut self) -> Option<(FsmStateId, Key)> {
        let (key, _) = self.states.get(self.emitted)?;
        let id = FsmStateId::from_usize(self.emitted);
        self.emitted += 1;
        Some((id, key.clone()))
    }

    /// The id of `key`, assigning the next free one (and a unique name) on
    /// first sight.
    pub(crate) fn intern(&mut self, key: Key) -> FsmStateId {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let mut name = self.name_of(&key);
        while self.names.contains(&name) {
            name.push('+');
        }
        let id = FsmStateId::from_usize(self.states.len());
        self.names.insert(name.clone());
        self.index.insert(key.clone(), id);
        self.states.push((key, name));
        self.arcs_of.push(Vec::new());
        id
    }

    fn sname(&self, s: StableId) -> &str {
        &self.ssp.machine(self.kind).state(s).name
    }

    fn name_of(&self, key: &Key) -> String {
        match key {
            Key::Stable(s) => self.sname(*s).to_string(),
            Key::Wait { txn, w, chain } => {
                let t = &self.txns[*txn];
                let tag = &t.chain.nodes[*w].tag;
                let mut n = format!("{}{}_{}", self.sname(t.from), self.sname(t.finals[0]), tag);
                if !chain.is_empty() {
                    n.push('_');
                    for e in chain {
                        n.push_str(self.sname(e.logical_to));
                    }
                }
                n
            }
            Key::Zombie { txn, w, logical } => {
                let tag = &self.txns[*txn].chain.nodes[*w].tag;
                format!("{}{}_{}", self.sname(*logical), self.sname(*logical), tag)
            }
        }
    }

    pub(crate) fn name(&self, id: FsmStateId) -> &str {
        &self.states[id.as_usize()].1
    }

    pub(crate) fn state_ids(&self) -> impl Iterator<Item = FsmStateId> {
        (0..self.states.len()).map(FsmStateId::from_usize)
    }

    /// The arcs pushed so far from `id`.
    fn arcs_from(&self, id: FsmStateId) -> impl Iterator<Item = &Arc> {
        self.arcs_of[id.as_usize()].iter().map(|&k| &self.arcs[k])
    }

    /// Whether `id` already has an arc (of any kind) for `event`.
    pub(crate) fn handles(&self, id: FsmStateId, event: Event) -> bool {
        self.arcs_from(id).any(|a| a.event == event)
    }

    /// Whether `id` performs `access` (has a non-stall arc for it).
    pub(crate) fn performs(&self, id: FsmStateId, access: Access) -> bool {
        self.arcs_from(id).any(|a| a.event == Event::Access(access) && a.kind == ArcKind::Normal)
    }

    fn add(&mut self, arc: Arc) {
        self.arcs_of[arc.from.as_usize()].push(self.arcs.len());
        self.arcs.push(arc);
    }

    pub(crate) fn push(
        &mut self,
        from: FsmStateId,
        event: Event,
        guards: Vec<Guard>,
        actions: Vec<Action>,
        to: FsmStateId,
        note: ArcNote,
    ) {
        self.add(Arc { from, event, guards, actions, to, kind: ArcKind::Normal, note });
    }

    pub(crate) fn stall(&mut self, from: FsmStateId, event: Event, note: ArcNote) {
        self.stall_guarded(from, event, vec![], note);
    }

    /// Stalls `event` under `guards`, once: a directory reaches the same
    /// guarded stall from several SSP entries.
    pub(crate) fn stall_guarded(
        &mut self,
        from: FsmStateId,
        event: Event,
        guards: Vec<Guard>,
        note: ArcNote,
    ) {
        if self
            .arcs_from(from)
            .any(|a| a.event == event && a.kind == ArcKind::Stall && a.guards == guards)
        {
            return;
        }
        self.add(Arc {
            from,
            event,
            guards,
            actions: vec![],
            to: from,
            kind: ArcKind::Stall,
            note,
        });
    }

    /// The arc for one SSP entry: a local effect moves to its stable state
    /// (or stays), an issue performs the request and enters the first
    /// await point of `txn`, the entry's catalogued transaction.
    pub(crate) fn emit_entry(
        &mut self,
        id: FsmStateId,
        event: Event,
        guards: Vec<Guard>,
        effect: &Effect,
        txn: Option<usize>,
        note: ArcNote,
    ) -> Result<(), GenError> {
        let (actions, to) = match effect {
            Effect::Local { actions, next } => {
                (actions, next.map_or(id, |n| self.intern(Key::Stable(n))))
            }
            Effect::Issue { request, .. } => {
                let txn = txn.ok_or_else(|| {
                    GenError::Internal(format!(
                        "transaction on {event} at {} not catalogued",
                        self.name(id)
                    ))
                })?;
                (request, self.intern(Key::Wait { txn, w: 0, chain: vec![] }))
            }
        };
        self.push(id, event, guards, actions.clone(), to, note);
        Ok(())
    }

    /// Step 2: the own transaction's response arcs. An arc that completes
    /// the transaction (which may perform the pending access — for a chain
    /// ending without permission this is the single access after
    /// invalidation, the livelock fix of §VI-B) then sends every deferred
    /// response in chain order and lands in the chain's final state.
    pub(crate) fn own_arcs(&mut self, at: At) {
        let txns = self.txns;
        for arc in &txns[at.txn].chain.nodes[at.w].arcs {
            let mut actions = arc.actions.clone();
            let (to, note) = match arc.to {
                WaitTo::Wait(w) => {
                    let chain = at.chain.to_vec();
                    (self.intern(Key::Wait { txn: at.txn, w, chain }), ArcNote::Step2)
                }
                WaitTo::Done(s) => match at.chain.last() {
                    None => (self.intern(Key::Stable(s)), ArcNote::Step2),
                    Some(last) => {
                        if at.chain.iter().any(|e| e.updates_data) {
                            // A later-serialized writeback already installed
                            // newer data; the own transaction's copy is stale.
                            actions.retain(|a| !matches!(a, Action::CopyDataFromMsg));
                        }
                        for e in at.chain {
                            actions.extend(e.deferred.iter().copied());
                        }
                        (self.intern(Key::Stable(last.logical_to)), ArcNote::Completion)
                    }
                },
            };
            self.push(at.id, Event::Msg(arc.msg), arc.guards.clone(), actions, to, note);
        }
    }

    /// The tail of Case 2 (§V-D2) once the reaction to `elem.msg` has been
    /// split by [`defer_sends`]: perform `immediate` now and remember
    /// `elem` in the chain.
    pub(crate) fn extend_chain(
        &mut self,
        at: At,
        guards: Vec<Guard>,
        immediate: Vec<Action>,
        elem: Elem,
        logical_from: StableId,
        note: ArcNote,
    ) {
        let event = Event::Msg(elem.msg);
        if elem.logical_to == logical_from && elem.deferred.is_empty() {
            // No logical movement and nothing owed: a pure self-loop
            // (O + O_Fwd_GetS in MOSI). Keeps the chain — and the state
            // space — finite.
            self.push(at.id, event, guards, immediate, at.id, note);
        } else if at.chain.len() >= self.pending_limit {
            // Pending transaction limit L reached (§V-D2): stall. The stall
            // keeps the entry's guards so differently-guarded variants (and
            // a directory's stale-Put fallback) behind it stay reachable.
            self.stall_guarded(at.id, event, guards, ArcNote::Case2);
        } else {
            let mut chain = at.chain.to_vec();
            chain.push(elem);
            let to = self.intern(Key::Wait { txn: at.txn, w: at.w, chain });
            self.push(at.id, event, guards, immediate, to, note);
        }
    }

    /// Builds the controller. `classify` supplies what a cache and a
    /// directory decide differently about a state: its State Sets, the
    /// permission it grants and whether its data copy is statically valid.
    pub(crate) fn finish(
        self,
        classify: impl Fn(&Self, FsmStateId, &Key) -> (Vec<StableId>, Perm, bool),
    ) -> Fsm {
        let mut states = Vec::with_capacity(self.states.len());
        for (i, (key, name)) in self.states.iter().enumerate() {
            let kind = match key {
                Key::Stable(s) => FsmStateKind::Stable(*s),
                Key::Wait { txn, w, chain } => {
                    let t = &self.txns[*txn];
                    FsmStateKind::Transient(TransientMeta {
                        own_from: t.from,
                        own_to: t.finals[0],
                        wait_tag: t.chain.nodes[*w].tag.clone(),
                        chain: chain
                            .iter()
                            .map(|e| ChainLink {
                                forward: e.msg,
                                logical_to: e.logical_to,
                                has_deferred_response: !e.deferred.is_empty(),
                            })
                            .collect(),
                    })
                }
                Key::Zombie { txn, w, logical } => FsmStateKind::Transient(TransientMeta {
                    own_from: *logical,
                    own_to: *logical,
                    wait_tag: self.txns[*txn].chain.nodes[*w].tag.clone(),
                    chain: vec![],
                }),
            };
            let (state_sets, perm, data_valid) = classify(&self, FsmStateId::from_usize(i), key);
            states.push(FsmState {
                name: name.clone(),
                kind,
                state_sets,
                perm,
                data_valid,
                merged_names: vec![],
            });
        }
        Fsm {
            protocol: self.ssp.name.clone(),
            machine: self.kind,
            messages: self.ssp.messages.clone(),
            states,
            arcs: self.arcs,
        }
    }
}

/// Splits a Case 2 reaction into what is performed immediately and the
/// sends `must_defer` holds back until the own transaction completes.
///
/// A deferred send is re-addressed to the requestor slot the new chain
/// element will own — slots are numbered by the elements of `chain` that
/// already owe a response. Both the sharer count and a piggybacked count
/// are serialization-time values, so they are read from the slot too. The
/// slot captures (requestor, |sharers \ req|) in the first deferred send's
/// original position: later actions of the same reaction may clear the
/// sharer list.
pub(crate) fn defer_sends(
    actions: &[Action],
    chain: &[Elem],
    must_defer: impl Fn(&SendSpec) -> bool,
) -> (Vec<Action>, Vec<Action>) {
    let slot = chain.iter().filter(|e| !e.deferred.is_empty()).count();
    let mut immediate = Vec::new();
    let mut deferred = Vec::new();
    for &a in actions {
        match a {
            Action::Send(mut sp) if must_defer(&sp) => {
                if sp.dst == Dst::Req {
                    sp.dst = Dst::ChainReq(slot);
                }
                if sp.req == ReqField::FromMsg {
                    sp.req = ReqField::Chain(slot);
                }
                if matches!(sp.ack_count, Some(AckSrc::SharersExceptReqCount | AckSrc::FromMsg)) {
                    sp.ack_count = Some(AckSrc::Captured);
                }
                if deferred.is_empty() {
                    immediate.push(Action::RecordChainReq);
                }
                deferred.push(Action::Send(sp));
            }
            other => immediate.push(other),
        }
    }
    (immediate, deferred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use protogen_spec::DataSrc;

    fn elem(deferred: Vec<Action>) -> Elem {
        Elem { msg: MsgId(0), entry: 0, logical_to: StableId(1), deferred, updates_data: false }
    }

    fn owed() -> Vec<Action> {
        vec![Action::Send(SendSpec::new(MsgId(1), Dst::ChainReq(0)))]
    }

    /// The two-state I/V toy: a load miss fetches data from the directory.
    const TOY: &str = r#"
        protocol toy;
        message Get : request;
        message Data : response { data };
        cache { state I; state V read; }
        directory { state I; state V; }
        architecture cache {
            process(V, load) { perform; }
            process(I, load) {
                reset_acks;
                send Get to dir;
                await D { when Data: copy_data; perform; -> V; }
            }
        }
        architecture directory {
            process(I, Get) { send Data(data) to req; -> V; }
        }
    "#;

    /// Distinct keys whose names coincide (chains that differ only in what
    /// they owe) get `+` suffixes in interning order; a known key keeps its
    /// id and name.
    #[test]
    fn intern_disambiguates_clashing_names() {
        let ssp = protogen_dsl::parse_protocol(TOY).unwrap();
        let an = Analysis::of(&ssp).unwrap();

        let mut w = Weave::new(&ssp, MachineKind::Cache, &an.txns, 3);
        let wait = |chain| Key::Wait { txn: 0, w: 0, chain };
        let plain = w.intern(wait(vec![elem(vec![])]));
        let owing = w.intern(wait(vec![elem(owed())]));
        let twice = w.intern(wait(vec![elem([owed(), owed()].concat())]));
        assert_eq!(w.intern(wait(vec![elem(vec![])])), plain);
        assert_eq!([plain.0, owing.0, twice.0], [2, 3, 4], "ids follow the stable states");
        assert_eq!(
            [w.name(plain), w.name(owing), w.name(twice)],
            ["IV_D_V", "IV_D_V+", "IV_D_V++"]
        );
    }

    /// A deferred send addresses the slot after those the chain already
    /// owes — elements that owe nothing own no slot — and the requestor is
    /// captured once, where the first deferred send stood.
    #[test]
    fn defer_sends_numbers_slots_by_owing_elements() {
        let data = SendSpec::new(MsgId(1), Dst::Req)
            .data(DataSrc::OwnBlock)
            .acks(AckSrc::SharersExceptReqCount)
            .req_field(ReqField::FromMsg);
        let ack = SendSpec::new(MsgId(2), Dst::Req).req_field(ReqField::FromMsg);
        let actions = [
            Action::Send(ack),
            Action::Send(data),
            Action::ClearSharers,
            Action::Send(data.acks(AckSrc::Zero)),
        ];
        for (chain, slot) in [
            (vec![elem(owed()), elem(vec![])], 1),
            (vec![elem(owed()), elem(vec![]), elem(owed())], 2),
        ] {
            let (immediate, deferred) = defer_sends(&actions, &chain, |sp| sp.data.is_some());
            assert_eq!(
                immediate,
                [Action::Send(ack), Action::RecordChainReq, Action::ClearSharers]
            );
            let moved = data.req_field(ReqField::Chain(slot));
            let moved = SendSpec { dst: Dst::ChainReq(slot), ..moved };
            assert_eq!(
                deferred,
                [
                    Action::Send(moved.acks(AckSrc::Captured)),
                    Action::Send(moved.acks(AckSrc::Zero))
                ]
            );
        }
    }
}
