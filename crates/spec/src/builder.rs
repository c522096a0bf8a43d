//! Ergonomic construction of stable state protocols.

use crate::action::{AckSrc, Action, DataSrc, Dst, ReqField, SendSpec};
use crate::error::SpecError;
use crate::guard::Guard;
use crate::ids::{MsgId, StableId};
use crate::msg::{MsgClass, MsgDecl};
use crate::ssp::{
    Access, Effect, EntryNote, MachineKind, MachineSsp, MemoryModel, Perm, SspEntry, StableDecl,
    Trigger, WaitArc, WaitChain, WaitNode, WaitTo,
};
use crate::Ssp;

/// Builder for [`Ssp`] values.
///
/// The builder mirrors the structure of the paper's SSP tables: declare the
/// messages and stable states, then add one entry per table cell. Chain
/// helpers construct the common await structures (single data response,
/// data plus invalidation acknowledgments, …).
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone)]
pub struct SspBuilder {
    name: String,
    messages: Vec<MsgDecl>,
    cache: MachineSsp,
    directory: MachineSsp,
    network_ordered: bool,
    consistency: MemoryModel,
    si_epoch: bool,
}

impl SspBuilder {
    /// Creates a builder for a protocol named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SspBuilder {
            name: name.into(),
            messages: Vec::new(),
            cache: MachineSsp::new(MachineKind::Cache),
            directory: MachineSsp::new(MachineKind::Directory),
            network_ordered: true,
            consistency: MemoryModel::Sc,
            si_epoch: false,
        }
    }

    /// Declares whether the interconnect guarantees point-to-point ordering
    /// (the default is `true`; §VI-C protocols set `false`).
    pub fn network_ordered(&mut self, ordered: bool) -> &mut Self {
        self.network_ordered = ordered;
        self
    }

    /// Declares the memory model the protocol promises (default
    /// [`MemoryModel::Sc`]). Weak-memory protocols relax SWMR/data-value
    /// coherence and must declare the model they *do* preserve so the
    /// checker and litmus harness know what to hold them to.
    pub fn consistency(&mut self, model: MemoryModel) -> &mut Self {
        self.consistency = model;
        self
    }

    /// Declares that self-invalidations fire as whole-cache epochs (all
    /// self-invalidating lines drop together), like TSO-CC's timestamp
    /// rollover. The default is per-line self-invalidation.
    pub fn si_epoch(&mut self, epoch: bool) -> &mut Self {
        self.si_epoch = epoch;
        self
    }

    // ----- declarations -------------------------------------------------

    /// Declares a payload-free message.
    pub fn message(&mut self, name: impl Into<String>, class: MsgClass) -> MsgId {
        self.push_msg(MsgDecl::new(name, class))
    }

    /// Declares a message carrying block data.
    pub fn data_message(&mut self, name: impl Into<String>, class: MsgClass) -> MsgId {
        self.push_msg(MsgDecl::new(name, class).with_data())
    }

    /// Declares a message carrying block data and an acknowledgment count.
    pub fn data_ack_message(&mut self, name: impl Into<String>, class: MsgClass) -> MsgId {
        self.push_msg(MsgDecl::new(name, class).with_data().with_ack_count())
    }

    /// Declares a message carrying an acknowledgment count only.
    pub fn ack_count_message(&mut self, name: impl Into<String>, class: MsgClass) -> MsgId {
        self.push_msg(MsgDecl::new(name, class).with_ack_count())
    }

    fn push_msg(&mut self, decl: MsgDecl) -> MsgId {
        let id = MsgId::from_usize(self.messages.len());
        self.messages.push(decl);
        id
    }

    /// Overrides the virtual network a message travels on. Virtual-channel
    /// assignment is protocol-correctness input (§IV-C of the paper): e.g.
    /// Put-Ack must travel on the forward network so it cannot overtake a
    /// forwarded request to the same cache.
    pub fn assign_vnet(&mut self, msg: MsgId, vnet: crate::VirtualNet) -> &mut Self {
        self.messages[msg.as_usize()].vnet = vnet;
        self
    }

    /// Declares a cache stable state. The first declared state is initial.
    /// `data_valid` defaults to `perm != Perm::None`.
    pub fn cache_state(&mut self, name: impl Into<String>, perm: Perm) -> StableId {
        let id = StableId::from_usize(self.cache.states.len());
        self.cache.states.push(StableDecl {
            name: name.into(),
            perm,
            data_valid: perm != Perm::None,
        });
        id
    }

    /// Declares a cache stable state with an explicit `data_valid` flag
    /// (O in MOSI holds valid data with read-only permission; an E state
    /// might hold valid data the core has not yet written).
    pub fn cache_state_full(
        &mut self,
        name: impl Into<String>,
        perm: Perm,
        data_valid: bool,
    ) -> StableId {
        let id = StableId::from_usize(self.cache.states.len());
        self.cache.states.push(StableDecl { name: name.into(), perm, data_valid });
        id
    }

    /// Declares a directory stable state. The first declared state is
    /// initial.
    pub fn dir_state(&mut self, name: impl Into<String>) -> StableId {
        let id = StableId::from_usize(self.directory.states.len());
        self.directory.states.push(StableDecl {
            name: name.into(),
            perm: Perm::None,
            data_valid: true,
        });
        id
    }

    // ----- entries ------------------------------------------------------

    /// Adds a cache hit: `access` is performed locally in `state`.
    pub fn cache_hit(&mut self, state: StableId, access: Access) -> &mut Self {
        self.cache.entries.push(SspEntry {
            state,
            trigger: Trigger::Access(access),
            guards: vec![],
            effect: Effect::Local { actions: vec![Action::PerformAccess], next: None },
            note: EntryNote::Demand,
        });
        self
    }

    /// Adds a cache hit that also silently changes state (E→M upgrades).
    pub fn cache_hit_move(&mut self, state: StableId, access: Access, next: StableId) -> &mut Self {
        self.cache.entries.push(SspEntry {
            state,
            trigger: Trigger::Access(access),
            guards: vec![],
            effect: Effect::Local { actions: vec![Action::PerformAccess], next: Some(next) },
            note: EntryNote::Demand,
        });
        self
    }

    /// Adds a *self-invalidation*: the cache may spontaneously drop its
    /// readable copy of `state`, silently, at any sync point. Semantically a
    /// silent replacement, but tagged [`EntryNote::SelfInvalidate`] so the
    /// litmus harness treats it as a memory-model step rather than a
    /// capacity eviction (per-line, or whole-cache when [`Self::si_epoch`]
    /// is set).
    pub fn cache_self_invalidate(&mut self, state: StableId, to: StableId) -> &mut Self {
        self.cache.entries.push(SspEntry {
            state,
            trigger: Trigger::Access(Access::Replacement),
            guards: vec![],
            effect: Effect::Local {
                actions: vec![Action::PerformAccess, Action::InvalidateData],
                next: Some(to),
            },
            note: EntryNote::SelfInvalidate,
        });
        self
    }

    /// Adds a *self-downgrade*: the cache may spontaneously give up write
    /// ownership of `state`, performing the `request` actions (typically a
    /// data writeback to the directory) and entering `chain`. Tagged
    /// [`EntryNote::SelfDowngrade`]; the chain usually completes into a
    /// still-readable state (M→S), unlike a demand eviction's M→I.
    pub fn cache_self_downgrade(
        &mut self,
        state: StableId,
        request: Vec<Action>,
        chain: WaitChain,
    ) -> &mut Self {
        self.cache.entries.push(SspEntry {
            state,
            trigger: Trigger::Access(Access::Replacement),
            guards: vec![],
            effect: Effect::Issue { request, chain },
            note: EntryNote::SelfDowngrade,
        });
        self
    }

    /// Adds a cache reaction to an incoming message in a stable state.
    pub fn cache_react(
        &mut self,
        state: StableId,
        msg: MsgId,
        actions: Vec<Action>,
        next: Option<StableId>,
    ) -> &mut Self {
        self.cache.entries.push(SspEntry {
            state,
            trigger: Trigger::Msg(msg),
            guards: vec![],
            effect: Effect::Local { actions, next },
            note: EntryNote::Demand,
        });
        self
    }

    /// Adds a cache transaction: in `state`, `access` performs the `request`
    /// actions and enters `chain`.
    pub fn cache_issue(
        &mut self,
        state: StableId,
        access: Access,
        request: Vec<Action>,
        chain: WaitChain,
    ) -> &mut Self {
        self.cache.entries.push(SspEntry {
            state,
            trigger: Trigger::Access(access),
            guards: vec![],
            effect: Effect::Issue { request, chain },
            note: EntryNote::Demand,
        });
        self
    }

    /// Adds a single-step directory reaction.
    pub fn dir_react(
        &mut self,
        state: StableId,
        msg: MsgId,
        actions: Vec<Action>,
        next: Option<StableId>,
    ) -> &mut Self {
        self.directory.entries.push(SspEntry {
            state,
            trigger: Trigger::Msg(msg),
            guards: vec![],
            effect: Effect::Local { actions, next },
            note: EntryNote::Demand,
        });
        self
    }

    /// Adds a guarded single-step directory reaction (e.g. PutS when the
    /// requestor is the last sharer vs. not).
    pub fn dir_react_guarded(
        &mut self,
        state: StableId,
        msg: MsgId,
        guard: Guard,
        actions: Vec<Action>,
        next: Option<StableId>,
    ) -> &mut Self {
        self.directory.entries.push(SspEntry {
            state,
            trigger: Trigger::Msg(msg),
            guards: vec![guard],
            effect: Effect::Local { actions, next },
            note: EntryNote::Demand,
        });
        self
    }

    /// Adds a directory reaction guarded by a *conjunction* of guards
    /// (e.g. PutO when the requestor is still the owner AND sharers
    /// remain).
    pub fn dir_react_guards(
        &mut self,
        state: StableId,
        msg: MsgId,
        guards: Vec<Guard>,
        actions: Vec<Action>,
        next: Option<StableId>,
    ) -> &mut Self {
        self.directory.entries.push(SspEntry {
            state,
            trigger: Trigger::Msg(msg),
            guards,
            effect: Effect::Local { actions, next },
            note: EntryNote::Demand,
        });
        self
    }

    /// Adds a multi-step directory transaction (e.g. M + GetS: forward to
    /// the owner, await the owner's data, then go to S).
    pub fn dir_issue(
        &mut self,
        state: StableId,
        msg: MsgId,
        request: Vec<Action>,
        chain: WaitChain,
    ) -> &mut Self {
        self.directory.entries.push(SspEntry {
            state,
            trigger: Trigger::Msg(msg),
            guards: vec![],
            effect: Effect::Issue { request, chain },
            note: EntryNote::Demand,
        });
        self
    }

    // ----- send helpers (pure constructors) -----------------------------

    /// Request to the directory: `send msg to Dir` with a reset of the
    /// acknowledgment counters (Listing 1, line 18).
    pub fn send_req(&self, msg: MsgId) -> Vec<Action> {
        vec![Action::ResetAcks, Action::Send(SendSpec::new(msg, Dst::Dir))]
    }

    /// Request to the directory carrying the block's data (PutM + Data).
    pub fn send_req_data(&self, msg: MsgId) -> Vec<Action> {
        vec![Action::ResetAcks, Action::Send(SendSpec::new(msg, Dst::Dir).data(DataSrc::OwnBlock))]
    }

    /// `send msg (Data) to requestor`.
    pub fn send_data_to_req(&self, msg: MsgId) -> Action {
        Action::Send(
            SendSpec::new(msg, Dst::Req).data(DataSrc::OwnBlock).req_field(ReqField::FromMsg),
        )
    }

    /// Directory: `send msg (Data, ack count = |sharers \ req|) to requestor`.
    pub fn send_data_acks_to_req(&self, msg: MsgId) -> Action {
        Action::Send(
            SendSpec::new(msg, Dst::Req)
                .data(DataSrc::OwnBlock)
                .acks(AckSrc::SharersExceptReqCount)
                .req_field(ReqField::FromMsg),
        )
    }

    /// `send msg to requestor` with no payload (Put-Ack, Inv-Ack).
    pub fn send_to_req(&self, msg: MsgId) -> Action {
        Action::Send(SendSpec::new(msg, Dst::Req).req_field(ReqField::FromMsg))
    }

    /// Directory: forward `msg` to the owner, propagating the requestor.
    pub fn fwd_to_owner(&self, msg: MsgId) -> Action {
        Action::Send(SendSpec::new(msg, Dst::Owner).req_field(ReqField::FromMsg))
    }

    /// Directory: send `msg` (Invalidation) to all sharers except the
    /// requestor, propagating the requestor so they can acknowledge it.
    pub fn inv_sharers(&self, msg: MsgId) -> Action {
        Action::Send(SendSpec::new(msg, Dst::SharersExceptReq).req_field(ReqField::FromMsg))
    }

    /// Cache: `send msg (Data) to Dir` (writebacks).
    pub fn send_data_to_dir(&self, msg: MsgId) -> Action {
        Action::Send(SendSpec::new(msg, Dst::Dir).data(DataSrc::OwnBlock))
    }

    // ----- chain helpers ------------------------------------------------

    /// A single await point for one data response: `await { when data:
    /// block = msg.data; perform access; State = done }`.
    pub fn await_data(&self, data: MsgId, done: StableId) -> WaitChain {
        WaitChain {
            nodes: vec![WaitNode {
                tag: "D".into(),
                arcs: vec![WaitArc {
                    msg: data,
                    guards: vec![],
                    actions: vec![Action::CopyDataFromMsg, Action::PerformAccess],
                    to: WaitTo::Done(done),
                }],
            }],
        }
    }

    /// A single await point for one data response with two possible final
    /// states depending on the message received (MESI: Data → S,
    /// DataExclusive → E).
    pub fn await_data2(
        &self,
        data_a: MsgId,
        done_a: StableId,
        data_b: MsgId,
        done_b: StableId,
    ) -> WaitChain {
        WaitChain {
            nodes: vec![WaitNode {
                tag: "D".into(),
                arcs: vec![
                    WaitArc {
                        msg: data_a,
                        guards: vec![],
                        actions: vec![Action::CopyDataFromMsg, Action::PerformAccess],
                        to: WaitTo::Done(done_a),
                    },
                    WaitArc {
                        msg: data_b,
                        guards: vec![],
                        actions: vec![Action::CopyDataFromMsg, Action::PerformAccess],
                        to: WaitTo::Done(done_b),
                    },
                ],
            }],
        }
    }

    /// A single await point for one acknowledgment (Put-Ack after PutS/PutM).
    pub fn await_ack(&self, ack: MsgId, done: StableId) -> WaitChain {
        WaitChain {
            nodes: vec![WaitNode {
                tag: "A".into(),
                arcs: vec![WaitArc {
                    msg: ack,
                    guards: vec![],
                    actions: vec![Action::PerformAccess],
                    to: WaitTo::Done(done),
                }],
            }],
        }
    }

    /// The store-miss await structure of Listing 1 (lines 20–45): wait for a
    /// data response that may carry an acknowledgment count, then for the
    /// outstanding invalidation acknowledgments. Handles acknowledgments
    /// arriving before the data (footnote 2 of the paper).
    pub fn await_data_acks(&self, data: MsgId, inv_ack: MsgId, done: StableId) -> WaitChain {
        WaitChain {
            nodes: vec![
                WaitNode {
                    tag: "AD".into(),
                    arcs: vec![
                        WaitArc {
                            msg: data,
                            guards: vec![Guard::AcksComplete],
                            actions: vec![
                                Action::CopyDataFromMsg,
                                Action::PerformAccess,
                                Action::ResetAcks,
                            ],
                            to: WaitTo::Done(done),
                        },
                        WaitArc {
                            msg: data,
                            guards: vec![Guard::AcksIncomplete],
                            actions: vec![Action::CopyDataFromMsg, Action::SetExpectedAcksFromMsg],
                            to: WaitTo::Wait(1),
                        },
                        WaitArc {
                            msg: inv_ack,
                            guards: vec![],
                            actions: vec![Action::IncAcksReceived],
                            to: WaitTo::Wait(0),
                        },
                    ],
                },
                WaitNode {
                    tag: "A".into(),
                    arcs: vec![
                        WaitArc {
                            msg: inv_ack,
                            guards: vec![Guard::AcksComplete],
                            actions: vec![
                                Action::IncAcksReceived,
                                Action::PerformAccess,
                                Action::ResetAcks,
                            ],
                            to: WaitTo::Done(done),
                        },
                        WaitArc {
                            msg: inv_ack,
                            guards: vec![Guard::AcksIncomplete],
                            actions: vec![Action::IncAcksReceived],
                            to: WaitTo::Wait(1),
                        },
                    ],
                },
            ],
        }
    }

    /// Like [`SspBuilder::await_data_acks`] but the first response carries
    /// only an acknowledgment count, no data (Upgrade-style requests; the
    /// requestor already holds valid data).
    pub fn await_count_acks(&self, count: MsgId, inv_ack: MsgId, done: StableId) -> WaitChain {
        WaitChain {
            nodes: vec![
                WaitNode {
                    tag: "AC".into(),
                    arcs: vec![
                        WaitArc {
                            msg: count,
                            guards: vec![Guard::AcksComplete],
                            actions: vec![Action::PerformAccess, Action::ResetAcks],
                            to: WaitTo::Done(done),
                        },
                        WaitArc {
                            msg: count,
                            guards: vec![Guard::AcksIncomplete],
                            actions: vec![Action::SetExpectedAcksFromMsg],
                            to: WaitTo::Wait(1),
                        },
                        WaitArc {
                            msg: inv_ack,
                            guards: vec![],
                            actions: vec![Action::IncAcksReceived],
                            to: WaitTo::Wait(0),
                        },
                    ],
                },
                WaitNode {
                    tag: "A".into(),
                    arcs: vec![
                        WaitArc {
                            msg: inv_ack,
                            guards: vec![Guard::AcksComplete],
                            actions: vec![
                                Action::IncAcksReceived,
                                Action::PerformAccess,
                                Action::ResetAcks,
                            ],
                            to: WaitTo::Done(done),
                        },
                        WaitArc {
                            msg: inv_ack,
                            guards: vec![Guard::AcksIncomplete],
                            actions: vec![Action::IncAcksReceived],
                            to: WaitTo::Wait(1),
                        },
                    ],
                },
            ],
        }
    }

    /// Directory: a single await point for a writeback from the owner:
    /// `await { when data: mem = msg.data; State = done }`.
    pub fn await_owner_data(&self, data: MsgId, done: StableId) -> WaitChain {
        WaitChain {
            nodes: vec![WaitNode {
                tag: "D".into(),
                arcs: vec![WaitArc {
                    msg: data,
                    guards: vec![],
                    actions: vec![Action::CopyDataFromMsg],
                    to: WaitTo::Done(done),
                }],
            }],
        }
    }

    // ----- finish -------------------------------------------------------

    /// Builds and validates the protocol.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the assembled specification is invalid.
    pub fn build(self) -> Result<Ssp, SpecError> {
        let ssp = Ssp {
            name: self.name,
            messages: self.messages,
            cache: self.cache,
            directory: self.directory,
            network_ordered: self.network_ordered,
            consistency: self.consistency,
            si_epoch: self.si_epoch,
        };
        ssp.validate()?;
        Ok(ssp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = SspBuilder::new("x");
        let m0 = b.message("A", MsgClass::Request);
        let m1 = b.message("B", MsgClass::Response);
        assert_eq!(m0, MsgId(0));
        assert_eq!(m1, MsgId(1));
        let s0 = b.cache_state("I", Perm::None);
        let s1 = b.cache_state("V", Perm::Read);
        assert_eq!(s0, StableId(0));
        assert_eq!(s1, StableId(1));
    }

    #[test]
    fn await_data_acks_handles_early_acks() {
        let mut b = SspBuilder::new("x");
        let data = b.data_ack_message("Data", MsgClass::Response);
        let ack = b.message("Inv_Ack", MsgClass::Response);
        b.cache_state("I", Perm::None);
        let m = b.cache_state("M", Perm::ReadWrite);
        let chain = b.await_data_acks(data, ack, m);
        // The AD node must have an Inv_Ack self-loop (footnote 2).
        let ad = &chain.nodes[0];
        let self_loop = ad.arcs.iter().find(|a| a.msg == ack).expect("Inv_Ack arc in AD node");
        assert_eq!(self_loop.to, WaitTo::Wait(0));
        // And a direct completion for Data when acks are already satisfied.
        assert!(ad.arcs.iter().any(|a| a.msg == data && a.guards == vec![Guard::AcksComplete]));
    }

    #[test]
    fn cache_state_full_overrides_data_valid() {
        let mut b = SspBuilder::new("x");
        let s = b.cache_state_full("O", Perm::Read, true);
        assert!(b.cache.states[s.as_usize()].data_valid);
    }
}
