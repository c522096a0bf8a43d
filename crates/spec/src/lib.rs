//! Protocol intermediate representation for the ProtoGen reproduction.
//!
//! This crate defines the two protocol representations the rest of the
//! workspace operates on:
//!
//! * [`Ssp`] — a **stable state protocol**: the atomic, textbook-style
//!   specification of a directory coherence protocol (Tables I and II of the
//!   ProtoGen paper). An SSP describes a cache machine and a directory
//!   machine, each with a handful of stable states, the accesses and
//!   coherence messages that can arrive in each stable state, and the
//!   transactions they trigger.
//! * [`Fsm`] — a **complete concurrent protocol**: the generated finite state
//!   machine with all transient states, produced by `protogen-core`. An
//!   [`Fsm`] is directly executable by `protogen-runtime` (and therefore by
//!   the model checker and the simulator).
//!
//! # Example
//!
//! A protocol is written in the DSL (`protogen-dsl`, §IV-A of the paper)
//! and lowered to this IR; the rest of the workspace reads [`Ssp`]'s
//! fields:
//!
//! ```
//! use protogen_spec::{Perm, Trigger, Access, Effect};
//!
//! let ssp = protogen_dsl::parse_protocol(r#"
//!     protocol toy;
//!     message Get : request;
//!     message Data : response { data };
//!     cache { state I; state V read; }
//!     directory { state I; state V; }
//!     architecture cache {
//!         process(V, load) { perform; }
//!         process(I, load) {
//!             reset_acks;
//!             send Get to dir;
//!             await D { when Data: copy_data; perform; -> V; }
//!         }
//!     }
//!     architecture directory {
//!         process(I, Get) { send Data(data) to req; -> V; }
//!     }
//! "#).unwrap();
//! assert_eq!(ssp.cache.states.len(), 2);
//! let i = ssp.cache.state_by_name("I").unwrap();
//! assert_eq!(ssp.cache.state(i).perm, Perm::None);
//! // The load miss is a transaction with one await point, `D`.
//! let miss = &ssp.cache.entries_for(i, Trigger::Access(Access::Load))[0];
//! assert!(matches!(&miss.effect, Effect::Issue { chain, .. } if chain.nodes[0].tag == "D"));
//! assert!(ssp.msg(ssp.msg_by_name("Data").unwrap()).carries_data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod compose;
mod error;
mod fsm;
mod guard;
mod ids;
mod msg;
mod ssp;
mod validate;

pub use action::{AckSrc, Action, DataSrc, Dst, ReqField, SendSpec};
pub use compose::{validate_interface, Composition, LevelSpec, MAX_FANOUT};
pub use error::SpecError;
pub use fsm::{
    AccessSummary, Arc, ArcKind, ArcNote, ChainLink, Event, Fsm, FsmState, FsmStateId,
    FsmStateKind, TransientMeta,
};
pub use guard::Guard;
pub use ids::{MsgId, StableId};
pub use msg::{MsgClass, MsgDecl, VirtualNet};
pub use ssp::{
    Access, Effect, EntryNote, MachineKind, MachineSsp, MemoryModel, Perm, SspEntry, StableDecl,
    Trigger, WaitArc, WaitChain, WaitNode, WaitTo,
};
pub use validate::validate;

/// A complete stable state protocol: messages plus the cache and directory
/// machine specifications.
///
/// An `Ssp` is the *input* to protocol generation. It assumes an atomic
/// system model: every transaction appears to happen instantaneously, so the
/// specification only mentions stable states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ssp {
    /// Protocol name, e.g. `"MSI"`.
    pub name: String,
    /// All message types used by the protocol.
    pub messages: Vec<MsgDecl>,
    /// The cache controller specification.
    pub cache: MachineSsp,
    /// The directory controller specification.
    pub directory: MachineSsp,
    /// Whether the interconnect guarantees point-to-point ordering.
    pub network_ordered: bool,
    /// The memory model this protocol promises to preserve. Drives the
    /// default checker property set and the expected litmus verdict.
    pub consistency: MemoryModel,
    /// Whether self-invalidations fire as whole-cache *epochs* rather than
    /// per line. TSO-CC's timestamp machinery invalidates every stale
    /// shared line at once when an epoch turns over; modelling the decay
    /// per-line would over-approximate it into a weaker protocol (a line
    /// could be refreshed while an older copy of another line survives,
    /// which the timestamps forbid).
    pub si_epoch: bool,
}

impl Ssp {
    /// Looks up a message id by name.
    ///
    /// Returns `None` when no message with that name exists.
    pub fn msg_by_name(&self, name: &str) -> Option<MsgId> {
        self.messages.iter().position(|m| m.name == name).map(MsgId::from_usize)
    }

    /// Returns the declaration for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this protocol.
    pub fn msg(&self, id: MsgId) -> &MsgDecl {
        &self.messages[id.as_usize()]
    }

    /// Returns the machine specification of the given kind.
    pub fn machine(&self, kind: MachineKind) -> &MachineSsp {
        match kind {
            MachineKind::Cache => &self.cache,
            MachineKind::Directory => &self.directory,
        }
    }

    /// Iterates over all message ids.
    pub fn msg_ids(&self) -> impl Iterator<Item = MsgId> + '_ {
        (0..self.messages.len()).map(MsgId::from_usize)
    }

    /// Validates the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] describing the first problem found.
    pub fn validate(&self) -> Result<(), SpecError> {
        validate(self)
    }
}
