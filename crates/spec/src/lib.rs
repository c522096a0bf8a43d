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
//! Build a two-state toy SSP programmatically and validate it:
//!
//! ```
//! use protogen_spec::{SspBuilder, MsgClass, Perm, Access};
//!
//! # fn main() -> Result<(), protogen_spec::SpecError> {
//! let mut b = SspBuilder::new("toy");
//! let get = b.message("Get", MsgClass::Request);
//! let data = b.data_message("Data", MsgClass::Response);
//! let i = b.cache_state("I", Perm::None);
//! let v = b.cache_state("V", Perm::Read);
//! let di = b.dir_state("I");
//! let dv = b.dir_state("V");
//! b.cache_hit(v, Access::Load);
//! let req = b.send_req(get);
//! let chain = b.await_data(data, v);
//! b.cache_issue(i, Access::Load, req, chain);
//! let send = b.send_data_to_req(data);
//! b.dir_react(di, get, vec![send], Some(dv));
//! let ssp = b.build()?;
//! assert_eq!(ssp.cache.states.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod builder;
mod compose;
mod error;
mod fsm;
mod guard;
mod ids;
mod msg;
mod ssp;
mod validate;

pub use action::{AckSrc, Action, DataSrc, Dst, ReqField, SendSpec};
pub use builder::SspBuilder;
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
