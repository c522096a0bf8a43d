//! Operational semantics for generated protocol FSMs.
//!
//! The model checkers (`protogen-mc`), the performance simulator
//! (`protogen-sim`), the live service (`protogen-serve`) and the litmus
//! machine (`protogen-litmus`) all execute generated
//! [`protogen_spec::Fsm`]s through this crate's one dispatch kernel,
//! [`Machine`] — so the machine that is verified is exactly the machine
//! that is simulated and served.
//!
//! The runtime models one cache block (coherence protocols are specified
//! per block, §IV-A): a [`CacheBlock`] per cache, one [`DirEntry`], and
//! [`Msg`] values travelling between them.
//!
//! # Example
//!
//! ```
//! use protogen_runtime::{CacheBlock, NodeId};
//!
//! let block = CacheBlock::new();
//! assert_eq!(block.state.as_usize(), 0); // initial state I
//! assert_eq!(NodeId(2).as_usize(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod exec;
mod index;
mod json;
mod machine;
mod msg;
mod state;

pub use coverage::{Coverage, MachineRole, MachineTag, PairSet, StateEventPair};
pub use exec::{apply_into, select_arc_indexed, ApplyOutcome, ExecError, MachineCtx};
pub use index::FsmIndex;
pub use json::Json;
pub use machine::{block_table, Line, Machine, Selected, Slot};
pub use msg::{Msg, NodeId, Val};
pub use state::{CacheBlock, DirEntry};
