//! Explicit-state model checking for generated coherence protocols — the
//! Murϕ substrate of the ProtoGen paper (§VI, reference \[5\]).
//!
//! The paper verifies every generated protocol with the Murϕ model checker
//! at 3 caches for SWMR and deadlock freedom. This crate implements the
//! equivalent explicit-state checker natively: asynchronous interleaving of
//! message deliveries and core accesses, bounded channels, invariant
//! evaluation on every reachable state, Murϕ-style symmetry reduction over
//! cache identities, and counterexample traces.
//!
//! Exploration is a multi-threaded, epoch-synchronized, sharded-frontier
//! BFS ([`McConfig::threads`] workers, each owning one fingerprint-keyed
//! shard of the visited set, exchanging successor *encodings* through
//! bounded batch queues and rendezvousing only at epoch boundaries) with
//! pruned symmetry canonicalization ([`Canonicalizer`]) and scratch
//! stepping that restores only what the previous step wrote. Its results
//! — states, transitions, the chosen violation, and the counterexample
//! trace — are identical for every thread count and run. The explorer is
//! generic over a [`TransitionSystem`] and has three systems:
//! [`ModelChecker`] (N caches under one directory), [`HierChecker`] (a
//! composed stack) and the litmus harness's runs (`protogen_litmus`,
//! through [`explore_system`]). Each hands it the one [`McConfig`] it runs
//! under ([`TransitionSystem::config`]), so they share every flag, store
//! tier and the checkpoint format. Frontier arenas read back their own entries
//! in every store mode and spill tier. See DESIGN.md §3 for the trait
//! contract and the store, §8 for the hot-path design and its correctness
//! arguments, and §9 for the arena's tiers.
//!
//! Checked properties:
//!
//! * **SWMR** — at any time a block has one writer or any number of
//!   readers, judged over the permission assignment of Step 4;
//! * **data-value invariant** — a load hit returns the value of the most
//!   recent store in serialization order (ghost memory), and every
//!   readable stable copy matches it;
//! * **deadlock freedom** — every state with in-flight messages or
//!   outstanding transactions has a deliverable message;
//! * **completeness** — no controller ever receives a message it has no
//!   transition for (the "architect forgot a case" bug class ProtoGen
//!   eliminates).
//!
//! # Example
//!
//! ```
//! use protogen_mc::{McConfig, ModelChecker};
//! use protogen_core::{generate, GenConfig};
//!
//! let ssp = protogen_protocols::msi();
//! let g = generate(&ssp, &GenConfig::stalling()).unwrap();
//! let mc = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(2));
//! let result = mc.run();
//! assert!(result.passed(), "{:?}", result.violation);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod checkpoint;
mod delta;
mod explore;
mod flat;
mod frontier;
mod hier;
mod property;
mod report;
mod spill;
mod store;
mod subnet;
mod system;

pub use canon::{cache_sort_key, Canonicalizer};
pub use checkpoint::CheckpointError;
pub use delta::{apply_delta, encode_delta, SectionMap};
pub use explore::{
    explore_system, reference_bfs, CheckResult, PhaseTimes, ResourceLimit, StoreMode,
    TransitionSystem, Violation, ViolationKind, PHASE_SAMPLE,
};
pub use flat::{FlatScratch, McConfig, ModelChecker, Step};
pub use hier::{
    HStep, HierChecker, HierConfig, HierLevel, HierResult, HierScratch, HierState, MAX_GROUP,
    MAX_LEVEL_NODES,
};
pub use property::PropertySet;
pub use store::{fingerprint_bytes, mix64, StoreBytes, StoreCounters, MAX_SHARDS, SHARD_CAPACITY};
pub use subnet::{At, Kernel, Naming, StepScratch, Subnet, SubnetMut, Subnets};
pub use system::{invert, permutations, SysState, MAX_CACHES, MAX_CHANNEL_CAP};
pub use system::{put_block, put_dir, put_queue, Decoder};
