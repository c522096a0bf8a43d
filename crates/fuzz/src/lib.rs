//! Mutation-based fuzzing of the ProtoGen generate→check pipeline.
//!
//! The paper's central claim is that `generate` turns *any* well-formed
//! atomic SSP into a safe, deadlock-free concurrent protocol. The bundled
//! protocols only exercise six happy paths; this crate probes everything
//! around them:
//!
//! 1. **Mutate** ([`mutate`]): derive mutants from the bundled SSPs via a
//!    catalog of semantic mutation operators (drop/duplicate a directory
//!    reaction, swap a transition target, flip a permission, reorder
//!    await arcs, drop an acknowledgment, retarget a forward), addressed
//!    by deterministic `(operator, site)` pairs.
//! 2. **Run** ([`harness`]): push each [`Subject`] — a base SSP with
//!    mutations, or a composed stack with glue mutations ([`mod@compose`])
//!    — through `validate → generate → model-check` (2 caches, budgeted
//!    quick-check), every stage under one guard, into one typed
//!    [`RunResult`] whose [`Outcome`] is rejected-at-build,
//!    rejected-by-generator, rejected-by-checker (the oracle working),
//!    resource-exhausted, silent-pass — or one of the *unexpected* classes
//!    (generator panic, checker panic, exec violation) that evidence
//!    toolchain bugs.
//! 3. **Shrink** ([`mod@shrink`]): greedily reduce any unexpected outcome to
//!    a minimal mutation set and emit a replayable mutation script
//!    ([`script`]) plus the checker trace.
//!
//! Batches fan across threads with index-derived seeds (the sweep-sharding
//! discipline of `protogen-sim`): reports are **byte-identical at any
//! thread count**. Seeded negative controls — the TSO-CC invariant
//! relaxation, four hand-planted protocol bugs, a composed stack with a
//! weakened glue gate, and a live `serve` run with a lossy crash recovery
//! — calibrate every run, each caught only by the property family it
//! names: a campaign that misses one is broken by construction. Every
//! mutant's [`MutantRecord`] and every control's [`ControlRecord`] keeps
//! its typed result; [`FuzzReport::to_json`] renders them.
//!
//! # Example
//!
//! ```
//! use protogen_fuzz::{run_fuzz, FuzzConfig};
//!
//! let report = run_fuzz(&FuzzConfig {
//!     mutants: 4,
//!     threads: 2,
//!     protocols: vec!["msi".into()],
//!     ..FuzzConfig::default()
//! })
//! .unwrap();
//! assert!(report.all_controls_caught());
//! assert_eq!(report.records.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod harness;
pub mod mutate;
pub mod script;
pub mod shrink;

mod run;

pub use compose::{apply_glue, glue_control};
pub use harness::{Outcome, RunResult, Subject};
pub use run::{run_fuzz, ControlRecord, FuzzConfig, FuzzReport, MutantRecord};
pub use script::Script;
