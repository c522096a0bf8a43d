//! The ProtoGen protocol generation algorithm (the paper's contribution).
//!
//! Given a stable state protocol ([`protogen_spec::Ssp`]) — the atomic,
//! textbook-style specification of a directory coherence protocol — this
//! crate generates the complete concurrent protocol: cache and directory
//! controller finite state machines with every transient state required when
//! transactions race, while preserving safety (SWMR) and preventing
//! deadlocks.
//!
//! The pipeline follows §V of the paper:
//!
//! 1. **Preprocess** ([`preprocess`]): rename forwarded requests so each one
//!    arrives at exactly one stable state (Tables III/IV).
//! 2. **Step 1/2**: initialize State Sets and create one transient state per
//!    await point of every transaction (Table V).
//! 3. **Step 3**: accommodate concurrency. Forwards associated with the
//!    transaction's *initial* state were ordered earlier at the directory
//!    (Case 1 — respond immediately and restart); forwards associated with
//!    the *final* state were ordered later (Case 2 — stall, or transition
//!    with deferred responses, growing a deferral chain bounded by the
//!    pending-transaction limit L).
//! 4. **Step 4**: assign access permissions to every state.
//! 5. **Directory generation** (§V-F): same machinery without Case 1, plus
//!    the synthesized stale-Put rule and request reinterpretation (§V-D1).
//! 6. **Minimize**: merge behaviourally identical transient states
//!    (the IMAS = SMAS merges of §VI-B).
//!
//! # Example
//!
//! ```
//! use protogen_core::{generate, GenConfig};
//!
//! # fn main() -> Result<(), protogen_core::GenError> {
//! let ssp = protogen_protocols::msi();
//! let generated = generate(&ssp, &GenConfig::default())?;
//! // A load in I waits for Data in the transient state IS_D (Table V).
//! assert!(generated.cache.state_by_name("IS_D").is_some());
//! println!("{}", generated.report);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod cachegen;
mod compose;
mod config;
mod dirgen;
mod error;
mod fx;
mod minimize;
pub mod par;
mod preprocess;
mod report;
mod weave;

pub use analysis::{Analysis, Txn};
pub use compose::{compose, Composed, ComposedLevel, GlueSpec};
pub use config::{Concurrency, GenConfig, ResponsePolicy, TransientAccessPolicy};
pub use error::GenError;
pub use minimize::minimize;
pub use preprocess::preprocess;
pub use report::{ControllerStats, GenReport, Merge, Reinterpretation, Rename};

use protogen_spec::{Fsm, Ssp};

/// A generated protocol: both controllers, the preprocessed SSP they were
/// generated from, and the generation report.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The preprocessed SSP (with any forward renames applied).
    pub ssp: Ssp,
    /// The cache controller.
    pub cache: Fsm,
    /// The directory controller.
    pub directory: Fsm,
    /// What happened during generation.
    pub report: GenReport,
}

/// Generates the complete concurrent protocol for `ssp` under `config`.
///
/// # Errors
///
/// Returns a [`GenError`] when the SSP is invalid or uses constructs the
/// generator does not support (see the error variants for details).
pub fn generate(ssp: &Ssp, config: &GenConfig) -> Result<Generated, GenError> {
    ssp.validate()?;
    let (pre, renames) = preprocess(ssp)?;
    let an = Analysis::of(&pre)?;

    let (cache_raw, mut reinterp, mut warnings) = cachegen::CacheGen::run(&pre, config, &an)?;
    let (dir_raw, dir_reinterp, dir_warnings) = dirgen::DirGen::run(&pre, config, &an)?;
    for r in dir_reinterp {
        // Directory-side records carry the state; they subsume cache-side
        // placeholders for the same pair.
        reinterp.retain(|c| !(c.original == r.original && c.treated_as == r.treated_as));
        if !reinterp.contains(&r) {
            reinterp.push(r);
        }
    }
    warnings.extend(dir_warnings);

    let (cache, cache_merges) =
        if config.minimize { minimize(&cache_raw) } else { (cache_raw, Vec::new()) };
    let (directory, dir_merges) =
        if config.minimize { minimize(&dir_raw) } else { (dir_raw, Vec::new()) };

    let stats = |f: &Fsm| ControllerStats {
        stable_states: f.states.iter().filter(|s| s.is_stable()).count(),
        transient_states: f.states.iter().filter(|s| !s.is_stable()).count(),
        transitions: f.transition_count(),
        stalls: f.stall_count(),
    };
    let report = GenReport {
        protocol: ssp.name.clone(),
        renames,
        reinterpretations: reinterp,
        cache_merges,
        dir_merges,
        cache: stats(&cache),
        directory: stats(&directory),
        warnings,
    };
    Ok(Generated { ssp: pre, cache, directory, report })
}
