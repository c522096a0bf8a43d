//! Litmus-test harness for generated coherence protocols.
//!
//! The model checker (`crates/mc`) verifies per-block safety under a
//! selectable property set; this crate answers the complementary
//! *cross-block* question: what memory model do a protocol's observable
//! executions actually implement? It runs the classical litmus tests (SB,
//! MP, LB, IRIW, CoRR) through the generated cache and directory FSMs
//! over multiple locations on the model checker's explorer, which
//! enumerates **every** interleaving of program steps, message deliveries
//! and self-invalidation/self-downgrade decay, and compares the outcome
//! set against executable SC and TSO reference models.
//!
//! A protocol passes when it is classified exactly as its SSP promises:
//! MSI-family protocols must be SC, TSO-CC must show store-buffering
//! relaxations but nothing weaker, and the SI/SD protocol must exhibit its
//! weak sync-point semantics.
//!
//! # Example
//!
//! ```
//! use protogen_litmus::{bundled, run_suite, Verdict, MAX_STATES};
//!
//! let ssps = vec![protogen_protocols::msi(), protogen_protocols::tso_cc()];
//! let report = run_suite(&ssps, &bundled(), MAX_STATES, 2).unwrap();
//! assert!(report.passed());
//! assert_eq!(report.protocols[0].verdict(), Verdict::Sc);
//! assert_eq!(report.protocols[1].verdict(), Verdict::Tso);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
pub mod reference;
mod suite;
mod test;

pub use machine::{outcomes, LitmusError, MAX_STATES};
pub use suite::{
    run_suite, run_test, ProtocolReport, SuiteError, SuiteReport, TestReport, Verdict,
};
pub use test::{
    bundled, parse_litmus, render_outcomes, LitmusParseError, LitmusTest, Op, Val, CORR, IRIW, LB,
    MAX_ADDRS, MAX_REGISTERS, MAX_THREADS, MP, SB,
};
