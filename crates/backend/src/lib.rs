//! Export back-ends for generated protocols.
//!
//! * [`render_table`] / [`render_ssp_table`] — the paper's table format
//!   (Tables I, II and VI);
//! * [`diff`] — structural comparison of two controllers (the §VI-B
//!   generated-vs-primer methodology);
//! * [`to_dot`] / [`to_dot_composed`] — Graphviz diagrams (Figures 1 and
//!   2; composed-stack topology with dashed glue edges);
//! * [`render_composed_table`] — one table section per composition level;
//! * [`to_murphi`] — a Murϕ rule skeleton for §IV-B's verification
//!   back-end; it does not run yet.
//!
//! # Example
//!
//! ```
//! use protogen_core::{generate, GenConfig};
//! use protogen_backend::{render_table, TableOptions};
//!
//! let g = generate(&protogen_protocols::msi(), &GenConfig::non_stalling()).unwrap();
//! let table = render_table(&g.cache, &TableOptions::default());
//! assert!(table.contains("IM_AD"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod dot;
mod murphi;
mod table;

pub use diff::{diff, FsmDiff};
pub use dot::{to_dot, to_dot_composed};
pub use murphi::to_murphi;
pub use table::{render_composed_table, render_ssp_table, render_table, TableOptions};
