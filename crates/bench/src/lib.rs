//! The harness index for `benches/`: `paper_tables`, `paper_eval` and
//! `simulation` each regenerate one of the paper's tables or figures
//! (DESIGN.md §5) and then time the machinery behind it with the offline
//! criterion stand-in. They are artifact printers, not performance gates:
//! measured, comparable numbers — end to end and per layer — come from the
//! standalone `benchmark/` package (see `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
