//! Workload-driven performance simulation of generated protocols.
//!
//! The ProtoGen paper motivates non-stalling protocols by performance:
//! stalling "will delay the start of the coherence permission epoch" and
//! "block incoming coherence messages" (§V-D2), and §VII evaluates the
//! generated concurrent protocols under load. This crate measures that
//! claim instead of asserting it: the *generated* controllers — the same
//! FSMs the model checker verified, executed through the same
//! `protogen-runtime` semantics — run over modelled interconnects under
//! synthetic and trace-driven workloads.
//!
//! The subsystem:
//!
//! * [`NetworkConfig`] — pluggable interconnects: ordered point-to-point
//!   or unordered delivery, fixed / uniform / geometric hop latencies,
//!   and bounded buffers with backpressure;
//! * [`Workload`] — synthetic sharing patterns (uniform-random, Zipfian
//!   hot-set, producer–consumer, migratory, false-sharing ping-pong,
//!   private) plus a replayable `.trc` text trace format;
//! * [`simulate`] — the discrete-event engine: N cores over `n_addrs`
//!   independent blocks, at most one delivery per node per cycle, stalls
//!   blocking a block's channel lane;
//! * [`SimResult`] — latency percentiles, hit/miss/stall counts,
//!   directory occupancy, messages per transaction, rendered through a
//!   deterministic JSON writer ([`Json`]);
//! * [`run_sweep`] — a multi-threaded driver fanning the
//!   `protocol × stalling × workload × cache-count × network` grid across
//!   workers with byte-identical results at any thread count.
//!
//! # Example
//!
//! ```
//! use protogen_core::{generate, GenConfig};
//! use protogen_sim::{simulate, SimConfig};
//!
//! let g = generate(&protogen_protocols::msi(), &GenConfig::non_stalling()).unwrap();
//! let cfg = SimConfig { accesses_per_core: 50, ..SimConfig::default() };
//! let r = simulate(&g.cache, &g.directory, &cfg).unwrap();
//! assert_eq!(r.completed, 50 * cfg.n_caches);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod network;
mod stats;
mod sweep;
mod workload;

pub use config::{LatencyDist, NetModel, NetworkConfig, SimConfig};
pub use engine::simulate;
pub use stats::{Histogram, Json, SimResult};
pub use sweep::{run_sweep, CellResult, SweepCell, SweepConfig, SweepReport};
pub use workload::{parse_trace, Op, TraceOp, Workload};

use protogen_runtime::ExecError;
use std::error::Error;
use std::fmt;

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The generated FSM misbehaved (a generator bug; the model checker
    /// rules this out for verified protocols).
    Exec(ExecError),
    /// A controller received a message it has no transition for — usually
    /// an ordered-network protocol run over a reordering interconnect.
    UnexpectedMessage(String),
    /// A cycle committed no event while nothing was left waiting on time
    /// (every queued message ripe, every core with work past its think
    /// time): a fixed point of a deterministic system, so the workload can
    /// never complete. Typically bounded buffers too shallow for one
    /// event's sends.
    Deadlock {
        /// The cycle at which the fixed point was reached.
        cycle: u64,
        /// One line per unfinished core (what it waits for, in which cache
        /// state) and per non-empty channel (its depth, its head message
        /// and whether that is stalled or backpressured).
        stuck: String,
    },
    /// The cycle safety limit elapsed without completing the workload.
    Livelock {
        /// The configured limit that was exceeded.
        cycles: u64,
    },
    /// The workload or configuration is invalid for the simulated system.
    Workload(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "execution error: {e}"),
            SimError::UnexpectedMessage(d) => {
                write!(f, "unexpected message: {d} (protocol/network mismatch?)")
            }
            SimError::Deadlock { cycle, stuck } => {
                write!(
                    f,
                    "simulation deadlocked at cycle {cycle}: no event can commit and none is \
                     waiting on time\n{}",
                    stuck.trim_end()
                )
            }
            SimError::Livelock { cycles } => {
                write!(f, "simulation exceeded {cycles} cycles (livelock?)")
            }
            SimError::Workload(d) => write!(f, "invalid workload: {d}"),
        }
    }
}

impl Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_core::{generate, GenConfig};

    fn run(cfg_gen: GenConfig, workload: Workload) -> SimResult {
        let g = generate(&protogen_protocols::msi(), &cfg_gen).unwrap();
        let cfg = SimConfig { accesses_per_core: 100, workload, ..SimConfig::default() };
        simulate(&g.cache, &g.directory, &cfg).unwrap()
    }

    #[test]
    fn workload_completes_all_accesses() {
        let r = run(GenConfig::non_stalling(), Workload::Uniform { store_pct: 50 });
        assert_eq!(r.completed, 4 * 100);
        assert_eq!(r.hits + r.misses, r.completed);
        assert!(r.cycles > 0);
        assert!(r.messages > 0);
        assert!(r.p50_latency <= r.p95_latency && r.p95_latency <= r.p99_latency);
        assert!(r.p99_latency <= r.max_latency);
        assert!(r.msgs_per_miss >= 2.0, "a miss needs at least request + response");
        assert!(r.dir_occupancy > 0.0 && r.dir_occupancy < 1.0);
    }

    #[test]
    fn nonstalling_never_loses_to_stalling_under_contention() {
        // The paper's performance claim (E10): under racing transactions
        // the non-stalling protocol finishes no later and stalls less.
        let st = run(GenConfig::stalling(), Workload::FalseSharing);
        let ns = run(GenConfig::non_stalling(), Workload::FalseSharing);
        assert!(
            ns.cycles <= st.cycles,
            "non-stalling {} cycles vs stalling {}",
            ns.cycles,
            st.cycles
        );
        assert!(ns.stall_cycles <= st.stall_cycles);
    }

    #[test]
    fn private_workload_has_no_contention_gap() {
        let st = run(GenConfig::stalling(), Workload::Private);
        let ns = run(GenConfig::non_stalling(), Workload::Private);
        // Without racing transactions the two protocols behave identically.
        assert_eq!(st.cycles, ns.cycles);
        assert_eq!(st.stall_cycles, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(GenConfig::non_stalling(), Workload::Migratory);
        let b = run(GenConfig::non_stalling(), Workload::Migratory);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn all_protocols_simulate_cleanly_on_every_synthetic_workload() {
        for ssp in protogen_protocols::all() {
            for gc in [GenConfig::stalling(), GenConfig::non_stalling()] {
                let g = generate(&ssp, &gc).unwrap();
                for workload in Workload::synthetic() {
                    let cfg = SimConfig {
                        accesses_per_core: 30,
                        n_caches: 3,
                        n_addrs: 3,
                        workload: workload.clone(),
                        ..SimConfig::default()
                    };
                    let r = simulate(&g.cache, &g.directory, &cfg).unwrap_or_else(|e| {
                        panic!("{} ({:?}, {workload}): {e}", ssp.name, gc.concurrency)
                    });
                    assert_eq!(r.completed, 3 * 30, "{} under {workload}", ssp.name);
                }
            }
        }
    }

    #[test]
    fn unordered_protocol_survives_a_reordering_network() {
        let ssp = protogen_protocols::msi_unordered();
        let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
        let cfg = SimConfig {
            accesses_per_core: 60,
            network: NetworkConfig::unordered(LatencyDist::Uniform { lo: 2, hi: 24 }),
            ..SimConfig::default()
        };
        let r = simulate(&g.cache, &g.directory, &cfg).unwrap();
        assert_eq!(r.completed, 60 * 4);
    }

    #[test]
    fn bounded_buffers_backpressure_but_complete() {
        let g = generate(&protogen_protocols::msi(), &GenConfig::non_stalling()).unwrap();
        let tight = SimConfig {
            accesses_per_core: 80,
            network: NetworkConfig { capacity: 1, ..NetworkConfig::default() },
            workload: Workload::FalseSharing,
            ..SimConfig::default()
        };
        let r = simulate(&g.cache, &g.directory, &tight).unwrap();
        assert_eq!(r.completed, 80 * 4);
        assert!(r.peak_channel_depth <= 1, "capacity bound violated: {}", r.peak_channel_depth);
        assert!(r.backpressure_cycles > 0, "1-deep buffers under ping-pong must backpressure");
        let loose = SimConfig { network: NetworkConfig::default(), ..tight };
        let r2 = simulate(&g.cache, &g.directory, &loose).unwrap();
        assert_eq!(r2.backpressure_cycles, 0, "unbounded buffers never backpressure");
    }

    #[test]
    fn trace_replay_drives_the_engine() {
        let g = generate(&protogen_protocols::msi(), &GenConfig::non_stalling()).unwrap();
        let trace = "0 st 0\n1 ld 0\n0 st 1\n1 ld 1\n0 ev 0\n";
        let ops = parse_trace(trace).unwrap();
        let cfg = SimConfig {
            n_caches: 2,
            n_addrs: 2,
            workload: Workload::Trace(ops.clone()),
            ..SimConfig::default()
        };
        let r = simulate(&g.cache, &g.directory, &cfg).unwrap();
        assert_eq!(r.completed, ops.len());
    }
}
