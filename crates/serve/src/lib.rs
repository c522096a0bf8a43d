//! A sharded, multi-threaded in-memory coherent cache service that runs
//! the *verified* generated FSMs live.
//!
//! Every other runtime in this workspace (model checker, simulator,
//! fuzzer) is lockstep-deterministic. This crate executes the same
//! [`protogen_spec::Fsm`]s — through the same [`protogen_runtime`]
//! semantics (the `Machine` dispatch kernel: select, then apply) — as a
//! real concurrent service: one worker thread per cache, one per
//! directory shard, connected by the bounded lock-free mailboxes in
//! [`mailbox`], driven by the workload generators from `protogen-sim`.
//!
//! # The coverage envelope
//!
//! What makes the service a *verified* component rather than a parallel
//! reimplementation is the conformance contract: every live dispatch
//! records its `(machine, state, event)` pair, and the run's
//! [`ServeReport::coverage`] must be a subset of the pair coverage an
//! exhaustive model-checker run collected at the same cache count
//! ([`checked_envelope`]). The argument (DESIGN.md §10): blocks are
//! independent protocol instances; each block's machines are each owned
//! by exactly one thread and exchange messages over per-edge FIFO
//! channels, so the per-block projection of any live execution is an
//! interleaving of atomic FSM steps over an ordered network — precisely
//! an execution the exhaustive checker explored. A live pair the checker
//! never visited ([`ServeReport::escapes`]) therefore means the service
//! left the verified envelope — a hard failure, never a statistic.
//!
//! ```
//! use protogen_serve::{checked_envelope, serve, ServeConfig};
//!
//! let ssp = protogen_protocols::msi();
//! let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::non_stalling()).unwrap();
//! let mut cfg = ServeConfig::new(2);
//! cfg.total_ops = 2_000;
//! let report = serve(&g.cache, &g.directory, &cfg).unwrap();
//! let mut mc = protogen_mc::McConfig::with_caches(2);
//! mc.ordered = ssp.network_ordered;
//! let envelope = checked_envelope(&g.cache, &g.directory, mc).unwrap();
//! assert!(report.escapes(&envelope).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod mailbox;
mod service;

pub use fault::{FaultConfig, FaultStats};
pub use service::serve;

use protogen_mc::{McConfig, ModelChecker};
use protogen_runtime::{Json, MachineRole, PairSet, StateEventPair};
use protogen_sim::{run_header, Histogram, Workload};
use protogen_spec::{Access, Event, Fsm};
use std::error::Error;
use std::fmt;

/// Configuration for one service run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cache worker threads (1..=8, the sharer-bitmask width).
    pub n_caches: usize,
    /// Directory shard threads; shard `addr % dir_shards` owns a block.
    pub dir_shards: usize,
    /// Distinct block addresses.
    pub n_addrs: usize,
    /// Total operations across all cores (split evenly, rounded up).
    pub total_ops: usize,
    /// The access pattern driving the cores.
    pub workload: Workload,
    /// Workload expansion seed.
    pub seed: u64,
    /// Per-edge mailbox capacity in messages.
    pub mailbox_cap: usize,
    /// Wall-clock budget; exceeding it stops the run with
    /// [`StopReason::Deadline`] (the liveness backstop — a quiescent
    /// finish always beats it).
    pub max_seconds: f64,
    /// Deterministic fault injection (`None` — the default — runs the
    /// perfect-world service). See [`FaultConfig`].
    pub faults: Option<FaultConfig>,
}

impl ServeConfig {
    /// Defaults for `n_caches` workers: one directory shard, 8 blocks,
    /// 100k ops of uniform 50%-store traffic, seed 1, 1024-message
    /// mailboxes, 60 s deadline.
    pub fn new(n_caches: usize) -> ServeConfig {
        ServeConfig {
            n_caches,
            dir_shards: 1,
            n_addrs: 8,
            total_ops: 100_000,
            workload: Workload::Uniform { store_pct: 50 },
            seed: 1,
            mailbox_cap: 1024,
            max_seconds: 60.0,
            faults: None,
        }
    }

    /// Checks the ranges [`serve`] relies on, so a front end can refuse a
    /// configuration before it model-checks the envelope.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the field and the value refused.
    pub fn validate(&self) -> Result<(), ServeError> {
        let fail = |m: String| Err(ServeError::Config(m));
        if !(1..=8).contains(&self.n_caches) {
            return fail(format!("n_caches must be 1..=8, got {}", self.n_caches));
        }
        if self.dir_shards == 0 || self.n_caches + self.dir_shards > 64 {
            return fail(format!(
                "dir_shards must be 1..={}, got {}",
                64 - self.n_caches,
                self.dir_shards
            ));
        }
        if self.n_addrs == 0 {
            return fail("n_addrs must be at least 1".into());
        }
        // A block is named by a u32 throughout the workspace.
        if self.n_addrs as u64 > 1 << 32 {
            return fail(format!("n_addrs must be at most {}, got {}", 1u64 << 32, self.n_addrs));
        }
        if self.mailbox_cap < 16 {
            return fail(format!("mailbox_cap must be at least 16, got {}", self.mailbox_cap));
        }
        if !self.max_seconds.is_finite() || self.max_seconds <= 0.0 {
            return fail(format!(
                "max_seconds must be positive and finite, got {}",
                self.max_seconds
            ));
        }
        Ok(())
    }
}

/// Why a service run failed. Any variant other than [`ServeError::Config`]
/// and [`ServeError::Deadline`] indicates a protocol or harness bug — the
/// same severity the model checker assigns to its violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration or workload was rejected before any thread ran.
    Config(String),
    /// The model-checker envelope run itself failed (violation or
    /// resource limit), so there is no coverage set to check against.
    Envelope(String),
    /// A machine received a message its FSM has no transition for — an
    /// incomplete protocol.
    UnexpectedMessage(String),
    /// Applying an arc failed against the runtime state (see
    /// [`protogen_runtime::ExecError`]).
    Exec(String),
    /// The run failed to quiesce within [`ServeConfig::max_seconds`].
    /// Internal only: [`serve`] converts a deadline into an `Ok` report
    /// with [`StopReason::Deadline`], so callers can still inspect the
    /// partial measurements; the CLI maps it to its own exit code.
    Deadline(String),
    /// A worker thread panicked. The panic is isolated per worker
    /// (`catch_unwind`), the rest of the fleet drains, and the run fails
    /// with this structured error instead of aborting the process.
    WorkerPanic {
        /// Which worker (e.g. `cache 2`, `dir shard 0`).
        worker: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "bad configuration: {m}"),
            ServeError::Envelope(m) => write!(f, "coverage envelope unavailable: {m}"),
            ServeError::UnexpectedMessage(m) => write!(f, "unexpected message: {m}"),
            ServeError::Exec(m) => write!(f, "execution error: {m}"),
            ServeError::Deadline(m) => write!(f, "deadline exceeded: {m}"),
            ServeError::WorkerPanic { worker, message } => {
                write!(f, "worker panic: {worker} panicked: {message}")
            }
        }
    }
}

impl Error for ServeError {}

/// Runs the exhaustive model checker and returns the pair coverage it
/// recorded — the envelope live runs are checked against. `cfg` should use
/// the same cache count as the service run and the protocol's
/// network-ordering assumption.
///
/// # Errors
///
/// [`ServeError::Envelope`] when the checker reports a violation or stops
/// on a resource limit: a partial envelope would produce false escapes.
pub fn checked_envelope(cache: &Fsm, dir: &Fsm, cfg: McConfig) -> Result<PairSet, ServeError> {
    let r = ModelChecker::new(cache, dir, cfg).run();
    if !r.passed() {
        let why = match &r.violation {
            Some(v) => format!("violation: {}", v.kind),
            None => "resource limit hit before exhaustion".into(),
        };
        return Err(ServeError::Envelope(format!(
            "envelope run failed after {} states: {why}",
            r.states
        )));
    }
    Ok(r.coverage)
}

/// Why a service run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Clean quiescence: every core finished its schedule, every message
    /// was applied, and any planned fault recovery completed.
    Quiesced,
    /// The wall-clock backstop fired before quiescence. The report holds
    /// partial measurements; the CLI exits non-zero.
    Deadline,
    /// The run quiesced but its fault plan did not complete (e.g. a
    /// crash point past the end of the schedule never triggered). The
    /// fault experiment is inconclusive; the CLI exits non-zero.
    Fault,
}

impl StopReason {
    /// The stable label used in JSON output and CI greps.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Quiesced => "quiesced",
            StopReason::Deadline => "deadline",
            StopReason::Fault => "fault",
        }
    }
}

/// What a completed service run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Cache workers.
    pub n_caches: usize,
    /// Directory shards.
    pub dir_shards: usize,
    /// Distinct blocks.
    pub n_addrs: usize,
    /// Operations completed (always the full schedule on `Ok`).
    pub ops: u64,
    /// Operations that completed locally without a transaction.
    pub hits: u64,
    /// Operations that launched a coherence transaction.
    pub misses: u64,
    /// Coherence messages applied across all nodes.
    pub messages: u64,
    /// Wall-clock seconds from thread launch to quiescence.
    pub seconds: f64,
    /// Wall-clock latency of each demand miss transaction, in nanoseconds
    /// (evacuations during crash recovery are not counted).
    pub miss_latency: Histogram,
    /// Peak queued-message depth observed per node (caches first, then
    /// directory shards).
    pub peak_queue_depths: Vec<usize>,
    /// Every `(machine, state, event)` pair the run dispatched on.
    pub coverage: PairSet,
    /// Why the run stopped (clean quiescence, the deadline backstop, or
    /// an unfinished fault plan).
    pub stop_reason: StopReason,
    /// `Some` exactly when the deadline fired: messages in flight, cores
    /// done, and per worker its counters, the block and FSM state it waits
    /// in, and each non-empty edge queue's depth and head message.
    pub stop_detail: Option<String>,
    /// Fault/recovery counters; `Some` exactly when fault injection was
    /// configured.
    pub faults: Option<FaultStats>,
}

impl ServeReport {
    /// Completed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// The miss latency summary in nanoseconds: p50, p95, p99 and max, by
    /// name. A tail percentile `p` is `None` unless at least ten misses lie
    /// at or beyond its rank (`len × (100 − p) / 100 ≥ 10`): with fewer it
    /// is the largest few misses, not a tail. Empty without misses.
    pub fn miss_percentiles(&self) -> Vec<(&'static str, Option<u64>)> {
        let h = &self.miss_latency;
        if h.is_empty() {
            return Vec::new();
        }
        let tail = |p: f64| (h.len() as f64 * (100.0 - p) / 100.0 >= 10.0).then(|| h.percentile(p));
        vec![
            ("p50", Some(h.percentile(50.0))),
            ("p95", tail(95.0)),
            ("p99", tail(99.0)),
            ("max", Some(h.max())),
        ]
    }

    /// The live pairs the exhaustive checker never visited. Non-empty
    /// means the service escaped the verified envelope — callers must
    /// treat this as a hard failure.
    pub fn escapes(&self, checked: &PairSet) -> Vec<StateEventPair> {
        self.coverage.difference(checked).copied().collect()
    }

    /// `serve --json`: the deterministic document the CLI and CI consume.
    /// The run's header — `protocol`, its generator `config`, the workload
    /// and seed of `cfg` — and the size of the checked `envelope` open it;
    /// the report follows, with the escapes from the envelope. `cache` and
    /// `dir` supply state and message names for the escape labels.
    pub fn to_json(
        &self,
        protocol: &str,
        config: &str,
        cfg: &ServeConfig,
        envelope: &PairSet,
        cache: &Fsm,
        dir: &Fsm,
    ) -> Json {
        let escapes = self.escapes(envelope);
        let mut doc = Json::obj([
            ("caches", Json::U64(self.n_caches as u64)),
            ("dir_shards", Json::U64(self.dir_shards as u64)),
            ("addrs", Json::U64(self.n_addrs as u64)),
            ("ops", Json::U64(self.ops)),
            ("hits", Json::U64(self.hits)),
            ("misses", Json::U64(self.misses)),
            ("messages", Json::U64(self.messages)),
            ("seconds", Json::F64(self.seconds)),
            ("ops_per_sec", Json::F64(self.ops_per_sec())),
            ("coverage_pairs", Json::U64(self.coverage.len() as u64)),
            ("escapes", Json::U64(escapes.len() as u64)),
            (
                "escaped_pairs",
                Json::Arr(escapes.iter().map(|p| Json::Str(pair_label(cache, dir, p))).collect()),
            ),
            ("stop_reason", Json::Str(self.stop_reason.label().into())),
        ]);
        if let Some(detail) = &self.stop_detail {
            doc.push("stop_detail", Json::Str(detail.clone()));
        }
        if let Some(fs) = &self.faults {
            doc.push(
                "faults",
                Json::obj([
                    ("planned_crashes", Json::U64(fs.planned_crashes)),
                    ("crashes_completed", Json::U64(fs.crashes_completed)),
                    ("recovery_writebacks", Json::U64(fs.recovery_writebacks)),
                    ("lines_lost", Json::U64(fs.lines_lost)),
                    ("delays_injected", Json::U64(fs.delays_injected)),
                    ("stalls_injected", Json::U64(fs.stalls_injected)),
                    ("squeeze_parks", Json::U64(fs.squeeze_parks)),
                ]),
            );
        }
        if !self.miss_latency.is_empty() {
            doc.push("miss_samples", Json::U64(self.miss_latency.len() as u64));
        }
        for (name, ns) in self.miss_percentiles() {
            if let Some(ns) = ns {
                doc.push(&format!("miss_{name}_ns"), Json::U64(ns));
            }
        }
        doc.push(
            "peak_queue_depths",
            Json::Arr(self.peak_queue_depths.iter().map(|&d| Json::U64(d as u64)).collect()),
        );
        let [protocol, config, workload] = run_header(protocol, config, &cfg.workload);
        let pairs = ("envelope_pairs", Json::U64(envelope.len() as u64));
        Json::obj([
            protocol,
            config,
            workload,
            ("seed", Json::U64(cfg.seed)),
            pairs,
            ("report", doc),
        ])
    }

    /// `serve`'s text report: throughput, the miss latency summary, traffic,
    /// whether live coverage stayed inside the checked `envelope`, the stop
    /// reason and, under fault injection, the fault counters.
    pub fn render_text(&self, protocol: &str, envelope: &PairSet) -> String {
        let ServeReport { ops, hits, misses, seconds, n_caches, dir_shards, .. } = self;
        let rate = self.ops_per_sec();
        let mut out = format!(
            "{protocol}: {ops} ops ({hits} hits, {misses} misses) in {seconds:.3}s — {rate:.0} \
             ops/s over {n_caches} cache worker(s) + {dir_shards} dir shard(s)\n"
        );
        let percentiles = self.miss_percentiles();
        if !percentiles.is_empty() {
            let (names, values): (Vec<&str>, Vec<String>) = percentiles
                .iter()
                .map(|&(name, ns)| (name, ns.map_or("-".into(), |ns| ns.to_string())))
                .unzip();
            let few: Vec<&str> =
                percentiles.iter().filter(|p| p.1.is_none()).map(|p| p.0).collect();
            let few = (!few.is_empty()).then(|| format!("; too few for {}", few.join("/")));
            out += &format!(
                "  miss latency {}: {} ns over {} misses{}\n",
                names.join("/"),
                values.join("/"),
                self.miss_latency.len(),
                few.unwrap_or_default()
            );
        }
        let ServeReport { messages, peak_queue_depths, coverage, stop_reason, .. } = self;
        let inside = if self.escapes(envelope).is_empty() { "yes" } else { "NO" };
        let (pairs, stop) = (envelope.len(), stop_reason.label());
        out += &format!(
            "  {messages} messages, peak queue depths {peak_queue_depths:?}\n  live coverage: {} \
             pairs, all inside the {pairs}-pair checked envelope: {inside}\n  stop reason: {stop}\n",
            coverage.len()
        );
        if let Some(fs) = &self.faults {
            let FaultStats { delays_injected, stalls_injected, squeeze_parks, lines_lost, .. } = fs;
            let (done, planned) = (fs.crashes_completed, fs.planned_crashes);
            let lost = (*lines_lost > 0).then(|| format!(", {lines_lost} LINE(S) LOST"));
            out += &format!(
                "  faults: {done}/{planned} crash recoveries, {} recovery writeback(s), \
                 {delays_injected} delay(s), {stalls_injected} stall(s), {squeeze_parks} squeeze \
                 park(s){}\n",
                fs.recovery_writebacks,
                lost.unwrap_or_default()
            );
        }
        out
    }
}

/// Human-readable label for a coverage pair, e.g. `cache M × Fwd_GetS`.
pub fn pair_label(cache: &Fsm, dir: &Fsm, pair: &StateEventPair) -> String {
    let (tag, state, event) = pair;
    let (who, fsm) = match tag.role {
        MachineRole::Cache => ("cache", cache),
        MachineRole::Directory => ("dir", dir),
    };
    let ev = match event {
        Event::Access(Access::Load) => "Load".to_string(),
        Event::Access(Access::Store) => "Store".to_string(),
        Event::Access(Access::Replacement) => "Replacement".to_string(),
        Event::Msg(m) => fsm.msg(*m).name.clone(),
    };
    format!("{who} {} × {ev}", fsm.state(*state).name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// p95 needs 200 misses and p99 1,000: ten at or beyond the rank.
    #[test]
    fn a_tail_percentile_needs_ten_misses_beyond_its_rank() {
        let tails = |misses: u64| {
            let mut miss_latency = Histogram::new();
            (1..=misses).for_each(|ns| miss_latency.record(ns));
            let report = ServeReport {
                n_caches: 1,
                dir_shards: 1,
                n_addrs: 1,
                ops: misses,
                hits: 0,
                misses,
                messages: 0,
                seconds: 1.0,
                miss_latency,
                peak_queue_depths: Vec::new(),
                coverage: PairSet::new(),
                stop_reason: StopReason::Quiesced,
                stop_detail: None,
                faults: None,
            };
            report.miss_percentiles().iter().map(|(_, ns)| ns.is_some()).collect::<Vec<_>>()
        };
        assert!(tails(0).is_empty());
        assert_eq!(tails(199), [true, false, false, true]);
        assert_eq!(tails(200), [true, true, false, true]);
        assert_eq!(tails(999), [true, true, false, true]);
        assert_eq!(tails(1000), [true, true, true, true]);
    }
}
