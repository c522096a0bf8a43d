//! The discrete-event simulation engine.
//!
//! Runs the *generated* controllers — the same FSMs the model checker
//! verified, executed through the same `protogen-runtime` semantics — over
//! a latency-modelled interconnect with a workload schedule per core. Each
//! cycle every node delivers at most one message and every idle core may
//! issue its next scheduled access; a stalled message blocks its block's
//! channel lane, a full bounded buffer defers the event that would
//! overflow it (backpressure).
//!
//! The loop is cycle-stepped in its semantics and event-driven in its cost:
//! what a cycle needs to know about the whole system (when each node's
//! first message ripens, busy directory entries, accesses still to
//! complete) is kept where it changes, and a cycle that commits nothing
//! stands for every cycle up to the next time gate (see [`Engine::run`]).

use crate::config::SimConfig;
use crate::network::{Network, SimMsg};
use crate::stats::{Histogram, SimResult};
use crate::workload::Op;
use crate::SimError;
use protogen_runtime::{
    block_table, ApplyOutcome, CacheBlock, Coverage, DirEntry, Line, Machine, Msg, NodeId,
    Selected, Slot,
};
use protogen_spec::{Arc, Event, Fsm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// Runs one simulation.
///
/// # Errors
///
/// * [`SimError::Workload`] — the workload references cores or addresses
///   outside the configured system;
/// * [`SimError::UnexpectedMessage`] — a controller received a message it
///   has no transition for (running a protocol on a network model it was
///   not generated for, e.g. an ordered-network protocol on an unordered
///   interconnect);
/// * [`SimError::Exec`] — the generated FSM misbehaved (a generator bug;
///   the model checker rules this out for verified protocols);
/// * [`SimError::Deadlock`] — a cycle committed nothing with nothing left
///   waiting on time: the run can never complete, and the error says what
///   is stuck;
/// * [`SimError::Livelock`] — `max_cycles` elapsed without completing.
pub fn simulate(cache_fsm: &Fsm, dir_fsm: &Fsm, cfg: &SimConfig) -> Result<SimResult, SimError> {
    Engine::new(cache_fsm, dir_fsm, cfg)?.run()
}

struct Engine<'a> {
    cache: Machine<&'a Fsm>,
    dir: Machine<&'a Fsm>,
    cfg: &'a SimConfig,
    rng: StdRng,
    /// `caches[c][a]` — cache `c`'s state for block `a`.
    caches: Vec<Vec<CacheBlock>>,
    /// `dirs[a]` — the directory entry for block `a`.
    dirs: Vec<DirEntry>,
    net: Network,
    schedules: Vec<Vec<Op>>,
    /// Accesses scheduled over all cores. Every access completes exactly
    /// once, so the cores are all idle exactly when `result.completed`
    /// reaches this.
    total_ops: usize,
    cursor: Vec<usize>,
    /// Per-core outstanding transaction: `(block, issue cycle)`.
    in_flight: Vec<Option<(u32, u64)>>,
    next_issue: Vec<u64>,
    latencies: Histogram,
    result: SimResult,
    /// Directory entries in a transient state right now, kept by
    /// [`Engine::try_deliver`] — the only place a directory line commits.
    busy_dirs: u64,
    busy_dir_cycles: u64,
    /// The cache's and the directory's coverage recorders, in that order.
    coverage: [Coverage; 2],
    cand_buf: Vec<usize>,
    /// The one apply outcome (outgoing-message buffer) every step reuses.
    outcome: ApplyOutcome,
}

impl<'a> Engine<'a> {
    fn new(cache_fsm: &'a Fsm, dir_fsm: &'a Fsm, cfg: &'a SimConfig) -> Result<Self, SimError> {
        let n = cfg.n_caches;
        if !(1..=8).contains(&n) {
            // The sharer list is a u8 bitmask throughout the workspace.
            return Err(SimError::Workload(format!("n_caches must be 1..=8, got {n}")));
        }
        if cfg.n_addrs as u64 > MAX_ADDRS {
            // A block is named by a u32 throughout the workspace.
            return Err(SimError::Workload(format!(
                "n_addrs must be at most {MAX_ADDRS}, got {}",
                cfg.n_addrs
            )));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let schedules = cfg.workload.schedules(n, cfg.n_addrs, cfg.accesses_per_core, &mut rng)?;
        Ok(Engine {
            cache: Machine::new(cache_fsm),
            dir: Machine::new(dir_fsm),
            cfg,
            rng,
            caches: (0..n)
                .map(|_| block_table(CacheBlock::new(), cfg.n_addrs))
                .collect::<Result<_, _>>()
                .map_err(SimError::Workload)?,
            dirs: block_table(DirEntry::new(0), cfg.n_addrs).map_err(SimError::Workload)?,
            net: Network::new(n + 1, cfg.network),
            total_ops: schedules.iter().map(Vec::len).sum(),
            cursor: vec![0; schedules.len()],
            schedules,
            in_flight: vec![None; n],
            next_issue: vec![0; n],
            latencies: Histogram::new(),
            result: SimResult::default(),
            busy_dirs: 0,
            busy_dir_cycles: 0,
            coverage: Coverage::level(cache_fsm, dir_fsm, 0),
            cand_buf: Vec::new(),
            outcome: ApplyOutcome::default(),
        })
    }

    fn dir_node(&self) -> usize {
        self.cfg.n_caches
    }

    /// Steps the system to completion.
    ///
    /// Time enters a cycle through two gates only — a queued message's
    /// `ready` and a core's `next_issue` — and the RNG, the lines and the
    /// queues change only when an event commits. So a cycle that commits
    /// nothing is repeated exactly by every cycle before the next gate
    /// opens: the loop charges their stall, backpressure and busy-directory
    /// counts in one multiplication and moves the clock to the gate. With
    /// no gate left to open the cycle is a fixed point, and the run is
    /// reported deadlocked there instead of at `max_cycles`.
    fn run(mut self) -> Result<SimResult, SimError> {
        let mut t: u64 = 0;
        // Far enough below `u64::MAX` that `t + 1` cannot wrap.
        let limit = self.cfg.max_cycles.min(u64::MAX - 2);
        let livelock = SimError::Livelock { cycles: self.cfg.max_cycles };
        while self.result.completed < self.total_ops || !self.net.is_empty() {
            if t > limit {
                return Err(livelock);
            }
            debug_assert!(self.counters_agree(), "incremental counters drifted at cycle {t}");
            let (stalls, backpressure) =
                (self.result.stall_cycles, self.result.backpressure_cycles);
            let committed = self.deliver_phase(t)? | self.issue_phase(t)?;
            let mut span = 1;
            if !committed {
                let Some(wake) = self.next_gate(t) else {
                    return Err(self.deadlock(t));
                };
                if wake > limit {
                    return Err(livelock);
                }
                span = wake - t;
                let repeat = |now: u64, before: u64| {
                    now.saturating_add((now - before).saturating_mul(span - 1))
                };
                self.result.stall_cycles = repeat(self.result.stall_cycles, stalls);
                self.result.backpressure_cycles =
                    repeat(self.result.backpressure_cycles, backpressure);
            }
            self.busy_dir_cycles =
                self.busy_dir_cycles.saturating_add(self.busy_dirs.saturating_mul(span));
            t += span;
        }
        Ok(self.finish(t))
    }

    /// The report of a run that completed in `t` cycles.
    fn finish(mut self, t: u64) -> SimResult {
        self.result.cycles = t;
        self.result.avg_miss_latency = self.latencies.mean();
        self.result.p50_latency = self.latencies.percentile(50.0);
        self.result.p95_latency = self.latencies.percentile(95.0);
        self.result.p99_latency = self.latencies.percentile(99.0);
        self.result.max_latency = self.latencies.max();
        self.result.misses = self.latencies.len();
        self.result.msgs_per_miss = if self.result.misses > 0 {
            self.result.messages as f64 / self.result.misses as f64
        } else {
            0.0
        };
        self.result.dir_occupancy = if t > 0 {
            self.busy_dir_cycles as f64 / (t as f64 * self.cfg.n_addrs as f64)
        } else {
            0.0
        };
        self.result.peak_channel_depth = self.net.peak_depth;
        self.result.coverage = Coverage::merge(&self.coverage);
        self.result
    }

    /// Delivers at most one ripe message per destination node; whether any
    /// was delivered.
    fn deliver_phase(&mut self, t: u64) -> Result<bool, SimError> {
        let mut cands = std::mem::take(&mut self.cand_buf);
        let mut any_delivered = false;
        for dst in 0..=self.dir_node() {
            if self.net.ripens_at(dst) > t {
                continue;
            }
            let mut delivered = false;
            let mut saw_stall = false;
            let mut saw_backpressure = false;
            // Only a delivery changes the channels into `dst`, and the
            // scan ends with it: the set taken here is the set scanned.
            // Sources are tried in ascending order; empty channels have
            // no candidate, so skipping them changes no delivery.
            'src: for src in self.net.sources(dst) {
                self.net.candidates(src, dst, t, &mut cands);
                for &idx in &cands {
                    match self.try_deliver(t, src, dst, idx)? {
                        Delivery::Done => {
                            delivered = true;
                            break 'src;
                        }
                        Delivery::Stalled => saw_stall = true,
                        Delivery::Backpressured => saw_backpressure = true,
                    }
                }
            }
            if !delivered && saw_stall {
                self.result.stall_cycles += 1;
            }
            if !delivered && saw_backpressure {
                self.result.backpressure_cycles += 1;
            }
            any_delivered |= delivered;
        }
        self.cand_buf = cands;
        Ok(any_delivered)
    }

    /// Attempts to deliver candidate `idx` of channel `src → dst`.
    fn try_deliver(
        &mut self,
        t: u64,
        src: usize,
        dst: usize,
        idx: usize,
    ) -> Result<Delivery, SimError> {
        let SimMsg { addr, msg } = self.net.peek(src, dst, idx);
        let is_dir = dst == self.dir_node();
        let event = Event::Msg(msg.mtype);
        let a = addr as usize;
        let (machine, slot) = if is_dir {
            (&self.dir, Slot::Dir(&self.dirs[a]))
        } else {
            (&self.cache, Slot::Cache(&self.caches[dst][a]))
        };
        self.coverage[usize::from(is_dir)].record(slot.state(), event);
        let arc = match machine.select(slot, event, Some(&msg)) {
            Selected::Arc(arc) => arc,
            Selected::Stall => return Ok(Delivery::Stalled),
            Selected::None => {
                let who = if is_dir { "directory".to_string() } else { format!("cache n{dst}") };
                let what = format_args!("{msg} (block {addr})");
                return Err(SimError::UnexpectedMessage(machine.unexpected(who, slot, what)));
            }
        };
        let ids = (NodeId(dst as u8), NodeId(self.dir_node() as u8));
        let (net, out) = (&self.net, &mut self.outcome);
        let committed = if is_dir {
            let entry = &mut self.dirs[a];
            let was_busy = is_busy(machine, entry);
            let committed = tentative(machine, arc, Some(&msg), entry, ids, net, out)?;
            self.busy_dirs =
                self.busy_dirs - u64::from(was_busy) + u64::from(is_busy(machine, entry));
            committed
        } else {
            tentative(machine, arc, Some(&msg), &mut self.caches[dst][a], ids, net, out)?
        };
        if !committed {
            return Ok(Delivery::Backpressured);
        }
        self.net.take(src, dst, idx);
        self.result.messages += 1;
        for &m in &self.outcome.outgoing {
            self.net.send(t, SimMsg { addr, msg: m }, &mut self.rng);
        }
        if !is_dir && self.outcome.performed.is_some() {
            if let Some((flight_addr, start)) = self.in_flight[dst] {
                if flight_addr == addr {
                    self.in_flight[dst] = None;
                    self.latencies.record(t - start);
                    self.result.completed += 1;
                    self.next_issue[dst] = t.saturating_add(self.cfg.think_time);
                }
            }
        }
        Ok(Delivery::Done)
    }

    /// Whether core `c` has an access to issue once its think time is over.
    fn may_issue(&self, c: usize) -> bool {
        self.cursor[c] < self.schedules[c].len() && self.in_flight[c].is_none()
    }

    /// Idle cores issue their next scheduled access; whether any did.
    fn issue_phase(&mut self, t: u64) -> Result<bool, SimError> {
        let dir_id = NodeId(self.dir_node() as u8);
        let mut issued = false;
        for c in 0..self.cfg.n_caches {
            if !self.may_issue(c) || self.next_issue[c] > t {
                continue;
            }
            let op = self.schedules[c][self.cursor[c]];
            let a = op.addr as usize;
            let event = Event::Access(op.access);
            let slot = Slot::Cache(&self.caches[c][a]);
            self.coverage[0].record(slot.state(), event);
            let arc = match self.cache.select(slot, event, None) {
                Selected::Arc(arc) => arc,
                Selected::Stall => continue, // retry next cycle
                Selected::None => {
                    // The SSP defines no behaviour (replacement of an invalid
                    // block): trivially complete.
                    issued = true;
                    self.cursor[c] += 1;
                    self.result.completed += 1;
                    self.result.hits += 1;
                    self.next_issue[c] = t.saturating_add(self.cfg.think_time);
                    continue;
                }
            };
            let block = &mut self.caches[c][a];
            let ids = (NodeId(c as u8), dir_id);
            if !tentative(&self.cache, arc, None, block, ids, &self.net, &mut self.outcome)? {
                self.result.backpressure_cycles += 1;
                continue; // retry when the channel drains
            }
            issued = true;
            self.cursor[c] += 1;
            for &m in &self.outcome.outgoing {
                self.net.send(t, SimMsg { addr: op.addr, msg: m }, &mut self.rng);
            }
            if self.outcome.performed.is_some() {
                self.result.completed += 1;
                self.result.hits += 1;
                self.next_issue[c] = t.saturating_add(self.cfg.think_time);
            } else {
                self.in_flight[c] = Some((op.addr, t));
            }
        }
        Ok(issued)
    }

    /// The earliest cycle after `t` at which a time gate opens — a queued
    /// message ripens or a thinking core may issue — if any is still shut.
    fn next_gate(&self, t: u64) -> Option<u64> {
        let thinking = (0..self.cfg.n_caches)
            .filter(|&c| self.may_issue(c) && self.next_issue[c] > t)
            .map(|c| self.next_issue[c]);
        self.net.next_ripening(t).into_iter().chain(thinking).min()
    }

    /// The fixed point reached at cycle `t`, worded for whoever has to debug
    /// it: per unfinished core what it waits for, per non-empty channel its
    /// depth and what holds its head.
    fn deadlock(&self, t: u64) -> SimError {
        let held = |machine: &Machine<&Fsm>, slot: Slot<'_>, event, msg: Option<&Msg>| {
            let why = match machine.select(slot, event, msg) {
                Selected::Stall => "stalled",
                // It has an arc and the cycle committed nothing: its sends
                // found a full channel.
                _ => "backpressured",
            };
            (why, machine.fsm().state(slot.state()).full_name())
        };
        let mut stuck = String::new();
        for c in 0..self.cfg.n_caches {
            if let Some((addr, since)) = self.in_flight[c] {
                let state = self.cache.fsm().state(self.caches[c][addr as usize].state);
                let _ = writeln!(
                    stuck,
                    "  core {c}: block {addr} in flight since cycle {since}, cache in {}",
                    state.full_name()
                );
            } else if let Some(op) = self.schedules[c].get(self.cursor[c]) {
                let slot = Slot::Cache(&self.caches[c][op.addr as usize]);
                let (why, state) = held(&self.cache, slot, Event::Access(op.access), None);
                let _ = writeln!(
                    stuck,
                    "  core {c}: {} of block {} {why}, cache in {state}",
                    op.access, op.addr
                );
            }
        }
        for (src, dst, depth, SimMsg { addr, msg }) in self.net.backlog() {
            let (machine, slot) = if dst == self.dir_node() {
                (&self.dir, Slot::Dir(&self.dirs[addr as usize]))
            } else {
                (&self.cache, Slot::Cache(&self.caches[dst][addr as usize]))
            };
            let (why, state) = held(machine, slot, Event::Msg(msg.mtype), Some(&msg));
            let name = &machine.fsm().msg(msg.mtype).name;
            let _ = writeln!(
                stuck,
                "  channel n{src}→n{dst}: {depth} queued, head {name} (block {addr}) {why}, \
                 n{dst} in {state}"
            );
        }
        SimError::Deadlock { cycle: t, stuck }
    }

    /// Whether the counters the loop keeps agree with the scans they
    /// replaced (`debug_assert!`ed every executed cycle).
    fn counters_agree(&self) -> bool {
        let busy = self.dirs.iter().filter(|d| is_busy(&self.dir, d)).count() as u64;
        let idle = (0..self.cfg.n_caches)
            .all(|c| self.cursor[c] >= self.schedules[c].len() && self.in_flight[c].is_none());
        busy == self.busy_dirs
            && idle == (self.result.completed == self.total_ops)
            && self.net.counters_agree()
    }
}

/// The most blocks a run can have: one per `u32` address.
const MAX_ADDRS: u64 = 1 << 32;

/// Whether a directory entry is mid-transaction (in a transient state).
fn is_busy(dir: &Machine<&Fsm>, entry: &DirEntry) -> bool {
    !dir.fsm().state(entry.state).is_stable()
}

enum Delivery {
    Done,
    Stalled,
    Backpressured,
}

/// Applies `arc` to `line` and keeps the result only when the outgoing
/// messages fit their (possibly bounded) channels; `Ok(false)` is
/// backpressure, with `line` put back as it was. Unbounded channels take
/// anything, so only a bounded network pays for the copy to put back.
/// `ids` is `(self, directory)`.
fn tentative<L: Line>(
    machine: &Machine<&Fsm>,
    arc: &Arc,
    msg: Option<&Msg>,
    line: &mut L,
    ids: (NodeId, NodeId),
    net: &Network,
    out: &mut ApplyOutcome,
) -> Result<bool, SimError> {
    let before = net.is_bounded().then(|| line.clone());
    machine.apply(arc, msg, line.ctx(ids.0, ids.1), 0, out).map_err(SimError::Exec)?;
    match before {
        Some(before) if !net.accepts(&out.outgoing) => {
            *line = before;
            Ok(false)
        }
        _ => Ok(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatencyDist, NetModel, NetworkConfig};
    use crate::workload::Workload;
    use protogen_core::{generate, GenConfig, Generated};
    use std::time::Instant;

    fn generated(name: &str, gc: &GenConfig) -> Generated {
        generate(&protogen_protocols::by_name(name).unwrap(), gc).unwrap()
    }

    #[test]
    fn simulated_idle_time_costs_no_host_time() {
        let g = generated("msi", &GenConfig::non_stalling());
        let cfg = SimConfig {
            think_time: 1_000_000_000,
            accesses_per_core: 10,
            max_cycles: u64::MAX,
            ..SimConfig::default()
        };
        let start = Instant::now();
        let r = simulate(&g.cache, &g.directory, &cfg).unwrap();
        assert_eq!(r.completed, 40);
        assert!(r.cycles > 1_000_000_000, "{} cycles", r.cycles);
        assert!(start.elapsed().as_secs() < 2, "{:?} for 40 accesses", start.elapsed());
    }

    #[test]
    fn a_wedged_run_is_reported_at_its_fixed_point() {
        // One-deep buffers: an event with two sends on one channel never
        // fits, and waiting channels close a cycle.
        let tight = |latency| NetworkConfig { model: NetModel::Ordered, latency, capacity: 1 };
        let wedged = [
            ("mesi", SimConfig { network: tight(LatencyDist::Fixed(8)), ..SimConfig::default() }),
            (
                "msi-unordered",
                SimConfig {
                    n_caches: 3,
                    n_addrs: 2,
                    accesses_per_core: 50,
                    workload: Workload::Uniform { store_pct: 80 },
                    network: tight(LatencyDist::Fixed(20)),
                    ..SimConfig::default()
                },
            ),
        ];
        for (name, cfg) in wedged {
            let g = generated(name, &GenConfig::non_stalling());
            let start = Instant::now();
            let Err(SimError::Deadlock { cycle, stuck }) = simulate(&g.cache, &g.directory, &cfg)
            else {
                panic!("{name}: expected a deadlock");
            };
            assert!(cycle < 100_000, "{name}: fixed point only at cycle {cycle}");
            assert!(start.elapsed().as_secs() < 2, "{name}: {:?}", start.elapsed());
            assert!(stuck.contains("in flight since cycle"), "{name}: {stuck}");
            assert!(stuck.contains("queued, head"), "{name}: {stuck}");
            assert!(
                stuck.contains("backpressured") || stuck.contains("stalled"),
                "{name}: {stuck}"
            );
        }
    }

    #[test]
    fn a_latency_no_run_can_wait_out_jumps_to_the_cycle_limit() {
        let g = generated("mesi", &GenConfig::non_stalling());
        for latency in [u64::from(u32::MAX), u64::MAX] {
            let cfg =
                SimConfig { network: NetworkConfig::ordered(latency), ..SimConfig::default() };
            let err = simulate(&g.cache, &g.directory, &cfg).unwrap_err();
            assert_eq!(err, SimError::Livelock { cycles: cfg.max_cycles });
        }
    }
}
