//! The discrete-event simulation engine.
//!
//! Runs the *generated* controllers — the same FSMs the model checker
//! verified, executed through the same `protogen-runtime` semantics — over
//! a latency-modelled interconnect with a workload schedule per core. Each
//! cycle every node delivers at most one message and every idle core may
//! issue its next scheduled access; a stalled message blocks its block's
//! channel lane, a full bounded buffer defers the event that would
//! overflow it (backpressure).

use crate::config::SimConfig;
use crate::network::{Network, SimMsg};
use crate::stats::{Histogram, SimResult};
use crate::workload::Op;
use crate::SimError;
use protogen_runtime::{
    ApplyOutcome, CacheBlock, DirEntry, Line, Machine, Msg, NodeId, PairSet, Selected, Slot,
};
use protogen_spec::{Arc, Event, Fsm};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    cursor: Vec<usize>,
    /// Per-core outstanding transaction: `(block, issue cycle)`.
    in_flight: Vec<Option<(u32, u64)>>,
    next_issue: Vec<u64>,
    latencies: Histogram,
    result: SimResult,
    busy_dir_cycles: u64,
    coverage: Option<PairSet>,
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
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let schedules = cfg.workload.schedules(n, cfg.n_addrs, cfg.accesses_per_core, &mut rng)?;
        Ok(Engine {
            cache: Machine::new(cache_fsm),
            dir: Machine::new(dir_fsm),
            cfg,
            rng,
            caches: vec![vec![CacheBlock::new(); cfg.n_addrs]; n],
            dirs: vec![DirEntry::new(0); cfg.n_addrs],
            net: Network::new(n + 1, cfg.network),
            cursor: vec![0; schedules.len()],
            schedules,
            in_flight: vec![None; n],
            next_issue: vec![0; n],
            latencies: Histogram::new(),
            result: SimResult::default(),
            busy_dir_cycles: 0,
            coverage: cfg.collect_coverage.then(PairSet::new),
            cand_buf: Vec::new(),
            outcome: ApplyOutcome::default(),
        })
    }

    fn dir_node(&self) -> usize {
        self.cfg.n_caches
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        let mut t: u64 = 0;
        loop {
            let idle_cores = (0..self.cfg.n_caches)
                .all(|c| self.cursor[c] >= self.schedules[c].len() && self.in_flight[c].is_none());
            if idle_cores && self.net.is_empty() {
                break;
            }
            if t > self.cfg.max_cycles {
                return Err(SimError::Livelock { cycles: self.cfg.max_cycles });
            }
            self.deliver_phase(t)?;
            self.issue_phase(t)?;
            self.busy_dir_cycles +=
                self.dirs.iter().filter(|d| !self.dir.fsm().state(d.state).is_stable()).count()
                    as u64;
            t += 1;
        }
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
        self.result.coverage = self.coverage.take();
        Ok(self.result)
    }

    /// Delivers at most one ripe message per destination node.
    fn deliver_phase(&mut self, t: u64) -> Result<(), SimError> {
        let total = self.cfg.n_caches + 1;
        for dst in 0..total {
            let mut delivered = false;
            let mut saw_stall = false;
            let mut saw_backpressure = false;
            'src: for src in 0..total {
                let mut cands = std::mem::take(&mut self.cand_buf);
                self.net.candidates(src, dst, t, &mut cands);
                for &idx in &cands {
                    match self.try_deliver(t, src, dst, idx)? {
                        Delivery::Done => {
                            delivered = true;
                            break;
                        }
                        Delivery::Stalled => saw_stall = true,
                        Delivery::Backpressured => saw_backpressure = true,
                    }
                }
                self.cand_buf = cands;
                if delivered {
                    break 'src;
                }
            }
            if !delivered && saw_stall {
                self.result.stall_cycles += 1;
            }
            if !delivered && saw_backpressure {
                self.result.backpressure_cycles += 1;
            }
        }
        Ok(())
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
        if let Some(cov) = self.coverage.as_mut() {
            cov.insert((slot.tag(), slot.state(), event));
        }
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
            tentative(machine, arc, Some(&msg), &mut self.dirs[a], ids, net, out)
        } else {
            tentative(machine, arc, Some(&msg), &mut self.caches[dst][a], ids, net, out)
        }?;
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
                    self.next_issue[dst] = t + self.cfg.think_time;
                }
            }
        }
        Ok(Delivery::Done)
    }

    /// Idle cores issue their next scheduled access.
    fn issue_phase(&mut self, t: u64) -> Result<(), SimError> {
        let dir_id = NodeId(self.dir_node() as u8);
        for c in 0..self.cfg.n_caches {
            if self.cursor[c] >= self.schedules[c].len()
                || self.in_flight[c].is_some()
                || self.next_issue[c] > t
            {
                continue;
            }
            let op = self.schedules[c][self.cursor[c]];
            let a = op.addr as usize;
            let event = Event::Access(op.access);
            let slot = Slot::Cache(&self.caches[c][a]);
            if let Some(cov) = self.coverage.as_mut() {
                cov.insert((slot.tag(), slot.state(), event));
            }
            let arc = match self.cache.select(slot, event, None) {
                Selected::Arc(arc) => arc,
                Selected::Stall => continue, // retry next cycle
                Selected::None => {
                    // The SSP defines no behaviour (replacement of an invalid
                    // block): trivially complete.
                    self.cursor[c] += 1;
                    self.result.completed += 1;
                    self.result.hits += 1;
                    self.next_issue[c] = t + self.cfg.think_time;
                    continue;
                }
            };
            let block = &mut self.caches[c][a];
            let ids = (NodeId(c as u8), dir_id);
            if !tentative(&self.cache, arc, None, block, ids, &self.net, &mut self.outcome)? {
                self.result.backpressure_cycles += 1;
                continue; // retry when the channel drains
            }
            self.cursor[c] += 1;
            for &m in &self.outcome.outgoing {
                self.net.send(t, SimMsg { addr: op.addr, msg: m }, &mut self.rng);
            }
            if self.outcome.performed.is_some() {
                self.result.completed += 1;
                self.result.hits += 1;
                self.next_issue[c] = t + self.cfg.think_time;
            } else {
                self.in_flight[c] = Some((op.addr, t));
            }
        }
        Ok(())
    }
}

enum Delivery {
    Done,
    Stalled,
    Backpressured,
}

/// Applies `arc` to a copy of `line` and commits the copy only when the
/// outgoing messages fit their (possibly bounded) channels; `Ok(false)` is
/// backpressure, with `line` untouched. `ids` is `(self, directory)`.
fn tentative<L: Line>(
    machine: &Machine<&Fsm>,
    arc: &Arc,
    msg: Option<&Msg>,
    line: &mut L,
    ids: (NodeId, NodeId),
    net: &Network,
    out: &mut ApplyOutcome,
) -> Result<bool, SimError> {
    let mut next = line.clone();
    machine.apply(arc, msg, next.ctx(ids.0, ids.1), 0, out).map_err(SimError::Exec)?;
    let fits = net.accepts(&out.outgoing);
    if fits {
        *line = next;
    }
    Ok(fits)
}
