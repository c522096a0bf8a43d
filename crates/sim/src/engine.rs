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
    apply_into, select_arc_indexed, ApplyOutcome, CacheBlock, DirEntry, FsmIndex, MachineCtx,
    MachineTag, NodeId, PairSet,
};
use protogen_spec::{ArcKind, Event, Fsm};
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
    cache_fsm: &'a Fsm,
    dir_fsm: &'a Fsm,
    cache_idx: FsmIndex,
    dir_idx: FsmIndex,
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
            cache_fsm,
            dir_fsm,
            cache_idx: FsmIndex::new(cache_fsm),
            dir_idx: FsmIndex::new(dir_fsm),
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
                self.dirs.iter().filter(|d| !self.dir_fsm.state(d.state).is_stable()).count()
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
        if let Some(cov) = self.coverage.as_mut() {
            let pair = if is_dir {
                (MachineTag::DIRECTORY, self.dirs[a].state, event)
            } else {
                (MachineTag::CACHE, self.caches[dst][a].state, event)
            };
            cov.insert(pair);
        }
        let arc = if is_dir {
            select_arc_indexed(
                self.dir_fsm,
                &self.dir_idx,
                self.dirs[a].state,
                event,
                Some(&msg),
                None,
                Some(&self.dirs[a]),
            )
        } else {
            select_arc_indexed(
                self.cache_fsm,
                &self.cache_idx,
                self.caches[dst][a].state,
                event,
                Some(&msg),
                Some(&self.caches[dst][a]),
                None,
            )
        };
        let Some(arc) = arc else {
            let holder = if is_dir {
                format!("directory in {}", self.dir_fsm.state(self.dirs[a].state).full_name())
            } else {
                format!(
                    "cache n{dst} in {}",
                    self.cache_fsm.state(self.caches[dst][a].state).full_name()
                )
            };
            return Err(SimError::UnexpectedMessage(format!("{msg} (block {addr}) at {holder}")));
        };
        if arc.kind == ArcKind::Stall {
            return Ok(Delivery::Stalled);
        }
        // Tentative apply on a copy: committing requires the outgoing
        // messages to fit their (possibly bounded) channels.
        let dir_id = NodeId(self.dir_node() as u8);
        let (committed_cache, committed_dir);
        if is_dir {
            let mut entry = self.dirs[a].clone();
            apply_into(
                self.dir_fsm,
                arc,
                Some(&msg),
                MachineCtx::Dir { entry: &mut entry, self_id: dir_id },
                0,
                &mut self.outcome,
            )
            .map_err(SimError::Exec)?;
            committed_cache = None;
            committed_dir = Some(entry);
        } else {
            let mut block = self.caches[dst][a].clone();
            apply_into(
                self.cache_fsm,
                arc,
                Some(&msg),
                MachineCtx::Cache { block: &mut block, self_id: NodeId(dst as u8), dir_id },
                0,
                &mut self.outcome,
            )
            .map_err(SimError::Exec)?;
            committed_cache = Some(block);
            committed_dir = None;
        }
        if !self.net.accepts(&self.outcome.outgoing) {
            return Ok(Delivery::Backpressured);
        }
        // Commit.
        self.net.take(src, dst, idx);
        if let Some(entry) = committed_dir {
            self.dirs[a] = entry;
        }
        if let Some(block) = committed_cache {
            self.caches[dst][a] = block;
        }
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
            if let Some(cov) = self.coverage.as_mut() {
                cov.insert((MachineTag::CACHE, self.caches[c][a].state, event));
            }
            let arc = select_arc_indexed(
                self.cache_fsm,
                &self.cache_idx,
                self.caches[c][a].state,
                event,
                None,
                Some(&self.caches[c][a]),
                None,
            );
            let Some(arc) = arc else {
                // The SSP defines no behaviour (replacement of an invalid
                // block): trivially complete.
                self.cursor[c] += 1;
                self.result.completed += 1;
                self.result.hits += 1;
                self.next_issue[c] = t + self.cfg.think_time;
                continue;
            };
            if arc.kind == ArcKind::Stall {
                continue; // retry next cycle
            }
            let mut block = self.caches[c][a].clone();
            apply_into(
                self.cache_fsm,
                arc,
                None,
                MachineCtx::Cache { block: &mut block, self_id: NodeId(c as u8), dir_id },
                0,
                &mut self.outcome,
            )
            .map_err(SimError::Exec)?;
            if !self.net.accepts(&self.outcome.outgoing) {
                self.result.backpressure_cycles += 1;
                continue; // retry when the channel drains
            }
            self.caches[c][a] = block;
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
