//! The worker threads: cache cores, directory shards, scheduling,
//! termination, and live coverage recording.
//!
//! Every node follows the same pass structure:
//!
//! 1. **Drain**: peek every inbound ring's head slot and move every
//!    published envelope out of the bounded rings into unbounded per-edge
//!    local queues. Draining is unconditional — a node never refuses input —
//!    which is what makes the bounded rings deadlock-free: ring space at
//!    every edge is always eventually regenerated, no matter how wedged
//!    the consumer's own output side is (the producer-drains-own-inbox
//!    discipline the model checker's explorer uses under backpressure).
//! 2. **Dispatch**: for each source edge, repeatedly apply the queue
//!    head. A `Stall` arc or insufficient output-ring space *parks* the
//!    head (per-edge FIFO demands the queue waits behind it; other edges
//!    proceed independently) to be retried next pass. Application is
//!    tentative: the FSM steps a scratch copy, output space is checked,
//!    and only then is the step committed and its messages published —
//!    sound because each edge has exactly one producer, so observed free
//!    space is monotone until that producer itself pushes.
//! 3. **Issue** (cache workers only): with no transaction outstanding,
//!    issue the next scheduled access — completing hits locally,
//!    launching a transaction otherwise (one outstanding access per
//!    core, the discipline `crates/sim` models).
//!
//! Termination is quiescence detection without a shared counter. Each
//! worker owns a `sent`/`received` pair on its own cache line
//! ([`Traffic`]) that nobody else writes: `sent` grows *before* the
//! messages are pushed, `received` only *after* the receiving apply has
//! published its own follow-ups. An idle worker that sees every core done
//! issuing reads **all `received`, then all `sent`**, and equal sums end
//! the run. Both are monotone and Σsent ≥ Σreceived at every instant, so a
//! Σreceived read early can only be too small and a Σsent read late only
//! too large: if they still agree, they agreed at an instant between the
//! sweeps — no message existed anywhere and, all cores done, none could be
//! issued. (In happens-before terms: the release store of `received` the
//! first sweep acquired comes after that message's, and its follow-ups',
//! `sent` stores, so the second sweep counts them all; equal sums make the
//! two sets equal and every follow-up chain closed.) Sweeping `sent` first
//! would be unsound: a receive-and-forward between the sweeps raises both
//! sums by one and hides the forwarded message. A protocol deadlock
//! (impossible inside the verified envelope) trips the wall-clock deadline
//! instead, and [`ServeReport::stop_detail`] then says who holds what.

use crate::fault::{FaultConfig, FaultState, FaultStats};
use crate::mailbox::{Envelope, Fabric, OwnLine};
use crate::{ServeConfig, ServeError, ServeReport, StopReason};
use protogen_runtime::{
    block_table, ApplyOutcome, CacheBlock, Coverage, DirEntry, ExecError, Line, Machine,
    MachineTag, Msg, NodeId, Selected, Slot,
};
use protogen_sim::{Histogram, Op};
use protogen_spec::{Access, Event, Fsm, Perm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One worker's message counters (module doc), read by others only on
/// idle passes.
#[derive(Debug, Default)]
struct Traffic {
    sent: AtomicU64,
    received: AtomicU64,
}

/// Owner-side increment: nobody else writes `counter`, so no RMW. The
/// release store pairs with the sweeps' loads in [`Shared::quiescent`].
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Release);
}

/// The two-sweep quiescence rule (module doc): every `received` is read
/// before any `sent`, and the sums must agree.
fn sweeps_agree(received: impl Iterator<Item = u64>, sent: impl Iterator<Item = u64>) -> bool {
    let received: u64 = received.sum();
    received == sent.sum::<u64>()
}

/// State shared by every worker thread for one run.
struct Shared<'f> {
    cache: Machine<&'f Fsm>,
    dir: Machine<&'f Fsm>,
    fabric: Fabric,
    n_caches: usize,
    dir_shards: usize,
    /// Per-worker message counters, indexed like the fabric's nodes.
    traffic: Vec<OwnLine<Traffic>>,
    /// Cores that have completed their whole schedule.
    cores_done: AtomicUsize,
    /// Set on quiescence, failure, or deadline: everyone exits.
    done: AtomicBool,
    /// First failure wins; later ones are dropped.
    failure: Mutex<Option<ServeError>>,
    deadline: Instant,
    /// The fault schedule, when fault injection is on. Immutable and
    /// consulted through each worker's own [`FaultState`] cursors.
    faults: Option<&'f FaultConfig>,
    /// Slots per fabric ring (what a capacity squeeze withholds part of).
    mailbox_cap: usize,
}

impl<'f> Shared<'f> {
    /// Topology index a message's FSM-level destination routes to:
    /// caches map to themselves, the directory id fans out to the shard
    /// owning the block.
    fn route(&self, dst: NodeId, addr: u32) -> usize {
        let d = dst.as_usize();
        if d >= self.n_caches {
            self.n_caches + addr as usize % self.dir_shards
        } else {
            d
        }
    }

    /// How reports name topology index `topo`: `cache 3`, `dir shard 1`.
    fn name(&self, topo: usize) -> String {
        match topo.checked_sub(self.n_caches) {
            None => format!("cache {topo}"),
            Some(shard) => format!("dir shard {shard}"),
        }
    }

    /// Whether every message in `outgoing` fits its output ring right
    /// now. Sound as a pre-commit check: this thread is the only producer
    /// on each of those rings, so space cannot shrink before the pushes.
    ///
    /// `withheld` is the slot count an active capacity squeeze pretends
    /// is occupied (0 without fault injection). Squeezes only make this
    /// check *more* conservative, so the publish-after-check argument —
    /// and [`Shared::publish`]'s expect — are untouched by them.
    fn outgoing_fits(&self, src: usize, addr: u32, outgoing: &[Msg], withheld: usize) -> bool {
        'msgs: for (i, m) in outgoing.iter().enumerate() {
            let d = self.route(m.dst, addr);
            for prev in &outgoing[..i] {
                if self.route(prev.dst, addr) == d {
                    continue 'msgs; // edge already counted at its first message
                }
            }
            let needed = outgoing[i..].iter().filter(|n| self.route(n.dst, addr) == d).count();
            if !self.fabric.ring(src, d).has_space(needed + withheld) {
                return false;
            }
        }
        true
    }

    /// Publishes `outgoing`, counting each message in flight *before* it
    /// becomes visible. Callers must have checked [`Shared::outgoing_fits`].
    fn publish(&self, src: usize, addr: u32, outgoing: &[Msg]) {
        if outgoing.is_empty() {
            return;
        }
        bump(&self.traffic[src].0.sent, outgoing.len() as u64);
        for m in outgoing {
            let dst = self.route(m.dst, addr);
            self.fabric
                .try_send(src, dst, Envelope { addr, msg: *m })
                .expect("output space was checked before commit");
        }
    }

    fn fail(&self, e: ServeError) {
        // A worker can panic while holding this lock; the slot is a plain
        // Option, so recovering the poisoned guard is sound — first
        // failure still wins.
        let mut slot = self.failure.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(e);
        }
        self.done.store(true, Ordering::SeqCst);
    }

    fn received(&self) -> impl Iterator<Item = u64> + '_ {
        self.traffic.iter().map(|t| t.0.received.load(Ordering::SeqCst))
    }

    fn sent(&self) -> impl Iterator<Item = u64> + '_ {
        self.traffic.iter().map(|t| t.0.sent.load(Ordering::SeqCst))
    }

    /// Quiescence: no core will issue again and no message is anywhere
    /// (the two-sweep argument in the module doc).
    fn quiescent(&self) -> bool {
        self.cores_done.load(Ordering::SeqCst) == self.n_caches
            && sweeps_agree(self.received(), self.sent())
    }
}

/// What one worker measured, merged into the [`ServeReport`] at join.
struct WorkerOut {
    coverage: Coverage,
    miss_latency: Histogram,
    hits: u64,
    misses: u64,
    peak_queue_depth: usize,
    fault: FaultStats,
    /// What the worker still held when it exited, for the deadline report.
    held: String,
}

/// How one dispatch attempt on a line ended.
enum Dispatch {
    /// The arc fired: the line is updated and its messages are published.
    Applied,
    /// The FSM has no transition for the event.
    NoArc,
    /// The event must wait — a stall arc, or an output edge without room
    /// for the arc's messages; the line is untouched.
    Blocked,
    /// The arc's actions failed against the line (the run is broken).
    Failed(ExecError),
}

enum StepOutcome {
    /// The head was applied and removed; it was for this block.
    Applied(u32),
    /// The head must wait (stall arc or full output edge); the edge's
    /// queue is blocked behind it until the next pass.
    Parked,
    /// The run failed; the worker unwinds.
    Failed,
}

/// Spin/yield/sleep ladder for passes that made no progress.
fn idle_backoff(idle: u32) {
    if idle < 64 {
        std::hint::spin_loop();
    } else if idle < 4096 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Moves every published envelope for `topo` out of the rings into the
/// local per-edge queues.
fn drain(sh: &Shared, topo: usize, queues: &mut [VecDeque<Envelope>]) {
    let mut mask = sh.fabric.take_ready(topo);
    while mask != 0 {
        let src = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let ring = sh.fabric.ring(src, topo);
        while let Some(env) = ring.pop() {
            queues[src].push_back(env);
        }
    }
}

/// What every worker is: one controller's lines for all blocks — cache
/// blocks or directory entries — the per-edge queues feeding them, and
/// the pass bookkeeping. A directory shard is exactly this; a cache
/// worker ([`CacheWorker`]) adds the issuing side.
struct Node<'s, 'f, L> {
    sh: &'s Shared<'f>,
    machine: &'s Machine<&'f Fsm>,
    /// How messages name this worker: `cache 3`, `dir shard 1`.
    who: String,
    /// Topology index (ring endpoint).
    topo: usize,
    /// The FSM identity arcs run under (every shard is the directory).
    self_id: NodeId,
    lines: Vec<L>,
    scratch: L,
    outcome: ApplyOutcome,
    queues: Vec<VecDeque<Envelope>>,
    out: WorkerOut,
    fault: FaultState,
    /// Consecutive passes without progress, and passes in total.
    idle: u32,
    ticks: u64,
}

impl<'s, 'f, L: Line> Node<'s, 'f, L> {
    /// `lines` holds one line per block (at least one, by `validate`).
    fn new(sh: &'s Shared<'f>, topo: usize, lines: Vec<L>) -> Self {
        let initial = lines[0].clone();
        let (tag, machine, self_id) = match initial.slot() {
            Slot::Cache(_) => (MachineTag::CACHE, &sh.cache, NodeId(topo as u8)),
            Slot::Dir(_) => (MachineTag::DIRECTORY, &sh.dir, NodeId(sh.n_caches as u8)),
        };
        Node {
            sh,
            machine,
            who: sh.name(topo),
            topo,
            self_id,
            lines,
            scratch: initial,
            outcome: ApplyOutcome::default(),
            queues: (0..sh.fabric.nodes()).map(|_| VecDeque::new()).collect(),
            out: WorkerOut {
                coverage: Coverage::new(machine.fsm(), tag),
                miss_latency: Histogram::new(),
                hits: 0,
                misses: 0,
                peak_queue_depth: 0,
                fault: FaultStats::default(),
                held: String::new(),
            },
            fault: FaultState::new(sh.fabric.nodes()),
            idle: 0,
            ticks: 0,
        }
    }

    /// Dispatches `event` on block `addr`'s line. Application is
    /// tentative: the arc steps a scratch copy, and only if its messages
    /// fit the output edges is the copy committed and are they published;
    /// `self.outcome` then says what the arc performed.
    fn dispatch(&mut self, addr: u32, event: Event, msg: Option<&Msg>) -> Dispatch {
        let (sh, machine) = (self.sh, self.machine);
        let line = &self.lines[addr as usize];
        self.out.coverage.record(line.slot().state(), event);
        let arc = match machine.select(line.slot(), event, msg) {
            Selected::Arc(arc) => arc,
            Selected::Stall => return Dispatch::Blocked,
            Selected::None => return Dispatch::NoArc,
        };
        self.scratch.clone_from(line);
        let ctx = self.scratch.ctx(self.self_id, NodeId(sh.n_caches as u8));
        if let Err(e) = machine.apply(arc, msg, ctx, 0, &mut self.outcome) {
            return Dispatch::Failed(e);
        }
        if !sh.outgoing_fits(self.topo, addr, &self.outcome.outgoing, self.fault.withheld) {
            if self.fault.withheld > 0 {
                self.fault.stats.squeeze_parks += 1;
            }
            return Dispatch::Blocked;
        }
        std::mem::swap(&mut self.lines[addr as usize], &mut self.scratch);
        sh.publish(self.topo, addr, &self.outcome.outgoing);
        Dispatch::Applied
    }

    /// The FSM state block `addr`'s line is in, by name.
    fn state_name(&self, addr: u32) -> &str {
        &self.machine.fsm().state(self.lines[addr as usize].slot().state()).name
    }

    /// Applies the head of edge `src`'s queue, if any.
    fn step_msg(&mut self, src: usize) -> StepOutcome {
        let Some(&Envelope { addr, msg }) = self.queues[src].front() else {
            return StepOutcome::Parked; // empty edge: nothing to do
        };
        let sh = self.sh;
        match self.dispatch(addr, Event::Msg(msg.mtype), Some(&msg)) {
            Dispatch::Applied => {
                bump(&sh.traffic[self.topo].0.received, 1);
                self.queues[src].pop_front();
                StepOutcome::Applied(addr)
            }
            Dispatch::Blocked => StepOutcome::Parked, // retry next pass
            Dispatch::NoArc => {
                sh.fail(ServeError::UnexpectedMessage(format!(
                    "{} in state {} cannot handle {msg} for block {addr}",
                    self.who,
                    self.state_name(addr),
                )));
                StepOutcome::Failed
            }
            Dispatch::Failed(e) => {
                sh.fail(ServeError::Exec(format!("{} applying {msg}: {e}", self.who)));
                StepOutcome::Failed
            }
        }
    }

    /// One drain-and-dispatch pass over every input edge; `applied` runs
    /// after each message applied, with its block address. Returns whether
    /// anything was applied, or `None` when the run failed.
    fn deliver_pass(&mut self, mut applied: impl FnMut(&mut Self, u32)) -> Option<bool> {
        let sh = self.sh;
        if let Some(faults) = sh.faults {
            self.fault.begin_pass(faults, self.topo, sh.mailbox_cap);
        }
        let mut progress = false;
        drain(sh, self.topo, &mut self.queues);
        for src in 0..sh.fabric.nodes() {
            loop {
                if self.queues[src].is_empty() {
                    break;
                }
                if let Some(faults) = sh.faults {
                    if self.fault.edge_held(faults, self.topo, src) {
                        break; // head delayed; the edge waits behind it
                    }
                }
                match self.step_msg(src) {
                    StepOutcome::Applied(addr) => {
                        self.fault.consumed(src);
                        progress = true;
                        applied(self, addr);
                    }
                    StepOutcome::Parked => break,
                    StepOutcome::Failed => return None,
                }
            }
        }
        Some(progress)
    }

    /// The end of every pass: records queue depth, then — on an idle pass —
    /// looks for quiescence and backs off. The wall-clock deadline is
    /// checked every 8192nd busy pass and every 64th idle one. Returns
    /// whether the worker should run another pass.
    fn end_pass(&mut self, progress: bool) -> bool {
        let sh = self.sh;
        let depth: usize = self.queues.iter().map(VecDeque::len).sum();
        self.out.peak_queue_depth = self.out.peak_queue_depth.max(depth);
        self.ticks += 1;
        let mut check_deadline = self.ticks % 8192 == 0;
        if progress {
            self.idle = 0;
        } else {
            self.idle += 1;
            if self.idle % 64 == 0 {
                if sh.quiescent() {
                    sh.done.store(true, Ordering::SeqCst);
                    return false;
                }
                check_deadline = true;
            }
        }
        if check_deadline && Instant::now() >= sh.deadline {
            sh.fail(ServeError::Deadline("run did not quiesce in time".into()));
            return false;
        }
        if !progress {
            idle_backoff(self.idle);
        }
        true
    }

    /// Ends the worker, leaving its line of the deadline report: counters,
    /// the block a cache core still `waiting` on, every non-empty edge.
    fn finish(mut self, waiting: Option<u32>) -> WorkerOut {
        drain(self.sh, self.topo, &mut self.queues); // what the rings still hold, too
        let traffic = &self.sh.traffic[self.topo].0;
        let (sent, received) =
            (traffic.sent.load(Ordering::Relaxed), traffic.received.load(Ordering::Relaxed));
        let mut held = format!("{}: sent {sent}, received {received}", self.who);
        if let Some(addr) = waiting {
            held += &format!("; waiting on block {addr} in state {}", self.state_name(addr));
        }
        for (src, queue) in self.queues.iter().enumerate() {
            if let Some(Envelope { addr, msg }) = queue.front() {
                let (depth, from) = (queue.len(), self.sh.name(src));
                held += &format!("; {depth} queued from {from}, head {msg} for block {addr}");
            }
        }
        self.out.held = held;
        self.out.fault = self.fault.stats;
        self.out
    }
}

/// A directory shard: deliver passes until the run is done.
fn run_dir_shard(mut node: Node<DirEntry>) -> WorkerOut {
    while !node.sh.done.load(Ordering::SeqCst) {
        let Some(progress) = node.deliver_pass(|_, _| {}) else { break };
        if !node.end_pass(progress) {
            break;
        }
    }
    node.finish(None)
}

/// The crash-recovery state machine a planned cache crash walks through.
/// Recovery uses only ordinary `Replacement` transitions of the verified
/// FSM, so every step stays inside the checked envelope (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPhase {
    /// No crash yet (or none planned).
    Normal,
    /// Crash point reached: stopped issuing, draining the outstanding
    /// transaction.
    Draining,
    /// Evacuating held lines one block at a time via `Replacement`.
    Flushing { addr: u32 },
    /// Recovery finished (or the crash point was never reached); the
    /// cache has rejoined and resumes its schedule.
    Done,
}

struct CacheWorker<'s, 'f> {
    /// The delivery side; `node.topo` is this cache's id.
    node: Node<'s, 'f, CacheBlock>,
    schedule: Vec<Op>,
    cursor: usize,
    /// The launched transaction: block address and issue instant.
    outstanding: Option<(u32, Instant)>,
    declared_done: bool,
    /// Schedule position this cache crashes at, from the fault plan.
    crash_at: Option<usize>,
    phase: CrashPhase,
}

impl<'s, 'f> CacheWorker<'s, 'f> {
    fn new(sh: &'s Shared<'f>, id: usize, schedule: Vec<Op>, lines: Vec<CacheBlock>) -> Self {
        let crash_at = sh.faults.and_then(|f| f.crash_cursor(id, schedule.len()));
        CacheWorker {
            node: Node::new(sh, id, lines),
            schedule,
            cursor: 0,
            outstanding: None,
            declared_done: false,
            crash_at,
            phase: CrashPhase::Normal,
        }
    }

    /// Issues scheduled accesses until a transaction launches, an access
    /// must wait, or the hit budget for this pass is spent. Returns
    /// whether anything completed or launched.
    fn try_issue(&mut self) -> bool {
        let mut progressed = false;
        let mut hit_budget = 1024u32;
        while self.outstanding.is_none() && hit_budget > 0 {
            if matches!(self.phase, CrashPhase::Normal)
                && self.crash_at.is_some_and(|at| self.cursor >= at)
            {
                break; // the crash point is due; advance_crash takes over
            }
            let Some(&op) = self.schedule.get(self.cursor) else { break };
            match self.node.dispatch(op.addr, Event::Access(op.access), None) {
                Dispatch::Applied => {
                    self.cursor += 1;
                    progressed = true;
                    if self.node.outcome.performed.is_some() {
                        self.node.out.hits += 1;
                        hit_budget -= 1;
                    } else {
                        self.node.out.misses += 1;
                        self.outstanding = Some((op.addr, Instant::now()));
                    }
                }
                Dispatch::NoArc => {
                    // No transition: the access needs nothing (e.g. replacing
                    // an invalid block) — complete it on the spot.
                    self.cursor += 1;
                    self.node.out.hits += 1;
                    hit_budget -= 1;
                    progressed = true;
                }
                // A blocking chain or output backpressure: retry next pass.
                Dispatch::Blocked => break,
                Dispatch::Failed(e) => {
                    self.node.sh.fail(ServeError::Exec(format!(
                        "{} issuing {:?} on block {}: {e}",
                        self.node.who, op.access, op.addr
                    )));
                    break;
                }
            }
        }
        progressed
    }

    /// Advances the crash state machine at pass boundaries.
    fn advance_crash(&mut self) {
        match self.phase {
            CrashPhase::Normal => {
                let Some(at) = self.crash_at else { return };
                if self.cursor >= at {
                    self.phase = CrashPhase::Draining;
                } else if self.cursor == self.schedule.len() && self.outstanding.is_none() {
                    // The crash point lies past the schedule end, so the
                    // plan can never complete. Finish the run and let
                    // `serve` report [`StopReason::Fault`]
                    // (`crashes_completed` stays short of the plan).
                    self.phase = CrashPhase::Done;
                }
            }
            CrashPhase::Draining => {
                if self.outstanding.is_some() {
                    return; // the in-flight transaction drains first
                }
                let node = &mut self.node;
                if node.sh.faults.is_some_and(|f| f.unsafe_reset) {
                    // Planted recovery bug: drop every line *without*
                    // telling the directory. It still believes this cache
                    // holds them, so the conformance oracle must flag the
                    // run (the fuzz campaign's negative control).
                    let fsm = node.machine.fsm();
                    node.fault.stats.lines_lost +=
                        node.lines.iter().filter(|b| fsm.state(b.state).perm != Perm::None).count()
                            as u64;
                    node.lines.fill(CacheBlock::new());
                    self.phase = CrashPhase::Done;
                    node.fault.stats.crashes_completed += 1;
                } else {
                    self.phase = CrashPhase::Flushing { addr: 0 };
                }
            }
            CrashPhase::Flushing { .. } | CrashPhase::Done => {}
        }
    }

    /// Drives crash recovery: evacuates every block through ordinary
    /// `Replacement` transitions — the same verified arcs a capacity
    /// replacement would use — launching at most one transaction at a
    /// time (the one-outstanding discipline the issue path follows).
    /// Blocks with nothing to evacuate complete on the spot.
    fn try_flush(&mut self) -> bool {
        let mut progressed = false;
        while self.outstanding.is_none() {
            let CrashPhase::Flushing { addr } = self.phase else { break };
            if addr as usize >= self.node.lines.len() {
                self.phase = CrashPhase::Done;
                self.node.fault.stats.crashes_completed += 1;
                progressed = true;
                break;
            }
            match self.node.dispatch(addr, Event::Access(Access::Replacement), None) {
                Dispatch::Applied => {
                    if self.node.outcome.performed.is_none() {
                        self.node.fault.stats.recovery_writebacks += 1;
                        self.outstanding = Some((addr, Instant::now()));
                    }
                }
                // Nothing to evacuate (the block is already invalid).
                Dispatch::NoArc => {}
                // A blocking chain holds this block, or output
                // backpressure: retry next pass.
                Dispatch::Blocked => break,
                Dispatch::Failed(e) => {
                    self.node.sh.fail(ServeError::Exec(format!(
                        "{} evacuating block {addr} during crash recovery: {e}",
                        self.node.who
                    )));
                    break;
                }
            }
            progressed = true;
            self.phase = CrashPhase::Flushing { addr: addr + 1 };
        }
        progressed
    }

    fn run(mut self) -> WorkerOut {
        let sh = self.node.sh;
        while !sh.done.load(Ordering::SeqCst) {
            let outstanding = &mut self.outstanding;
            let flushing = matches!(self.phase, CrashPhase::Flushing { .. });
            let delivered = self.node.deliver_pass(|node, addr| {
                if node.outcome.performed.is_none() {
                    return;
                }
                if let Some((_, t0)) = outstanding.take_if(|o| o.0 == addr) {
                    // Evacuation transactions complete here too, but only
                    // demand misses count toward miss latency.
                    if !flushing {
                        node.out.miss_latency.record(t0.elapsed().as_nanos() as u64);
                    }
                }
            });
            let Some(mut progress) = delivered else { break };
            self.advance_crash();
            progress |= match self.phase {
                CrashPhase::Flushing { .. } => self.try_flush(),
                CrashPhase::Normal | CrashPhase::Done => self.try_issue(),
                CrashPhase::Draining => false,
            };
            if !self.declared_done
                && self.cursor == self.schedule.len()
                && self.outstanding.is_none()
                && (self.crash_at.is_none() || self.phase == CrashPhase::Done)
            {
                self.declared_done = true;
                sh.cores_done.fetch_add(1, Ordering::SeqCst);
            }
            if !self.node.end_pass(progress) {
                break;
            }
        }
        self.node.finish(self.outstanding.map(|(addr, _)| addr))
    }
}

/// The deadline report, built after every worker has exited (so the
/// counters are final): the in-flight count Σsent − Σreceived, cores
/// done, then one line per worker with what it held.
fn deadline_detail(sh: &Shared, why: &str, outs: &[WorkerOut]) -> String {
    let mut detail = format!(
        "{why} ({} message(s) still in flight, {}/{} cores done issuing)",
        sh.sent().sum::<u64>() - sh.received().sum::<u64>(),
        sh.cores_done.load(Ordering::SeqCst),
        sh.n_caches
    );
    for out in outs {
        detail.push_str("\n  ");
        detail.push_str(&out.held);
    }
    detail
}

/// Runs a worker body under a panic guard: a panicking worker becomes
/// [`ServeError::WorkerPanic`] — failing the run and releasing every
/// other thread — instead of tearing down the whole scope.
fn supervise(sh: &Shared, worker: String, body: impl FnOnce() -> WorkerOut) -> Option<WorkerOut> {
    // AssertUnwindSafe: everything the body shares is atomics, the rings
    // (whose per-slot publication protocol a mid-push unwind cannot
    // corrupt for *other* slots — the run is failed anyway), and the
    // failure mutex, whose poisoning `fail` recovers from. Worker-local
    // state dies with the worker.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(out) => Some(out),
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "opaque panic payload".to_string()
            };
            sh.fail(ServeError::WorkerPanic { worker, message });
            None
        }
    }
}

/// Runs the service to quiescence and reports what it measured.
///
/// `cache`/`dir` are the generated FSMs to execute (the very ones the
/// model checker verified); see [`ServeConfig`] for the knobs.
///
/// # Errors
///
/// [`ServeError::Config`] for rejected configurations, and the
/// violation-class errors ([`ServeError::UnexpectedMessage`],
/// [`ServeError::Exec`], [`ServeError::Deadline`]) when the live run
/// breaks — all of which the `protogen serve` CLI turns into a non-zero
/// exit.
pub fn serve(cache: &Fsm, dir: &Fsm, cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    cfg.validate()?;
    let per_core = cfg.total_ops.div_ceil(cfg.n_caches);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schedules = cfg
        .workload
        .schedules(cfg.n_caches, cfg.n_addrs, per_core, &mut rng)
        .map_err(|e| ServeError::Config(e.to_string()))?;
    // Every worker's lines, allocated before any worker starts: a block
    // count beyond memory is a refused configuration, not an abort.
    let cache_lines = (0..cfg.n_caches)
        .map(|_| block_table(CacheBlock::new(), cfg.n_addrs))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ServeError::Config)?;
    let shard_lines = (0..cfg.dir_shards)
        .map(|_| block_table(DirEntry::new(0), cfg.n_addrs))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ServeError::Config)?;

    let nodes = cfg.n_caches + cfg.dir_shards;
    let sh = Shared {
        cache: Machine::new(cache),
        dir: Machine::new(dir),
        fabric: Fabric::new(nodes, cfg.mailbox_cap),
        n_caches: cfg.n_caches,
        dir_shards: cfg.dir_shards,
        traffic: (0..nodes).map(|_| OwnLine::default()).collect(),
        cores_done: AtomicUsize::new(0),
        done: AtomicBool::new(false),
        failure: Mutex::new(None),
        deadline: Instant::now() + Duration::from_secs_f64(cfg.max_seconds),
        faults: cfg.faults.as_ref(),
        mailbox_cap: cfg.mailbox_cap,
    };

    let start = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nodes);
        for (id, (schedule, lines)) in schedules.into_iter().zip(cache_lines).enumerate() {
            let sh = &sh;
            handles.push(scope.spawn(move || {
                supervise(sh, sh.name(id), move || CacheWorker::new(sh, id, schedule, lines).run())
            }));
        }
        for (shard, lines) in shard_lines.into_iter().enumerate() {
            let (sh, topo) = (&sh, cfg.n_caches + shard);
            handles.push(scope.spawn(move || {
                supervise(sh, sh.name(topo), move || run_dir_shard(Node::new(sh, topo, lines)))
            }));
        }
        // `supervise` converts worker panics into a recorded failure, so
        // the joins themselves cannot fail.
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("supervise contains all panics"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();

    // A deadline is a *timeout with partial measurements*, not a protocol
    // failure: report what was measured and who held what, marked
    // `StopReason::Deadline` (the CLI still exits non-zero).
    let stop_detail = match sh.failure.lock().unwrap_or_else(|p| p.into_inner()).take() {
        Some(ServeError::Deadline(why)) => Some(deadline_detail(&sh, &why, &outs)),
        Some(e) => return Err(e),
        None => None,
    };
    // Quiescence that fired must be true: with every worker gone, nothing
    // is counted sent but not received.
    assert!(
        stop_detail.is_some() || sweeps_agree(sh.received(), sh.sent()),
        "quiescence fired with messages in flight"
    );

    // Caches `0..crashes` crash: never more than there are caches.
    let mut fault_stats = sh.faults.map(|f| FaultStats {
        planned_crashes: f.crashes.min(cfg.n_caches) as u64,
        ..Default::default()
    });
    let mut report = ServeReport {
        n_caches: cfg.n_caches,
        dir_shards: cfg.dir_shards,
        n_addrs: cfg.n_addrs,
        ops: 0,
        hits: 0,
        misses: 0,
        messages: sh.received().sum(),
        seconds,
        miss_latency: Histogram::new(),
        peak_queue_depths: Vec::with_capacity(nodes),
        coverage: Coverage::merge(outs.iter().map(|out| &out.coverage)),
        stop_reason: StopReason::Quiesced,
        stop_detail: None,
        faults: None,
    };
    for out in &outs {
        report.miss_latency.merge(&out.miss_latency);
        report.hits += out.hits;
        report.misses += out.misses;
        report.peak_queue_depths.push(out.peak_queue_depth);
        if let Some(fs) = &mut fault_stats {
            fs.absorb(&out.fault);
        }
    }
    report.ops = report.hits + report.misses;
    report.stop_reason = if stop_detail.is_some() {
        StopReason::Deadline
    } else if fault_stats.is_some_and(|fs| fs.crashes_completed < fs.planned_crashes) {
        // Quiesced, but the fault plan never finished (e.g. an explicit
        // crash point past the schedule end): the experiment is
        // inconclusive, which callers must be able to see.
        StopReason::Fault
    } else {
        StopReason::Quiesced
    };
    report.stop_detail = stop_detail;
    report.faults = fault_stats;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// One sweep over `counters`, in order; `before` runs as the sweep starts.
    fn sweep<'a>(
        counters: &'a [Cell<u64>],
        before: impl FnOnce() + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        let mut before = Some(before);
        counters.iter().map(move |c| {
            if let Some(step) = before.take() {
                step();
            }
            c.get()
        })
    }

    /// The two-sweep rule on hand-built snapshots. Worker `a` has sent one
    /// message that `b` has not applied yet; between the two sweeps `b`
    /// applies it and forwards a follow-up (`sent[b]` before `received[b]`,
    /// as `step_msg` does). Received-first sees 0 ≠ 2. Sent-first would see
    /// 1 = 1 with the follow-up still in flight — which is why the order is
    /// part of the rule.
    #[test]
    fn sweeps_must_read_received_before_sent() {
        let (sent, received) = ([Cell::new(1), Cell::new(0)], [Cell::new(0), Cell::new(0)]);
        let b_applies_and_forwards = || {
            sent[1].set(1);
            received[1].set(1);
        };
        let b_rewinds = || {
            sent[1].set(0);
            received[1].set(0);
        };
        assert!(!sweeps_agree(sweep(&received, || ()), sweep(&sent, b_applies_and_forwards)));
        b_rewinds();
        assert!(
            sweeps_agree(sweep(&sent, || ()), sweep(&received, b_applies_and_forwards)),
            "sent-first is fooled: equal sums, one message in flight"
        );
        // Nothing moving: in flight is refused, drained is accepted.
        b_rewinds();
        assert!(!sweeps_agree(sweep(&received, || ()), sweep(&sent, || ())));
        b_applies_and_forwards();
        received[0].set(1);
        assert!(sweeps_agree(sweep(&received, || ()), sweep(&sent, || ())));
    }
}
