//! The multi-address litmus machine: a generated protocol's FSMs driven
//! over several blocks at once, as a [`TransitionSystem`] for the model
//! checker's explorer (the search `verify` runs, here without symmetry).
//!
//! One cache per litmus thread plus one directory hold an FSM instance per
//! location (coherence is specified per block, §IV-A of the paper), so
//! each location is one flat subnet: its blocks, its directory entry and a
//! FIFO per `(src, dst)` pair. On an ordered network each FIFO's head is
//! deliverable, on an unordered one every message is. Cores are in-order
//! and blocking; a load that hits returns the local copy — possibly stale,
//! which is what the harness observes.
//!
//! A run starts *warmed up* (every thread loaded every location once, so
//! every cache holds a value-0 copy that self-invalidation can decay).
//! Its steps are program issues, deliveries, self-invalidations
//! (`ArcNote::SelfInv`, whole-cache under `si_epoch`) and self-downgrades
//! (`ArcNote::SelfDown`); demand evictions never fire. A terminal state
//! (every operation performed, network drained) has no step: each worker
//! records the registers of the terminal states it steps into, merged
//! when the run ends. Any other state without an enabled step is a
//! deadlock.

use crate::test::{LitmusTest, Op, Val};
use protogen_core::Generated;
use protogen_mc::{
    explore_system, fingerprint_bytes, put_block, put_dir, put_queue, Decoder, McConfig,
    SectionMap, TransitionSystem, ViolationKind,
};
use protogen_runtime::{
    ApplyOutcome, CacheBlock, Coverage, DirEntry, Line, Machine, Msg, NodeId, Selected, Slot,
};
use protogen_spec::{Access, Arc, ArcNote, Event, Fsm, Ssp};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// The default bound on the states one `(protocol, test)` run may visit
/// (the CLI's `--depth`).
pub const MAX_STATES: usize = 2_000_000;

/// Failures while driving a protocol through a litmus test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LitmusError {
    /// A warm-up load had no arc, or its traffic did not drain.
    Warmup(String),
    /// The explorer stopped on a deadlock, a message its receiver has no
    /// transition for, or an execution error.
    Violation {
        /// What went wrong.
        kind: ViolationKind,
        /// The counterexample: one line per step from the warmed-up state.
        trace: Vec<String>,
    },
    /// The state space exceeded the `max_states` bound.
    StateLimit {
        /// The configured bound.
        limit: usize,
    },
}

impl fmt::Display for LitmusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LitmusError::Warmup(detail) => write!(f, "warm-up failed: {detail}"),
            LitmusError::Violation { kind, trace } => {
                write!(f, "{kind}; trace from the warmed-up state:")?;
                trace.iter().try_for_each(|line| write!(f, "\n  {line}"))
            }
            LitmusError::StateLimit { limit } => {
                write!(f, "state space exceeded {limit} states (raise --depth)")
            }
        }
    }
}

impl Error for LitmusError {}

/// Every outcome (register tuple) `test` can produce under the protocol
/// `ssp` generated as `generated`, explored by `threads` workers (0: every
/// core), and the number of states explored.
///
/// # Errors
///
/// A [`LitmusError`] if the warm-up fails, the explorer finds a violation,
/// or the run passes `max_states` states.
pub fn outcomes(
    ssp: &Ssp,
    generated: &Generated,
    test: &LitmusTest,
    max_states: usize,
    threads: usize,
) -> Result<(BTreeSet<Vec<Val>>, usize), LitmusError> {
    let cfg = McConfig { max_states, threads, ..McConfig::default() };
    let mut run = Run::new(ssp, generated, test, cfg);
    run.warmup()?;
    let (result, scratches) = explore_system(&run);
    if let Some(v) = result.violation {
        return Err(LitmusError::Violation { kind: v.kind, trace: v.trace });
    }
    if result.limit.is_some() {
        return Err(LitmusError::StateLimit { limit: max_states });
    }
    let mut outcomes: BTreeSet<_> = scratches.into_iter().flat_map(|s| s.outcomes).collect();
    if run.terminal(&run.init) {
        outcomes.insert(run.init.prog[2 * run.n_threads..].to_vec());
    }
    Ok((outcomes, result.states))
}

/// One litmus machine state.
#[derive(Debug, Clone, Default)]
struct MState {
    /// `caches[t * n_addrs + a]` — thread `t`'s block for location `a`.
    caches: Vec<CacheBlock>,
    /// `dirs[a]` — the directory entry for location `a`.
    dirs: Vec<DirEntry>,
    /// `chans[(src * n_nodes + dst) * n_addrs + a]` — location `a`'s FIFO
    /// from `src` to `dst`.
    chans: Vec<Vec<Msg>>,
    /// The program state as its own encoding (the ghost section): every
    /// thread's next operation, then whether it issued but has not
    /// performed, then the registers.
    prog: Vec<u8>,
}

impl MState {
    /// `src`, copied into this state's allocations (`clone_from` reallocates).
    fn copy_from(&mut self, src: &MState) {
        self.caches.clone_from(&src.caches);
        self.dirs.clone_from(&src.dirs);
        self.chans.clone_from(&src.chans);
        self.prog.clone_from(&src.prog);
    }
}

/// One step of a run; `steps_into` lists the variants in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The thread issues its next program operation.
    Issue { thread: u8 },
    /// Delivers position `idx` of `chans[q]`.
    Deliver { q: u16, idx: u8 },
    /// The thread's line for `addr` self-invalidates (`down` unset) or
    /// self-downgrades; at [`EPOCH`], every line self-invalidates at once.
    Decay { down: bool, thread: u8, addr: u8 },
}

/// The `addr` of a whole-cache self-invalidation (`Ssp::si_epoch`).
const EPOCH: u8 = u8::MAX;

/// A worker's scratch: the apply outcome, the encoding buffer, and the
/// registers of the terminal states it stepped into.
#[derive(Debug, Default)]
struct Scratch {
    outcome: ApplyOutcome,
    enc: Vec<u8>,
    outcomes: BTreeSet<Vec<Val>>,
}

/// One `(protocol, test)` run: the system the explorer searches.
struct Run<'a> {
    ssp: &'a Ssp,
    cache: Machine<&'a Fsm>,
    dir: Machine<&'a Fsm>,
    test: &'a LitmusTest,
    cfg: McConfig,
    /// The warmed-up state the search starts from.
    init: MState,
    n_threads: usize,
    n_addrs: usize,
    dir_id: NodeId,
}

impl<'a> Run<'a> {
    /// The cold run of `test` on `ssp`'s machines under `cfg`.
    fn new(ssp: &'a Ssp, g: &'a Generated, test: &'a LitmusTest, cfg: McConfig) -> Self {
        let (n_threads, n_addrs) = (test.threads.len(), test.addrs.len());
        let init = MState {
            caches: vec![CacheBlock::new(); n_threads * n_addrs],
            dirs: vec![DirEntry::new(0); n_addrs],
            chans: vec![Vec::new(); (n_threads + 1).pow(2) * n_addrs],
            prog: vec![0; 2 * n_threads + test.registers.len()],
        };
        let (cache, dir) = (Machine::new(&g.cache), Machine::new(&g.directory));
        let dir_id = NodeId(n_threads as u8);
        Run { ssp, cache, dir, test, cfg, init, n_threads, n_addrs, dir_id }
    }

    fn block_idx(&self, t: usize, addr: u8) -> usize {
        t * self.n_addrs + addr as usize
    }

    /// Thread `t`'s next operation, unless one is in flight or none is left.
    fn next_op(&self, st: &MState, t: usize) -> Option<Op> {
        let in_flight = st.prog[self.n_threads + t] != 0;
        self.test.threads[t].get(st.prog[t] as usize).copied().filter(|_| !in_flight)
    }

    fn terminal(&self, st: &MState) -> bool {
        let n = self.n_threads;
        (0..n).all(|t| st.prog[n + t] == 0 && st.prog[t] as usize == self.test.threads[t].len())
            && st.chans.iter().all(Vec::is_empty)
    }

    /// The controller `node` runs and its line for location `addr`.
    fn line<'s>(&self, st: &'s MState, node: NodeId, addr: u8) -> (&Machine<&'a Fsm>, Slot<'s>) {
        if node == self.dir_id {
            (&self.dir, st.dirs[addr as usize].slot())
        } else {
            (&self.cache, st.caches[self.block_idx(node.as_usize(), addr)].slot())
        }
    }

    /// Applies `arc` to `node`'s line for `addr`, routes its sends, and
    /// returns what was performed.
    fn apply(
        &self,
        st: &mut MState,
        (node, addr): (NodeId, u8),
        arc: &Arc,
        msg: Option<&Msg>,
        store_value: Val,
        out: &mut ApplyOutcome,
    ) -> Result<Option<(Access, Option<Val>)>, ViolationKind> {
        let (machine, ctx) = if node == self.dir_id {
            (&self.dir, st.dirs[addr as usize].ctx(node, node))
        } else {
            let block = &mut st.caches[self.block_idx(node.as_usize(), addr)];
            (&self.cache, block.ctx(node, self.dir_id))
        };
        let applied = machine.apply(arc, msg, ctx, store_value, out);
        applied.map_err(|e| ViolationKind::Exec(e.to_string()))?;
        for &m in &out.outgoing {
            let link = m.src.as_usize() * (self.n_threads + 1) + m.dst.as_usize();
            st.chans[link * self.n_addrs + addr as usize].push(m);
        }
        Ok(out.performed)
    }

    /// Thread `t`'s operation `op` performed with `value`: a load fills its
    /// register, and the thread moves on.
    fn complete(&self, st: &mut MState, t: usize, op: Op, value: Option<Val>) {
        if let Op::Load { reg, .. } = op {
            let value = value.expect("a performed load returns a value");
            st.prog[2 * self.n_threads + reg as usize] = value;
        }
        st.prog[t] += 1;
        st.prog[self.n_threads + t] = 0;
    }

    /// The deliverable positions: every queue's head on an ordered
    /// network, every message on an unordered one.
    fn deliveries(&self, st: &MState, out: &mut Vec<Step>) {
        for (q, chan) in st.chans.iter().enumerate() {
            let last = if self.ssp.network_ordered { chan.len().min(1) } else { chan.len() };
            out.extend((0..last as u8).map(|idx| Step::Deliver { q: q as u16, idx }));
        }
    }

    /// Warms `init` up: each thread loads each location once, run to
    /// quiescence with the first deliverable message going first.
    fn warmup(&mut self) -> Result<(), LitmusError> {
        let mut st = std::mem::take(&mut self.init);
        let (mut next, mut scratch, mut steps) = (st.clone(), Scratch::default(), Vec::new());
        let fail = |kind: ViolationKind| LitmusError::Warmup(kind.to_string());
        for t in 0..self.n_threads {
            for a in 0..self.n_addrs as u8 {
                let block = &st.caches[self.block_idx(t, a)];
                let load = Event::Access(Access::Load);
                let Selected::Arc(arc) = self.cache.select(block.slot(), load, None) else {
                    let state = &self.cache.fsm().state(block.state).name;
                    return Err(LitmusError::Warmup(format!("a load stalls in {state}")));
                };
                let line = (NodeId(t as u8), a);
                self.apply(&mut st, line, arc, None, 0, &mut scratch.outcome).map_err(fail)?;
                for round in 0.. {
                    steps.clear();
                    self.deliveries(&st, &mut steps);
                    if steps.is_empty() {
                        break;
                    }
                    let mut deliver =
                        steps.iter().map(|&s| self.successor_into(&st, s, &mut next, &mut scratch));
                    let delivered = deliver.find(|r| *r != Ok(false)).unwrap_or(Ok(false));
                    if !delivered.map_err(fail)? || round == 10_000 {
                        return Err(LitmusError::Warmup("the traffic does not drain".into()));
                    }
                    std::mem::swap(&mut st, &mut next);
                }
            }
        }
        self.init = st;
        Ok(())
    }
}

impl TransitionSystem for Run<'_> {
    type State = MState;
    type Step = Step;
    type Scratch = Scratch;

    fn config(&self) -> &McConfig {
        &self.cfg
    }

    fn identity_fp(&self) -> (u64, u64) {
        let (ssp, test, store) = (self.ssp, self.test, self.cfg.store);
        let desc = format!("litmus {test:?} {:?} {store:?}", (ssp.network_ordered, ssp.si_epoch));
        let fsms = format!("{:?}\x1f{:?}", self.cache.fsm(), self.dir.fsm());
        (fingerprint_bytes(desc.as_bytes()), fingerprint_bytes(fsms.as_bytes()))
    }

    /// Each location is one flat subnet of `n_threads` caches; the program
    /// state is the ghost section.
    fn section_map(&self) -> SectionMap {
        let caches = self.n_threads * self.n_addrs;
        SectionMap::leveled(&[caches], &[(self.n_addrs, self.n_threads)], self.init.prog.len())
    }

    fn initial(&self) -> MState {
        self.init.clone()
    }

    fn scratch(&self) -> Scratch {
        Scratch::default()
    }

    fn steps_into(&self, st: &MState, out: &mut Vec<Step>) {
        out.clear();
        if self.terminal(st) {
            return;
        }
        let threads = 0..self.n_threads as u8;
        let idle = threads.clone().filter(|&t| self.next_op(st, t.into()).is_some());
        out.extend(idle.map(|thread| Step::Issue { thread }));
        self.deliveries(st, out);
        for down in [false, true] {
            for thread in threads.clone() {
                let decay = |addr| Step::Decay { down, thread, addr };
                if self.ssp.si_epoch && !down {
                    out.push(decay(EPOCH));
                } else {
                    out.extend((0..self.n_addrs as u8).map(decay));
                }
            }
        }
    }

    /// Copies the parent into `succ`'s own allocations once the step is
    /// known to be enabled, and records `succ`'s registers when it is
    /// terminal.
    fn successor_into(
        &self,
        st: &MState,
        step: Step,
        succ: &mut MState,
        scratch: &mut Scratch,
    ) -> Result<bool, ViolationKind> {
        let out = &mut scratch.outcome;
        match step {
            Step::Issue { thread } => {
                let t = thread as usize;
                let Some(op) = self.next_op(st, t) else {
                    return Ok(false);
                };
                let (addr, access, value) = match op {
                    Op::Load { addr, .. } => (addr, Access::Load, 0),
                    Op::Store { addr, val } => (addr, Access::Store, val),
                };
                let block = &st.caches[self.block_idx(t, addr)];
                let event = Event::Access(access);
                let Selected::Arc(arc) = self.cache.select(block.slot(), event, None) else {
                    return Ok(false);
                };
                let had_pending = block.pending.is_some();
                succ.copy_from(st);
                match self.apply(succ, (NodeId(thread), addr), arc, None, value, out)? {
                    Some((_, value)) => self.complete(succ, t, op, value),
                    // A transaction would stack on a block that already has
                    // one pending (e.g. an unacknowledged self-downgrade):
                    // retry after it completes.
                    None if had_pending => return Ok(false),
                    None => succ.prog[self.n_threads + t] = 1,
                }
            }
            Step::Deliver { q, idx } => {
                let msg = st.chans[q as usize][idx as usize];
                let addr = (q as usize % self.n_addrs) as u8;
                let (machine, slot) = self.line(st, msg.dst, addr);
                let arc = match machine.select(slot, Event::Msg(msg.mtype), Some(&msg)) {
                    Selected::Arc(arc) => arc,
                    Selected::Stall => return Ok(false),
                    Selected::None => {
                        let who = if msg.dst == self.dir_id { "directory" } else { "cache" };
                        let who =
                            format!("{who} {} for {}", msg.dst, self.test.addrs[addr as usize]);
                        let msg = format!("{} {msg}", machine.fsm().msg(msg.mtype).name);
                        let detail = machine.unexpected(who, slot, msg);
                        return Err(ViolationKind::UnexpectedMessage(detail));
                    }
                };
                // The thread whose operation this delivery may complete (the
                // directory has no program); a store to this location
                // performs with its value.
                let t = msg.dst.as_usize();
                let in_flight = (t < self.n_threads && st.prog[self.n_threads + t] != 0)
                    .then(|| self.test.threads[t][st.prog[t] as usize]);
                let value = match in_flight {
                    Some(Op::Store { addr: a, val }) if a == addr => val,
                    _ => 0,
                };
                succ.copy_from(st);
                succ.chans[q as usize].remove(idx as usize);
                let line = (msg.dst, addr);
                // A performed Load/Store completes the thread's operation; a
                // performed Replacement (a self-downgrade or writeback
                // finishing) is not a program event.
                if let (Some(op), Some((Access::Load | Access::Store, value))) =
                    (in_flight, self.apply(succ, line, arc, Some(&msg), value, out)?)
                {
                    self.complete(succ, t, op, value);
                }
            }
            Step::Decay { down, thread, addr } => {
                let note = if down { ArcNote::SelfDown } else { ArcNote::SelfInv };
                let lines = if addr == EPOCH { 0..self.n_addrs as u8 } else { addr..addr + 1 };
                let mut fired = false;
                // Lines are independent: each arc is selected on the parent.
                for a in lines {
                    let block = &st.caches[self.block_idx(thread.into(), a)];
                    let replace = Event::Access(Access::Replacement);
                    let arc = match self.cache.select(block.slot(), replace, None) {
                        Selected::Arc(arc) if arc.note == note && block.pending.is_none() => arc,
                        _ => continue,
                    };
                    if !std::mem::replace(&mut fired, true) {
                        succ.copy_from(st);
                    }
                    self.apply(succ, (NodeId(thread), a), arc, None, 0, out)?;
                }
                if !fired {
                    return Ok(false);
                }
            }
        }
        let regs = &succ.prog[2 * self.n_threads..];
        if self.terminal(succ) && !scratch.outcomes.contains(regs) {
            scratch.outcomes.insert(regs.to_vec());
        }
        Ok(true)
    }

    fn is_progress(&self, _: &MState, _: Step) -> bool {
        true
    }

    fn check_state(&self, _: &MState) -> Option<ViolationKind> {
        None
    }

    fn check_quiescence(&self, st: &MState) -> Option<ViolationKind> {
        (!self.terminal(st)).then_some(ViolationKind::Deadlock)
    }

    /// No symmetry: the canonical encoding is the state's own, written by
    /// the model checker's section codecs.
    fn canonical_fp(&self, st: &MState, scratch: &mut Scratch) -> u64 {
        let (out, same) = (&mut scratch.enc, |id: NodeId| id.0);
        out.clear();
        st.caches.iter().for_each(|c| put_block(out, c, same));
        st.dirs.iter().for_each(|d| put_dir(out, d, d.sharers, same));
        st.chans.iter().for_each(|q| put_queue(out, q, same));
        out.extend_from_slice(&st.prog);
        fingerprint_bytes(out)
    }

    fn canonical_bytes<'s>(&self, scratch: &'s Scratch) -> &'s [u8] {
        &scratch.enc
    }

    fn decode_into(&self, bytes: &[u8], st: &mut MState, _: &mut Scratch) {
        let mut d = Decoder::new(bytes);
        st.caches.iter_mut().for_each(|c| d.block(c));
        st.dirs.iter_mut().for_each(|e| d.dir(e));
        st.chans.iter_mut().for_each(|q| d.queue(q));
        let prog = d.ghost_section(st.prog.len());
        st.prog.copy_from_slice(prog);
    }

    fn coverage(_: &Scratch) -> &[Coverage] {
        &[]
    }

    /// The variant in the top byte, then the fields in listing order.
    fn pack_step(step: Step) -> u32 {
        match step {
            Step::Issue { thread } => thread.into(),
            Step::Deliver { q, idx } => 1 << 24 | u32::from(q) << 8 | u32::from(idx),
            Step::Decay { down, thread, addr } => {
                (2 + u32::from(down)) << 24 | u32::from(thread) << 8 | u32::from(addr)
            }
        }
    }

    fn unpack_step(packed: u32) -> Step {
        let (kind, mid, low) = (packed >> 24, (packed >> 8) as u16, packed as u8);
        match kind {
            0 => Step::Issue { thread: low },
            1 => Step::Deliver { q: mid, idx: low },
            _ => Step::Decay { down: kind == 3, thread: mid as u8, addr: low },
        }
    }

    /// `<node>[<its line's state>] <what>`: a program step reads as its litmus
    /// statement (`n0[S] x = 1`), a delivery names the message.
    fn describe(&self, st: &MState, step: Step) -> String {
        let (regs, loc) = (&self.test.registers, |a: u8| &self.test.addrs[a as usize]);
        let (node, addr, what) = match step {
            Step::Issue { thread } => {
                let t = thread as usize;
                let (addr, stmt) = match self.test.threads[t][st.prog[t] as usize] {
                    Op::Load { addr, reg } => {
                        (addr, format!("{} = {}", regs[reg as usize], loc(addr)))
                    }
                    Op::Store { addr, val } => (addr, format!("{} = {val}", loc(addr))),
                };
                (NodeId(thread), addr, stmt)
            }
            Step::Deliver { q, idx } => {
                let msg = st.chans[q as usize][idx as usize];
                let addr = (q as usize % self.n_addrs) as u8;
                let name = &self.cache.fsm().msg(msg.mtype).name;
                (msg.dst, addr, format!("receives {name} {msg} for {}", loc(addr)))
            }
            Step::Decay { thread, addr: EPOCH, .. } => {
                return format!("{} self-invalidates every line", NodeId(thread));
            }
            Step::Decay { down, thread, addr } => {
                let verb = if down { "self-downgrades" } else { "self-invalidates" };
                (NodeId(thread), addr, format!("{verb} {}", loc(addr)))
            }
        };
        let (machine, slot) = self.line(st, node, addr);
        let state = machine.fsm().state(slot.state()).full_name();
        let who = if node == self.dir_id { "dir".to_string() } else { node.to_string() };
        format!("{who}[{state}] {what}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{sc_outcomes, tso_outcomes};
    use crate::test::{bundled, parse_litmus, MP, SB};
    use protogen_core::{generate, GenConfig};

    fn harness_outcomes(ssp: &Ssp, src: &str) -> BTreeSet<Vec<Val>> {
        let g = generate(ssp, &GenConfig::default()).unwrap();
        outcomes(ssp, &g, &parse_litmus(src).unwrap(), MAX_STATES, 1).unwrap().0
    }

    #[test]
    fn msi_sb_stays_sequentially_consistent() {
        let ssp = protogen_protocols::msi();
        let outs = harness_outcomes(&ssp, SB);
        let sc = sc_outcomes(&parse_litmus(SB).unwrap());
        assert!(outs.is_subset(&sc), "MSI SB produced non-SC outcomes: {outs:?}");
        assert!(!outs.contains(&vec![0, 0]));
    }

    #[test]
    fn tso_cc_sb_shows_the_store_buffering_relaxation() {
        let ssp = protogen_protocols::tso_cc();
        let outs = harness_outcomes(&ssp, SB);
        assert!(outs.contains(&vec![0, 0]), "stale shared hits must allow (0,0): {outs:?}");
        let tso = tso_outcomes(&parse_litmus(SB).unwrap());
        assert!(outs.is_subset(&tso));
    }

    #[test]
    fn si_sd_mp_is_weaker_than_tso() {
        let ssp = protogen_protocols::si_sd();
        let outs = harness_outcomes(&ssp, MP);
        let tso = tso_outcomes(&parse_litmus(MP).unwrap());
        assert!(
            outs.contains(&vec![1, 0]),
            "per-line self-invalidation must break message passing: {outs:?}"
        );
        assert!(!tso.contains(&vec![1, 0]));
    }

    /// The search is exhaustive, so neither the worker count nor which
    /// worker reaches a state first may change the outcome set or the
    /// number of states.
    #[test]
    fn exploration_order_does_not_change_outcomes() {
        for ssp in [protogen_protocols::msi(), protogen_protocols::si_sd()] {
            let g = generate(&ssp, &GenConfig::default()).unwrap();
            let test = parse_litmus(SB).unwrap();
            let base = outcomes(&ssp, &g, &test, MAX_STATES, 1).unwrap();
            for threads in [2, 3, 4] {
                let alt = outcomes(&ssp, &g, &test, MAX_STATES, threads).unwrap();
                assert_eq!(base, alt, "{}: {threads} workers changed the run", ssp.name);
            }
        }
    }

    #[test]
    fn state_limit_fails_loudly() {
        let ssp = protogen_protocols::msi();
        let g = generate(&ssp, &GenConfig::default()).unwrap();
        let test = bundled().remove(3); // IRIW, the largest bundled space
        let err = outcomes(&ssp, &g, &test, 10, 1).unwrap_err();
        assert!(matches!(err, LitmusError::StateLimit { limit: 10 }));
    }

    /// MSI with the directory's reaction to `GetM` in `S` dropped: a store
    /// to a shared line reaches the directory with no arc to take. The
    /// failure names the message and carries the explorer's trace from
    /// the warmed-up state, ending in the failing delivery.
    #[test]
    fn an_incomplete_directory_fails_with_the_explorers_trace() {
        let ssp = protogen_protocols::msi();
        let mut g = generate(&ssp, &GenConfig::default()).unwrap();
        let dir = &mut g.directory;
        let dropped =
            (dir.state_by_name("S").unwrap(), Event::Msg(dir.msg_by_name("GetM").unwrap()));
        let before = dir.arcs.len();
        dir.arcs.retain(|arc| (arc.from, arc.event) != dropped);
        assert!(dir.arcs.len() < before, "MSI's directory reacts to GetM in S");
        let err = outcomes(&ssp, &g, &parse_litmus(SB).unwrap(), MAX_STATES, 2).unwrap_err();
        let msg = "GetM m1[n0→n2 req=n0]";
        let detail = format!("{msg} at directory n2 for x in S");
        let LitmusError::Violation { kind, trace } = &err else {
            panic!("expected the explorer's violation, got {err}");
        };
        assert_eq!(kind, &ViolationKind::UnexpectedMessage(detail.clone()));
        let failing = format!("dir[S] receives {msg} for x => unexpected message: {detail}");
        assert_eq!(trace, &["n0[S] x = 1".to_string(), failing]);
        assert_eq!(
            err.to_string(),
            format!(
                "unexpected message: {detail}; trace from the warmed-up state:\n  {}",
                trace.join("\n  ")
            )
        );
    }

    /// Every reachable encoding decodes and re-encodes to itself, and a
    /// delta between any two reachable encodings under the run's section
    /// map rebuilds its target (`protogen_mc`'s `delta_prop`, for the
    /// litmus layout with its multi-byte ghost section).
    #[test]
    fn reachable_encodings_round_trip_through_decode_and_delta() {
        for ssp in [protogen_protocols::msi(), protogen_protocols::si_sd()] {
            let g = generate(&ssp, &GenConfig::default()).unwrap();
            for test in bundled() {
                let mut run = Run::new(&ssp, &g, &test, McConfig::default());
                run.warmup().unwrap();
                let encs = protogen_mc::reference_bfs(&run, 300).0;
                assert!(encs.len() > 20, "{}: {} states", test.name, encs.len());
                let (map, mut scratch, mut st) = (run.section_map(), run.scratch(), run.initial());
                for (i, enc) in encs.iter().enumerate() {
                    run.decode_into(enc, &mut st, &mut scratch);
                    run.canonical_fp(&st, &mut scratch);
                    assert_eq!(run.canonical_bytes(&scratch), &enc[..], "{}: #{i}", test.name);
                    for base in [&encs[0], &encs[i.saturating_sub(1)], &encs[i * 7 % encs.len()]] {
                        let (mut delta, mut rebuilt) = (Vec::new(), Vec::new());
                        let dlen = map.encode_delta(base, enc, &mut delta);
                        assert_eq!(dlen, delta.len());
                        map.apply_delta(base, &delta, &mut rebuilt);
                        assert_eq!(&rebuilt, enc, "{}: delta to #{i}", test.name);
                    }
                }
            }
        }
    }

    #[test]
    fn step_packing_round_trips_in_listing_order() {
        let steps = [
            Step::Issue { thread: 0 },
            Step::Issue { thread: 3 },
            Step::Deliver { q: 0, idx: 0 },
            Step::Deliver { q: 0, idx: 2 },
            Step::Deliver { q: 647, idx: 0 },
            Step::Decay { down: false, thread: 0, addr: 1 },
            Step::Decay { down: false, thread: 1, addr: EPOCH },
            Step::Decay { down: true, thread: 0, addr: 0 },
            Step::Decay { down: true, thread: 7, addr: 7 },
        ];
        for w in steps.windows(2) {
            assert!(Run::pack_step(w[0]) < Run::pack_step(w[1]), "{:?} !< {:?}", w[0], w[1]);
        }
        for s in steps {
            assert_eq!(Run::unpack_step(Run::pack_step(s)), s);
            assert_ne!(Run::pack_step(s), u32::MAX);
        }
    }
}
