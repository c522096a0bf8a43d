//! The multi-address litmus machine: a generated protocol's FSMs driven
//! over several blocks at once, as a [`TransitionSystem`] for the model
//! checker's explorer (the search `verify` runs, here without symmetry),
//! stepped by its subnet kernel ([`Kernel`]) like the flat and composed
//! checkers.
//!
//! One cache per litmus thread plus one directory hold an FSM instance per
//! location (coherence is specified per block, §IV-A of the paper), so
//! each location is one flat subnet: its blocks, its directory entry, a
//! FIFO per `(src, dst)` pair and a ghost byte (the value its last
//! performed store wrote). The program state lives outside the subnets.
//! On an ordered network each FIFO's head is deliverable, on an unordered
//! one every message is. Cores are in-order and blocking; a load that hits
//! returns the local copy — possibly stale, which is what the harness
//! observes, so the run checks no per-state property.
//!
//! A run starts *warmed up* (every thread loaded every location once, so
//! every cache holds a value-0 copy that self-invalidation can decay).
//! Its steps are program issues, deliveries, self-invalidations
//! (`ArcNote::SelfInv`, whole-cache under `si_epoch`) and self-downgrades
//! (`ArcNote::SelfDown`); demand evictions never fire. What litmus adds to
//! the kernel is its own: program order, the decay rules, and which value
//! a store writes. A terminal state (every operation performed, network
//! drained) has no step: each worker records the registers of the
//! terminal states it steps into, merged when the run ends. Any other
//! state without an enabled step is a deadlock.

use crate::test::{LitmusTest, Op, Val};
use protogen_core::Generated;
use protogen_mc::{
    explore_system, fingerprint_bytes, put_block, put_dir, put_queue, At, Decoder, Kernel,
    McConfig, Naming, PropertySet, SectionMap, StepScratch, Subnet, SubnetMut, Subnets, SysState,
    TransitionSystem, ViolationKind,
};
use protogen_runtime::{Coverage, Line, Machine, NodeId, Selected};
use protogen_spec::{Access, ArcNote, Event, Fsm, Ssp};
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
    run.init = run.warmup()?;
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

/// One litmus machine state: one flat subnet per location, then the
/// program state.
#[derive(Debug, Default, PartialEq)]
struct MState {
    /// `locs[a]` — location `a`'s subnet: thread `t`'s block for it at
    /// cache `t`, its directory entry, its FIFOs and its ghost byte.
    locs: Vec<SysState>,
    /// The program state (the rest of the ghost section): every thread's
    /// next operation, then whether it issued but has not performed, then
    /// the registers.
    prog: Vec<u8>,
}

impl Clone for MState {
    fn clone(&self) -> Self {
        MState { locs: self.locs.clone(), prog: self.prog.clone() }
    }

    /// Field-wise, so the subnets keep their allocations.
    fn clone_from(&mut self, src: &Self) {
        self.locs.clone_from(&src.locs);
        self.prog.clone_from(&src.prog);
    }
}

/// Location `a` is subnet `(0, a)`.
impl Subnets for MState {
    fn subnet(&self, (_, a): At) -> Subnet<'_> {
        self.locs[a].subnet((0, 0))
    }

    fn subnet_mut(&mut self, (_, a): At) -> SubnetMut<'_> {
        self.locs[a].subnet_mut((0, 0))
    }

    /// A step may start or complete its thread's operation.
    fn restore_outside(&mut self, from: &Self, _: At, _: usize) {
        self.prog.copy_from_slice(&from.prog);
    }
}

/// One step of a run; `steps_into` lists the variants in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The thread issues its next program operation.
    Issue { thread: u8 },
    /// Delivers position `idx` of queue `q` (numbered as [`Run::queue`]
    /// reads them).
    Deliver { q: u16, idx: u8 },
    /// The thread's line for `addr` self-invalidates (`down` unset) or
    /// self-downgrades; at [`EPOCH`], every line self-invalidates at once.
    Decay { down: bool, thread: u8, addr: u8 },
}

/// The `addr` of a whole-cache self-invalidation (`Ssp::si_epoch`).
const EPOCH: u8 = u8::MAX;

/// A worker's scratch: the kernel's stepping scratch (with the worker's
/// coverage recorders), the state an epoch step fires its lines in, the
/// encoding buffer, and the registers of the terminal states it stepped
/// into.
#[derive(Debug)]
struct Scratch {
    step: StepScratch,
    epoch: MState,
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
}

impl<'a> Run<'a> {
    /// The cold run of `test` on `ssp`'s machines under `cfg`, on `ssp`'s
    /// network and with no per-state property.
    fn new(ssp: &'a Ssp, g: &'a Generated, test: &'a LitmusTest, cfg: McConfig) -> Self {
        let (n_threads, n_addrs) = (test.threads.len(), test.addrs.len());
        let init = MState {
            locs: vec![SysState::initial(n_threads); n_addrs],
            prog: vec![0; 2 * n_threads + test.registers.len()],
        };
        let (cache, dir) = (Machine::new(&g.cache), Machine::new(&g.directory));
        let cfg = McConfig { ordered: ssp.network_ordered, properties: PropertySet::none(), ..cfg };
        Run { ssp, cache, dir, test, cfg, init, n_threads, n_addrs }
    }

    /// The subnet kernel over the protocol's machines, naming each subnet
    /// by its location.
    fn kernel(&self) -> Kernel<'_, &'a Fsm> {
        let naming = Naming::Locations(&self.test.addrs);
        Kernel { cache: &self.cache, dir: &self.dir, cfg: &self.cfg, naming }
    }

    /// Queue `q`'s location and `(src, dst)`: queues are numbered
    /// link-major, `(src · (n_threads + 1) + dst) · n_addrs + location`.
    fn queue(&self, q: u16) -> (usize, usize, usize) {
        let (link, nodes) = (q as usize / self.n_addrs, self.n_threads + 1);
        (q as usize % self.n_addrs, link / nodes, link % nodes)
    }

    /// Thread `t`'s next operation, unless one is in flight or none is left.
    fn next_op(&self, st: &MState, t: usize) -> Option<Op> {
        let in_flight = st.prog[self.n_threads + t] != 0;
        self.test.threads[t].get(st.prog[t] as usize).copied().filter(|_| !in_flight)
    }

    fn terminal(&self, st: &MState) -> bool {
        let n = self.n_threads;
        (0..n).all(|t| st.prog[n + t] == 0 && st.prog[t] as usize == self.test.threads[t].len())
            && st.locs.iter().all(|loc| loc.messages_in_flight() == 0)
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

    /// The warmed-up state: each thread loads each location once, run to
    /// quiescence with the first deliverable message going first.
    fn warmup(&self) -> Result<MState, LitmusError> {
        let (mut st, mut next, mut scratch) =
            (self.init.clone(), self.init.clone(), self.scratch());
        let (kernel, mut steps) = (self.kernel(), Vec::new());
        let fail = |kind: ViolationKind| LitmusError::Warmup(kind.to_string());
        for t in 0..self.n_threads {
            for a in 0..self.n_addrs {
                let load = (t, Access::Load);
                if !kernel
                    .issue(&st, (0, a), load, 0, &mut next, &mut scratch.step)
                    .map_err(fail)?
                {
                    let state = &self.cache.fsm().state(st.locs[a].caches[t].state).name;
                    return Err(LitmusError::Warmup(format!("a load stalls in {state}")));
                }
                // Each step's parent is a copy of its successor, so the
                // kernel's restore of what the step wrote stays exact.
                for round in 0.. {
                    st.clone_from(&next);
                    self.steps_into(&st, &mut steps);
                    steps.retain(|step| matches!(step, Step::Deliver { .. }));
                    if steps.is_empty() {
                        break;
                    }
                    let mut deliver =
                        steps.iter().map(|&s| self.successor_into(&st, s, &mut next, &mut scratch));
                    let delivered = deliver.find(|r| *r != Ok(false)).unwrap_or(Ok(false));
                    if !delivered.map_err(fail)? || round == 10_000 {
                        return Err(LitmusError::Warmup("the traffic does not drain".into()));
                    }
                }
            }
        }
        Ok(st)
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

    /// Each location is one flat subnet of `n_threads` caches; their ghost
    /// bytes and the program state are the ghost section.
    fn section_map(&self) -> SectionMap {
        let caches = self.n_threads * self.n_addrs;
        let ghost = self.n_addrs + self.init.prog.len();
        SectionMap::leveled(&[caches], &[(self.n_addrs, self.n_threads)], ghost)
    }

    fn initial(&self) -> MState {
        self.init.clone()
    }

    fn scratch(&self) -> Scratch {
        let step = StepScratch::new([(self.cache.fsm(), self.dir.fsm())]);
        Scratch { step, epoch: self.init.clone(), enc: Vec::new(), outcomes: BTreeSet::new() }
    }

    fn steps_into(&self, st: &MState, out: &mut Vec<Step>) {
        out.clear();
        if self.terminal(st) {
            return;
        }
        let threads = 0..self.n_threads as u8;
        let idle = threads.clone().filter(|&t| self.next_op(st, t.into()).is_some());
        out.extend(idle.map(|thread| Step::Issue { thread }));
        for q in 0..((self.n_threads + 1).pow(2) * self.n_addrs) as u16 {
            let (a, src, dst) = self.queue(q);
            let len = st.locs[a].channels[src][dst].len();
            let last = if self.cfg.ordered { len.min(1) } else { len };
            out.extend((0..last as u8).map(|idx| Step::Deliver { q, idx }));
        }
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

    /// One kernel step, with the program's bookkeeping around it, and
    /// records `succ`'s registers when it is terminal.
    fn successor_into(
        &self,
        st: &MState,
        step: Step,
        succ: &mut MState,
        scratch: &mut Scratch,
    ) -> Result<bool, ViolationKind> {
        let (kernel, stp) = (self.kernel(), &mut scratch.step);
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
                // A transaction would stack on a block that already has one
                // pending (e.g. an unacknowledged self-downgrade): the kernel
                // refuses it, and the thread retries after it completes.
                if !kernel.issue(st, (0, addr.into()), (t, access), value, succ, stp)? {
                    return Ok(false);
                }
                match stp.outcome.performed {
                    Some((_, value)) => self.complete(succ, t, op, value),
                    None => succ.prog[self.n_threads + t] = 1,
                }
            }
            Step::Deliver { q, idx } => {
                // The thread whose operation this delivery may complete (the
                // directory has no program); a store to this location
                // performs with its value.
                let (a, src, t) = self.queue(q);
                let in_flight = (t < self.n_threads && st.prog[self.n_threads + t] != 0)
                    .then(|| self.test.threads[t][st.prog[t] as usize]);
                let value = match in_flight {
                    Some(Op::Store { addr, val }) if usize::from(addr) == a => val,
                    _ => 0,
                };
                if !kernel.deliver(st, (0, a), (src, t, idx.into()), value, succ, stp)? {
                    return Ok(false);
                }
                // A performed Load/Store completes the thread's operation; a
                // performed Replacement (a self-downgrade or writeback
                // finishing) is not a program event.
                if let (Some(op), Some((Access::Load | Access::Store, value))) =
                    (in_flight, stp.outcome.performed)
                {
                    self.complete(succ, t, op, value);
                }
            }
            Step::Decay { down, thread, addr } => {
                let t = thread as usize;
                let note = if down { ArcNote::SelfDown } else { ArcNote::SelfInv };
                let lines =
                    if addr == EPOCH { 0..self.n_addrs } else { addr.into()..addr as usize + 1 };
                // Only an idle line decays, by an arc noted `note`.
                let mut lines = lines.filter(|&a| {
                    let block = &st.locs[a].caches[t];
                    let replace = Event::Access(Access::Replacement);
                    block.pending.is_none()
                        && matches!(self.cache.select(block.slot(), replace, None),
                            Selected::Arc(arc) if arc.note == note)
                });
                let Some(first) = lines.next() else {
                    return Ok(false);
                };
                // The filter saw the arc on an idle line, so the kernel fires it.
                let replace = (t, Access::Replacement);
                kernel.issue(st, (0, first), replace, 0, succ, stp)?;
                // An epoch fires every line. The kernel records one line's
                // write per step: each further line steps from a copy of
                // the successor, and the next step copies its parent whole.
                for a in lines {
                    scratch.epoch.clone_from(succ);
                    kernel.issue(&scratch.epoch, (0, a), replace, 0, succ, stp)?;
                    stp.unsync();
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
    /// the model checker's section codecs, location by location within
    /// each section kind.
    fn canonical_fp(&self, st: &MState, scratch: &mut Scratch) -> u64 {
        let (out, same) = (&mut scratch.enc, |id: NodeId| id.0);
        out.clear();
        st.locs.iter().flat_map(|l| &l.caches).for_each(|c| put_block(out, c, same));
        st.locs.iter().for_each(|l| put_dir(out, &l.dir, l.dir.sharers, same));
        // Per location: a flat map over the nested queues encodes about
        // a fifth slower.
        for l in &st.locs {
            l.channels.iter().flatten().for_each(|q| put_queue(out, q, same));
        }
        out.extend(st.locs.iter().map(|l| l.ghost));
        out.extend_from_slice(&st.prog);
        fingerprint_bytes(out)
    }

    fn canonical_bytes<'s>(&self, scratch: &'s Scratch) -> &'s [u8] {
        &scratch.enc
    }

    fn decode_into(&self, bytes: &[u8], st: &mut MState, scratch: &mut Scratch) {
        scratch.step.unsync();
        let mut d = Decoder::new(bytes);
        st.locs.iter_mut().flat_map(|l| &mut l.caches).for_each(|c| d.block(c));
        st.locs.iter_mut().for_each(|l| d.dir(&mut l.dir));
        for l in &mut st.locs {
            l.channels.iter_mut().flatten().for_each(|q| d.queue(q));
        }
        let (ghosts, prog) = d.ghost_section(self.n_addrs + st.prog.len()).split_at(self.n_addrs);
        st.locs.iter_mut().zip(ghosts).for_each(|(l, &g)| l.ghost = g);
        st.prog.copy_from_slice(prog);
    }

    fn coverage(scratch: &Scratch) -> &[Coverage] {
        &scratch.step.coverage
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
        let (regs, loc) = (&self.test.registers, |a: usize| &self.test.addrs[a]);
        let (node, addr, what) = match step {
            Step::Issue { thread } => {
                let t = thread as usize;
                let (addr, stmt) = match self.test.threads[t][st.prog[t] as usize] {
                    Op::Load { addr, reg } => {
                        (addr, format!("{} = {}", regs[reg as usize], loc(addr.into())))
                    }
                    Op::Store { addr, val } => (addr, format!("{} = {val}", loc(addr.into()))),
                };
                (t, addr.into(), stmt)
            }
            Step::Deliver { q, idx } => {
                let (a, src, dst) = self.queue(q);
                let msg = st.locs[a].channels[src][dst][idx as usize];
                let name = &self.cache.fsm().msg(msg.mtype).name;
                (dst, a, format!("receives {name} {msg} for {}", loc(a)))
            }
            Step::Decay { thread, addr: EPOCH, .. } => {
                return format!("{} self-invalidates every line", NodeId(thread));
            }
            Step::Decay { down, thread, addr } => {
                let verb = if down { "self-downgrades" } else { "self-invalidates" };
                (thread.into(), addr.into(), format!("{verb} {}", loc(addr.into())))
            }
        };
        let machine = if node == self.n_threads { &self.dir } else { &self.cache };
        let state = machine.fsm().state(st.subnet((0, addr)).slot(node).state()).full_name();
        let who = if node == self.n_threads { "dir".to_string() } else { format!("n{node}") };
        format!("{who}[{state}] {what}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{sc_outcomes, tso_outcomes};
    use crate::test::{bundled, parse_litmus, MP, SB};
    use protogen_core::{generate, GenConfig};
    use protogen_mc::ModelChecker;

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
                run.init = run.warmup().unwrap();
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

    /// Every dispatch a litmus run attempts is one the flat checker also
    /// attempts at 2 caches on the same network, with no property checked:
    /// each location is a flat subnet of the threads' blocks, so litmus
    /// stays inside the model-checked envelope the simulator and the live
    /// service are held to.
    #[test]
    fn litmus_dispatches_stay_inside_the_checked_envelope() {
        let two_threads: Vec<_> = bundled().into_iter().filter(|t| t.threads.len() == 2).collect();
        let names: Vec<_> = two_threads.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["SB", "MP", "LB", "CoRR"]);
        for ssp in protogen_protocols::all() {
            let g = generate(&ssp, &GenConfig::default()).unwrap();
            let cfg = McConfig {
                ordered: ssp.network_ordered,
                properties: PropertySet::none(),
                ..McConfig::with_caches(2)
            };
            let checked = ModelChecker::new(&g.cache, &g.directory, cfg).run();
            assert!(checked.passed(), "{}: {:?}", ssp.name, checked.violation);
            for test in &two_threads {
                let mut run =
                    Run::new(&ssp, &g, test, McConfig { threads: 1, ..McConfig::default() });
                run.init = run.warmup().unwrap();
                let (result, _) = explore_system(&run);
                assert!(result.passed(), "{} {}: {:?}", ssp.name, test.name, result.violation);
                let pairs = result.coverage;
                assert!(!pairs.is_empty(), "{} {}: no pairs recorded", ssp.name, test.name);
                let escapes: Vec<_> = pairs.difference(&checked.coverage).collect();
                assert!(escapes.is_empty(), "{} {}: {escapes:?}", ssp.name, test.name);
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
