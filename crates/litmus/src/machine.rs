//! The multi-address litmus machine: drives a generated protocol's cache
//! and directory FSMs over several blocks at once and enumerates every
//! interleaving of a litmus test exhaustively.
//!
//! # Model
//!
//! One cache controller per litmus thread plus one directory node, each
//! holding an independent FSM instance per shared location (coherence is
//! specified per block, §IV-A of the paper). Messages travel per-`(src,
//! dst)` channels; on an ordered network each location's oldest queued
//! message is that location's head (the simulator's virtual-channel-per-
//! block semantics, `crates/sim`), on an unordered network every queued
//! message is deliverable.
//!
//! Cores are **in-order and blocking**: a thread issues its next program
//! operation only after the previous one performed. Loads that hit return
//! the local copy — possibly stale, which is exactly the behaviour the
//! harness exists to observe.
//!
//! # Enumeration
//!
//! A run starts from a *warmed-up* state: every thread loads every
//! location once, run to quiescence, so all caches start with a (shared,
//! value 0) copy and self-invalidation protocols have something to decay.
//! From there the enumerator explores every successor of every reachable
//! state — program issues, message deliveries, and the spontaneous
//! self-invalidation (`ArcNote::SelfInv`, whole-cache when the SSP sets
//! `si_epoch`) and self-downgrade (`ArcNote::SelfDown`) steps — with a
//! visited set for termination. Demand evictions never fire: capacity
//! pressure is not part of a litmus test's semantics.
//!
//! Terminal states (all program operations performed, network drained)
//! contribute their register tuple to the outcome set. The enumeration is
//! exhaustive, so the outcome set is independent of exploration order; the
//! `seed` in [`Limits`] only rotates successor order to make that property
//! testable.

use crate::test::{LitmusTest, Op, Val};
use protogen_core::Generated;
use protogen_runtime::{
    ApplyOutcome, CacheBlock, DirEntry, Line, Machine, MachineCtx, Msg, NodeId, Selected, Slot,
};
use protogen_spec::{Access, Arc, ArcNote, Event, Fsm, Ssp};
use std::collections::{BTreeSet, HashSet};
use std::error::Error;
use std::fmt;
use std::hash::Hash;

/// Exploration limits and (order-only) perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Abort with [`LitmusError::StateLimit`] beyond this many distinct
    /// states per `(protocol, test)` run.
    pub max_states: usize,
    /// Rotates successor exploration order. The enumeration is exhaustive,
    /// so any seed yields the same outcome set (a conformance test relies
    /// on this).
    pub seed: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_states: 2_000_000, seed: 0 }
    }
}

/// Failures while driving a protocol through a litmus test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LitmusError {
    /// A machine had no arc for a delivered message — the protocol is
    /// incomplete (the model checker reports the same situation).
    UnexpectedMessage {
        /// Receiving node (`n0`…; the highest id is the directory).
        node: String,
        /// The receiving FSM state.
        state: String,
        /// The message.
        msg: String,
    },
    /// A non-terminal state with no enabled step.
    Deadlock {
        /// Human-readable situation.
        detail: String,
    },
    /// The state space exceeded [`Limits::max_states`].
    StateLimit {
        /// The configured bound.
        limit: usize,
    },
    /// The runtime rejected an arc application (generation bug).
    Exec(String),
}

impl fmt::Display for LitmusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LitmusError::UnexpectedMessage { node, state, msg } => {
                write!(f, "node {node} in state {state} has no transition for {msg}")
            }
            LitmusError::Deadlock { detail } => write!(f, "litmus deadlock: {detail}"),
            LitmusError::StateLimit { limit } => {
                write!(f, "state space exceeded {limit} states (raise --depth)")
            }
            LitmusError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl Error for LitmusError {}

/// The depth-first search the litmus machine and the reference models
/// share. A state that `outcome` maps to `Some` is terminal; any other
/// must have a successor ([`LitmusError::Deadlock`]), and at most
/// [`Limits::max_states`] states are visited; the seed rotates push order.
pub(crate) fn exhaust<S: Clone + Eq + Hash>(
    test: &LitmusTest,
    init: S,
    limits: &Limits,
    mut successors: impl FnMut(&S, &mut Vec<S>) -> Result<(), LitmusError>,
    outcome: impl Fn(&S) -> Option<Vec<Val>>,
) -> Result<BTreeSet<Vec<Val>>, LitmusError> {
    let mut outcomes = BTreeSet::new();
    let mut visited: HashSet<S> = HashSet::new();
    let mut stack = vec![init];
    let mut succs = Vec::new();
    while let Some(st) = stack.pop() {
        if !visited.insert(st.clone()) {
            continue;
        }
        if visited.len() > limits.max_states {
            return Err(LitmusError::StateLimit { limit: limits.max_states });
        }
        if let Some(o) = outcome(&st) {
            outcomes.insert(o);
            continue;
        }
        succs.clear();
        successors(&st, &mut succs)?;
        if succs.is_empty() {
            return Err(LitmusError::Deadlock {
                detail: format!("non-terminal state with no enabled step in {}", test.name),
            });
        }
        if limits.seed != 0 {
            let k = (limits.seed as usize) % succs.len();
            succs.rotate_left(k);
        }
        stack.extend(succs.drain(..).filter(|s| !visited.contains(s)));
    }
    Ok(outcomes)
}

/// A generated protocol wired up for litmus runs.
#[derive(Debug)]
pub struct Harness<'a> {
    ssp: &'a Ssp,
    cache: Machine<&'a Fsm>,
    dir: Machine<&'a Fsm>,
}

/// One litmus machine state: per-(thread, location) cache blocks,
/// per-location directory entries, per-channel in-flight messages tagged
/// with their location, and the program state of every thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MState {
    /// `caches[t * n_addrs + a]` — thread `t`'s block for location `a`.
    caches: Vec<CacheBlock>,
    /// `dirs[a]` — the directory entry for location `a`.
    dirs: Vec<DirEntry>,
    /// `chans[src * n_nodes + dst]` — FIFO of `(location, message)`.
    chans: Vec<Vec<(u8, Msg)>>,
    /// Next program operation per thread.
    cursor: Vec<u8>,
    /// Whether the thread's current operation issued but has not performed.
    in_flight: Vec<bool>,
    /// Load results, indexed by register id.
    regs: Vec<Val>,
}

impl<'a> Harness<'a> {
    /// Wires up the generated FSMs of `ssp` for litmus execution.
    pub fn new(ssp: &'a Ssp, generated: &'a Generated) -> Self {
        Harness {
            ssp,
            cache: Machine::new(&generated.cache),
            dir: Machine::new(&generated.directory),
        }
    }

    /// Enumerates every outcome (register tuple) `test` can produce under
    /// this protocol.
    ///
    /// # Errors
    ///
    /// Returns a [`LitmusError`] if the protocol deadlocks, drops a
    /// message on the floor, or the exploration exceeds
    /// [`Limits::max_states`].
    pub fn outcomes(
        &self,
        test: &LitmusTest,
        limits: &Limits,
    ) -> Result<BTreeSet<Vec<Val>>, LitmusError> {
        let run = Run {
            h: self,
            test,
            n_threads: test.threads.len(),
            n_addrs: test.addrs.len(),
            n_nodes: test.threads.len() + 1,
            dir_id: NodeId(test.threads.len() as u8),
        };
        run.outcomes(limits)
    }
}

struct Run<'a> {
    h: &'a Harness<'a>,
    test: &'a LitmusTest,
    n_threads: usize,
    n_addrs: usize,
    n_nodes: usize,
    dir_id: NodeId,
}

impl Run<'_> {
    fn block_idx(&self, t: usize, addr: u8) -> usize {
        t * self.n_addrs + addr as usize
    }

    fn initial(&self) -> MState {
        MState {
            caches: vec![CacheBlock::new(); self.n_threads * self.n_addrs],
            dirs: vec![DirEntry::new(0); self.n_addrs],
            chans: vec![Vec::new(); self.n_nodes * self.n_nodes],
            cursor: vec![0; self.n_threads],
            in_flight: vec![false; self.n_threads],
            regs: vec![0; self.test.registers.len()],
        }
    }

    fn push_msg(&self, st: &mut MState, addr: u8, m: Msg) {
        st.chans[m.src.as_usize() * self.n_nodes + m.dst.as_usize()].push((addr, m));
    }

    /// The controller `node` runs.
    fn machine(&self, node: NodeId) -> &Machine<&Fsm> {
        if node == self.dir_id {
            &self.h.dir
        } else {
            &self.h.cache
        }
    }

    /// `node`'s line for location `addr` as the dispatch kernel reads it.
    fn slot<'s>(&self, st: &'s MState, node: NodeId, addr: u8) -> Slot<'s> {
        if node == self.dir_id {
            st.dirs[addr as usize].slot()
        } else {
            st.caches[self.block_idx(node.as_usize(), addr)].slot()
        }
    }

    /// `node`'s line for location `addr` as the dispatch kernel writes it.
    fn ctx<'s>(&self, st: &'s mut MState, node: NodeId, addr: u8) -> MachineCtx<'s> {
        if node == self.dir_id {
            st.dirs[addr as usize].ctx(node, node)
        } else {
            st.caches[self.block_idx(node.as_usize(), addr)].ctx(node, self.dir_id)
        }
    }

    /// Applies `arc` to `node`'s line for `addr`, routes its sends, and
    /// returns what was performed.
    fn apply(
        &self,
        st: &mut MState,
        node: NodeId,
        addr: u8,
        arc: &Arc,
        msg: Option<&Msg>,
        store_value: Val,
    ) -> Result<Option<(Access, Option<Val>)>, LitmusError> {
        let mut out = ApplyOutcome::default();
        self.machine(node)
            .apply(arc, msg, self.ctx(st, node, addr), store_value, &mut out)
            .map_err(|e| LitmusError::Exec(e.to_string()))?;
        for m in out.outgoing.drain(..) {
            self.push_msg(st, addr, m);
        }
        Ok(out.performed)
    }

    /// The arc thread `t`'s block for `addr` takes on `access` in `st`,
    /// unless there is none or it stalls.
    fn access_arc(&self, st: &MState, t: usize, addr: u8, access: Access) -> Option<&Arc> {
        let slot = self.slot(st, NodeId(t as u8), addr);
        match self.h.cache.select(slot, Event::Access(access), None) {
            Selected::Arc(arc) => Some(arc),
            Selected::Stall | Selected::None => None,
        }
    }

    /// The thread's next program step, if it is enabled in `st`.
    fn try_program_step(&self, st: &MState, t: usize) -> Result<Option<MState>, LitmusError> {
        if st.in_flight[t] {
            return Ok(None);
        }
        let Some(&op) = self.test.threads[t].get(st.cursor[t] as usize) else {
            return Ok(None);
        };
        let (addr, access, store_value) = match op {
            Op::Load { addr, .. } => (addr, Access::Load, 0),
            Op::Store { addr, val } => (addr, Access::Store, val),
        };
        let had_pending = st.caches[self.block_idx(t, addr)].pending.is_some();
        let Some(arc) = self.access_arc(st, t, addr, access) else {
            return Ok(None);
        };
        let mut succ = st.clone();
        let performed = self.apply(&mut succ, NodeId(t as u8), addr, arc, None, store_value)?;
        match performed {
            Some((_, v)) => {
                if let Op::Load { reg, .. } = op {
                    succ.regs[reg as usize] = v.ok_or_else(|| {
                        LitmusError::Exec("load performed without a value".into())
                    })?;
                }
                succ.cursor[t] += 1;
            }
            None => {
                // A transaction would stack on a block that already has one
                // pending (e.g. an unacknowledged self-downgrade): retry
                // after it completes.
                if had_pending {
                    return Ok(None);
                }
                succ.in_flight[t] = true;
            }
        }
        Ok(Some(succ))
    }

    /// Deliverable `(channel, queue index)` pairs: per-location heads on
    /// an ordered network, every message on an unordered one.
    fn delivery_candidates(&self, st: &MState, cands: &mut Vec<(usize, usize)>) {
        cands.clear();
        for (ci, q) in st.chans.iter().enumerate() {
            if self.h.ssp.network_ordered {
                let mut seen: Vec<u8> = Vec::new();
                for (qi, &(a, _)) in q.iter().enumerate() {
                    if seen.contains(&a) {
                        continue;
                    }
                    seen.push(a);
                    cands.push((ci, qi));
                }
            } else {
                cands.extend((0..q.len()).map(|qi| (ci, qi)));
            }
        }
    }

    /// Delivers the message at `(ci, qi)`. Returns `None` when the
    /// receiver stalls it (the message stays queued).
    fn try_deliver(
        &self,
        st: &MState,
        ci: usize,
        qi: usize,
    ) -> Result<Option<MState>, LitmusError> {
        let (addr, msg) = st.chans[ci][qi];
        let (machine, slot) = (self.machine(msg.dst), self.slot(st, msg.dst, addr));
        let arc = match machine.select(slot, Event::Msg(msg.mtype), Some(&msg)) {
            Selected::Arc(arc) => arc,
            Selected::Stall => return Ok(None),
            Selected::None => {
                return Err(LitmusError::UnexpectedMessage {
                    node: msg.dst.to_string(),
                    state: machine.fsm().state(slot.state()).name.clone(),
                    msg: msg.to_string(),
                });
            }
        };
        // The thread whose in-flight operation this delivery may complete
        // (the directory has no program). If that operation is a store to
        // this location, the performing action needs its value.
        let thread = Some(msg.dst.as_usize()).filter(|&t| t < self.n_threads && st.in_flight[t]);
        let cur_op = thread.and_then(|t| self.test.threads[t].get(st.cursor[t] as usize));
        let store_value = match cur_op {
            Some(&Op::Store { addr: a, val }) if a == addr => val,
            _ => 0,
        };
        let mut succ = st.clone();
        succ.chans[ci].remove(qi);
        let performed = self.apply(&mut succ, msg.dst, addr, arc, Some(&msg), store_value)?;
        if let (Some(t), Some((access, v))) = (thread, performed) {
            // A performed Load/Store completes the thread's program
            // operation (warmup loads have `in_flight` unset and need no
            // bookkeeping); a performed Replacement is a self-downgrade or
            // writeback finishing, which is not a program event.
            if matches!(access, Access::Load | Access::Store) {
                if let Some(&Op::Load { reg, .. }) = cur_op {
                    succ.regs[reg as usize] = v.ok_or_else(|| {
                        LitmusError::Exec("load completed without a value".into())
                    })?;
                }
                succ.cursor[t] += 1;
                succ.in_flight[t] = false;
            }
        }
        Ok(Some(succ))
    }

    /// The spontaneous-replacement arc of thread `t`'s block for `addr`, if
    /// `note` matches and the block has no transaction pending.
    fn spontaneous_arc(&self, st: &MState, t: usize, addr: u8, note: ArcNote) -> Option<&Arc> {
        if st.caches[self.block_idx(t, addr)].pending.is_some() {
            return None;
        }
        self.access_arc(st, t, addr, Access::Replacement).filter(|arc| arc.note == note)
    }

    /// Self-invalidation successors: per line, or per whole cache when the
    /// SSP declares `si_epoch` (one epoch-decay step per thread, dropping
    /// every self-invalidatable block at once).
    fn si_steps(&self, st: &MState, out: &mut Vec<MState>) -> Result<(), LitmusError> {
        for t in 0..self.n_threads {
            if self.h.ssp.si_epoch {
                let applicable: Vec<u8> = (0..self.n_addrs as u8)
                    .filter(|&a| self.spontaneous_arc(st, t, a, ArcNote::SelfInv).is_some())
                    .collect();
                if applicable.is_empty() {
                    continue;
                }
                let mut succ = st.clone();
                for a in applicable {
                    let arc = self
                        .spontaneous_arc(&succ, t, a, ArcNote::SelfInv)
                        .expect("epoch member still applicable");
                    self.apply(&mut succ, NodeId(t as u8), a, arc, None, 0)?;
                }
                out.push(succ);
            } else {
                for a in 0..self.n_addrs as u8 {
                    let Some(arc) = self.spontaneous_arc(st, t, a, ArcNote::SelfInv) else {
                        continue;
                    };
                    let mut succ = st.clone();
                    self.apply(&mut succ, NodeId(t as u8), a, arc, None, 0)?;
                    out.push(succ);
                }
            }
        }
        Ok(())
    }

    /// Self-downgrade successors (always per line).
    fn sd_steps(&self, st: &MState, out: &mut Vec<MState>) -> Result<(), LitmusError> {
        for t in 0..self.n_threads {
            for a in 0..self.n_addrs as u8 {
                let Some(arc) = self.spontaneous_arc(st, t, a, ArcNote::SelfDown) else {
                    continue;
                };
                let mut succ = st.clone();
                self.apply(&mut succ, NodeId(t as u8), a, arc, None, 0)?;
                out.push(succ);
            }
        }
        Ok(())
    }

    fn terminal(&self, st: &MState) -> bool {
        (0..self.n_threads)
            .all(|t| !st.in_flight[t] && st.cursor[t] as usize == self.test.threads[t].len())
            && st.chans.iter().all(Vec::is_empty)
    }

    fn successors(&self, st: &MState, succs: &mut Vec<MState>) -> Result<(), LitmusError> {
        for t in 0..self.n_threads {
            if let Some(s) = self.try_program_step(st, t)? {
                succs.push(s);
            }
        }
        let mut cands = Vec::new();
        self.delivery_candidates(st, &mut cands);
        for (ci, qi) in cands {
            if let Some(s) = self.try_deliver(st, ci, qi)? {
                succs.push(s);
            }
        }
        self.si_steps(st, succs)?;
        self.sd_steps(st, succs)?;
        Ok(())
    }

    /// Warms the machine up deterministically: each thread loads each
    /// location once, run to quiescence, so every cache starts with a
    /// value-0 copy.
    fn warmup(&self, st: &mut MState) -> Result<(), LitmusError> {
        let mut cands = Vec::new();
        for t in 0..self.n_threads {
            for a in 0..self.n_addrs as u8 {
                let arc = self.access_arc(st, t, a, Access::Load).ok_or_else(|| {
                    let block = &st.caches[self.block_idx(t, a)];
                    LitmusError::Deadlock {
                        detail: format!(
                            "warmup load stalls in {}",
                            self.h.cache.fsm().state(block.state).name
                        ),
                    }
                })?;
                self.apply(st, NodeId(t as u8), a, arc, None, 0)?;
                let mut rounds = 0usize;
                while st.chans.iter().any(|q| !q.is_empty()) {
                    rounds += 1;
                    if rounds > 10_000 {
                        return Err(LitmusError::Deadlock {
                            detail: "warmup did not quiesce".into(),
                        });
                    }
                    self.delivery_candidates(st, &mut cands);
                    let mut delivered = false;
                    for &(ci, qi) in &cands {
                        if let Some(next) = self.try_deliver(st, ci, qi)? {
                            *st = next;
                            delivered = true;
                            break;
                        }
                    }
                    if !delivered {
                        return Err(LitmusError::Deadlock {
                            detail: "warmup wedged: every in-flight message stalls".into(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn outcomes(&self, limits: &Limits) -> Result<BTreeSet<Vec<Val>>, LitmusError> {
        let mut init = self.initial();
        self.warmup(&mut init)?;
        let outcome = |st: &MState| self.terminal(st).then(|| st.regs.clone());
        exhaust(self.test, init, limits, |st, succs| self.successors(st, succs), outcome)
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
        let h = Harness::new(ssp, &g);
        h.outcomes(&parse_litmus(src).unwrap(), &Limits::default()).unwrap()
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

    #[test]
    fn exploration_order_does_not_change_outcomes() {
        let ssp = protogen_protocols::msi();
        let g = generate(&ssp, &GenConfig::default()).unwrap();
        let h = Harness::new(&ssp, &g);
        let test = parse_litmus(SB).unwrap();
        let base = h.outcomes(&test, &Limits::default()).unwrap();
        for seed in [1, 7, 1 << 40] {
            let alt = h.outcomes(&test, &Limits { seed, ..Limits::default() }).unwrap();
            assert_eq!(base, alt, "seed {seed} changed the outcome set");
        }
    }

    #[test]
    fn state_limit_fails_loudly() {
        let ssp = protogen_protocols::msi();
        let g = generate(&ssp, &GenConfig::default()).unwrap();
        let h = Harness::new(&ssp, &g);
        let test = bundled().remove(3); // IRIW, the largest bundled space
        let err = h.outcomes(&test, &Limits { max_states: 10, seed: 0 }).unwrap_err();
        assert!(matches!(err, LitmusError::StateLimit { limit: 10 }));
    }
}
