//! The subnet kernel: one step of one subnet, written once for the three
//! searching systems (DESIGN.md §3, "The subnet kernel").
//!
//! A *subnet* is `f` sibling cache blocks under one directory entry with
//! the `(f+1)²` FIFOs between them (local id `f` is the directory). The
//! flat system is one subnet; a composed stack has one per `(level,
//! parent)`; a litmus run one per location. Every step acts inside one
//! subnet, so stepping lives here: select → stall → unexpected message →
//! one outstanding transaction → apply → route under `channel_cap`, and
//! the restore of exactly what the previous step wrote. A system keeps
//! what is its own: the composed one gates deliveries by glue before the
//! kernel, mirrors data across the hosting boundary after it, and restores
//! the mirrored fields through [`Subnets::restore_outside`]; litmus keeps
//! its program order there. Coverage is recorded here too, so every system
//! records every dispatch it attempts in one place.
//!
//! Two inputs are the caller's: the value a store performed by the step
//! writes (the checkers pass `flat::mint`'s, litmus the program's), and the
//! [`Naming`] a kernel is built with, which words its violations and
//! trace lines.

use crate::explore::{exec_violation, ViolationKind};
use crate::flat::{McConfig, Step};
use protogen_runtime::{ApplyOutcome, CacheBlock, Coverage, DirEntry, Line, Machine, Msg, NodeId};
use protogen_runtime::{Selected, Slot, Val};
use protogen_spec::{Access, Action, Arc, Event, Fsm};
use std::borrow::Borrow;
use std::fmt;

/// Which subnet: `(protocol level, parent)`; a litmus run's location `a`
/// is `(0, a)`.
pub type At = (usize, usize);

/// The flat system's one subnet: its whole state.
pub(crate) const ONLY: At = (0, 0);

/// One subnet of a state: its caches (their count is the fanout `f`),
/// their directory entry, `chans[src][dst]` in local ids, and its ghost
/// memory.
#[derive(Debug, Clone, Copy)]
pub struct Subnet<'s> {
    /// The sibling cache blocks, local ids `0..f`.
    pub caches: &'s [CacheBlock],
    /// Their directory entry, local id `f`.
    pub dir: &'s DirEntry,
    /// `chans[src][dst]`: the FIFO between two local ids, oldest first.
    pub chans: &'s [Vec<Vec<Msg>>],
    /// The value of the most recent store the ghost memory serialized.
    pub ghost: Val,
}

/// [`Subnet`], writable.
pub struct SubnetMut<'s> {
    /// The sibling cache blocks.
    pub caches: &'s mut [CacheBlock],
    /// Their directory entry.
    pub dir: &'s mut DirEntry,
    /// The FIFOs between local ids.
    pub chans: &'s mut [Vec<Vec<Msg>>],
    /// The ghost memory.
    pub ghost: &'s mut Val,
}

impl<'s> Subnet<'s> {
    /// Node `node`'s line as the dispatch kernel reads it.
    pub fn slot(&self, node: usize) -> Slot<'s> {
        match self.caches.get(node) {
            Some(block) => block.slot(),
            None => self.dir.slot(),
        }
    }

    /// Calls `each(src, dst, idx)` on the deliverable queue positions in
    /// that order: the head of every non-empty queue, or every position
    /// when not `ordered`.
    pub fn deliveries(&self, ordered: bool, mut each: impl FnMut(usize, usize, usize)) {
        for (src, row) in self.chans.iter().enumerate() {
            for (dst, q) in row.iter().enumerate() {
                let last = if ordered { q.len().min(1) } else { q.len() };
                (0..last).for_each(|idx| each(src, dst, idx));
            }
        }
    }
}

/// The queue `m` travels on: `(src, dst)`.
fn queue(m: &Msg) -> (usize, usize) {
    (m.src.as_usize(), m.dst.as_usize())
}

/// A state made of subnets.
pub trait Subnets: Clone + PartialEq + fmt::Debug {
    /// The subnet `at` names.
    fn subnet(&self, at: At) -> Subnet<'_>;
    /// The same subnet, writable.
    fn subnet_mut(&mut self, at: At) -> SubnetMut<'_>;
    /// Restores from `from` what a step on node `node` of subnet `at` may
    /// have written outside the subnet. The flat system has no outside.
    fn restore_outside(&mut self, _from: &Self, _at: At, _node: usize) {}
}

/// What stepping keeps between calls: the reusable apply outcome, the
/// record of what the previous step wrote into its successor scratch, so
/// the next step restores only that from the parent instead of copying
/// the whole state, and the worker's coverage recorders.
///
/// What a step may write is bounded by construction: `fire` removes from
/// one queue and hands `Machine::apply` one line of one subnet, `route`
/// pushes onto the queues the outgoing messages name, the ghost is one
/// byte, and the rest is [`Subnets::restore_outside`]'s. A line is
/// recorded in `touched` before anything fallible runs, and each queue in
/// `queues` before anything is pushed onto it, so every step leaves a
/// record the next step's restore undoes — a step that fires several
/// lines ([`Kernel::also_issue_arc`]) one per line.
#[derive(Debug)]
pub struct StepScratch {
    /// What the last step's apply did: its sends and the access it
    /// performed.
    pub outcome: ApplyOutcome,
    /// Whether `succ` equals the parent everywhere but in what `touched`
    /// and `outcome.outgoing` name.
    synced: bool,
    touched: Vec<Touched>,
    /// The queues the touched lines' steps delivered from or routed onto.
    queues: Vec<(At, (usize, usize))>,
    /// Level `j`'s cache recorder at `2j`, its directory's at `2j + 1`.
    pub coverage: Vec<Coverage>,
}

/// The subnet a step acted in and the node whose line it applied an arc
/// to (`f` = the directory).
#[derive(Debug, Clone, Copy)]
struct Touched {
    at: At,
    node: usize,
}

impl StepScratch {
    /// A scratch for a system whose protocol levels, leaf first, run these
    /// `(cache, directory)` FSMs.
    pub fn new<'f>(levels: impl IntoIterator<Item = (&'f Fsm, &'f Fsm)>) -> StepScratch {
        let coverage = (levels.into_iter().enumerate())
            .flat_map(|(j, (cache, dir))| Coverage::level(cache, dir, j as u8))
            .collect();
        StepScratch {
            outcome: ApplyOutcome::default(),
            synced: false,
            touched: Vec::new(),
            queues: Vec::new(),
            coverage,
        }
    }

    /// Records that `slot`, a line of protocol level `level`, was offered
    /// `event`.
    #[inline]
    fn record(&mut self, level: usize, slot: Slot<'_>, event: Event) {
        let side = usize::from(matches!(slot, Slot::Dir(_)));
        self.coverage[2 * level + side].record(slot.state(), event);
    }

    /// Forgets what the successor scratch holds (a new parent was
    /// decoded, or the caller wrote the scratch itself): the next step
    /// copies its parent whole.
    pub fn unsync(&mut self) {
        self.synced = false;
    }

    /// Makes `succ` equal `state`: one whole copy when unsynced, otherwise
    /// a restore of exactly what the previous step wrote.
    #[inline]
    fn sync<S: Subnets>(&mut self, state: &S, succ: &mut S) {
        if !self.synced {
            succ.clone_from(state);
            self.synced = true;
        } else {
            for &(at, (src, dst)) in &self.queues {
                let (from, to) = (state.subnet(at), succ.subnet_mut(at));
                to.chans[src][dst].clone_from(&from.chans[src][dst]);
            }
            for &Touched { at, node } in &self.touched {
                let (from, to) = (state.subnet(at), succ.subnet_mut(at));
                match from.caches.get(node) {
                    Some(block) => to.caches[node].clone_from(block),
                    None => to.dir.clone_from(from.dir),
                }
                *to.ghost = from.ghost;
                succ.restore_outside(state, at, node);
            }
        }
        self.touched.clear();
        self.queues.clear();
        debug_assert!(succ == state, "restored successor scratch differs from its parent");
    }
}

/// How a kernel names a node and a message in its violations and trace
/// lines; chosen when the kernel is built, never per step.
#[derive(Debug, Clone, Copy)]
pub enum Naming<'k> {
    /// The flat checker: `cache n0`, `directory`, a message by its fields
    /// (`m6[n2→n0 req=n1]`).
    Flat,
    /// A composed stack's level with this label: `node L0.1`, `l1
    /// directory p0`, the subnet as `L0/p0`.
    Level(&'k str),
    /// A litmus run over these locations, one subnet each: `cache n0 for
    /// x`, `directory n2 for x`, a message by its type and fields (`GetM
    /// m1[n0→n2 req=n0]`).
    Locations(&'k [String]),
}

/// One protocol level's stepping rules: its two machines, the system's
/// bounds and properties, and how it names what it reports.
pub struct Kernel<'k, F> {
    /// The cache controller every local id below `f` runs.
    pub cache: &'k Machine<F>,
    /// The directory controller local id `f` runs.
    pub dir: &'k Machine<F>,
    /// The channel cap and the properties a load hit is checked against.
    pub cfg: &'k McConfig,
    /// How violations and trace lines name nodes and messages.
    pub naming: Naming<'k>,
}

impl<F: Borrow<Fsm>> Kernel<'_, F> {
    /// Delivers `chans[src][dst][idx]` of subnet `at` into the scratch
    /// successor `succ`; a store the delivery performs writes `value`.
    /// `Ok(false)` when the receiver stalls; `succ` is garbage then and on
    /// `Err`.
    #[inline]
    pub fn deliver<S: Subnets>(
        &self,
        state: &S,
        at: At,
        (src, dst, idx): (usize, usize, usize),
        value: Val,
        succ: &mut S,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        let net = state.subnet(at);
        let msg = net.chans[src][dst][idx];
        let (machine, slot) = (self.machine(dst, net.caches.len()), net.slot(dst));
        st.record(at.0, slot, Event::Msg(msg.mtype));
        let arc = match machine.select(slot, Event::Msg(msg.mtype), Some(&msg)) {
            Selected::Arc(arc) => arc,
            Selected::Stall => return Ok(false),
            Selected::None => {
                let who = self.who(at, dst, net.caches.len());
                let text = match self.naming {
                    Naming::Locations(_) => format!("{} {msg}", machine.fsm().msg(msg.mtype).name),
                    _ => msg.to_string(),
                };
                return Err(ViolationKind::UnexpectedMessage(machine.unexpected(who, slot, text)));
            }
        };
        // Completion loads (e.g. the single access after invalidation in
        // IS_D_I) read the response data by construction; the physical
        // data-value check applies to hits only (design note in DESIGN.md).
        st.sync(state, succ);
        let net = self.fire(at, dst, arc, Some((src, idx, &msg)), value, succ, st)?;
        self.route(net, at, st)
    }

    /// Cache `cache` of subnet `at` issues `access` into `succ`; a store it
    /// performs writes `value`. `Ok(false)` when no arc takes the access or
    /// the cache already has a transaction outstanding.
    #[inline]
    pub fn issue<S: Subnets>(
        &self,
        state: &S,
        at: At,
        (cache, access): (usize, Access),
        value: Val,
        succ: &mut S,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        let net = state.subnet(at);
        let block = &net.caches[cache];
        st.record(at.0, block.slot(), Event::Access(access));
        let Selected::Arc(arc) = self.cache.select(block.slot(), Event::Access(access), None)
        else {
            return Ok(false);
        };
        self.issue_from(state, net, at, cache, arc, value, succ, st)
    }

    /// [`Kernel::issue`] with `arc`, the arc the cache's machine selects
    /// for `access` in `state`, already in hand.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn issue_arc<S: Subnets>(
        &self,
        state: &S,
        at: At,
        (cache, access): (usize, Access),
        arc: &Arc,
        value: Val,
        succ: &mut S,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        let net = state.subnet(at);
        st.record(at.0, net.caches[cache].slot(), Event::Access(access));
        self.issue_from(state, net, at, cache, arc, value, succ, st)
    }

    /// The rest of an issue once its coverage is recorded and its arc
    /// selected: the one-transaction rule, the step, the load-hit check.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn issue_from<S: Subnets>(
        &self,
        state: &S,
        net: Subnet<'_>,
        at: At,
        cache: usize,
        arc: &Arc,
        value: Val,
        succ: &mut S,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        let block = &net.caches[cache];
        let is_hit = arc.actions.iter().any(|a| matches!(a, Action::PerformAccess));
        if !is_hit && block.pending.is_some() {
            // One outstanding transaction per block per cache (§V-F).
            return Ok(false);
        }
        st.sync(state, succ);
        let fired = self.fire(at, cache, arc, None, value, succ, st)?;
        // Parents are data-transparent: only leaf hits are checked.
        if let (0, Some((Access::Load, Some(v)))) = (at.0, st.outcome.performed) {
            let (leaf, props) = (at.1 * net.caches.len() + cache, &self.cfg.properties);
            if let Some(kind) = props.check_load_hit(leaf, v, net.ghost, self.label().is_some()) {
                return Err(kind);
            }
        }
        self.route(fired, at, st)
    }

    /// Fires one more line in the step whose successor `succ` holds:
    /// cache `cache` of subnet `at` takes `arc`, the arc its machine
    /// selects for `access`, on the line as `succ` has it — a line no
    /// earlier part of the step wrote. A store it performs writes `value`;
    /// no load hit is checked. The restore before the next step undoes
    /// every line the step fired.
    pub fn also_issue_arc<S: Subnets>(
        &self,
        at: At,
        (cache, access): (usize, Access),
        arc: &Arc,
        value: Val,
        succ: &mut S,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        st.record(at.0, succ.subnet(at).caches[cache].slot(), Event::Access(access));
        let net = self.fire(at, cache, arc, None, value, succ, st)?;
        self.route(net, at, st)
    }

    /// One counterexample-trace line for `step` taken in subnet `at`. A
    /// delivery names the message and its fields, then the receiver and its
    /// state (a composed stack prefixes the subnet, whose local ids the
    /// message carries); an issue names the cache and its state, then the
    /// access.
    pub fn describe<S: Subnets>(&self, state: &S, at: At, step: Step) -> String {
        let (net, label) = (state.subnet(at), self.label());
        let f = net.caches.len();
        let holder = |node: usize| {
            let name = self.machine(node, f).fsm().state(net.slot(node).state()).full_name();
            match label {
                None if node == f => format!("dir[{name}]"),
                None => format!("n{node}[{name}]"),
                Some(_) => format!("{}[{name}]", self.who(at, node, f)),
            }
        };
        match step {
            Step::Deliver { src, dst, idx } => {
                let msg = net.chans[src as usize][dst as usize][idx as usize];
                let mname = &self.cache.fsm().msg(msg.mtype).name;
                let place = label.map_or(String::new(), |_| format!("L{}/p{}: ", at.0, at.1));
                format!("{place}{mname} {msg} -> {}", holder(dst as usize))
            }
            Step::IssueAccess { cache, access } => format!("{} {access}", holder(cache as usize)),
        }
    }

    /// The machine node `node` of an `f`-cache subnet runs.
    fn machine(&self, node: usize, f: usize) -> &Machine<F> {
        if node == f {
            self.dir
        } else {
            self.cache
        }
    }

    /// The label of the composed stack's level the kernel steps.
    fn label(&self) -> Option<&str> {
        match self.naming {
            Naming::Level(label) => Some(label),
            _ => None,
        }
    }

    /// How a violation names node `node` of subnet `at`, `f` caches wide.
    fn who(&self, (level, parent): At, node: usize, f: usize) -> String {
        match (self.naming, node == f) {
            (Naming::Flat, true) => "directory".to_string(),
            (Naming::Flat, false) => format!("cache n{node}"),
            (Naming::Level(label), true) => format!("{label} directory p{parent}"),
            (Naming::Level(_), false) => format!("node L{level}.{}", parent * f + node),
            (Naming::Locations(locs), true) => format!("directory n{f} for {}", locs[parent]),
            (Naming::Locations(locs), false) => format!("cache n{node} for {}", locs[parent]),
        }
    }

    /// The second half of a step, once `arc` was selected and the scratch
    /// successor restored: records what is about to be written, takes the
    /// delivered message (`(src, idx, msg)`) off its queue and applies
    /// `arc` to `node`, a store writing `value`. Only a leaf store advances
    /// the ghost. Hands back the subnet, for `route`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn fire<'s, S: Subnets>(
        &self,
        at: At,
        node: usize,
        arc: &Arc,
        delivered: Option<(usize, usize, &Msg)>,
        value: Val,
        succ: &'s mut S,
        st: &mut StepScratch,
    ) -> Result<SubnetMut<'s>, ViolationKind> {
        st.touched.push(Touched { at, node });
        let net = succ.subnet_mut(at);
        if let Some((src, idx, _)) = delivered {
            st.queues.push((at, (src, node)));
            net.chans[src][node].remove(idx);
        }
        let dir_id = NodeId(net.caches.len() as u8);
        let (machine, ctx) = match net.caches.get_mut(node) {
            Some(block) => (self.cache, block.ctx(NodeId(node as u8), dir_id)),
            None => (self.dir, net.dir.ctx(dir_id, dir_id)),
        };
        let msg = delivered.map(|(.., msg)| msg);
        machine.apply(arc, msg, ctx, value, &mut st.outcome).map_err(exec_violation)?;
        if at.0 == 0 && matches!(st.outcome.performed, Some((Access::Store, _))) {
            *net.ghost = value;
        }
        Ok(net)
    }

    /// Pushes the outcome's outgoing messages onto the queues of `net`,
    /// subnet `at`, checking the capacity bound; `Ok(true)`: the step is
    /// complete.
    #[inline]
    fn route(
        &self,
        net: SubnetMut<'_>,
        at: At,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        for m in &st.outcome.outgoing {
            let (src, dst) = queue(m);
            st.queues.push((at, (src, dst)));
            net.chans[src][dst].push(*m);
            if net.chans[src][dst].len() > self.cfg.channel_cap {
                let place = self.label().map_or(String::new(), |_| format!("L{}/p{} ", at.0, at.1));
                return Err(ViolationKind::ChannelOverflow(format!(
                    "channel {place}n{src}→n{dst} exceeded {}",
                    self.cfg.channel_cap
                )));
            }
        }
        Ok(true)
    }
}
