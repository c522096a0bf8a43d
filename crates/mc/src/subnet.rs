//! The subnet kernel: one step of one subnet, written once for both
//! checkers (DESIGN.md §3, "The subnet kernel").
//!
//! A *subnet* is `f` sibling cache blocks under one directory entry with
//! the `(f+1)²` FIFOs between them (local id `f` is the directory). The
//! flat system is one subnet; a composed stack has one per `(level,
//! parent)`. Every step acts inside one subnet, so stepping lives here:
//! select → stall → unexpected message → one outstanding transaction →
//! apply → route under `channel_cap`, and the restore of exactly what the
//! previous step wrote. A checker keeps what is its own: the composed one
//! gates deliveries by glue before the kernel, mirrors data across the
//! hosting boundary after it, and restores the mirrored fields through
//! [`Subnets::restore_outside`]. Coverage is recorded here too, so both
//! checkers record every dispatch they attempt in one place.

use crate::explore::{exec_violation, ViolationKind};
use crate::flat::{McConfig, Step, VALUE_DOMAIN};
use protogen_runtime::{ApplyOutcome, CacheBlock, Coverage, DirEntry, Line, Machine, Msg, NodeId};
use protogen_runtime::{Selected, Slot, Val};
use protogen_spec::{Access, Action, Arc, Event, Fsm};
use std::borrow::Borrow;
use std::fmt;

/// Which subnet: `(protocol level, parent)`.
pub(crate) type At = (usize, usize);

/// The flat system's one subnet: its whole state.
pub(crate) const ONLY: At = (0, 0);

/// One subnet of a state: its caches (their count is the fanout `f`),
/// their directory entry, `chans[src][dst]` in local ids, and the
/// state's ghost memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Subnet<'s> {
    pub(crate) caches: &'s [CacheBlock],
    pub(crate) dir: &'s DirEntry,
    pub(crate) chans: &'s [Vec<Vec<Msg>>],
    pub(crate) ghost: Val,
}

/// [`Subnet`], writable.
pub(crate) struct SubnetMut<'s> {
    pub(crate) caches: &'s mut [CacheBlock],
    pub(crate) dir: &'s mut DirEntry,
    pub(crate) chans: &'s mut [Vec<Vec<Msg>>],
    pub(crate) ghost: &'s mut Val,
}

impl<'s> Subnet<'s> {
    /// Node `node`'s line as the dispatch kernel reads it.
    pub(crate) fn slot(&self, node: usize) -> Slot<'s> {
        match self.caches.get(node) {
            Some(block) => block.slot(),
            None => self.dir.slot(),
        }
    }

    /// Calls `each(src, dst, idx)` on the deliverable queue positions in
    /// that order: the head of every non-empty queue, or every position
    /// when not `ordered`.
    pub(crate) fn deliveries(&self, ordered: bool, mut each: impl FnMut(usize, usize, usize)) {
        for (src, row) in self.chans.iter().enumerate() {
            for (dst, q) in row.iter().enumerate() {
                let last = if ordered { q.len().min(1) } else { q.len() };
                for idx in 0..last {
                    each(src, dst, idx);
                }
            }
        }
    }
}

/// The queue `m` travels on: `(src, dst)`.
fn queue(m: &Msg) -> (usize, usize) {
    (m.src.as_usize(), m.dst.as_usize())
}

/// A state made of subnets.
pub(crate) trait Subnets: Clone + PartialEq + fmt::Debug {
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
/// byte, and the rest is [`Subnets::restore_outside`]'s. `touched` is
/// recorded before anything fallible runs and the routed queues are read
/// back from `outcome.outgoing` — a superset of what `route` pushed on any
/// exit — so every step leaves a record [`StepScratch::sync`] restores.
#[derive(Debug)]
pub(crate) struct StepScratch {
    pub(crate) outcome: ApplyOutcome,
    /// Whether `succ` equals the parent everywhere but in what `touched`
    /// and `outcome.outgoing` name.
    synced: bool,
    touched: Option<Touched>,
    /// Level `j`'s cache recorder at `2j`, its directory's at `2j + 1`.
    pub(crate) coverage: Vec<Coverage>,
}

/// The subnet a step acted in, the node whose line it applied an arc to
/// (`f` = the directory), and the queue it delivered from.
#[derive(Debug, Clone, Copy)]
struct Touched {
    at: At,
    node: usize,
    delivered: Option<(usize, usize)>,
}

impl StepScratch {
    /// A scratch for a system whose protocol levels, leaf first, run these
    /// `(cache, directory)` FSMs.
    pub(crate) fn new<'f>(levels: impl IntoIterator<Item = (&'f Fsm, &'f Fsm)>) -> StepScratch {
        let coverage = (levels.into_iter().enumerate())
            .flat_map(|(j, (cache, dir))| Coverage::level(cache, dir, j as u8))
            .collect();
        StepScratch { outcome: ApplyOutcome::default(), synced: false, touched: None, coverage }
    }

    /// Records that `slot`, a line of protocol level `level`, was offered
    /// `event`.
    #[inline]
    fn record(&mut self, level: usize, slot: Slot<'_>, event: Event) {
        let side = usize::from(matches!(slot, Slot::Dir(_)));
        self.coverage[2 * level + side].record(slot.state(), event);
    }

    /// Forgets what the successor scratch holds (a new parent was
    /// decoded): the next step copies its parent whole.
    pub(crate) fn unsync(&mut self) {
        self.synced = false;
    }

    /// Makes `succ` equal `state`: one whole copy when unsynced, otherwise
    /// a restore of exactly what the previous step wrote.
    #[inline]
    fn sync<S: Subnets>(&mut self, state: &S, succ: &mut S) {
        if !self.synced {
            succ.clone_from(state);
            self.synced = true;
        } else if let Some(t) = self.touched.take() {
            let (from, to) = (state.subnet(t.at), succ.subnet_mut(t.at));
            let queues = t.delivered.into_iter();
            for (src, dst) in queues.chain(self.outcome.outgoing.iter().map(queue)) {
                to.chans[src][dst].clone_from(&from.chans[src][dst]);
            }
            match from.caches.get(t.node) {
                Some(block) => to.caches[t.node].clone_from(block),
                None => to.dir.clone_from(from.dir),
            }
            *to.ghost = from.ghost;
            succ.restore_outside(state, t.at, t.node);
        }
        debug_assert!(succ == state, "restored successor scratch differs from its parent");
    }
}

/// One protocol level's stepping rules: its two machines, the checker's
/// bounds and properties, and its label in a composed stack (`None` words
/// violations for a flat system).
pub(crate) struct Kernel<'k, F> {
    pub(crate) cache: &'k Machine<F>,
    pub(crate) dir: &'k Machine<F>,
    pub(crate) cfg: &'k McConfig,
    pub(crate) label: Option<&'k str>,
}

impl<F: Borrow<Fsm>> Kernel<'_, F> {
    /// Delivers `chans[src][dst][idx]` of subnet `at` into the scratch
    /// successor `succ`. `Ok(false)` when the receiver stalls; `succ` is
    /// garbage then and on `Err`.
    #[inline]
    pub(crate) fn deliver<S: Subnets>(
        &self,
        state: &S,
        at: At,
        (src, dst, idx): (usize, usize, usize),
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
                return Err(ViolationKind::UnexpectedMessage(machine.unexpected(who, slot, msg)));
            }
        };
        // Completion loads (e.g. the single access after invalidation in
        // IS_D_I) read the response data by construction; the physical
        // data-value check applies to hits only (design note in DESIGN.md).
        self.fire(state, at, dst, arc, Some((src, idx, &msg)), succ, st)?;
        self.route(succ, at, &st.outcome)
    }

    /// Cache `cache` of subnet `at` issues `access` into `succ`.
    /// `Ok(false)` when no arc takes the access or the cache already has a
    /// transaction outstanding.
    #[inline]
    pub(crate) fn issue<S: Subnets>(
        &self,
        state: &S,
        at: At,
        cache: usize,
        access: Access,
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
        let is_hit = arc.actions.iter().any(|a| matches!(a, Action::PerformAccess));
        if !is_hit && block.pending.is_some() {
            // One outstanding transaction per block per cache (§V-F).
            return Ok(false);
        }
        self.fire(state, at, cache, arc, None, succ, st)?;
        // Parents are data-transparent: only leaf hits are checked.
        if let (0, Some((Access::Load, Some(v)))) = (at.0, st.outcome.performed) {
            let leaf = at.1 * net.caches.len() + cache;
            let props = &self.cfg.properties;
            if let Some(kind) = props.check_load_hit(leaf, v, net.ghost, self.label.is_some()) {
                return Err(kind);
            }
        }
        self.route(succ, at, &st.outcome)
    }

    /// One counterexample-trace line for `step` taken in subnet `at`. A
    /// delivery names the message and its fields, then the receiver and its
    /// state (a composed stack prefixes the subnet, whose local ids the
    /// message carries); an issue names the cache and its state, then the
    /// access.
    pub(crate) fn describe<S: Subnets>(&self, state: &S, at: At, step: Step) -> String {
        let net = state.subnet(at);
        let f = net.caches.len();
        let holder = |node: usize| {
            let name = self.machine(node, f).fsm().state(net.slot(node).state()).full_name();
            match self.label {
                None if node == f => format!("dir[{name}]"),
                None => format!("n{node}[{name}]"),
                Some(_) => format!("{}[{name}]", self.who(at, node, f)),
            }
        };
        match step {
            Step::Deliver { src, dst, idx } => {
                let msg = net.chans[src as usize][dst as usize][idx as usize];
                let mname = &self.cache.fsm().msg(msg.mtype).name;
                let place = self.label.map_or(String::new(), |_| format!("L{}/p{}: ", at.0, at.1));
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

    /// How a violation names node `node` of subnet `at`, `f` caches wide.
    fn who(&self, (level, parent): At, node: usize, f: usize) -> String {
        match (self.label, node == f) {
            (None, true) => "directory".to_string(),
            (None, false) => format!("cache n{node}"),
            (Some(label), true) => format!("{label} directory p{parent}"),
            (Some(_), false) => format!("node L{level}.{}", parent * f + node),
        }
    }

    /// The second half of a step, once `arc` was selected on the parent
    /// `state`: restores the scratch successor, records what is about to
    /// be written, takes the delivered message (`(src, idx, msg)`) off its
    /// queue and applies `arc` to `node`. Only a leaf store mints a value
    /// and advances the ghost; a parent's glue store is handed the ghost's.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn fire<S: Subnets>(
        &self,
        state: &S,
        at: At,
        node: usize,
        arc: &Arc,
        delivered: Option<(usize, usize, &Msg)>,
        succ: &mut S,
        st: &mut StepScratch,
    ) -> Result<(), ViolationKind> {
        st.sync(state, succ);
        let from = delivered.map(|(src, ..)| (src, node));
        st.touched = Some(Touched { at, node, delivered: from });
        let (ghost, leaf) = (state.subnet(at).ghost, at.0 == 0);
        let value = if leaf { (ghost + 1) % VALUE_DOMAIN } else { ghost };
        let net = succ.subnet_mut(at);
        if let Some((src, idx, _)) = delivered {
            net.chans[src][node].remove(idx);
        }
        let dir_id = NodeId(net.caches.len() as u8);
        let (machine, ctx) = match net.caches.get_mut(node) {
            Some(block) => (self.cache, block.ctx(NodeId(node as u8), dir_id)),
            None => (self.dir, net.dir.ctx(dir_id, dir_id)),
        };
        let msg = delivered.map(|(.., msg)| msg);
        machine.apply(arc, msg, ctx, value, &mut st.outcome).map_err(exec_violation)?;
        if leaf && matches!(st.outcome.performed, Some((Access::Store, _))) {
            *net.ghost = value;
        }
        Ok(())
    }

    /// Pushes the outcome's outgoing messages onto subnet `at`'s queues,
    /// checking the capacity bound; `Ok(true)`: the step is complete.
    #[inline]
    fn route<S: Subnets>(
        &self,
        succ: &mut S,
        at: At,
        outcome: &ApplyOutcome,
    ) -> Result<bool, ViolationKind> {
        let net = succ.subnet_mut(at);
        for m in &outcome.outgoing {
            let (src, dst) = queue(m);
            net.chans[src][dst].push(*m);
            if net.chans[src][dst].len() > self.cfg.channel_cap {
                let place = self.label.map_or(String::new(), |_| format!("L{}/p{} ", at.0, at.1));
                return Err(ViolationKind::ChannelOverflow(format!(
                    "channel {place}n{src}→n{dst} exceeded {}",
                    self.cfg.channel_cap
                )));
            }
        }
        Ok(true)
    }
}
