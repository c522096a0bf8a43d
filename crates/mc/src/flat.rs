//! The flat system: N caches under one directory, stepped through the
//! shared runtime semantics and explored by the generic explorer
//! (`explore.rs`) — its configuration, its steps, and the
//! [`TransitionSystem`] implementation over [`SysState`] and the pruned
//! [`Canonicalizer`].

use crate::canon::Canonicalizer;
use crate::checkpoint::CheckpointError;
use crate::delta::SectionMap;
use crate::explore::{
    exec_violation, explore, reference_bfs, resume, CheckResult, Resources, StoreMode,
    TransitionSystem, ViolationKind,
};
use crate::property::{materialize, Property, PropertyCtx, PropertySet};
use crate::store::{fingerprint_bytes, STEP_NONE};
use crate::system::{SysState, MAX_CACHES};
use protogen_runtime::{ApplyOutcome, Machine, Msg, PairSet, Selected};
use protogen_spec::{Access, Arc, Event, Fsm};
use std::fmt;

/// Model-checker configuration.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of caches (the paper verifies with 3, the most Murϕ could
    /// handle without exhausting memory; the sharded explorer is built to
    /// go past that). A composed stack ([`crate::HierConfig`]) takes its
    /// node counts from the composition's fanouts instead.
    pub n_caches: usize,
    /// Abort exploration after this many states (checked at BFS-level
    /// granularity, so the final count may overshoot by one level).
    pub max_states: usize,
    /// Store values cycle through `0..value_domain` (small domain, the
    /// standard bounding discipline).
    pub value_domain: u8,
    /// Error out when a channel exceeds this length.
    pub channel_cap: usize,
    /// Point-to-point ordered channels (`true`) or arbitrary reordering.
    /// A composed stack orders each level's channels as that level's SSP
    /// declares instead.
    pub ordered: bool,
    /// Which built-in correctness properties to enforce (defaults to the
    /// SC contract: SWMR + data-value + deadlock freedom). Weak-memory
    /// protocols select the contract they actually promise via
    /// [`PropertySet::promised`]; custom [`crate::Property`] objects are
    /// attached with [`ModelChecker::add_property`].
    pub properties: PropertySet,
    /// Canonicalize states under cache-id permutation (Murϕ scalarsets).
    pub symmetry: bool,
    /// Worker threads (= visited-set shards). `0` — the default — means
    /// "use [`std::thread::available_parallelism`]"; values are clamped
    /// to [`crate::MAX_SHARDS`]. Results are identical for every thread
    /// count.
    pub threads: usize,
    /// Record every `(machine, state, event)` dispatch attempted during
    /// exploration into [`CheckResult::coverage`]. Off by default: the
    /// simulator-conformance tests are the only consumer (flat checker
    /// only; a composed stack ignores it).
    pub collect_pair_coverage: bool,
    /// Upper bound on the states one visited-set shard may hold. Defaults
    /// to (and is clamped to) the packed-id hardware limit of 2²⁷
    /// ([`crate::SHARD_CAPACITY`]); exceeding it stops exploration with a
    /// structured [`crate::ResourceLimit::ShardCapacity`] outcome and partial
    /// stats instead of aborting the process. Lower it only to exercise
    /// that path cheaply — unlike `max_states` (checked against the global
    /// count), whether a *shard* fills up depends on how fingerprints
    /// distribute over `threads` shards.
    pub shard_capacity: usize,
    /// Soft RAM budget for the run's accounted state (visited shards,
    /// frontier arenas, batch pools), split evenly across workers. When a
    /// worker's share is exceeded, cold frontier bytes and frozen visited
    /// records spill to page-aligned scratch files and stream back in
    /// (see DESIGN.md §9). `0` — the default — disables spilling; the
    /// budget is also ignored on platforms without positioned file reads.
    /// Results are byte-identical at any budget.
    pub mem_budget_bytes: usize,
    /// How states are stored: full encodings, delta-compressed encodings,
    /// or fingerprints only (see [`StoreMode`]).
    pub store: StoreMode,
    /// Spill granularity: the frontier's hot arena is flushed in chunks of
    /// at least this many bytes (clamped up to one page). Exposed so tests
    /// can force spilling on tiny state spaces; the default of 1 MiB is
    /// right for real runs.
    pub spill_chunk_bytes: usize,
    /// Directory for epoch-boundary checkpoints. `None` — the default —
    /// disables checkpointing. When set, every [`McConfig::checkpoint_every`]-th
    /// BFS level writes a committed, checksummed snapshot of the visited
    /// store and frontier, and [`ModelChecker::resume`] can restart a
    /// killed run from the newest one with byte-identical results (see
    /// `crate::checkpoint` and DESIGN.md §13).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Checkpoint cadence in BFS levels (a checkpoint is written on
    /// entering each depth divisible by this). Values below 1 are treated
    /// as 1. Only meaningful when [`McConfig::checkpoint_dir`] is set.
    pub checkpoint_every: u32,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            n_caches: 3,
            max_states: 20_000_000,
            value_domain: 2,
            channel_cap: 8,
            ordered: true,
            properties: PropertySet::sc(),
            symmetry: true,
            threads: 0,
            collect_pair_coverage: false,
            shard_capacity: crate::store::SHARD_CAPACITY,
            mem_budget_bytes: 0,
            store: StoreMode::Full,
            spill_chunk_bytes: 1 << 20,
            checkpoint_dir: None,
            checkpoint_every: 8,
        }
    }
}

impl McConfig {
    /// Configuration with `n` caches.
    pub fn with_caches(n: usize) -> Self {
        McConfig { n_caches: n, ..McConfig::default() }
    }

    /// Configuration with `n` caches explored by `threads` workers.
    pub fn with_caches_and_threads(n: usize, threads: usize) -> Self {
        McConfig { n_caches: n, threads, ..McConfig::default() }
    }

    /// The explorer's view of this configuration's resource settings.
    pub fn resources(&self) -> Resources<'_> {
        Resources {
            max_states: self.max_states,
            threads: self.threads,
            store: self.store,
            mem_budget_bytes: self.mem_budget_bytes,
            spill_chunk_bytes: self.spill_chunk_bytes,
            shard_capacity: self.shard_capacity,
            checkpoint_dir: self.checkpoint_dir.as_deref(),
            checkpoint_every: self.checkpoint_every,
        }
    }
}

/// One scheduling decision of the explored system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// Deliver the message at position `idx` of channel `src → dst`.
    Deliver {
        /// Source node.
        src: u8,
        /// Destination node.
        dst: u8,
        /// Queue position (always 0 with ordered channels).
        idx: u8,
    },
    /// Cache `cache` issues `access`.
    IssueAccess {
        /// The cache.
        cache: u8,
        /// The access.
        access: Access,
    },
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Deliver { src, dst, idx } => write!(f, "deliver n{src}→n{dst}[{idx}]"),
            Step::IssueAccess { cache, access } => write!(f, "cache n{cache} issues {access}"),
        }
    }
}

/// The model checker: explores every reachable state of N caches + the
/// directory running the generated FSMs, checking the configured
/// [`PropertySet`] (SWMR, data-value, single-writer, deadlock freedom)
/// plus protocol completeness, which is structural and always on.
///
/// Exploration is multi-threaded (see [`McConfig::threads`]) but the
/// result is thread-count- and interleaving-independent.
#[derive(Debug)]
pub struct ModelChecker<'a> {
    cache: Machine<&'a Fsm>,
    dir: Machine<&'a Fsm>,
    cfg: McConfig,
    /// The materialized property objects: the built-ins selected by
    /// `cfg.properties`, in deterministic order, plus any custom ones
    /// attached via [`ModelChecker::add_property`].
    props: Vec<Box<dyn Property>>,
}

impl<'a> ModelChecker<'a> {
    /// Creates a checker for the given controllers.
    ///
    /// # Panics
    ///
    /// Panics when [`McConfig::n_caches`] is outside `1..=`[`MAX_CACHES`]:
    /// zero caches verify nothing, and past the sharer mask's width cache
    /// ids alias — either would report a verdict for the wrong space.
    pub fn new(cache_fsm: &'a Fsm, dir_fsm: &'a Fsm, cfg: McConfig) -> Self {
        assert!(
            (1..=MAX_CACHES).contains(&cfg.n_caches),
            "n_caches {} outside 1..={MAX_CACHES}: the sharer list is an 8-bit mask",
            cfg.n_caches
        );
        let props = materialize(cfg.properties);
        ModelChecker { cache: Machine::new(cache_fsm), dir: Machine::new(dir_fsm), cfg, props }
    }

    /// Attaches a custom property (checked after the built-ins, in
    /// attachment order). The per-litmus-assertion hook.
    pub fn add_property(&mut self, p: Box<dyn Property>) {
        self.props.push(p);
    }

    /// Names of the properties this checker enforces, in check order.
    pub fn property_names(&self) -> Vec<&str> {
        self.props.iter().map(|p| p.name()).collect()
    }

    fn property_ctx(&self) -> PropertyCtx<'_> {
        PropertyCtx { cache_fsm: self.cache.fsm(), dir_fsm: self.dir.fsm() }
    }

    /// The controller node `node` runs (`n_caches` = the directory).
    fn machine(&self, node: u8) -> &Machine<&'a Fsm> {
        if node as usize == self.cfg.n_caches {
            &self.dir
        } else {
            &self.cache
        }
    }

    /// First violation any property reports on a load hit, in check order.
    fn check_load_hit(&self, cache: u8, value: u8, ghost: u8) -> Option<ViolationKind> {
        let cx = self.property_ctx();
        self.props.iter().find_map(|p| p.check_load_hit(&cx, cache, value, ghost))
    }

    /// Runs breadth-first exploration until exhaustion, a violation, or the
    /// state limit.
    pub fn run(&self) -> CheckResult {
        self.finish(explore(self, None))
    }

    /// Resumes exploration from the newest committed checkpoint under
    /// [`McConfig::checkpoint_dir`]: a hard [`CheckpointError`] unless it
    /// validates against this exact configuration and FSM pair,
    /// byte-identical results to an uninterrupted run otherwise (DESIGN.md
    /// §3, §13). [`McConfig::threads`] is ignored — the worker count comes
    /// from the manifest — and pair coverage, which is not checkpointed,
    /// covers only re-executed epochs.
    pub fn resume(&self) -> Result<CheckResult, CheckpointError> {
        resume(self).map(|out| self.finish(out))
    }

    /// Folds the workers' pair-coverage sets into the result (coverage is
    /// a flat-only hook, so it travels in this system's scratch).
    fn finish(&self, (mut result, scratches): (CheckResult, Vec<FlatScratch>)) -> CheckResult {
        if self.cfg.collect_pair_coverage {
            result.coverage = Some(scratches.into_iter().filter_map(|s| s.cov).flatten().collect());
        }
        result
    }

    /// All candidate steps from `state`, in canonical order: deliveries
    /// first, sorted by `(src, dst, idx)`, then accesses sorted by
    /// `(cache, access)`. The order is a pure function of `state` — never
    /// of thread interleaving — which keeps counterexample traces
    /// byte-identical run to run.
    pub fn steps(&self, state: &SysState) -> Vec<Step> {
        let mut out = Vec::new();
        self.steps_into(state, &mut out);
        out
    }

    /// Pair-coverage recording: notes which `(machine, state, event)`
    /// pair `step` dispatches on. Pairs are permutation-invariant (all
    /// caches run the same FSM and message types survive renaming), so
    /// recording them on canonical representatives covers every orbit
    /// member.
    fn observe(&self, state: &SysState, step: Step, cov: &mut PairSet) {
        let (node, event) = match step {
            Step::Deliver { src, dst, idx } => {
                let msg = state.channels[src as usize][dst as usize][idx as usize];
                (dst, Event::Msg(msg.mtype))
            }
            Step::IssueAccess { cache, access } => (cache, Event::Access(access)),
        };
        let slot = state.slot(node as usize);
        cov.insert((slot.tag(), slot.state(), event));
    }

    /// Computes the successor of `state` for `step` into the scratch
    /// state `succ`, restoring from `state` only what the previous step on
    /// this `(succ, st)` pair wrote (see [`StepScratch`]), so steady-state
    /// stepping neither allocates nor copies the untouched channels.
    /// Returns `Ok(false)` when the step is not enabled (stalled message,
    /// absent access arc, busy cache) — `succ` is garbage then and must
    /// not be read.
    fn step_into(
        &self,
        state: &SysState,
        step: Step,
        succ: &mut SysState,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        match step {
            Step::Deliver { src, dst, idx } => self.deliver_into(state, src, dst, idx, succ, st),
            Step::IssueAccess { cache, access } => self.issue_into(state, cache, access, succ, st),
        }
    }

    /// The clone-per-step successor as a standalone state (`Ok(None)`
    /// when the step is not enabled). A cold-path convenience over the
    /// internal scratch-stepping path, public for tests and the
    /// canonicalization proptests/microbenchmark, which random-walk the
    /// reachable space outside the explorer.
    pub fn successor_state(
        &self,
        state: &SysState,
        step: Step,
    ) -> Result<Option<SysState>, ViolationKind> {
        let mut succ = SysState::initial(self.cfg.n_caches);
        let enabled = self.step_into(state, step, &mut succ, &mut StepScratch::default())?;
        Ok(enabled.then_some(succ))
    }

    fn deliver_into(
        &self,
        state: &SysState,
        src: u8,
        dst: u8,
        idx: u8,
        succ: &mut SysState,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        let msg = state.channels[src as usize][dst as usize][idx as usize];
        let (machine, slot) = (self.machine(dst), state.slot(dst as usize));
        let arc = match machine.select(slot, Event::Msg(msg.mtype), Some(&msg)) {
            Selected::Arc(arc) => arc,
            Selected::Stall => return Ok(false),
            Selected::None => {
                let who = if dst as usize == state.n_caches() {
                    "directory".to_string()
                } else {
                    format!("cache n{dst}")
                };
                return Err(ViolationKind::UnexpectedMessage(machine.unexpected(who, slot, msg)));
            }
        };
        // Completion loads (e.g. the single access after invalidation in
        // IS_D_I) read the response data by construction; the physical
        // data-value check applies to hits only (design note in DESIGN.md).
        self.fire(state, dst, arc, Some((src, idx, &msg)), succ, st)?;
        self.route(succ, &st.outcome)?;
        Ok(true)
    }

    fn issue_into(
        &self,
        state: &SysState,
        cache: u8,
        access: Access,
        succ: &mut SysState,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        let block = &state.caches[cache as usize];
        let Selected::Arc(arc) =
            self.cache.select(state.slot(cache as usize), Event::Access(access), None)
        else {
            return Ok(false);
        };
        let is_hit = arc.actions.iter().any(|a| matches!(a, protogen_spec::Action::PerformAccess));
        if !is_hit && block.pending.is_some() {
            // One outstanding transaction per block per cache (§V-F).
            return Ok(false);
        }
        self.fire(state, cache, arc, None, succ, st)?;
        if let Some((Access::Load, Some(v))) = st.outcome.performed {
            if let Some(kind) = self.check_load_hit(cache, v, state.ghost) {
                return Err(kind);
            }
        }
        self.route(succ, &st.outcome)?;
        Ok(true)
    }

    /// The second half of a step, once `arc` was selected on the parent
    /// `state`: restores the scratch successor, records what is about to
    /// be written, takes the delivered message (`(src, idx, msg)`, if the
    /// step is a delivery) off its queue and applies `arc` to `node`.
    fn fire(
        &self,
        state: &SysState,
        node: u8,
        arc: &Arc,
        delivered: Option<(u8, u8, &Msg)>,
        succ: &mut SysState,
        st: &mut StepScratch,
    ) -> Result<(), ViolationKind> {
        st.sync(state, succ);
        let from = delivered.map(|(src, ..)| (src, node));
        st.touched = Some(Touched { machine: node, delivered: from });
        if let Some((src, idx, _)) = delivered {
            succ.channels[src as usize][node as usize].remove(idx as usize);
        }
        let store_value = (state.ghost + 1) % self.cfg.value_domain;
        let msg = delivered.map(|(.., msg)| msg);
        self.machine(node)
            .apply(arc, msg, succ.ctx(node as usize), store_value, &mut st.outcome)
            .map_err(exec_violation)?;
        if let Some((Access::Store, _)) = st.outcome.performed {
            succ.ghost = store_value;
        }
        Ok(())
    }

    /// Injects the outcome's outgoing messages into `succ`'s channels,
    /// checking the capacity bound.
    fn route(&self, succ: &mut SysState, outcome: &ApplyOutcome) -> Result<(), ViolationKind> {
        for i in 0..outcome.outgoing.len() {
            let m = outcome.outgoing[i];
            succ.send(m);
            let q = &succ.channels[m.src.as_usize()][m.dst.as_usize()];
            if q.len() > self.cfg.channel_cap {
                return Err(ViolationKind::ChannelOverflow(format!(
                    "channel n{}→n{} exceeded {}",
                    m.src.0, m.dst.0, self.cfg.channel_cap
                )));
            }
        }
        Ok(())
    }

    /// A breadth-first sample of reachable canonical representatives
    /// (`limit` states starting from the initial state, in deterministic
    /// BFS order — [`reference_bfs`]'s). Violating or disabled successors
    /// are skipped. Exposed for the canonicalization proptests and
    /// microbenchmark, which need realistic states rather than synthetic
    /// ones.
    pub fn sample_states(&self, limit: usize) -> Vec<SysState> {
        let encs = reference_bfs(self, limit).0;
        encs.iter().map(|e| SysState::decode(e, self.cfg.n_caches)).collect()
    }
}

/// What stepping needs between calls: the reusable apply outcome and the
/// record of what the previous step wrote into its successor scratch, so
/// the next step restores only that from the parent instead of copying
/// the whole state.
///
/// What a step may write is bounded by construction: `fire` removes from
/// one queue and hands `Machine::apply` a `&mut` to one cache block or the
/// directory entry, `route` pushes the outcome's outgoing messages onto
/// the queues they name, and the ghost is one byte. The first two are
/// recorded in `touched` before anything fallible runs and the routed
/// queues are read back from `outcome.outgoing` — a superset of what
/// `route` pushed, whether the step returned `Ok` or `Err` — so every exit
/// leaves a record [`StepScratch::sync`] can restore from.
#[derive(Debug, Default)]
struct StepScratch {
    outcome: ApplyOutcome,
    /// Whether `succ` equals the parent everywhere but in what `touched`
    /// and `outcome.outgoing` name. False in a fresh scratch and after
    /// [`TransitionSystem::decode_into`] loaded a new parent.
    synced: bool,
    touched: Option<Touched>,
}

#[derive(Debug, Clone, Copy)]
struct Touched {
    /// The machine the step applied an arc to (`n_caches` = the directory).
    machine: u8,
    /// The queue it delivered from.
    delivered: Option<(u8, u8)>,
}

impl StepScratch {
    /// Makes `succ` equal `state`: one whole copy when unsynced, otherwise
    /// a restore of exactly what the previous step wrote.
    fn sync(&mut self, state: &SysState, succ: &mut SysState) {
        if self.synced {
            if let Some(t) = self.touched.take() {
                let mut restore_queue = |src: usize, dst: usize| {
                    succ.channels[src][dst].clone_from(&state.channels[src][dst]);
                };
                if let Some((src, dst)) = t.delivered {
                    restore_queue(src as usize, dst as usize);
                }
                for m in &self.outcome.outgoing {
                    restore_queue(m.src.as_usize(), m.dst.as_usize());
                }
                match t.machine as usize {
                    m if m < state.n_caches() => succ.caches[m].clone_from(&state.caches[m]),
                    _ => succ.dir.clone_from(&state.dir),
                }
                succ.ghost = state.ghost;
            }
        } else {
            succ.clone_from(state);
            self.synced = true;
        }
        debug_assert!(succ == state, "restored successor scratch differs from its parent");
    }
}

/// The flat system's per-worker scratch: the stepping scratch, the pruned
/// canonicalizer, and — only when [`McConfig::collect_pair_coverage`] is
/// set — the worker's pair set.
#[derive(Debug)]
pub struct FlatScratch {
    step: StepScratch,
    canon: Canonicalizer,
    cov: Option<PairSet>,
}

impl TransitionSystem for ModelChecker<'_> {
    type State = SysState;
    type Step = Step;
    type Scratch = FlatScratch;

    fn resources(&self) -> Resources<'_> {
        self.cfg.resources()
    }

    fn identity_fp(&self) -> (u64, u64) {
        let cfg = &self.cfg;
        let desc = format!(
            "caches={} domain={} cap={} ordered={} symmetry={} store={:?} props={}",
            cfg.n_caches,
            cfg.value_domain,
            cfg.channel_cap,
            cfg.ordered,
            cfg.symmetry,
            cfg.store,
            self.property_names().join(","),
        );
        let fsms = format!("{:?}\x1f{:?}", self.cache.fsm(), self.dir.fsm());
        (fingerprint_bytes(desc.as_bytes()), fingerprint_bytes(fsms.as_bytes()))
    }

    fn section_map(&self) -> SectionMap {
        SectionMap::flat(self.cfg.n_caches)
    }

    fn initial(&self) -> SysState {
        SysState::initial(self.cfg.n_caches)
    }

    fn scratch(&self) -> FlatScratch {
        FlatScratch {
            step: StepScratch::default(),
            canon: Canonicalizer::new(self.cfg.n_caches, self.cfg.symmetry),
            cov: self.cfg.collect_pair_coverage.then(PairSet::new),
        }
    }

    fn steps_into(&self, state: &SysState, out: &mut Vec<Step>) {
        out.clear();
        let n = state.n_caches() + 1;
        for src in 0..n {
            for dst in 0..n {
                let q = &state.channels[src][dst];
                if q.is_empty() {
                    continue;
                }
                let last = if self.cfg.ordered { 1 } else { q.len() };
                for idx in 0..last {
                    out.push(Step::Deliver { src: src as u8, dst: dst as u8, idx: idx as u8 });
                }
            }
        }
        for cache in 0..state.n_caches() {
            for access in Access::ALL {
                out.push(Step::IssueAccess { cache: cache as u8, access });
            }
        }
    }

    fn successor_into(
        &self,
        state: &SysState,
        step: Step,
        succ: &mut SysState,
        scratch: &mut FlatScratch,
    ) -> Result<bool, ViolationKind> {
        if let Some(cov) = scratch.cov.as_mut() {
            self.observe(state, step, cov);
        }
        self.step_into(state, step, succ, &mut scratch.step)
    }

    /// Only deliveries: new accesses can only add transactions, never
    /// unblock existing ones.
    fn is_progress(&self, _state: &SysState, step: Step) -> bool {
        matches!(step, Step::Deliver { .. })
    }

    fn check_state(&self, state: &SysState) -> Option<ViolationKind> {
        let cx = self.property_ctx();
        self.props.iter().find_map(|p| p.check_state(&cx, state))
    }

    fn check_quiescence(&self, state: &SysState) -> Option<ViolationKind> {
        let cx = self.property_ctx();
        self.props.iter().find_map(|p| p.check_quiescence(&cx, state))
    }

    fn canonical_fp(&self, state: &SysState, scratch: &mut FlatScratch) -> u64 {
        scratch.canon.canonical_fp(state)
    }

    fn encode_canonical_into(&self, scratch: &FlatScratch, out: &mut Vec<u8>) {
        scratch.canon.encode_best_into(out);
    }

    fn decode_into(&self, bytes: &[u8], state: &mut SysState, scratch: &mut FlatScratch) {
        state.decode_into(bytes, self.cfg.n_caches);
        scratch.step.synced = false;
    }

    /// Preserves [`Step`]'s derived ordering: deliveries sort before
    /// accesses, deliveries by `(src, dst, idx)`, accesses by
    /// `(cache, access)` — the order `steps_into` generates them in.
    fn pack_step(step: Step) -> u32 {
        match step {
            Step::Deliver { src, dst, idx } => {
                ((src as u32) << 16) | ((dst as u32) << 8) | idx as u32
            }
            Step::IssueAccess { cache, access } => {
                (1 << 24) | ((cache as u32) << 8) | access.index() as u32
            }
        }
    }

    fn unpack_step(packed: u32) -> Step {
        debug_assert_ne!(packed, STEP_NONE);
        if packed & (1 << 24) == 0 {
            Step::Deliver { src: (packed >> 16) as u8, dst: (packed >> 8) as u8, idx: packed as u8 }
        } else {
            Step::IssueAccess {
                cache: (packed >> 8) as u8,
                access: Access::ALL[(packed & 0xff) as usize],
            }
        }
    }

    fn describe(&self, state: &SysState, step: Step) -> String {
        let state_name = |node: u8| {
            self.machine(node).fsm().state(state.slot(node as usize).state()).full_name()
        };
        match step {
            Step::Deliver { src, dst, idx } => {
                let msg = state.channels[src as usize][dst as usize][idx as usize];
                let mname = &self.cache.fsm().msg(msg.mtype).name;
                let holder = if dst as usize == state.n_caches() {
                    format!("dir[{}]", state_name(dst))
                } else {
                    format!("n{dst}[{}]", state_name(dst))
                };
                format!("{mname} {msg} -> {holder}")
            }
            Step::IssueAccess { cache, access } => {
                format!("n{cache}[{}] {access}", state_name(cache))
            }
        }
    }
}
