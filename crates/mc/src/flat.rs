//! The flat system: N caches under one directory — the one-subnet case of
//! the subnet kernel (`subnet.rs`) — explored by the generic explorer
//! (`explore.rs`): its configuration, its steps, and the
//! [`TransitionSystem`] implementation over [`SysState`] and the pruned
//! [`Canonicalizer`].

use crate::canon::Canonicalizer;
use crate::checkpoint::CheckpointError;
use crate::delta::SectionMap;
use crate::explore::{
    explore, reference_bfs, resume, CheckResult, StoreMode, TransitionSystem, ViolationKind,
};
use crate::property::{LevelBlocks, PropertySet};
use crate::store::{fingerprint_bytes, STEP_NONE};
use crate::subnet::{At, Kernel, StepScratch, Subnet, SubnetMut, Subnets, ONLY};
use crate::system::{SysState, MAX_CACHES, MAX_CHANNEL_CAP};
use protogen_runtime::{Coverage, Machine};
use protogen_spec::{Access, Fsm};
use std::fmt;

/// Store values cycle through `0..VALUE_DOMAIN` (the smallest domain in
/// which a store can change the value: the standard bounding discipline).
pub(crate) const VALUE_DOMAIN: u8 = 2;

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
    /// Error out when a channel exceeds this length.
    pub channel_cap: usize,
    /// Point-to-point ordered channels (`true`) or arbitrary reordering.
    /// A composed stack orders each level's channels as that level's SSP
    /// declares instead.
    pub ordered: bool,
    /// Which built-in correctness properties to enforce (defaults to the
    /// SC contract: SWMR + data-value + deadlock freedom). Weak-memory
    /// protocols select the contract they actually promise via
    /// [`PropertySet::promised`].
    pub properties: PropertySet,
    /// Canonicalize states under cache-id permutation (Murϕ scalarsets).
    pub symmetry: bool,
    /// Workers (= visited-set shards). The calling thread is worker 0
    /// and each further worker is a scoped thread, so `1` creates no
    /// thread. `0` — the default — means "use
    /// [`std::thread::available_parallelism`]"; values are clamped to
    /// [`crate::MAX_SHARDS`]. Results are identical for every worker
    /// count.
    pub threads: usize,
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
    /// frontier pages, batch pools), split evenly across workers. When a
    /// worker's share is exceeded, cold frontier bytes and frozen visited
    /// records spill to page-aligned scratch files and stream back in
    /// (see DESIGN.md §9). `0` — the default — disables spilling; the
    /// budget is also ignored on platforms without positioned file reads.
    /// Results are byte-identical at any budget.
    pub mem_budget_bytes: usize,
    /// How states are stored: full encodings, delta-compressed encodings,
    /// or fingerprints only (see [`StoreMode`]).
    pub store: StoreMode,
    /// Spill granularity: the frontier's pages in memory are flushed once
    /// they hold at least this many bytes (clamped up to one 4 KiB spill
    /// page). Exposed so tests can force spilling on tiny state spaces; the
    /// default of 1 MiB is right for real runs.
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
            channel_cap: 8,
            ordered: true,
            properties: PropertySet::sc(),
            symmetry: true,
            threads: 0,
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

    /// The per-shard state bound actually enforced: `shard_capacity`
    /// clamped to the packed-id limit (a zero is treated as "no extra
    /// bound").
    pub(crate) fn effective_shard_capacity(&self) -> usize {
        match self.shard_capacity {
            0 => crate::store::SHARD_CAPACITY,
            cap => cap.min(crate::store::SHARD_CAPACITY),
        }
    }

    /// Refuses a [`McConfig::channel_cap`] past [`MAX_CHANNEL_CAP`]: two
    /// distinct states would share an encoding, and a delivery step could
    /// name the wrong message.
    pub(crate) fn assert_channel_cap(&self) {
        assert!(
            self.channel_cap <= MAX_CHANNEL_CAP,
            "channel_cap {} over {MAX_CHANNEL_CAP}: a queue's length and a delivery's index are \
             one byte",
            self.channel_cap
        );
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
}

impl<'a> ModelChecker<'a> {
    /// Creates a checker for the given controllers.
    ///
    /// # Panics
    ///
    /// Panics when [`McConfig::n_caches`] is outside `1..=`[`MAX_CACHES`]:
    /// zero caches verify nothing, and past the sharer mask's width cache
    /// ids alias — either would report a verdict for the wrong space. Panics
    /// too when [`McConfig::channel_cap`] is over [`MAX_CHANNEL_CAP`], where
    /// queue lengths and delivery indices wrap.
    pub fn new(cache_fsm: &'a Fsm, dir_fsm: &'a Fsm, cfg: McConfig) -> Self {
        assert!(
            (1..=MAX_CACHES).contains(&cfg.n_caches),
            "n_caches {} outside 1..={MAX_CACHES}: the sharer list is an 8-bit mask",
            cfg.n_caches
        );
        cfg.assert_channel_cap();
        ModelChecker { cache: Machine::new(cache_fsm), dir: Machine::new(dir_fsm), cfg }
    }

    /// Runs breadth-first exploration until exhaustion, a violation, or the
    /// state limit.
    pub fn run(&self) -> CheckResult {
        explore(self, None).0
    }

    /// Resumes exploration from the newest committed checkpoint under
    /// [`McConfig::checkpoint_dir`]: a hard [`CheckpointError`] unless it
    /// validates against this exact configuration and FSM pair,
    /// byte-identical results to an uninterrupted run otherwise (DESIGN.md
    /// §3, §13). [`McConfig::threads`] is ignored — the worker count comes
    /// from the manifest — and pair coverage, which is not checkpointed,
    /// covers only re-executed epochs.
    pub fn resume(&self) -> Result<CheckResult, CheckpointError> {
        resume(self)
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

    /// Computes the successor of `state` for `step` into the scratch
    /// state `succ` through the subnet kernel: the flat system is its one
    /// subnet. Returns `Ok(false)` when the step is not enabled (stalled
    /// message, absent access arc, busy cache) — `succ` is garbage then and
    /// must not be read.
    fn step_into(
        &self,
        state: &SysState,
        step: Step,
        succ: &mut SysState,
        st: &mut StepScratch,
    ) -> Result<bool, ViolationKind> {
        match step {
            Step::Deliver { src, dst, idx } => {
                let at = (src as usize, dst as usize, idx as usize);
                self.kernel().deliver(state, ONLY, at, succ, st)
            }
            Step::IssueAccess { cache, access } => {
                self.kernel().issue(state, ONLY, cache as usize, access, succ, st)
            }
        }
    }

    /// The subnet kernel over this system's one level.
    fn kernel(&self) -> Kernel<'_, &'a Fsm> {
        Kernel { cache: &self.cache, dir: &self.dir, cfg: &self.cfg, label: None }
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
        let enabled = self.step_into(state, step, &mut succ, &mut self.step_scratch())?;
        Ok(enabled.then_some(succ))
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

    /// A stepping scratch recording this system's one level.
    fn step_scratch(&self) -> StepScratch {
        StepScratch::new([(self.cache.fsm(), self.dir.fsm())])
    }

    /// What `identity_fp` hashes of the configuration. Committed
    /// checkpoints pin it byte for byte, `props=` included (the enabled
    /// properties in check order).
    fn identity_desc(&self) -> String {
        let cfg = &self.cfg;
        format!(
            "caches={} domain={VALUE_DOMAIN} cap={} ordered={} symmetry={} store={:?} props={}",
            cfg.n_caches,
            cfg.channel_cap,
            cfg.ordered,
            cfg.symmetry,
            cfg.store,
            cfg.properties.check_order(),
        )
    }
}

impl Subnets for SysState {
    fn subnet(&self, _: At) -> Subnet<'_> {
        Subnet { caches: &self.caches, dir: &self.dir, chans: &self.channels, ghost: self.ghost }
    }

    fn subnet_mut(&mut self, _: At) -> SubnetMut<'_> {
        SubnetMut {
            caches: &mut self.caches,
            dir: &mut self.dir,
            chans: &mut self.channels,
            ghost: &mut self.ghost,
        }
    }
}

/// The flat system's per-worker scratch: the stepping scratch (with the
/// worker's coverage recorders) and the pruned canonicalizer.
#[derive(Debug)]
pub struct FlatScratch {
    step: StepScratch,
    canon: Canonicalizer,
}

impl TransitionSystem for ModelChecker<'_> {
    type State = SysState;
    type Step = Step;
    type Scratch = FlatScratch;

    fn config(&self) -> &McConfig {
        &self.cfg
    }

    fn identity_fp(&self) -> (u64, u64) {
        let desc = self.identity_desc();
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
            step: self.step_scratch(),
            canon: Canonicalizer::new(self.cfg.n_caches, self.cfg.symmetry),
        }
    }

    fn steps_into(&self, state: &SysState, out: &mut Vec<Step>) {
        out.clear();
        state.subnet(ONLY).deliveries(self.cfg.ordered, |src, dst, idx| {
            out.push(Step::Deliver { src: src as u8, dst: dst as u8, idx: idx as u8 });
        });
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
        self.step_into(state, step, succ, &mut scratch.step)
    }

    /// Only deliveries: new accesses can only add transactions, never
    /// unblock existing ones.
    fn is_progress(&self, _state: &SysState, step: Step) -> bool {
        matches!(step, Step::Deliver { .. })
    }

    fn check_state(&self, state: &SysState) -> Option<ViolationKind> {
        let caches = LevelBlocks { fsm: self.cache.fsm(), blocks: &state.caches, label: None };
        self.cfg.properties.check_state(std::iter::once(caches), state.ghost)
    }

    fn check_quiescence(&self, state: &SysState) -> Option<ViolationKind> {
        self.cfg
            .properties
            .check_quiescence(|| state.messages_in_flight() > 0 || state.has_pending_access())
    }

    fn canonical_fp(&self, state: &SysState, scratch: &mut FlatScratch) -> u64 {
        scratch.canon.canonical_fp(state)
    }

    fn canonical_bytes<'s>(&self, scratch: &'s FlatScratch) -> &'s [u8] {
        scratch.canon.best()
    }

    fn decode_into(&self, bytes: &[u8], state: &mut SysState, scratch: &mut FlatScratch) {
        state.decode_into(bytes, self.cfg.n_caches);
        scratch.step.unsync();
    }

    /// Pairs are permutation-invariant (all caches run the same FSM and
    /// message types survive renaming), so recording them on canonical
    /// representatives covers every orbit member.
    fn coverage(scratch: &FlatScratch) -> &[Coverage] {
        &scratch.step.coverage
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
        self.kernel().describe(state, ONLY, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_core::{generate, GenConfig};

    /// Committed flat checkpoints resume only while this string stays
    /// byte-identical: `props=` lists the enabled properties in check
    /// order, `,`-joined — not `Display`'s `+`-joined order.
    #[test]
    fn identity_description_is_pinned_for_the_named_sets() {
        let g = generate(&protogen_protocols::msi(), &GenConfig::stalling()).unwrap();
        for (set, props) in [
            (PropertySet::sc(), "swmr,data-value,deadlock"),
            (PropertySet::tso(), "single-writer,deadlock"),
            (PropertySet::weak(), "deadlock"),
            (PropertySet::none(), ""),
        ] {
            let cfg = McConfig { properties: set, ..McConfig::default() };
            let mc = ModelChecker::new(&g.cache, &g.directory, cfg);
            assert_eq!(
                mc.identity_desc(),
                format!(
                    "caches=3 domain=2 cap=8 ordered=true symmetry=true store=Full props={props}"
                ),
                "{set}"
            );
        }
    }
}
