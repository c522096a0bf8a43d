//! Parallel explicit-state reachability exploration with invariant
//! checking, generic over the explored [`TransitionSystem`].
//!
//! The explorer is an epoch-synchronized, sharded-frontier BFS: `threads`
//! workers each own one shard of the visited set (a state belongs to the
//! shard `fingerprint % threads`, see [`crate::store`]); worker 0 is the
//! calling thread, the others are scoped threads. Within an epoch
//! (one BFS level) a worker expands its frontier — held as canonical
//! *encodings*, decoded into a per-worker scratch state — steps each
//! successor into a second scratch state (no per-step clone), and routes
//! the successor's canonical encoding to the owning shard's bounded batch
//! queue, draining its own queue opportunistically between expansions.
//! Workers rendezvous only at epoch boundaries, where the last arriver
//! publishes the budget/violation decision (see [`crate::frontier`]). The
//! design is deterministic by construction: states, transitions, the
//! chosen violation, and the counterexample trace are identical for every
//! thread count and every run. A visited state keeps only its parent's id
//! ([`crate::store`]); the parent-race key is kept for the level being
//! inserted only, and a counterexample's steps are re-derived from the
//! parents on replay (`build_trace`). It is instantiated over the flat
//! checker ([`crate::ModelChecker`]), the composed one
//! ([`crate::HierChecker`]) and the litmus harness's runs; DESIGN.md
//! "Explorer and `TransitionSystem`" carries the trait contract and the
//! determinism argument.

use crate::checkpoint::{CheckpointError, LoadedCheckpoint};
use crate::delta::SectionMap;
use crate::flat::McConfig;
use crate::frontier::{CandBatch, CandMeta, Coordinator, Decision, Inbox, Outboxes, VioCand};
use crate::store::{Gid, ShardStore, StateRec, StoreBytes, StoreCounters, MAX_SHARDS, STEP_NONE};
use protogen_core::par;
use protogen_runtime::{Coverage, PairSet};
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// A system the explorer can search. The contract every implementation
/// owes the determinism argument (DESIGN.md "Explorer and
/// `TransitionSystem`"):
///
/// * [`steps_into`](Self::steps_into) lists candidate steps in a canonical
///   order that is a pure function of the state, and
///   [`pack_step`](Self::pack_step) is injective, order-preserving over
///   that order, and never yields `u32::MAX` — so "minimum packed step" is
///   "first in canonical order" at any thread count;
/// * [`canonical_fp`](Self::canonical_fp) is constant on a symmetry orbit
///   and [`canonical_bytes`](Self::canonical_bytes) lends the one
///   representative encoding that fingerprint belongs to, which
///   [`decode_into`](Self::decode_into) inverts and
///   [`section_map`](Self::section_map) describes;
/// * [`identity_fp`](Self::identity_fp) changes whenever the reachable
///   space or its encoding could.
pub trait TransitionSystem: Sync {
    /// One explored configuration.
    type State;
    /// One scheduling decision.
    type Step: Copy;
    /// Per-worker scratch the hot path reuses: canonicalizer buffers, the
    /// apply outcome, and the worker's coverage recorders, which
    /// [`coverage`](Self::coverage) hands back when a run ends.
    type Scratch: Send;

    /// The checker configuration this system runs under: the explorer
    /// reads its resource settings (workers, budgets, store mode,
    /// checkpoints) from it.
    fn config(&self) -> &McConfig;

    /// `(configuration, machines)` fingerprints binding a checkpoint to
    /// the exact system whose exploration it froze: the first covers
    /// every semantic setting plus the store mode and property names, the
    /// second the generated FSMs (and, for stacks, topology and glue).
    fn identity_fp(&self) -> (u64, u64);

    /// The delta-compression section layout of this system's encodings.
    fn section_map(&self) -> SectionMap;

    /// The initial state (also the shape every scratch state starts in).
    fn initial(&self) -> Self::State;

    /// A fresh per-worker scratch.
    fn scratch(&self) -> Self::Scratch;

    /// All candidate steps from `state`, in canonical order.
    fn steps_into(&self, state: &Self::State, out: &mut Vec<Self::Step>);

    /// Computes the successor of `state` for `step` into `succ`. Returns
    /// `Ok(false)` when the step is not enabled — `succ` is garbage then
    /// and must not be read.
    ///
    /// `succ` and `scratch` travel as a pair, and `state` is the parent the
    /// pair was last synced to: a system need not copy the whole parent
    /// per step — it may remember in `scratch` which parts of `succ` the
    /// previous step wrote and restore only those from `state`. So between
    /// two calls on the same pair, `state` may change only through
    /// [`decode_into`](Self::decode_into) with that `scratch` (which
    /// marks the pair unsynced; the next step copies the parent whole),
    /// and `succ` only through this method. A fresh scratch starts
    /// unsynced.
    fn successor_into(
        &self,
        state: &Self::State,
        step: Self::Step,
        succ: &mut Self::State,
        scratch: &mut Self::Scratch,
    ) -> Result<bool, ViolationKind>;

    /// Whether an enabled `step` from `state` counts as progress for the
    /// liveness hook: a state none of whose enabled steps do is handed to
    /// [`check_quiescence`](Self::check_quiescence).
    fn is_progress(&self, state: &Self::State, step: Self::Step) -> bool;

    /// State-level properties, checked on every successor.
    fn check_state(&self, state: &Self::State) -> Option<ViolationKind>;

    /// The liveness hook, checked on states with no progress step.
    fn check_quiescence(&self, state: &Self::State) -> Option<ViolationKind>;

    /// The canonical fingerprint of `state`; keeps the canonical encoding
    /// it belongs to in `scratch`, where
    /// [`canonical_bytes`](Self::canonical_bytes) lends it out.
    fn canonical_fp(&self, state: &Self::State, scratch: &mut Self::Scratch) -> u64;

    /// The canonical encoding the most recent
    /// [`canonical_fp`](Self::canonical_fp) call on `scratch` selected.
    fn canonical_bytes<'s>(&self, scratch: &'s Self::Scratch) -> &'s [u8];

    /// Decodes a canonical encoding into `state`, reusing its allocations,
    /// and marks `scratch`'s successor state unsynced: `state` is a new
    /// parent (see [`successor_into`](Self::successor_into)).
    fn decode_into(&self, bytes: &[u8], state: &mut Self::State, scratch: &mut Self::Scratch);

    /// The coverage recorders in `scratch`, merged over every worker into
    /// [`CheckResult::coverage`] when a run ends.
    fn coverage(scratch: &Self::Scratch) -> &[Coverage];

    /// Packs a step into 32 bits (see the trait-level contract).
    fn pack_step(step: Self::Step) -> u32;

    /// Inverse of [`pack_step`](Self::pack_step).
    fn unpack_step(packed: u32) -> Self::Step;

    /// One counterexample-trace line for `step` taken from `state`.
    fn describe(&self, state: &Self::State, step: Self::Step) -> String;
}

/// The exact-dedup reference walker: a sequential BFS over canonical
/// *encodings* (a `HashSet<Vec<u8>>`, no fingerprints), stopping once
/// `limit` states are known. Returns the encodings in deterministic BFS
/// order and the transitions fired. Violating or disabled successors are
/// skipped. It is the sampler behind [`crate::ModelChecker::sample_states`]
/// and, run to exhaustion, the collision oracle the explorer's 64-bit
/// fingerprint store is tested against.
pub fn reference_bfs<S: TransitionSystem>(sys: &S, limit: usize) -> (Vec<Vec<u8>>, usize) {
    let mut scratch = sys.scratch();
    let (mut state, mut succ) = (sys.initial(), sys.initial());
    let mut steps = Vec::new();
    sys.canonical_fp(&state, &mut scratch);
    let root = sys.canonical_bytes(&scratch).to_vec();
    let mut seen = std::collections::HashSet::from([root.clone()]);
    let mut order = vec![root];
    let (mut at, mut transitions) = (0usize, 0usize);
    while at < order.len() && order.len() < limit {
        sys.decode_into(&order[at], &mut state, &mut scratch);
        sys.steps_into(&state, &mut steps);
        for &step in &steps {
            if order.len() >= limit {
                break;
            }
            if let Ok(true) = sys.successor_into(&state, step, &mut succ, &mut scratch) {
                transitions += 1;
                if sys.check_state(&succ).is_some() {
                    continue;
                }
                sys.canonical_fp(&succ, &mut scratch);
                let enc = sys.canonical_bytes(&scratch);
                if !seen.contains(enc) {
                    seen.insert(enc.to_vec());
                    order.push(enc.to_vec());
                }
            }
        }
        at += 1;
    }
    (order, transitions)
}

/// How the checker stores visited/frontier states (the tiered-store
/// tentpole: trade reconstruction capability for RAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// Full canonical encodings in the frontier (the fastest mode and the
    /// default).
    #[default]
    Full,
    /// Frontier encodings are delta-compressed against the previous
    /// frontier entry (BFS siblings share most bytes — see [`crate::encode_delta`]),
    /// typically 4–8× smaller. Everything else, including counterexample
    /// traces, works as in [`StoreMode::Full`].
    Delta,
    /// Murϕ "hash compaction" proper: only 64-bit fingerprints are kept
    /// per visited state — no parent records, so no counterexample trace
    /// can be reconstructed, and a fingerprint collision silently prunes
    /// part of the space. [`CheckResult::expected_collision_pairs`]
    /// quantifies that risk (DESIGN.md §3). Frontier encodings are
    /// delta-compressed as in [`StoreMode::Delta`].
    FpOnly,
}

impl StoreMode {
    /// Whether frontier records hold delta-compressed encodings.
    pub(crate) fn delta_frontier(self) -> bool {
        !matches!(self, StoreMode::Full)
    }

    /// Whether per-state parent records exist (trace reconstruction).
    pub(crate) fn keeps_recs(self) -> bool {
        !matches!(self, StoreMode::FpOnly)
    }
}

impl std::str::FromStr for StoreMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(StoreMode::Full),
            "delta" => Ok(StoreMode::Delta),
            "fp-only" => Ok(StoreMode::FpOnly),
            _ => Err(format!("unknown store mode '{s}' (expected full, delta, or fp-only)")),
        }
    }
}

/// Which resource bound stopped exploration before the state space was
/// exhausted. The run's [`CheckResult`] still carries everything explored
/// up to that point (partial stats), and [`CheckResult::passed`] is
/// `false`: an incomplete exploration proves nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceLimit {
    /// The global [`McConfig::max_states`] budget was spent.
    StateBudget,
    /// A visited-set shard reached [`McConfig::shard_capacity`] states (the
    /// shard id is recorded; with several full shards in one level, the
    /// smallest id wins deterministically).
    ShardCapacity {
        /// The first (lowest-id) shard that filled up.
        shard: usize,
    },
}

impl fmt::Display for ResourceLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceLimit::StateBudget => f.write_str("state budget exhausted"),
            ResourceLimit::ShardCapacity { shard } => {
                write!(f, "visited-set shard {shard} reached capacity")
            }
        }
    }
}

/// Why checking failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two caches hold conflicting permissions simultaneously.
    Swmr(String),
    /// A load returned a value other than the most recent store.
    DataValue(String),
    /// A non-quiescent state has no deliverable message.
    Deadlock,
    /// A message arrived for which the controller has no transition — the
    /// generated protocol is incomplete.
    UnexpectedMessage(String),
    /// A channel exceeded its capacity bound.
    ChannelOverflow(String),
    /// The runtime refused an action that is impossible in the current
    /// system state — a send addressed to an absent owner, data demanded
    /// from an invalid copy. A protocol-correctness violation of the
    /// *specification* (the checker catching a bad protocol), as opposed
    /// to [`ViolationKind::Exec`].
    IllegalAction(String),
    /// The runtime rejected an action over the generated machine's own
    /// structure (absent message context, bad deferred slot): a generator
    /// bug.
    Exec(String),
}

/// Deterministic ordering key over violation kinds (rank, detail) so the
/// end-of-level minimum-selection never depends on discovery order.
fn kind_key(kind: &ViolationKind) -> (u8, &str) {
    match kind {
        ViolationKind::Swmr(d) => (0, d),
        ViolationKind::DataValue(d) => (1, d),
        ViolationKind::Deadlock => (2, ""),
        ViolationKind::UnexpectedMessage(d) => (3, d),
        ViolationKind::ChannelOverflow(d) => (4, d),
        ViolationKind::IllegalAction(d) => (5, d),
        ViolationKind::Exec(d) => (6, d),
    }
}

fn vio_key(v: &VioCand) -> (u64, u32, u8, &str) {
    let (rank, detail) = kind_key(&v.kind);
    (v.parent_fp, v.step, rank, detail)
}

/// Classifies a runtime execution failure: state-level impossibilities
/// are protocol violations the checker caught; structural ones are
/// generator bugs.
pub(crate) fn exec_violation(e: protogen_runtime::ExecError) -> ViolationKind {
    if e.is_state_error() {
        ViolationKind::IllegalAction(e.to_string())
    } else {
        ViolationKind::Exec(e.to_string())
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Swmr(d) => write!(f, "SWMR violation: {d}"),
            ViolationKind::DataValue(d) => write!(f, "data-value violation: {d}"),
            ViolationKind::Deadlock => f.write_str("deadlock"),
            ViolationKind::UnexpectedMessage(d) => write!(f, "unexpected message: {d}"),
            ViolationKind::ChannelOverflow(d) => write!(f, "channel overflow: {d}"),
            ViolationKind::IllegalAction(d) => write!(f, "illegal action: {d}"),
            ViolationKind::Exec(d) => write!(f, "execution error: {d}"),
        }
    }
}

/// A violation with its counterexample trace (one line per step from the
/// initial state). With symmetry reduction on, the trace walks canonical
/// representatives, so cache ids may be permuted between consecutive lines
/// — the standard scalarset-counterexample caveat.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// Human-readable steps from the initial state to the violation.
    pub trace: Vec<String>,
}

/// Outcome of a model-checking run.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Distinct (canonicalized) states visited.
    pub states: usize,
    /// Transitions fired.
    pub transitions: usize,
    /// The deterministically chosen first violation, if any.
    pub violation: Option<Violation>,
    /// The resource bound that stopped exploration before it exhausted
    /// the space, when one did. The stats above are the partial
    /// exploration up to that point.
    pub limit: Option<ResourceLimit>,
    /// Wall-clock seconds spent exploring.
    pub seconds: f64,
    /// Peak bytes held by the sharded visited set (fingerprint columns,
    /// slot tables and packed parent-pointer records), sampled at epoch
    /// boundaries with `peak_mem_bytes` and summed across workers.
    pub store_bytes: usize,
    /// `store_bytes` by component, at the epoch that set the peak.
    pub store_split: StoreBytes,
    /// The fingerprint maps' work, summed over shards when the run ends
    /// (see [`StoreCounters`] for which counts repeat across thread
    /// counts).
    pub store_counters: StoreCounters,
    /// Peak accounted RAM across one whole epoch: visited shards *plus*
    /// their side columns, frontier pages, outbox/batch-pool allocations,
    /// and queued inbox batches — the figure the old `store_bytes`
    /// understated. Sampled at epoch boundaries and summed across workers.
    pub peak_mem_bytes: usize,
    /// The BFS depth of the level expanded in the epoch that set
    /// `peak_mem_bytes` (0 is the root's). Repeats run to run at one
    /// worker.
    pub peak_mem_depth: u32,
    /// The part of `peak_mem_bytes` held by the frontier's pages, in use
    /// or pooled, at the epoch that set it.
    pub frontier_bytes: usize,
    /// The part of `peak_mem_bytes` held by the side columns that keep the
    /// parent-race keys of the level being inserted, at the epoch that set
    /// it. The rest is the visited shards and the candidate batches (none
    /// at one worker).
    pub hot_level_bytes: usize,
    /// Payload bytes written to spill files over the whole run: the sum
    /// of `frontier_spill_bytes` and `visited_spill_bytes`. Zero when no
    /// memory budget is set or it was never exceeded.
    pub spill_bytes: u64,
    /// Spill chunks written over the whole run, both tiers.
    pub spill_chunks: u64,
    /// The part of `spill_bytes` written by frontier pages.
    pub frontier_spill_bytes: u64,
    /// The part of `spill_bytes` written by frozen visited records.
    pub visited_spill_bytes: u64,
    /// Workers used, the calling thread included.
    pub threads: usize,
    /// Every `(machine, state, event)` dispatch the run attempted, tagged
    /// with its protocol level. A resumed run covers only the epochs it
    /// executed itself (coverage is not checkpointed).
    pub coverage: PairSet,
}

impl CheckResult {
    /// Whether the protocol passed every check over the explored space.
    pub fn passed(&self) -> bool {
        self.violation.is_none() && self.limit.is_none()
    }

    /// Expected number of state pairs merged by a 64-bit fingerprint
    /// collision: `n(n-1)/2⁶⁵` (DESIGN.md §3). Every store mode relies on
    /// hash compaction, but only [`StoreMode::FpOnly`] drops the evidence
    /// needed to notice one, so the CLI surfaces this bound there.
    pub fn expected_collision_pairs(&self) -> f64 {
        let n = self.states as f64;
        n * (n - 1.0) / 2f64.powi(65)
    }
}

/// Consecutive delta entries allowed before a full-encoding restart.
/// Entries are only ever read sequentially within an epoch, so chains
/// could be unbounded for correctness; periodic restarts bound the cost
/// of a corrupt-chain blast radius and keep individual deltas honest
/// (a drifted base stops compressing and falls back to full anyway).
const DELTA_RESTART: u32 = 64;

/// Bytes in one frontier page. A record never spans pages; one longer than
/// a page gets a page of its own, sized to it.
const PAGE_BYTES: usize = 64 << 10;

/// Free pages the pool keeps across a level boundary; the rest are freed.
const POOL_RESERVE: usize = 4;

/// Appends one frontier record to `out`: the state's shard-local id (4
/// bytes, little-endian), the varint `len << 1 | delta`, then the `len`
/// bytes of `body` — a full canonical encoding, or with `delta` set a
/// sectioned diff against the previous record's full encoding. Every
/// record is written here.
pub(crate) fn put_record(out: &mut Vec<u8>, lid: u32, delta: bool, body: &[u8]) {
    out.extend_from_slice(&lid.to_le_bytes());
    let mut v = (body.len() as u64) << 1 | u64::from(delta);
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out.extend_from_slice(body);
}

/// The bytes [`put_record`] writes for a body of `len` bytes.
fn record_len(len: usize) -> usize {
    let bits = 64 - ((len as u64) << 1 | 1).leading_zeros() as usize;
    4 + bits.div_ceil(7) + len
}

/// One frontier record, as [`put_record`] wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record<'a> {
    /// The state's shard-local id.
    pub(crate) lid: u32,
    /// Whether `body` is a delta against the previous record.
    pub(crate) delta: bool,
    /// The encoding or the delta.
    pub(crate) body: &'a [u8],
}

impl<'a> Record<'a> {
    /// The record at the start of `bytes` and its length in bytes, or
    /// `None` when `bytes` ends inside it.
    pub(crate) fn parse(bytes: &'a [u8]) -> Option<(Record<'a>, usize)> {
        let lid = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
        let (mut v, mut shift, mut at) = (0u64, 0u32, 4usize);
        loop {
            let b = *bytes.get(at)?;
            at += 1;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let end = at.checked_add(usize::try_from(v >> 1).ok()?)?;
        Some((Record { lid, delta: v & 1 != 0, body: bytes.get(at..end)? }, end))
    }
}

/// A worker's free pages. `held` counts every page the pool handed out and
/// has not freed, in use or free, so it is the frontier's resident bytes.
#[derive(Debug, Default)]
struct Pool {
    free: Vec<Vec<u8>>,
    held: usize,
}

impl Pool {
    /// An empty page with room for `n` bytes: a free page when `n` fits
    /// one, else a new allocation of `max(n, PAGE_BYTES)`.
    fn take(&mut self, n: usize) -> Vec<u8> {
        if n <= PAGE_BYTES {
            if let Some(page) = self.free.pop() {
                return page;
            }
        }
        let cap = n.max(PAGE_BYTES);
        self.held += cap;
        Vec::with_capacity(cap)
    }

    /// Takes `page` back: a standard page waits for reuse, an oversized one
    /// is freed.
    fn give(&mut self, mut page: Vec<u8>) {
        if page.capacity() == PAGE_BYTES {
            page.clear();
            self.free.push(page);
        } else {
            self.held -= page.capacity();
        }
    }

    /// Frees every free page past the first `keep`.
    fn trim(&mut self, keep: usize) {
        for page in self.free.drain(keep.min(self.free.len())..) {
            self.held -= page.capacity();
        }
    }
}

/// One BFS level of one shard: its records in pages, oldest first. Under a
/// memory budget the oldest pages go to the level's spill file; the ones
/// in memory follow them, and the last takes appends.
#[derive(Debug, Default)]
struct Level {
    /// `(file offset, length)` of each spilled page, oldest first.
    spilled: VecDeque<(u64, usize)>,
    /// The pages in memory, oldest first.
    pages: VecDeque<Vec<u8>>,
    /// Bytes used in `pages`.
    hot: usize,
    /// Records in the level.
    len: usize,
    spill: Option<crate::spill::SpillFile>,
}

impl Level {
    /// The page the next record of `rec` bytes goes to: the last page when
    /// it has room, else a new one from `pool`.
    fn reserve(&mut self, rec: usize, pool: &mut Pool) -> &mut Vec<u8> {
        if self.pages.back().is_none_or(|page| page.len() + rec > PAGE_BYTES) {
            self.pages.push_back(pool.take(rec));
        }
        self.hot += rec;
        self.len += 1;
        self.pages.back_mut().expect("a page was just ensured")
    }
}

/// A worker's BFS frontier: the level being read (`cur`) and the level
/// being appended (`next`), both held as inline records in fixed pages
/// drawn from one pool. A level is read once, in order: each page read to
/// its end goes back to the pool, where `next` takes it, so the two levels
/// together hold about one. The layout is this type's alone: records go in
/// through [`Frontier::append`] and come out through [`Frontier::pop`].
///
/// Two orthogonal tiers stack on it (DESIGN.md §9): in delta mode a record
/// holds a sectioned diff against the previous record's full encoding
/// ([`crate::encode_delta`]), and under a memory budget `next`'s pages are
/// flushed to its spill file and streamed back, page by page, when read.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    cur: Level,
    next: Level,
    pool: Pool,
    /// The section layout records are delta-compressed over; `None` keeps
    /// every record full.
    delta: Option<SectionMap>,
    /// Append side, delta mode: the previous appended record's full
    /// encoding, the consecutive deltas since the last full one, and the
    /// buffer a delta is built in.
    last: Vec<u8>,
    since_full: u32,
    delta_buf: Vec<u8>,
    /// Read side: the page being read and the offset of its next record.
    front: Option<Vec<u8>>,
    at: usize,
    /// Read side, delta mode: the previous record's full encoding and the
    /// buffer the current one is rebuilt into.
    base: Vec<u8>,
    full: Vec<u8>,
}

impl Frontier {
    /// An empty frontier, delta-compressed over `delta` when given.
    pub(crate) fn new(delta: Option<SectionMap>) -> Self {
        Frontier { delta, ..Self::default() }
    }

    /// Appends `full` (a complete canonical encoding) to the next level,
    /// delta-compressed against the previous record in delta mode when the
    /// delta actually wins. Every frontier entry is written here.
    pub(crate) fn append(&mut self, full: &[u8], lid: u32) {
        let delta = match self.delta {
            Some(map) if !self.last.is_empty() && self.since_full < DELTA_RESTART => {
                self.delta_buf.clear();
                map.encode_delta(&self.last, full, &mut self.delta_buf) < full.len()
            }
            _ => false,
        };
        let body = if delta { &self.delta_buf[..] } else { full };
        put_record(self.next.reserve(record_len(body.len()), &mut self.pool), lid, delta, body);
        self.since_full = if delta { self.since_full + 1 } else { 0 };
        if self.delta.is_some() {
            self.last.clear();
            self.last.extend_from_slice(full);
        }
    }

    /// The current level's next record as `(lid, full canonical encoding)`,
    /// or `None` once the level is read. Records come out in append order:
    /// spilled pages are streamed back one at a time, each page read to its
    /// end returns to the pool, and in delta mode each record is rebuilt
    /// against the previous one, which is kept as the next base.
    pub(crate) fn pop(&mut self) -> Option<(u32, &[u8])> {
        while self.front.as_ref().is_none_or(|page| self.at == page.len()) {
            if let Some(page) = self.front.take() {
                self.pool.give(page);
            }
            self.at = 0;
            self.front = Some(match self.cur.spilled.pop_front() {
                Some((off, len)) => {
                    let mut page = self.pool.take(len);
                    page.resize(len, 0);
                    let spill = self.cur.spill.as_ref().expect("spilled pages imply a spill file");
                    spill.read_exact_at(&mut page, off).expect("frontier spill read failed");
                    page
                }
                None => {
                    let page = self.cur.pages.pop_front()?;
                    self.cur.hot -= page.len();
                    page
                }
            });
        }
        let page = self.front.as_deref().expect("a page with records left");
        let (rec, n) =
            Record::parse(&page[self.at..]).expect("a frontier page holds whole records");
        self.at += n;
        let Some(map) = self.delta else {
            return Some((rec.lid, rec.body));
        };
        self.full.clear();
        if rec.delta {
            map.apply_delta(&self.base, rec.body, &mut self.full);
        } else {
            self.full.extend_from_slice(rec.body);
        }
        std::mem::swap(&mut self.base, &mut self.full);
        Some((rec.lid, &self.base))
    }

    /// Ends a level: the level just appended becomes the one to read, the
    /// one just read takes the next level's appends, and the pool keeps
    /// [`POOL_RESERVE`] free pages.
    pub(crate) fn advance(&mut self) {
        if let Some(page) = self.front.take() {
            self.pool.give(page);
        }
        for page in self.cur.pages.drain(..) {
            self.pool.give(page);
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        let next = &mut self.next;
        next.spilled.clear();
        (next.hot, next.len) = (0, 0);
        if let Some(s) = next.spill.as_mut() {
            s.reset().expect("frontier spill reset failed");
        }
        self.at = 0;
        self.last.clear();
        self.since_full = 0;
        self.base.clear();
        self.pool.trim(POOL_RESERVE);
    }

    /// Bytes of records in the next level's pages in memory.
    fn next_hot(&self) -> usize {
        self.next.hot
    }

    /// Flushes the next level's pages in memory to its spill file as one
    /// page-aligned chunk, and gives them back to the pool.
    fn spill_next(&mut self) -> std::io::Result<()> {
        if self.next.pages.is_empty() {
            return Ok(());
        }
        let spill = match self.next.spill.as_mut() {
            Some(s) => s,
            None => self.next.spill.insert(crate::spill::SpillFile::create("frontier")?),
        };
        for page in &self.next.pages {
            spill.write_part(page)?;
        }
        let mut off = spill.end_chunk()?;
        for page in self.next.pages.drain(..) {
            self.next.spilled.push_back((off, page.len()));
            off += page.len() as u64;
            self.pool.give(page);
        }
        self.next.hot = 0;
        Ok(())
    }

    /// RAM held by the frontier: every page in use or pooled, the spill
    /// directories and the delta base (the read side's buffers are scratch,
    /// not accounted).
    fn mem_bytes(&self) -> usize {
        let dir = |l: &Level| l.spilled.capacity() * std::mem::size_of::<(u64, usize)>();
        self.pool.held + dir(&self.cur) + dir(&self.next) + self.last.capacity()
    }

    /// Cumulative `(payload bytes, chunks)` spilled by both levels.
    fn spill_totals(&self) -> (u64, u64) {
        [&self.cur, &self.next]
            .iter()
            .filter_map(|l| l.spill.as_ref())
            .fold((0, 0), |(b, c), s| (b + s.total_written(), c + s.total_chunks()))
    }

    /// `(records, bytes)` of the current level, spilled and in memory.
    pub(crate) fn cur_size(&self) -> (usize, usize) {
        let spilled: usize = self.cur.spilled.iter().map(|&(_, len)| len).sum();
        (self.cur.len, spilled + self.cur.hot)
    }

    /// Appends the current level's records to `out` for the checkpoint
    /// tier: spilled pages, then the pages in memory. Taken at the top of
    /// an epoch, before any record is read.
    pub(crate) fn append_cur_to(&self, out: &mut Vec<u8>) -> std::io::Result<()> {
        debug_assert!(self.front.is_none(), "a checkpoint is taken before the level is read");
        for &(off, len) in &self.cur.spilled {
            let start = out.len();
            out.resize(start + len, 0);
            self.cur
                .spill
                .as_ref()
                .ok_or_else(|| std::io::Error::other("spilled pages without a spill file"))?
                .read_exact_at(&mut out[start..], off)?;
        }
        for page in &self.cur.pages {
            out.extend_from_slice(page);
        }
        Ok(())
    }

    /// Refills the current level from a checkpoint's stream of `count`
    /// records (whole records, checked by the loader), taken as one page
    /// with no copy: no record spans it, and once read it is freed like any
    /// oversized page. No spill tier. The delta-append state is *not* part
    /// of a snapshot and need not be: the restored level is only read, and
    /// the first append after the next [`Frontier::advance`] restarts with
    /// a full encoding.
    pub(crate) fn restore(&mut self, records: Vec<u8>, count: usize) {
        if records.is_empty() {
            return;
        }
        self.pool.held += records.capacity();
        self.cur.hot += records.len();
        self.cur.len += count;
        self.cur.pages.push_back(records);
    }
}

/// Per-thread exploration state: one visited-set shard, the frontier
/// (current and next level), the outgoing candidate batches, and every
/// scratch buffer the hot path reuses (decoded state, successor state,
/// step list, the system's own scratch) — the worker-local arena that
/// makes steady-state expansion allocation-free.
struct Worker<'w, S: TransitionSystem> {
    sys: &'w S,
    t: usize,
    store: ShardStore,
    frontier: Frontier,
    out: Outboxes,
    /// The system's per-worker scratch (canonicalizer, apply outcome).
    scratch: S::Scratch,
    /// Scratch: the frontier state being expanded (decoded in place).
    state: S::State,
    /// Scratch: the successor being stepped into — paired with `scratch`,
    /// which remembers what the last step wrote (see
    /// [`TransitionSystem::successor_into`]).
    succ: S::State,
    steps_buf: Vec<S::Step>,
    violations: Vec<VioCand>,
    new_count: usize,
    depth: u32,
    cap: usize,
    /// First record id of the level this epoch inserts (what
    /// [`ShardStore::open_level`] returned): a duplicate hit with
    /// `lid >= epoch_start` was inserted *this* epoch (records append
    /// monotonically per epoch), which is exactly the parent-race
    /// condition — without reading a possibly-frozen record.
    epoch_start: u32,
    /// This worker's slice of [`McConfig::mem_budget_bytes`] (0 = no
    /// budget, spilling off).
    budget_share: usize,
    /// Minimum hot-tail size before a frontier flush is considered.
    spill_chunk: usize,
    /// [`StoreMode::keeps_recs`], cached.
    keeps_recs: bool,
    inboxes: &'w [Inbox],
    coord: &'w Coordinator,
}

impl<'w, S: TransitionSystem> Worker<'w, S> {
    /// Worker `t` of as many as there are `inboxes`.
    fn new(sys: &'w S, t: usize, inboxes: &'w [Inbox], coord: &'w Coordinator) -> Self {
        let (cfg, n_shards) = (sys.config(), inboxes.len());
        // The budget is ignored on platforms without positioned file reads.
        let budget = if crate::spill::SPILL_SUPPORTED { cfg.mem_budget_bytes } else { 0 };
        Worker {
            sys,
            t,
            store: ShardStore::new(),
            frontier: Frontier::new(cfg.store.delta_frontier().then(|| sys.section_map())),
            out: Outboxes::new(n_shards),
            scratch: sys.scratch(),
            state: sys.initial(),
            succ: sys.initial(),
            steps_buf: Vec::new(),
            violations: Vec::new(),
            new_count: 0,
            depth: 0,
            cap: cfg.effective_shard_capacity(),
            epoch_start: 0,
            budget_share: if budget == 0 { 0 } else { (budget / n_shards).max(1) },
            spill_chunk: cfg.spill_chunk_bytes.max(crate::spill::PAGE as usize),
            keeps_recs: cfg.store.keeps_recs(),
            inboxes,
            coord,
        }
    }

    /// Installs the canonical initial state (`enc`, fingerprint `fp0`) as
    /// this shard's root.
    fn seed_root(&mut self, enc: &[u8], fp0: u64) {
        self.store.map.push(fp0);
        if self.keeps_recs {
            self.store.push_rec(StateRec { parent: Gid::pack(self.t, 0) });
        }
        self.frontier.append(enc, 0);
        self.frontier.advance();
    }

    /// Installs a loaded checkpoint shard in place of a fresh start: the
    /// restored visited store and frontier, positioned at the top of the
    /// checkpointed epoch (exactly where the checkpoint was taken).
    fn restore_snapshot(&mut self, snap: crate::checkpoint::ShardSnapshot, depth: u32) {
        self.store = snap.store;
        self.frontier.restore(snap.records, snap.count);
        self.depth = depth;
    }

    /// The worker loop: one iteration per BFS epoch.
    ///
    /// Each phase body runs under [`Coordinator::guard`]: a panicking
    /// worker records its payload on the coordinator and keeps
    /// rendezvousing doing no work, so the fleet drains and the panic is
    /// re-raised on the calling thread instead of deadlocking the phaser.
    fn run(mut self) -> (ShardStore, S::Scratch) {
        self.epoch_start = self.store.open_level();
        let cfg = self.sys.config();
        loop {
            let coord = self.coord;
            // Expand this shard's frontier, routing successor encodings
            // and draining arriving batches opportunistically.
            coord.guard(|| self.expand_epoch());
            // Expansion boundary: everyone's candidates are queued. While
            // waiting for stragglers, keep servicing the inbox so bounded
            // queues cannot wedge the fleet.
            coord.phaser.arrive_and_drain(|| {
                coord.guard(|| self.drain_available());
            });
            // Final drain + merge of this epoch's counts and violations.
            coord.guard(|| self.finish_epoch());
            // Decision boundary: the last arriver publishes the epoch
            // decision for everyone.
            coord.phaser.arrive(|| {
                let dec = coord.guard(|| decide(coord, cfg.max_states, self.depth));
                // Poison-recovery: a panicking sibling already recorded
                // its payload on the coordinator; the decision value
                // itself is always written whole, so the lock's data is
                // usable even when poisoned.
                *coord.decision.lock().unwrap_or_else(|e| e.into_inner()) =
                    dec.unwrap_or(Decision::Stop { violation: None, hit_limit: false });
            });
            if matches!(
                *coord.decision.lock().unwrap_or_else(|e| e.into_inner()),
                Decision::Stop { .. }
            ) {
                // Fold this worker's frontier spill totals into the
                // fleet counters (the store's totals travel with the
                // returned shard).
                let (bytes, chunks) = self.frontier.spill_totals();
                coord.frontier_spill_bytes.fetch_add(bytes, Relaxed);
                coord.frontier_spill_chunks.fetch_add(chunks, Relaxed);
                return (self.store, self.scratch);
            }
            self.frontier.advance();
            self.depth += 1;
            self.epoch_start = self.store.open_level();
            // Checkpoint point: the one place in an epoch where shard
            // state is minimal and final — records frozen, `next` empty,
            // queues drained, `cur` read-only from here on. The trigger
            // depends only on (depth, config), so every worker takes the
            // extra rendezvous in lockstep.
            if let Some(dir) = cfg.checkpoint_dir.as_deref() {
                if self.depth.is_multiple_of(cfg.checkpoint_every.max(1)) {
                    self.write_checkpoint(dir);
                }
            }
        }
    }

    /// Writes this shard's checkpoint file, then rendezvouses; the last
    /// arriver commits the manifest. Both steps run under
    /// [`Coordinator::guard`]; a panic anywhere means the manifest is
    /// never committed, so the previous checkpoint (if any) stays the
    /// authoritative one.
    fn write_checkpoint(&mut self, dir: &Path) {
        let coord = self.coord;
        coord.guard(|| {
            crate::checkpoint::write_shard(
                dir,
                self.depth,
                self.t,
                &self.store,
                &self.frontier,
                self.keeps_recs,
            )
            .expect("checkpoint shard write failed")
        });
        let (sys, depth, n_shards) = (self.sys, self.depth, self.inboxes.len());
        coord.phaser.arrive(|| {
            coord.guard(|| {
                crate::checkpoint::commit(dir, depth, n_shards, sys.identity_fp(), coord)
                    .expect("checkpoint manifest commit failed")
            });
        });
    }

    /// Expands every frontier entry of the current epoch: decode into the
    /// scratch state, step each successor into the successor scratch,
    /// check invariants, and route canonical encodings to owning shards.
    fn expand_epoch(&mut self) {
        let mut local_transitions = 0usize;
        for i in 0usize.. {
            // Service the inbox between expansions so deduplication
            // overlaps expansion instead of serializing behind it.
            if self.inboxes.len() > 1 && i & 0xf == 0 {
                self.drain_available();
            }
            let Some((lid, enc)) = self.frontier.pop() else {
                break;
            };
            self.sys.decode_into(enc, &mut self.state, &mut self.scratch);
            let (gid, fp) = (Gid::pack(self.t, lid as usize), self.store.map.fp(lid));
            let mut progress = false;
            self.sys.steps_into(&self.state, &mut self.steps_buf);
            for si in 0..self.steps_buf.len() {
                let step = self.steps_buf[si];
                let stepped =
                    self.sys.successor_into(&self.state, step, &mut self.succ, &mut self.scratch);
                let kind = match stepped {
                    Err(kind) => kind,
                    Ok(false) => continue,
                    Ok(true) => {
                        progress = progress || self.sys.is_progress(&self.state, step);
                        local_transitions += 1;
                        match self.sys.check_state(&self.succ) {
                            Some(kind) => kind,
                            None => {
                                self.route_succ(fp, gid, S::pack_step(step));
                                continue;
                            }
                        }
                    }
                };
                let step = S::pack_step(step);
                self.violations.push(VioCand { parent: gid, parent_fp: fp, step, kind });
            }
            // Liveness hook: no enabled step from this state counts as
            // progress (what does is the system's call — for the flat
            // checker only deliveries, since new accesses can only add
            // transactions, never unblock existing ones).
            if !progress {
                if let Some(kind) = self.sys.check_quiescence(&self.state) {
                    self.violations.push(VioCand {
                        parent: gid,
                        parent_fp: fp,
                        step: STEP_NONE,
                        kind,
                    });
                }
            }
        }
        // Seal and deliver every open batch (end of this epoch's
        // expansion), then merge the level counters.
        for shard in 0..self.inboxes.len() {
            if shard != self.t {
                if let Some(batch) = self.out.take(shard) {
                    self.deliver(shard, batch);
                }
            }
        }
        self.coord.transitions.fetch_add(local_transitions, Relaxed);
    }

    /// Routes the successor in `self.succ`: canonicalize, fingerprint,
    /// and either insert locally (own shard — no bytes ever copied for
    /// duplicates) or append the canonical encoding to the owner's batch.
    fn route_succ(&mut self, parent_fp: u64, parent: Gid, step: u32) {
        let fp = self.sys.canonical_fp(&self.succ, &mut self.scratch);
        let owner = (fp % self.inboxes.len() as u64) as usize;
        if owner == self.t {
            self.insert(fp, parent_fp, parent, step, None);
        } else {
            let bytes = self.out.bytes_of(owner);
            let off = bytes.len() as u32;
            bytes.extend_from_slice(self.sys.canonical_bytes(&self.scratch));
            let len = bytes.len() as u32 - off;
            if let Some(batch) =
                self.out.push_meta(owner, CandMeta { fp, parent_fp, parent, step, off, len })
            {
                self.deliver(owner, batch);
            }
        }
    }

    /// The one dedup-or-insert path (own-shard and cross-shard candidates
    /// must never diverge — the parent-race fold and the capacity check
    /// are part of the determinism contract). `enc` carries the canonical
    /// encoding of a candidate received from another worker; `None` means
    /// "the bytes the system lends for `self.succ`". Either way a
    /// duplicate copies nothing and a new state is copied once, into the
    /// frontier.
    fn insert(&mut self, fp: u64, parent_fp: u64, parent: Gid, step: u32, enc: Option<&[u8]>) {
        if let Some(lid) = self.store.map.get(fp) {
            // Same-level parent race: `lid >= epoch_start` identifies a
            // this-epoch insert (a record of depth `depth + 1`, whose key
            // is in the side column) without touching a possibly-frozen
            // record; records from earlier epochs are final. No records
            // exist to race on in fingerprint-only mode.
            if self.keeps_recs && lid >= self.epoch_start {
                self.store.fold_parent(lid as usize, parent, (parent_fp, step));
            }
        } else {
            let local = self.store.len();
            if local >= self.cap || Gid::try_pack(self.t, local).is_none() {
                self.coord.exhausted_shard.fetch_min(self.t, Relaxed);
                return;
            }
            let lid = local as u32;
            self.store.map.push(fp);
            if self.keeps_recs {
                self.store.push_new(parent, (parent_fp, step));
            }
            let full = enc.unwrap_or_else(|| self.sys.canonical_bytes(&self.scratch));
            self.frontier.append(full, lid);
            self.new_count += 1;
            self.maybe_spill_frontier();
        }
    }

    /// Flushes the next level's pages in memory to its spill file when
    /// they hold chunk size *and* this worker is over its budget share.
    fn maybe_spill_frontier(&mut self) {
        if self.budget_share == 0 || self.frontier.next_hot() < self.spill_chunk {
            return;
        }
        if self.accounted_bytes() > self.budget_share {
            self.frontier.spill_next().expect("frontier spill write failed");
        }
    }

    /// RAM accounted against this worker's budget share: visited shard,
    /// its side column, the frontier's pages, and the outbox batches +
    /// recycled-arena pool (everything the old store-only figure left
    /// out).
    fn accounted_bytes(&self) -> usize {
        self.store.mem_bytes()
            + self.store.hot_level_bytes()
            + self.frontier_bytes()
            + self.out.mem_bytes()
    }

    /// The frontier's pages, in use or pooled.
    fn frontier_bytes(&self) -> usize {
        self.frontier.mem_bytes()
    }

    /// Drains every batch currently queued for this shard. Returns
    /// whether anything was processed.
    fn drain_available(&mut self) -> bool {
        let mut any = false;
        while let Some(batch) = self.inboxes[self.t].pop() {
            for i in 0..batch.meta.len() {
                let m = batch.meta[i];
                self.insert(m.fp, m.parent_fp, m.parent, m.step, Some(batch.enc(&m)));
            }
            self.out.recycle(batch);
            any = true;
        }
        any
    }

    /// Delivers a sealed batch to `owner`'s bounded inbox, draining this
    /// worker's own inbox while backpressured (which is what makes the
    /// bound deadlock-free: if every worker is blocked pushing, every
    /// inbox is being drained).
    fn deliver(&mut self, owner: usize, batch: CandBatch) {
        let mut batch = batch;
        loop {
            match self.inboxes[owner].try_push(batch) {
                Ok(()) => return,
                Err(back) => {
                    batch = back;
                    if self.coord.aborted.load(Relaxed) {
                        // The fleet is draining after a panic; the run's
                        // results are void, so the batch can be dropped.
                        self.out.recycle(batch);
                        return;
                    }
                    if !self.drain_available() {
                        self.inboxes[owner].wait_for_space(std::time::Duration::from_micros(200));
                    }
                }
            }
        }
    }

    /// After the expansion rendezvous: ingest the last batches, sample
    /// memory, spill frozen visited records if over budget, and merge
    /// this worker's epoch results into the aggregate.
    fn finish_epoch(&mut self) {
        self.drain_available();
        // Sample accounted RAM *before* acting on the budget — the peak
        // figure should reflect what this epoch actually held. The own
        // inbox is empty right after the final drain; its term covers the
        // (rare) capacity retained across the rendezvous.
        let mem = self.accounted_bytes() + self.inboxes[self.t].mem_bytes();
        self.coord.epoch_mem.fetch_add(mem, Relaxed);
        let (store, frontier) = (self.store.bytes(), self.frontier_bytes());
        let hot_level = self.store.hot_level_bytes();
        // At this point every record is final: parent-race updates only
        // ever touch records inserted in the *current* epoch, and this
        // epoch's inserts are all in. So every hot record can freeze to
        // disk in one chunk.
        if self.budget_share != 0 && self.keeps_recs && self.accounted_bytes() > self.budget_share {
            self.store.spill_frozen("visited").expect("visited spill write failed");
        }
        self.coord.total_states.fetch_add(self.new_count, Relaxed);
        let mut agg = self.coord.agg.lock().unwrap();
        agg.new_states += self.new_count;
        agg.store += store;
        agg.frontier += frontier;
        agg.hot_level += hot_level;
        agg.violations.append(&mut self.violations);
        drop(agg);
        self.new_count = 0;
    }
}

/// Resumes exploration of `sys` from the newest committed checkpoint
/// under its [`McConfig::checkpoint_dir`]. The checkpoint is fully
/// validated first — checksums, manifest↔shard agreement, and that
/// [`TransitionSystem::identity_fp`] matches what it was written under;
/// any mismatch or corruption is a hard [`CheckpointError`], never a
/// silent fresh start. The worker count comes from the manifest (shard
/// assignment is `fp % threads`), so [`McConfig::threads`] is ignored on
/// resume. A resumed run's states, transitions, violation, and
/// counterexample trace are byte-identical to an uninterrupted run's;
/// wall-clock and memory statistics describe only the resumed portion.
pub(crate) fn resume<S: TransitionSystem>(sys: &S) -> Result<CheckResult, CheckpointError> {
    let loaded = crate::checkpoint::load_latest(sys.config(), sys.identity_fp())?;
    Ok(explore(sys, Some(loaded)).0)
}

/// Explores `sys` as [`crate::ModelChecker::run`] does, and hands back
/// every worker's scratch (in worker order) for the caller to merge.
pub fn explore_system<S: TransitionSystem>(sys: &S) -> (CheckResult, Vec<S::Scratch>) {
    explore(sys, None)
}

/// Runs breadth-first exploration of `sys` until exhaustion, a violation,
/// or a resource limit, from the initial state or a loaded checkpoint.
pub(crate) fn explore<S: TransitionSystem>(
    sys: &S,
    resume: Option<LoadedCheckpoint>,
) -> (CheckResult, Vec<S::Scratch>) {
    let start = Instant::now();
    let requested = sys.config().threads;
    let threads =
        resume.as_ref().map_or_else(|| par::threads(requested, MAX_SHARDS), |r| r.threads);

    let mut scratch0 = sys.scratch();
    let initial = sys.initial();
    let fp0 = sys.canonical_fp(&initial, &mut scratch0);
    let enc0 = sys.canonical_bytes(&scratch0);
    let owner0 = (fp0 % threads as u64) as usize;

    let inboxes: Vec<Inbox> = (0..threads).map(|_| Inbox::default()).collect();
    let coord = Coordinator::new(threads);
    let (depth0, mut snaps) = match resume {
        Some(r) => {
            coord.total_states.store(r.total_states, Relaxed);
            coord.transitions.store(r.transitions, Relaxed);
            (r.depth, r.shards.into_iter().map(Some).collect())
        }
        None => {
            coord.total_states.store(1, Relaxed);
            (0, (0..threads).map(|_| None).collect::<Vec<_>>())
        }
    };

    // Worker 0 runs on the calling thread and workers `1..threads` on
    // scoped threads, so a one-worker run creates no thread at all.
    let (stores, scratches): (Vec<ShardStore>, Vec<S::Scratch>) = std::thread::scope(|s| {
        let mut worker = |t: usize| {
            let (inboxes, coord) = (&inboxes, &coord);
            let snap = snaps[t].take();
            move || {
                let mut w = Worker::new(sys, t, inboxes, coord);
                match snap {
                    Some(snap) => w.restore_snapshot(snap, depth0),
                    None if t == owner0 => w.seed_root(enc0, fp0),
                    None => {}
                }
                w.run()
            }
        };
        let handles: Vec<_> = (1..threads).map(|t| s.spawn(worker(t))).collect();
        let first = worker(0)();
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| h.join().expect("worker panicked")))
            .unzip()
    });

    // A worker phase panicked: all workers drained cleanly through the
    // rendezvous; surface the original panic here.
    if let Some(payload) = coord.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(payload);
    }

    let (violation, hit_limit) =
        match coord.decision.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Decision::Stop { violation, hit_limit } => (violation, hit_limit),
            Decision::Continue => (None, false),
        };
    let violation =
        violation.map(|v| Violation { trace: build_trace(sys, &stores, &v), kind: v.kind });
    let frontier_spill_bytes = coord.frontier_spill_bytes.load(Relaxed);
    let (mut visited_spill_bytes, mut spill_chunks) =
        (0, coord.frontier_spill_chunks.load(Relaxed));
    let mut store_counters = StoreCounters::default();
    for s in &stores {
        let (b, c) = s.spill_totals();
        visited_spill_bytes += b;
        spill_chunks += c;
        store_counters += s.map.counters;
    }
    let agg = coord.agg.into_inner().unwrap_or_else(|e| e.into_inner());
    let result = CheckResult {
        states: stores.iter().map(|s| s.len()).sum(),
        transitions: coord.transitions.load(Relaxed),
        violation,
        limit: hit_limit.then(|| match coord.exhausted_shard.load(Relaxed) {
            usize::MAX => ResourceLimit::StateBudget,
            shard => ResourceLimit::ShardCapacity { shard },
        }),
        seconds: start.elapsed().as_secs_f64(),
        store_bytes: agg.peak_store.total(),
        store_split: agg.peak_store,
        store_counters,
        peak_mem_bytes: coord.peak_mem.load(Relaxed),
        peak_mem_depth: agg.peak_depth,
        frontier_bytes: agg.peak_frontier,
        hot_level_bytes: agg.peak_hot_level,
        spill_bytes: frontier_spill_bytes + visited_spill_bytes,
        spill_chunks,
        frontier_spill_bytes,
        visited_spill_bytes,
        threads,
        coverage: Coverage::merge(scratches.iter().flat_map(S::coverage)),
    };
    (result, scratches)
}

/// Decision (run by the last arriver at the dedup rendezvous of the epoch
/// that expanded level `depth`): selects the minimum-key violation of the
/// epoch, or stops on exhaustion / the state budget.
fn decide(coord: &Coordinator, max_states: usize, depth: u32) -> Decision {
    // Fold the epoch's fleet-wide memory samples into the running peaks
    // and reset the accumulators for the next epoch.
    let mem = coord.epoch_mem.swap(0, Relaxed);
    let mem_peaked = coord.peak_mem.fetch_max(mem, Relaxed) < mem;
    let mut agg = coord.agg.lock().unwrap();
    let store = std::mem::take(&mut agg.store);
    if store.total() > agg.peak_store.total() {
        agg.peak_store = store;
    }
    let (frontier, hot_level) =
        (std::mem::take(&mut agg.frontier), std::mem::take(&mut agg.hot_level));
    if mem_peaked {
        (agg.peak_frontier, agg.peak_hot_level, agg.peak_depth) = (frontier, hot_level, depth);
    }
    let mut vios = std::mem::take(&mut agg.violations);
    let new_states = std::mem::take(&mut agg.new_states);
    drop(agg);
    if !vios.is_empty() {
        vios.sort_by(|a, b| vio_key(a).cmp(&vio_key(b)));
        Decision::Stop { violation: Some(vios.remove(0)), hit_limit: false }
    } else if coord.exhausted_shard.load(Relaxed) != usize::MAX {
        // A shard refused inserts this level: the frontier is
        // incomplete, so "no new states" below would falsely read as
        // exhaustion. Stop with the limit flag.
        Decision::Stop { violation: None, hit_limit: true }
    } else if new_states == 0 {
        Decision::Stop { violation: None, hit_limit: false }
    } else if coord.total_states.load(Relaxed) >= max_states {
        Decision::Stop { violation: None, hit_limit: true }
    } else {
        Decision::Continue
    }
}

/// Rebuilds the counterexample to the violation: walks the parent ids
/// across shards to the root, collecting the fingerprints on the way, then
/// replays from the initial state through canonical representatives,
/// re-deriving each step from its parent.
///
/// The step re-derived into a state is the first, in
/// [`TransitionSystem::steps_into`] order, that is enabled, passes
/// [`TransitionSystem::check_state`] and canonicalizes to the state's
/// fingerprint — exactly the candidates the explorer routed, so this is the
/// minimum packed step the parent race kept (packing preserves listing
/// order). Should two steps reach one fingerprint through a collision, both
/// pick the same minimum.
fn build_trace<S: TransitionSystem>(sys: &S, stores: &[ShardStore], v: &VioCand) -> Vec<String> {
    if !sys.config().store.keeps_recs() {
        return vec![
            "no counterexample trace: the fingerprint-only store keeps no parent records \
             (rerun with --store=full or --store=delta to reconstruct one)"
                .into(),
        ];
    }
    let mut chain = Vec::new();
    let mut cur = v.parent;
    loop {
        let store = &stores[cur.shard()];
        if store.depth(cur.local()) == 0 {
            break;
        }
        chain.push(store.map.fp(cur.local() as u32));
        cur = store.rec(cur.local()).parent;
    }
    chain.reverse();
    let mut scratch = sys.scratch();
    let (mut state, mut succ) = (sys.initial(), sys.initial());
    let (mut steps, mut lines) = (Vec::new(), Vec::new());
    // Steps lead from canonical representatives, so the replay
    // re-canonicalizes (encode, then decode) after every step. The bytes
    // are copied out: `decode_into` takes the scratch that lends them.
    let canonicalize = |from: &S::State, into: &mut S::State, scratch: &mut S::Scratch| {
        sys.canonical_fp(from, scratch);
        let enc = sys.canonical_bytes(scratch).to_vec();
        sys.decode_into(&enc, into, scratch);
    };
    canonicalize(&succ, &mut state, &mut scratch);
    for fp in chain {
        sys.steps_into(&state, &mut steps);
        let step = steps.iter().copied().find(|&step| {
            matches!(sys.successor_into(&state, step, &mut succ, &mut scratch), Ok(true))
                && sys.check_state(&succ).is_none()
                && sys.canonical_fp(&succ, &mut scratch) == fp
        });
        let Some(step) = step else {
            lines.push(format!("(no step reaches the recorded state {fp:#018x})"));
            return lines;
        };
        lines.push(sys.describe(&state, step));
        canonicalize(&succ, &mut state, &mut scratch);
    }
    if v.step != STEP_NONE {
        let step = S::unpack_step(v.step);
        let desc = sys.describe(&state, step);
        lines.push(match sys.successor_into(&state, step, &mut succ, &mut scratch) {
            Ok(true) => desc,
            Ok(false) => format!("{desc} (not enabled?)"),
            Err(kind) => format!("{desc} => {kind}"),
        });
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::Canonicalizer;
    use crate::flat::{McConfig, ModelChecker, Step};
    use protogen_spec::{Access, Event, Fsm};

    #[test]
    fn step_packing_round_trips_and_preserves_order() {
        let (pack_step, unpack_step) = (ModelChecker::pack_step, ModelChecker::unpack_step);
        let steps = [
            Step::Deliver { src: 0, dst: 1, idx: 0 },
            Step::Deliver { src: 0, dst: 2, idx: 1 },
            Step::Deliver { src: 3, dst: 0, idx: 0 },
            Step::IssueAccess { cache: 0, access: Access::Load },
            Step::IssueAccess { cache: 0, access: Access::Replacement },
            Step::IssueAccess { cache: 2, access: Access::Store },
        ];
        for w in steps.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
            assert!(pack_step(w[0]) < pack_step(w[1]), "packed order broken at {:?}", w[0]);
        }
        for s in steps {
            assert_eq!(unpack_step(pack_step(s)), s);
            assert_ne!(pack_step(s), STEP_NONE);
        }
    }

    /// The explorer runs `par::threads(threads, MAX_SHARDS)` workers: 0 is
    /// every core, and the count is clamped to `1..=MAX_SHARDS`.
    #[test]
    fn effective_threads_resolves_and_clamps() {
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let workers = |threads: usize| {
            let cfg = McConfig::with_caches_and_threads(2, threads);
            ModelChecker::new(&g.cache, &g.directory, cfg).run().threads
        };
        assert!(workers(0) >= 1);
        assert_eq!(workers(1_000), MAX_SHARDS);
        assert_eq!(workers(3), 3);
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        use protogen_spec::{
            Arc, ArcKind, ArcNote, FsmState, FsmStateId, FsmStateKind, MachineKind, Perm, StableId,
        };
        let state = |name: &str| FsmState {
            name: name.into(),
            kind: FsmStateKind::Stable(StableId(0)),
            state_sets: vec![],
            perm: Perm::None,
            data_valid: false,
            merged_names: vec![],
        };
        // A deliberately corrupt FSM: the Load arc targets a state id that
        // does not exist, so applying it panics inside a worker.
        let cache = Fsm {
            protocol: "broken".into(),
            machine: MachineKind::Cache,
            messages: vec![],
            states: vec![state("I")],
            arcs: vec![Arc {
                from: FsmStateId(0),
                event: Event::Access(Access::Load),
                guards: vec![],
                actions: vec![],
                to: FsmStateId(99),
                kind: ArcKind::Normal,
                note: ArcNote::Ssp,
            }],
        };
        let dir = Fsm {
            protocol: "broken".into(),
            machine: MachineKind::Directory,
            messages: vec![],
            states: vec![state("D")],
            arcs: vec![],
        };
        // At 1 the panicking worker is this thread itself; at 2 and 4 it
        // may be either the caller or a scoped thread.
        for threads in [1, 2, 4] {
            let mut cfg = McConfig::with_caches(2);
            cfg.threads = threads;
            let mc = ModelChecker::new(&cache, &dir, cfg);
            // The fleet must drain through the epoch rendezvous and
            // re-raise the worker's panic on this thread — a deadlocked
            // phaser would hang the test instead.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mc.run()));
            assert!(result.is_err(), "{threads} workers: corrupt arc target must panic, not pass");
        }
    }

    /// A [`ModelChecker`] that records which threads make the per-worker
    /// calls ([`TransitionSystem::scratch`] and
    /// [`TransitionSystem::successor_into`]).
    struct ThreadRecorder<'a> {
        inner: ModelChecker<'a>,
        seen: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl ThreadRecorder<'_> {
        fn record(&self) {
            self.seen.lock().unwrap().insert(std::thread::current().id());
        }
    }

    impl TransitionSystem for ThreadRecorder<'_> {
        type State = <ModelChecker<'static> as TransitionSystem>::State;
        type Step = Step;
        type Scratch = <ModelChecker<'static> as TransitionSystem>::Scratch;

        fn config(&self) -> &McConfig {
            self.inner.config()
        }
        fn identity_fp(&self) -> (u64, u64) {
            self.inner.identity_fp()
        }
        fn section_map(&self) -> SectionMap {
            self.inner.section_map()
        }
        fn initial(&self) -> Self::State {
            self.inner.initial()
        }
        fn scratch(&self) -> Self::Scratch {
            self.record();
            self.inner.scratch()
        }
        fn steps_into(&self, state: &Self::State, out: &mut Vec<Step>) {
            self.inner.steps_into(state, out)
        }
        fn successor_into(
            &self,
            state: &Self::State,
            step: Step,
            succ: &mut Self::State,
            scratch: &mut Self::Scratch,
        ) -> Result<bool, ViolationKind> {
            self.record();
            self.inner.successor_into(state, step, succ, scratch)
        }
        fn is_progress(&self, state: &Self::State, step: Step) -> bool {
            self.inner.is_progress(state, step)
        }
        fn check_state(&self, state: &Self::State) -> Option<ViolationKind> {
            self.inner.check_state(state)
        }
        fn check_quiescence(&self, state: &Self::State) -> Option<ViolationKind> {
            self.inner.check_quiescence(state)
        }
        fn canonical_fp(&self, state: &Self::State, scratch: &mut Self::Scratch) -> u64 {
            self.inner.canonical_fp(state, scratch)
        }
        fn canonical_bytes<'s>(&self, scratch: &'s Self::Scratch) -> &'s [u8] {
            self.inner.canonical_bytes(scratch)
        }
        fn decode_into(&self, bytes: &[u8], state: &mut Self::State, scratch: &mut Self::Scratch) {
            self.inner.decode_into(bytes, state, scratch)
        }
        fn coverage(scratch: &Self::Scratch) -> &[Coverage] {
            ModelChecker::coverage(scratch)
        }
        fn pack_step(step: Step) -> u32 {
            ModelChecker::pack_step(step)
        }
        fn unpack_step(packed: u32) -> Step {
            ModelChecker::unpack_step(packed)
        }
        fn describe(&self, state: &Self::State, step: Step) -> String {
            self.inner.describe(state, step)
        }
    }

    #[test]
    fn the_caller_is_worker_zero() {
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let me = std::thread::current().id();
        let run = |threads: usize| {
            let rec = ThreadRecorder {
                inner: ModelChecker::new(
                    &g.cache,
                    &g.directory,
                    McConfig::with_caches_and_threads(2, threads),
                ),
                seen: Default::default(),
            };
            let r = explore(&rec, None).0;
            assert_eq!(r.threads, threads);
            (r, rec.seen.into_inner().unwrap())
        };
        let (r1, seen1) = run(1);
        assert_eq!(seen1, [me].into(), "a one-worker run must stay on the caller");
        let (r3, seen3) = run(3);
        assert_eq!(seen3.len(), 3, "three workers, three threads: {seen3:?}");
        assert!(seen3.contains(&me), "the caller must be one of the workers");
        assert!(r1.passed());
        assert_eq!((r1.states, r1.transitions), (r3.states, r3.transitions));
    }

    /// A counter below 3, which 3 violates: step 1 and step 2 both add 1
    /// (twins into one child), step 0 jumps to a dead end 100 higher.
    struct Twins(McConfig);

    impl TransitionSystem for Twins {
        type State = u8;
        type Step = u32;
        /// The canonical bytes lent out, and no coverage recorders.
        type Scratch = (Vec<u8>, Vec<Coverage>);

        fn config(&self) -> &McConfig {
            &self.0
        }
        fn identity_fp(&self) -> (u64, u64) {
            (0, 0)
        }
        fn section_map(&self) -> SectionMap {
            unreachable!("full store only")
        }
        fn initial(&self) -> u8 {
            0
        }
        fn scratch(&self) -> Self::Scratch {
            Default::default()
        }
        fn steps_into(&self, state: &u8, out: &mut Vec<u32>) {
            out.clear();
            if *state < 3 {
                out.extend(0..3);
            }
        }
        fn successor_into(
            &self,
            state: &u8,
            step: u32,
            succ: &mut u8,
            _: &mut Self::Scratch,
        ) -> Result<bool, ViolationKind> {
            *succ = state + [100, 1, 1][step as usize];
            Ok(true)
        }
        fn is_progress(&self, _: &u8, _: u32) -> bool {
            true
        }
        fn check_state(&self, state: &u8) -> Option<ViolationKind> {
            (*state == 3).then(|| ViolationKind::DataValue("three".into()))
        }
        fn check_quiescence(&self, _: &u8) -> Option<ViolationKind> {
            None
        }
        fn canonical_fp(&self, state: &u8, scratch: &mut Self::Scratch) -> u64 {
            scratch.0 = vec![*state];
            crate::fingerprint_bytes(&scratch.0)
        }
        fn canonical_bytes<'s>(&self, scratch: &'s Self::Scratch) -> &'s [u8] {
            &scratch.0
        }
        fn decode_into(&self, bytes: &[u8], state: &mut u8, _: &mut Self::Scratch) {
            *state = bytes[0];
        }
        fn coverage(scratch: &Self::Scratch) -> &[Coverage] {
            &scratch.1
        }
        fn pack_step(step: u32) -> u32 {
            step
        }
        fn unpack_step(packed: u32) -> u32 {
            packed
        }
        fn describe(&self, state: &u8, step: u32) -> String {
            format!("{state} step {step}")
        }
    }

    #[test]
    fn the_lower_of_two_twin_steps_is_re_derived() {
        // Records keep no step: replay re-derives each one as the first
        // step from the parent that reaches the child — past step 0 (a
        // different child) and before its twin, step 2.
        for threads in [1, 2, 4] {
            let r = explore(&Twins(McConfig::with_caches_and_threads(1, threads)), None).0;
            assert_eq!((r.states, r.transitions), (6, 9), "{threads} threads");
            let v = r.violation.expect("3 is reached");
            assert_eq!(v.kind, ViolationKind::DataValue("three".into()));
            assert_eq!(v.trace, ["0 step 1", "1 step 1", "2 step 1"], "{threads} threads");
        }
    }

    #[test]
    fn cache_counts_outside_the_sharer_mask_are_refused() {
        // 0 caches would pass vacuously; at 9 the u8 sharer mask aliases
        // cache 8 onto cache 0. Neither may reach the explorer.
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        for n in [0, crate::MAX_CACHES + 1] {
            let built = std::panic::catch_unwind(|| {
                ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(n))
            });
            let msg = *built.expect_err("must refuse").downcast::<String>().unwrap();
            assert!(msg.contains(&format!("n_caches {n} outside 1..=8")), "{msg}");
        }
        let _ = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(crate::MAX_CACHES));
    }

    #[test]
    fn channel_caps_past_one_byte_are_refused() {
        // At 256 a full queue's length byte reads 0 and its last message's
        // delivery index 255 is the first's: states and steps would alias.
        let g = protogen_core::generate(
            &protogen_protocols::msi(),
            &protogen_core::GenConfig::stalling(),
        )
        .unwrap();
        let composed = protogen_core::compose(
            &protogen_protocols::msi_under_msi(1, 2),
            &protogen_core::GenConfig::stalling(),
        )
        .unwrap();
        let cfg = |channel_cap| McConfig { channel_cap, ..McConfig::with_caches(2) };
        let refused = |built: std::thread::Result<()>| {
            let msg = *built.expect_err("must refuse").downcast::<String>().unwrap();
            assert!(msg.contains("channel_cap 256 over 255"), "{msg}");
        };
        refused(std::panic::catch_unwind(|| {
            ModelChecker::new(&g.cache, &g.directory, cfg(crate::MAX_CHANNEL_CAP + 1));
        }));
        refused(std::panic::catch_unwind(|| {
            crate::HierChecker::new(&composed, cfg(crate::MAX_CHANNEL_CAP + 1));
        }));
        ModelChecker::new(&g.cache, &g.directory, cfg(crate::MAX_CHANNEL_CAP));
        crate::HierChecker::new(&composed, cfg(crate::MAX_CHANNEL_CAP));
    }

    /// `n` synthetic one-cache flat encodings (a 7-byte cache block, a
    /// 6-byte directory entry, four channel queues and the ghost byte, see
    /// [`SectionMap::flat`]). Entry `loaded` has one message in every
    /// queue, so it differs from both neighbours in every section: those
    /// deltas would be the whole encoding plus the section mask.
    fn encodings(n: usize, loaded: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut e =
                    vec![i as u8, (i >> 8) as u8, 0, 0, 0, 0, 0, (i * 7) as u8, 0, 0, 0, 0, 0];
                for _ in 0..4 {
                    e.extend_from_slice(if i == loaded { &[1, 9, 9, 9, 9, 9, 9, 9] } else { &[0] });
                }
                e.push(i as u8 & 1);
                e
            })
            .collect()
    }

    /// Every record of `f`'s current level, read to its end.
    fn read_all(f: &mut Frontier) -> Vec<(u32, Vec<u8>)> {
        std::iter::from_fn(|| f.pop().map(|(lid, enc)| (lid, enc.to_vec()))).collect()
    }

    /// `(lid, encoding)` pairs for `encs`, ids in order.
    fn numbered(encs: &[Vec<u8>]) -> Vec<(u32, Vec<u8>)> {
        encs.iter().enumerate().map(|(i, e)| (i as u32, e.clone())).collect()
    }

    #[test]
    fn records_round_trip_and_report_their_length() {
        for len in [0, 1, 63, 64, 127, 128, 8191, 8192, 100_000] {
            for delta in [false, true] {
                let body: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
                let mut out = vec![0xa5];
                put_record(&mut out, 0xdead_beef, delta, &body);
                assert_eq!(out.len(), 1 + record_len(len), "{len} bytes");
                let (rec, n) = Record::parse(&out[1..]).unwrap();
                assert_eq!(
                    (rec, n),
                    (Record { lid: 0xdead_beef, delta, body: &body }, out.len() - 1)
                );
                for cut in [0, 3, 4, out.len() - 2] {
                    assert_eq!(Record::parse(&out[1..1 + cut]), None, "{len} bytes cut at {cut}");
                }
            }
        }
        // A length varint that never ends is refused, not shifted past 64.
        assert_eq!(
            Record::parse(&[
                0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01
            ]),
            None
        );
    }

    #[test]
    fn a_record_that_does_not_fit_in_a_page_tail_starts_a_new_page() {
        let enc = |i: usize| vec![i as u8; 1000];
        let rec = record_len(1000);
        let fit = PAGE_BYTES / rec;
        let mut f = Frontier::new(None);
        for i in 0..fit {
            f.append(&enc(i), i as u32);
        }
        assert_eq!(f.next.pages.len(), 1);
        assert_eq!(f.next.pages[0].len(), fit * rec);
        f.append(&enc(fit), fit as u32);
        let lens: Vec<usize> = f.next.pages.iter().map(Vec::len).collect();
        assert_eq!(
            lens,
            [fit * rec, rec],
            "the tail of {} bytes is left unused",
            PAGE_BYTES - fit * rec
        );
        assert_eq!(f.next_hot(), (fit + 1) * rec);
        f.advance();
        let want: Vec<_> = (0..=fit).map(|i| (i as u32, enc(i))).collect();
        assert_eq!(read_all(&mut f), want);
        assert_eq!(f.pool.held, 2 * PAGE_BYTES, "both pages are pooled once read");
    }

    #[test]
    fn an_encoding_longer_than_a_page_gets_a_page_of_its_own() {
        let big: Vec<u8> = (0..PAGE_BYTES + 5000).map(|i| (i % 251) as u8).collect();
        let encs = vec![vec![1u8; 10], big, vec![2u8; 10]];
        let mut f = Frontier::new(None);
        for (i, e) in encs.iter().enumerate() {
            f.append(e, i as u32);
        }
        let caps: Vec<usize> = f.next.pages.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [PAGE_BYTES, record_len(encs[1].len()), PAGE_BYTES]);
        assert_eq!(f.mem_bytes(), caps.iter().sum::<usize>());
        f.advance();
        assert_eq!(read_all(&mut f), numbered(&encs));
        // Read, the oversized page is freed; the standard ones wait in the
        // pool, which keeps its reserve across the boundary.
        assert_eq!(f.pool.held, 2 * PAGE_BYTES);
        f.advance();
        assert_eq!(f.pool.free.len(), 2);
    }

    /// Delta records decode exactly over a level of several pages: across
    /// page boundaries, the 64-entry restart and deltas that would outgrow
    /// their targets (stored full instead); in full mode every record is.
    #[test]
    fn a_delta_chain_decodes_across_pages_and_restarts() {
        let map = SectionMap::flat(1);
        const LOADED: usize = 100;
        let encs = encodings(20_000, LOADED);
        for mode in [StoreMode::Full, StoreMode::Delta, StoreMode::FpOnly] {
            let mut f = Frontier::new(mode.delta_frontier().then_some(map));
            for (i, e) in encs.iter().enumerate() {
                f.append(e, i as u32);
            }
            f.advance();
            assert!(f.cur.pages.len() >= 2, "{mode:?}: {} pages", f.cur.pages.len());
            let mut stream = Vec::new();
            f.append_cur_to(&mut stream).unwrap();
            assert_eq!(f.cur_size(), (encs.len(), stream.len()), "{mode:?}");
            let (mut at, mut fulls) = (0, Vec::new());
            while let Some((rec, n)) = Record::parse(&stream[at..]) {
                if !rec.delta {
                    fulls.push(rec.lid as usize);
                }
                at += n;
            }
            if mode.delta_frontier() {
                // Restarts after DELTA_RESTART deltas, at 65 and at 166 (the
                // count restarts at the fallbacks), and every 65 from there.
                assert_eq!(fulls[..5], [0, 65, LOADED, LOADED + 1, 166], "{mode:?}");
                assert!(fulls.windows(2).all(|w| w[1] - w[0] <= 65), "{mode:?}");
            } else {
                assert_eq!(fulls.len(), encs.len(), "{mode:?}");
            }
            assert_eq!(read_all(&mut f), numbered(&encs), "{mode:?}");
            // A checkpoint's stream restores to the same level.
            let mut restored = Frontier::new(mode.delta_frontier().then_some(map));
            restored.restore(stream.clone(), encs.len());
            let mut again = Vec::new();
            restored.append_cur_to(&mut again).unwrap();
            assert_eq!(again, stream, "{mode:?}");
            assert_eq!(read_all(&mut restored), numbered(&encs), "{mode:?}");
        }
    }

    /// Under a 1-byte budget every worker is always over its share, so the
    /// next level is flushed whenever its pages in memory reach a chunk
    /// (one 4 KiB spill page at least); read back, the spilled pages stream
    /// in order ahead of the ones still in memory.
    #[test]
    fn under_a_one_byte_budget_spilled_pages_stream_back_in_order() {
        if !crate::spill::SPILL_SUPPORTED {
            return;
        }
        let map = SectionMap::flat(1);
        let encs = encodings(20_000, 100);
        for mode in [StoreMode::Full, StoreMode::Delta] {
            let mut f = Frontier::new(mode.delta_frontier().then_some(map));
            for (i, e) in encs.iter().enumerate() {
                f.append(e, i as u32);
                if f.next_hot() >= crate::spill::PAGE as usize {
                    f.spill_next().unwrap();
                }
            }
            assert!(!f.next.pages.is_empty(), "{mode:?}: the tail stays in memory");
            f.advance();
            assert!(f.cur.spilled.len() > 2, "{mode:?}");
            let mut stream = Vec::new();
            f.append_cur_to(&mut stream).unwrap();
            assert_eq!(f.cur_size(), (encs.len(), stream.len()), "{mode:?}");
            // The checkpoint stream read back from the spill file holds the
            // same records, in the same order, as a level never spilled.
            let mut unspilled = Frontier::new(mode.delta_frontier().then_some(map));
            for (i, e) in encs.iter().enumerate() {
                unspilled.append(e, i as u32);
            }
            unspilled.advance();
            let mut want = Vec::new();
            unspilled.append_cur_to(&mut want).unwrap();
            assert!(stream == want, "{mode:?}: the spilled stream differs");
            let mut restored = Frontier::new(mode.delta_frontier().then_some(map));
            restored.restore(stream.clone(), encs.len());
            assert_eq!(read_all(&mut restored), numbered(&encs), "{mode:?}");
            assert_eq!(read_all(&mut f), numbered(&encs), "{mode:?}");
            let (bytes, chunks) = f.spill_totals();
            assert!(chunks > 2 && bytes as usize <= stream.len(), "{mode:?}");
            // Pages streamed back reuse the pool: a few pages, never the level.
            assert!(f.pool.held <= 4 * PAGE_BYTES, "{mode:?}: {} bytes", f.pool.held);
        }
    }

    /// A level read while the next one is appended hands its pages over:
    /// the frontier holds about one level, not two.
    #[test]
    fn read_pages_refill_the_next_level() {
        let encs = encodings(30_000, usize::MAX);
        let mut f = Frontier::new(None);
        for (i, e) in encs.iter().enumerate() {
            f.append(e, i as u32);
        }
        let one_level = f.pool.held;
        assert!(one_level >= 4 * PAGE_BYTES, "{one_level} bytes");
        for _ in 0..3 {
            f.advance();
            assert!(f.pool.free.len() <= POOL_RESERVE);
            while let Some((lid, enc)) = f.pop() {
                let enc = enc.to_vec();
                f.append(&enc, lid);
            }
            assert!(f.pool.held <= one_level + 2 * PAGE_BYTES, "{} bytes", f.pool.held);
        }
        f.advance();
        assert_eq!(read_all(&mut f), numbered(&encs));
    }

    /// MESI stalling at 4 caches on one worker: the visited set costs at
    /// most 22 bytes a state (20.6 with 4-byte records), the frontier's pages
    /// at the peak epoch, pooled ones included, stay within 2 MiB, and the
    /// peak epoch (deterministic at one worker) expands depth 31.
    #[test]
    fn a_frontier_holds_about_one_level() {
        let g = protogen_core::generate(
            &protogen_protocols::mesi(),
            &protogen_core::GenConfig::stalling(),
        )
        .unwrap();
        let r = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches_and_threads(4, 1))
            .run();
        assert_eq!((r.states, r.transitions), (254_130, 1_163_240));
        assert!(r.store_bytes as f64 / r.states as f64 <= 22.0, "store_bytes {}", r.store_bytes);
        assert!(r.frontier_bytes <= 2 << 20, "frontier_bytes {}", r.frontier_bytes);
        assert!(r.frontier_bytes < r.peak_mem_bytes);
        assert_eq!(r.peak_mem_depth, 31);
    }

    #[test]
    fn state_limit_stops_exploration_deterministically() {
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let run = |threads: usize| {
            let mut cfg = McConfig::with_caches(2);
            cfg.max_states = 100;
            cfg.threads = threads;
            ModelChecker::new(&g.cache, &g.directory, cfg).run()
        };
        let (r1, r4) = (run(1), run(4));
        assert!(!r1.passed());
        assert_eq!(r1.limit, Some(ResourceLimit::StateBudget));
        // The budget is enforced at level granularity, so the count may
        // overshoot by one level but must still be reached…
        assert!(r1.states >= 100, "stopped below the budget: {}", r1.states);
        // …and be identical at any thread count.
        assert_eq!(r1.states, r4.states);
        assert_eq!(r1.transitions, r4.transitions);
        assert_eq!(r1.limit, r4.limit);
        assert!(r1.store_bytes > 0);
    }

    #[test]
    fn store_modes_agree_on_results() {
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let run = |store: StoreMode| {
            let mut cfg = McConfig::with_caches(3);
            cfg.threads = 2;
            cfg.store = store;
            ModelChecker::new(&g.cache, &g.directory, cfg).run()
        };
        let full = run(StoreMode::Full);
        let delta = run(StoreMode::Delta);
        let fp = run(StoreMode::FpOnly);
        assert!(full.passed());
        for r in [&delta, &fp] {
            assert_eq!(full.states, r.states);
            assert_eq!(full.transitions, r.transitions);
            assert!(r.passed());
        }
        assert!(fp.expected_collision_pairs() > 0.0);
        assert!(fp.expected_collision_pairs() < 1e-9, "tiny space, tiny bound");
    }

    #[test]
    fn budgeted_run_spills_and_matches_unbudgeted() {
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let run = |budget: usize, store: StoreMode| {
            let mut cfg = McConfig::with_caches(3);
            cfg.threads = 2;
            cfg.store = store;
            cfg.mem_budget_bytes = budget;
            cfg.spill_chunk_bytes = 1; // clamps up to one page
            ModelChecker::new(&g.cache, &g.directory, cfg).run()
        };
        let unbudgeted = run(0, StoreMode::Full);
        assert!(unbudgeted.passed());
        assert_eq!(unbudgeted.spill_bytes, 0, "no budget, no spilling");
        for store in [StoreMode::Full, StoreMode::Delta] {
            // A 1-byte budget forces the spill path everywhere it exists.
            let budgeted = run(1, store);
            assert_eq!(budgeted.states, unbudgeted.states, "{store:?}");
            assert_eq!(budgeted.transitions, unbudgeted.transitions, "{store:?}");
            assert!(budgeted.passed(), "{store:?}");
            if crate::spill::SPILL_SUPPORTED {
                assert!(budgeted.spill_bytes > 0, "{store:?}: budget never spilled");
                assert!(budgeted.spill_chunks > 0, "{store:?}");
            }
        }
    }

    #[test]
    fn peak_mem_accounts_for_more_than_the_store() {
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let mut cfg = McConfig::with_caches(3);
        cfg.threads = 2;
        let r = ModelChecker::new(&g.cache, &g.directory, cfg).run();
        assert!(r.passed());
        // The rolled-up figure includes frontier pages and batch pools,
        // so it must exceed the store-only figure the seed reported.
        assert!(
            r.peak_mem_bytes > r.store_bytes,
            "peak {} should exceed store-only {}",
            r.peak_mem_bytes,
            r.store_bytes
        );
    }

    #[test]
    fn store_split_repeats_and_lookups_match_across_thread_counts() {
        let ssp = protogen_protocols::mesi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let run = |threads: usize| {
            let mut cfg = McConfig::with_caches(3);
            cfg.threads = threads;
            ModelChecker::new(&g.cache, &g.directory, cfg).run()
        };
        let mut lookups = Vec::new();
        for threads in [1, 2, 4] {
            let (a, b) = (run(threads), run(threads));
            assert!(a.passed(), "{:?}", a.violation);
            // Which shard holds a state and how many each part holds
            // depend only on the fingerprints, so the bytes repeat.
            assert_eq!(a.store_split, b.store_split, "{threads} threads");
            assert_eq!(a.store_split.total(), a.store_bytes);
            assert!(a.store_split.column > 0 && a.store_split.slots > 0);
            assert!(a.store_split.records > 0);
            // One lookup per deduplicated candidate, whoever owns it.
            assert_eq!(a.store_counters.lookups, b.store_counters.lookups);
            assert!(a.store_counters.probes >= a.store_counters.lookups);
            lookups.push(a.store_counters.lookups);
        }
        assert!(lookups.iter().all(|&l| l == lookups[0] && l > 0), "{lookups:?}");
    }

    #[test]
    fn full_shard_reports_resource_exhaustion_instead_of_aborting() {
        // The seed design `assert!`ed inside `Gid::pack` when a shard
        // exceeded its packed-id capacity, killing the whole process
        // mid-run. The overflow must now surface as a structured
        // `ResourceLimit::ShardCapacity` outcome with partial stats.
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let mut cfg = McConfig::with_caches(2);
        cfg.threads = 1;
        cfg.shard_capacity = 40;
        let r = ModelChecker::new(&g.cache, &g.directory, cfg).run();
        assert!(!r.passed(), "an incomplete exploration must not pass");
        assert_eq!(r.limit, Some(ResourceLimit::ShardCapacity { shard: 0 }));
        assert_eq!(r.states, 40, "the shard stops growing exactly at capacity");
        assert!(r.transitions > 0, "partial stats survive the early stop");
        assert!(r.violation.is_none());
    }

    #[test]
    fn shard_capacity_resolves_and_clamps() {
        let mut cfg = McConfig::with_caches(2);
        assert_eq!(cfg.effective_shard_capacity(), crate::store::SHARD_CAPACITY);
        cfg.shard_capacity = 0;
        assert_eq!(cfg.effective_shard_capacity(), crate::store::SHARD_CAPACITY);
        cfg.shard_capacity = usize::MAX;
        assert_eq!(cfg.effective_shard_capacity(), crate::store::SHARD_CAPACITY);
        cfg.shard_capacity = 100;
        assert_eq!(cfg.effective_shard_capacity(), 100);
    }

    #[test]
    fn sample_states_are_distinct_canonical_representatives() {
        let ssp = protogen_protocols::msi();
        let g = protogen_core::generate(&ssp, &protogen_core::GenConfig::stalling()).unwrap();
        let mc = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(2));
        let states = mc.sample_states(50);
        assert_eq!(states.len(), 50);
        let mut canon = Canonicalizer::new(2, true);
        let mut seen = std::collections::HashSet::new();
        for s in &states {
            assert_eq!(s.encode(), canon.canonical_rep(s).encode(), "not a representative");
            assert!(seen.insert(canon.canonical_fp(s)), "duplicate sample");
        }
    }
}
