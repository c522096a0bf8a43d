//! Work distribution for the parallel explorer: encoded-candidate batch
//! queues between shards and the epoch-synchronization phaser.
//!
//! Exploration proceeds in BFS epochs (levels). Within an epoch every
//! worker expands its own frontier, routing successor *encodings* (never
//! cloned states — see [`crate::system::SysState::decode_into`]) to the
//! owning shard's bounded inbox in batches, and opportunistically drains
//! its own inbox between expansions, so deduplication overlaps expansion
//! instead of waiting for a phase barrier. Workers synchronize only at
//! epoch boundaries — once when the epoch's expansion is complete (a
//! *draining* rendezvous: waiting workers keep servicing their inbox, so
//! bounded queues cannot deadlock the fleet) and once when its
//! deduplication is complete (where the last arriver publishes the
//! budget/violation decision). Candidate arrival order varies run to run,
//! but every quantity the checker reports is arrival-order-independent:
//! states dedup by fingerprint, same-level parent races resolve by
//! minimum `(parent fingerprint, step)`, and violations are selected by a
//! deterministic minimum at the epoch boundary. DESIGN.md §8 carries the
//! determinism proof sketch.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::explore::ViolationKind;
use crate::store::{Gid, StoreBytes};

/// One successor candidate en route to its owning shard: the fixed-width
/// part. The state itself travels as its canonical encoding in the
/// batch's shared byte arena (`off..off + len`), so a candidate that
/// turns out to be a duplicate never materializes a state at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandMeta {
    /// Canonical fingerprint (identical for every member of the orbit).
    pub fp: u64,
    /// The parent's fingerprint (deterministic parent-selection key).
    pub parent_fp: u64,
    /// Global id of the expanded parent.
    pub parent: Gid,
    /// Packed step that produced this successor.
    pub step: u32,
    /// Offset of the canonical encoding in the batch arena.
    pub off: u32,
    /// Length of the canonical encoding.
    pub len: u32,
}

/// A batch of candidates bound for one shard: parallel metadata records
/// plus one contiguous byte arena holding their canonical encodings —
/// two allocations per ~[`BATCH`] candidates instead of a boxed state
/// each, and both buffers are recycled through [`Outboxes::recycle`].
#[derive(Debug, Default)]
pub(crate) struct CandBatch {
    pub meta: Vec<CandMeta>,
    pub bytes: Vec<u8>,
}

impl CandBatch {
    /// Empties the batch, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        self.meta.clear();
        self.bytes.clear();
    }

    /// The encoding of candidate `m`.
    pub fn enc(&self, m: &CandMeta) -> &[u8] {
        &self.bytes[m.off as usize..(m.off + m.len) as usize]
    }

    /// RAM held by this batch's two allocations.
    pub fn mem_bytes(&self) -> usize {
        self.meta.capacity() * std::mem::size_of::<CandMeta>() + self.bytes.capacity()
    }
}

/// Candidates per batch before it is sealed and delivered.
pub(crate) const BATCH: usize = 256;

/// Most batches one inbox may queue before producers are backpressured.
/// Bounds frontier-routing memory to `threads² × MAX_QUEUED_BATCHES ×
/// BATCH` candidates; producers blocked on a full inbox drain their own
/// inbox while they wait, so the bound cannot deadlock the fleet.
pub(crate) const MAX_QUEUED_BATCHES: usize = 64;

/// One shard's bounded inbox of candidate batches, filled by every worker
/// during expansion and drained exclusively by the owner.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    q: Mutex<VecDeque<CandBatch>>,
    space: Condvar,
}

impl Inbox {
    /// Queues `batch` unless the inbox is at capacity (the batch is
    /// handed back for the caller's backpressure loop).
    pub fn try_push(&self, batch: CandBatch) -> Result<(), CandBatch> {
        let mut q = self.q.lock().unwrap();
        if q.len() >= MAX_QUEUED_BATCHES {
            return Err(batch);
        }
        q.push_back(batch);
        Ok(())
    }

    /// Takes the oldest queued batch, waking one backpressured producer.
    pub fn pop(&self) -> Option<CandBatch> {
        let popped = self.q.lock().unwrap().pop_front();
        if popped.is_some() {
            self.space.notify_all();
        }
        popped
    }

    /// Blocks until the inbox has space or `dur` elapses (backpressured
    /// producers park here between drain attempts of their own inbox).
    pub fn wait_for_space(&self, dur: Duration) {
        let q = self.q.lock().unwrap();
        if q.len() >= MAX_QUEUED_BATCHES {
            let _ = self.space.wait_timeout(q, dur).unwrap();
        }
    }

    /// RAM held by queued batches right now (taken under the queue lock;
    /// sampled once per epoch for peak-memory accounting).
    pub fn mem_bytes(&self) -> usize {
        self.q.lock().unwrap().iter().map(CandBatch::mem_bytes).sum()
    }
}

/// Per-worker outboxes: one open batch per destination shard plus a pool
/// of recycled empties, so steady-state routing allocates nothing.
#[derive(Debug)]
pub(crate) struct Outboxes {
    bufs: Vec<CandBatch>,
    pool: Vec<CandBatch>,
}

impl Outboxes {
    pub fn new(n_shards: usize) -> Self {
        Outboxes { bufs: (0..n_shards).map(|_| CandBatch::default()).collect(), pool: Vec::new() }
    }

    /// The byte arena of `shard`'s open batch — encode the candidate here
    /// first, then seal its metadata with [`Outboxes::push_meta`].
    pub fn bytes_of(&mut self, shard: usize) -> &mut Vec<u8> {
        &mut self.bufs[shard].bytes
    }

    /// Records `meta` for `shard`. When the batch reaches [`BATCH`]
    /// candidates it is sealed and returned for delivery (a fresh or
    /// pooled batch takes its place).
    pub fn push_meta(&mut self, shard: usize, meta: CandMeta) -> Option<CandBatch> {
        let buf = &mut self.bufs[shard];
        buf.meta.push(meta);
        if buf.meta.len() >= BATCH {
            let fresh = self.pool.pop().unwrap_or_default();
            Some(std::mem::replace(&mut self.bufs[shard], fresh))
        } else {
            None
        }
    }

    /// Seals and takes `shard`'s open batch if it is non-empty (end of
    /// the epoch's expansion).
    pub fn take(&mut self, shard: usize) -> Option<CandBatch> {
        if self.bufs[shard].meta.is_empty() {
            None
        } else {
            let fresh = self.pool.pop().unwrap_or_default();
            Some(std::mem::replace(&mut self.bufs[shard], fresh))
        }
    }

    /// Returns a drained batch's allocations to the pool. Batches
    /// received from *other* workers land here too — cross-thread arena
    /// recycling, so the fleet's batch allocations reach a fixed point
    /// after the first few epochs.
    pub fn recycle(&mut self, mut batch: CandBatch) {
        batch.clear();
        if self.pool.len() < 2 * MAX_QUEUED_BATCHES {
            self.pool.push(batch);
        }
    }

    /// RAM held by the open batches *and* the recycled-empties pool —
    /// the pool retains up to `2 × MAX_QUEUED_BATCHES` arenas per worker,
    /// which the old "peak store bytes" figure never counted.
    pub fn mem_bytes(&self) -> usize {
        self.bufs.iter().chain(self.pool.iter()).map(CandBatch::mem_bytes).sum()
    }
}

/// A violation discovered during expansion, waiting for the end-of-epoch
/// deterministic minimum-selection.
#[derive(Debug)]
pub(crate) struct VioCand {
    /// Global id of the state being expanded when the violation fired.
    pub parent: Gid,
    /// That state's fingerprint (primary selection key).
    pub parent_fp: u64,
    /// Packed final step ([`crate::store::STEP_NONE`] for deadlocks).
    pub step: u32,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// End-of-epoch aggregation, merged under one lock by every worker.
#[derive(Debug, Default)]
pub(crate) struct LevelAgg {
    /// States newly inserted this epoch, summed over shards.
    pub new_states: usize,
    /// Violations discovered this epoch, across all workers.
    pub violations: Vec<VioCand>,
    /// The visited shards' bytes this epoch, summed over shards (the
    /// store's part of `Coordinator::epoch_mem`).
    pub store: StoreBytes,
    /// The largest `store` of the run so far, kept by the decision leader.
    pub peak_store: StoreBytes,
    /// The frontiers' pages, in use or pooled, this epoch, summed over
    /// shards (another part of `Coordinator::epoch_mem`).
    pub frontier: usize,
    /// The side columns of parent-race keys this epoch, summed over shards
    /// (another part of `Coordinator::epoch_mem`).
    pub hot_level: usize,
    /// `frontier` at the epoch that set `Coordinator::peak_mem`.
    pub peak_frontier: usize,
    /// `hot_level` at the epoch that set `Coordinator::peak_mem`.
    pub peak_hot_level: usize,
    /// The depth of the level that epoch expanded.
    pub peak_depth: u32,
}

/// What the whole fleet does after the current epoch.
#[derive(Debug, Default)]
pub(crate) enum Decision {
    /// Explore the next level.
    #[default]
    Continue,
    /// Stop: either a violation was selected, the space is exhausted, or
    /// the state budget is spent.
    Stop {
        /// The deterministically chosen violation, if any.
        violation: Option<VioCand>,
        /// Whether `max_states` was exceeded.
        hit_limit: bool,
    },
}

/// Epoch-boundary rendezvous: `n` workers arrive; the *last* arriver runs
/// the leader closure (publishing the epoch decision) before releasing
/// the fleet. A generation counter makes the phaser reusable, and
/// [`Phaser::arrive_and_drain`] lets waiting workers keep servicing their
/// inbox — the piece that makes bounded queues deadlock-free.
#[derive(Debug)]
pub(crate) struct Phaser {
    n: usize,
    /// `(arrived, generation)`.
    state: Mutex<(usize, u64)>,
    cv: Condvar,
}

impl Phaser {
    pub fn new(n: usize) -> Self {
        Phaser { n, state: Mutex::new((0, 0)), cv: Condvar::new() }
    }

    /// Arrives at the rendezvous and blocks until every worker has. The
    /// last arriver runs `leader` (under the phaser lock — keep it short)
    /// before waking the fleet.
    pub fn arrive<F: FnOnce()>(&self, leader: F) {
        let mut st = self.state.lock().unwrap();
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 = gen.wrapping_add(1);
            leader();
            self.cv.notify_all();
        } else {
            while st.1 == gen {
                st = self.cv.wait(st).unwrap();
            }
        }
    }

    /// [`Phaser::arrive`] for the expansion boundary: while waiting for
    /// stragglers, periodically runs `service` (the caller drains its own
    /// inbox there), so a worker that finished its frontier early still
    /// consumes the batches stragglers route to it — without this, a full
    /// inbox whose owner is parked at the rendezvous would deadlock every
    /// backpressured producer.
    pub fn arrive_and_drain<F: FnMut()>(&self, mut service: F) {
        let mut st = self.state.lock().unwrap();
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 = gen.wrapping_add(1);
            self.cv.notify_all();
            return;
        }
        loop {
            let (guard, _) = self.cv.wait_timeout(st, Duration::from_micros(200)).unwrap();
            st = guard;
            if st.1 != gen {
                return;
            }
            drop(st);
            service();
            st = self.state.lock().unwrap();
            if st.1 != gen {
                return;
            }
        }
    }
}

/// Shared coordination state for one exploration run. (No `Debug`: the
/// captured panic payload is an opaque `Box<dyn Any>`.)
pub(crate) struct Coordinator {
    /// Epoch-boundary rendezvous; one slot per worker.
    pub phaser: Phaser,
    /// Total states inserted across shards (read for the budget check).
    pub total_states: AtomicUsize,
    /// Total transitions fired across workers.
    pub transitions: AtomicUsize,
    /// Per-epoch merge target.
    pub agg: Mutex<LevelAgg>,
    /// Decision published at the dedup rendezvous each epoch.
    pub decision: Mutex<Decision>,
    /// Lowest shard id whose visited set reached its capacity bound
    /// (`usize::MAX` while none has). Checked by the decision so a full
    /// shard stops exploration with a structured outcome.
    pub exhausted_shard: AtomicUsize,
    /// Accounted RAM summed by workers over the current epoch (store +
    /// side columns + frontier pages + outbox pools + queued inbox
    /// batches); the decision leader folds it into `peak_mem` and zeroes
    /// it.
    pub epoch_mem: AtomicUsize,
    /// Running maximum of `epoch_mem` over all epochs — the run's peak
    /// accounted memory.
    pub peak_mem: AtomicUsize,
    /// Payload bytes spilled by frontier pages fleet-wide (visited-record
    /// spill totals are summed from the returned shards instead).
    pub frontier_spill_bytes: AtomicU64,
    /// Chunks spilled by frontier pages fleet-wide.
    pub frontier_spill_chunks: AtomicU64,
    /// Set when any worker's phase panicked: every worker keeps hitting
    /// the rendezvous but skips real work, so the fleet drains instead of
    /// deadlocking the phaser.
    pub aborted: AtomicBool,
    /// The first captured panic payload, re-raised by the main thread.
    pub panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Coordinator {
    pub fn new(n_workers: usize) -> Self {
        Coordinator {
            phaser: Phaser::new(n_workers),
            total_states: AtomicUsize::new(0),
            transitions: AtomicUsize::new(0),
            agg: Mutex::new(LevelAgg::default()),
            decision: Mutex::new(Decision::Continue),
            exhausted_shard: AtomicUsize::new(usize::MAX),
            epoch_mem: AtomicUsize::new(0),
            peak_mem: AtomicUsize::new(0),
            frontier_spill_bytes: AtomicU64::new(0),
            frontier_spill_chunks: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// Runs one worker phase unless the fleet is aborting. A panic in it
    /// is recorded (first one wins) and flips the abort flag, so every
    /// worker keeps rendezvousing without work and exits at the next
    /// decision point. `None`: the phase was skipped or panicked.
    pub fn guard<T>(&self, phase: impl FnOnce() -> T) -> Option<T> {
        if self.aborted.load(Relaxed) {
            return None;
        }
        let payload = match catch_unwind(AssertUnwindSafe(phase)) {
            Ok(value) => return Some(value),
            Err(payload) => payload,
        };
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.aborted.store(true, SeqCst);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::STEP_NONE;

    fn meta(fp: u64, off: u32, len: u32) -> CandMeta {
        CandMeta { fp, parent_fp: 0, parent: Gid::pack(0, 0), step: STEP_NONE, off, len }
    }

    #[test]
    fn outboxes_seal_on_batch_boundary_and_on_demand() {
        let mut out = Outboxes::new(2);
        for i in 0..BATCH - 1 {
            out.bytes_of(1).push(i as u8);
            assert!(out.push_meta(1, meta(i as u64, i as u32, 1)).is_none());
        }
        // The BATCH-th candidate seals the batch.
        let sealed = out.push_meta(1, meta(9, 0, 0)).expect("sealed at the batch bound");
        assert_eq!(sealed.meta.len(), BATCH);
        assert_eq!(sealed.bytes.len(), BATCH - 1);
        // Encodings are addressable through the metadata.
        assert_eq!(sealed.enc(&sealed.meta[3]), &[3]);
        // Nothing open for shard 0 yet; one candidate then takes it.
        assert!(out.take(0).is_none());
        out.push_meta(0, meta(1, 0, 0));
        assert_eq!(out.take(0).unwrap().meta.len(), 1);
        // Recycled batches come back empty with their allocations.
        out.recycle(sealed);
        out.bytes_of(1).push(7);
        assert!(out.push_meta(1, meta(1, 0, 1)).is_none());
        assert!(out.take(1).unwrap().bytes.capacity() > 0);
    }

    #[test]
    fn inbox_is_bounded_and_pop_frees_space() {
        let inbox = Inbox::default();
        for _ in 0..MAX_QUEUED_BATCHES {
            inbox.try_push(CandBatch::default()).expect("under the bound");
        }
        let rejected = inbox.try_push(CandBatch::default());
        assert!(rejected.is_err(), "the bound must backpressure");
        // wait_for_space with a full queue returns after the timeout
        // without panicking, and after a pop the push goes through.
        inbox.wait_for_space(Duration::from_millis(1));
        assert!(inbox.pop().is_some());
        inbox.try_push(rejected.unwrap_err()).expect("space after pop");
    }

    #[test]
    fn phaser_releases_fleet_and_leader_runs_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phaser = Phaser::new(4);
        let leads = AtomicUsize::new(0);
        let services = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    phaser.arrive_and_drain(|| {
                        services.fetch_add(1, Ordering::Relaxed);
                    });
                    phaser.arrive(|| {
                        leads.fetch_add(1, Ordering::Relaxed);
                    });
                    // Reusable: a second epoch goes through the same phaser.
                    phaser.arrive(|| {
                        leads.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(leads.load(Ordering::Relaxed), 2, "exactly one leader per rendezvous");
    }
}
