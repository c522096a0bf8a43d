//! Measurement: latency histograms, aggregated run statistics, and the
//! run's report, as text and as a JSON document.

use crate::{SimConfig, Workload};
use protogen_runtime::{Json, PairSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Values below this are counted per value; larger ones are kept raw.
const DENSE: usize = 4096;

/// An exact latency histogram that does not keep one word per sample.
///
/// A value below `DENSE` (4,096) bumps its own counter (the counter
/// vector grows to the largest such value seen, at most `DENSE` words); a
/// larger value goes raw into a tail, which is sorted on the first read
/// after it changed. Count, sum and maximum are running fields. Percentiles walk the
/// counters and then the sorted tail, so every statistic is the one a
/// sorted copy of all samples would give. Simulated latencies (tens of
/// cycles on the default network) and most uncontended live ones (about a
/// microsecond) stay below `DENSE`, so such a run holds at most `DENSE`
/// words however long it is; only samples of `DENSE` or more cost a word
/// each.
///
/// Reads take `&self`: the tail sits behind a lock held only to sort or
/// index it, so read-only stats consumers never need `&mut`.
#[derive(Debug, Default)]
pub struct Histogram {
    /// `counts[v]` = samples equal to `v`, for `v < DENSE`.
    counts: Vec<u64>,
    tail: Mutex<Tail>,
    len: u64,
    sum: u64,
    max: u64,
}

/// Samples of at least [`DENSE`], in arrival order until first read.
#[derive(Debug, Default, Clone)]
struct Tail {
    values: Vec<u64>,
    sorted: bool,
}

impl Clone for Histogram {
    fn clone(&self) -> Histogram {
        Histogram {
            counts: self.counts.clone(),
            tail: Mutex::new(self.tail().clone()),
            len: self.len,
            sum: self.sum,
            max: self.max,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.add(v, 1);
    }

    /// Adds every sample of `other`, as if each had been recorded here.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, &n) in other.counts.iter().enumerate() {
            if n > 0 {
                self.add(v as u64, n);
            }
        }
        for &v in &other.tail().values {
            self.add(v, 1);
        }
    }

    /// Records `n` samples of value `v`: in its counter below [`DENSE`],
    /// once per sample in the tail otherwise.
    fn add(&mut self, v: u64, n: u64) {
        self.len += n;
        self.sum += v * n;
        self.max = self.max.max(v);
        match usize::try_from(v) {
            Ok(i) if i < DENSE => {
                if i >= self.counts.len() {
                    // Double, capped at DENSE, with no allocator slack: the
                    // counters never exceed DENSE words.
                    let want = (i + 1).max(2 * self.counts.len()).min(DENSE);
                    self.counts.reserve_exact(want - self.counts.len());
                    self.counts.resize(want, 0);
                }
                self.counts[i] += n;
            }
            _ => {
                let tail = self.tail.get_mut().unwrap_or_else(PoisonError::into_inner);
                tail.values.extend((0..n).map(|_| v));
                tail.sorted = false;
            }
        }
    }

    /// The tail, locked. A poisoned lock is taken over as is: `sorted` is
    /// set only after a sort completes, so any interrupted update leaves
    /// the same samples, at worst marked unsorted.
    fn tail(&self) -> MutexGuard<'_, Tail> {
        self.tail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held by the counters and the tail.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.counts.capacity() + self.tail().values.capacity()) * std::mem::size_of::<u64>()
    }

    /// The `p`-th percentile (nearest-rank), or 0 with no samples.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let n = self.len as usize;
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let mut rank = rank.clamp(1, n) as u64;
        for (v, &c) in self.counts.iter().enumerate() {
            if rank <= c {
                return v as u64;
            }
            rank -= c;
        }
        let mut tail = self.tail();
        if !tail.sorted {
            tail.values.sort_unstable();
            tail.sorted = true;
        }
        tail.values[rank as usize - 1]
    }

    /// Arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.sum as f64 / self.len as f64
        }
    }

    /// Largest sample, or 0 with no samples.
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// Aggregated measurements of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Accesses completed (hits + transaction completions).
    pub completed: usize,
    /// Accesses satisfied without a coherence transaction.
    pub hits: usize,
    /// Accesses that launched a coherence transaction.
    pub misses: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Node-cycles spent with a stalled message at a channel head (the
    /// paper's stalling cost).
    pub stall_cycles: u64,
    /// Node-cycles spent blocked on a full outgoing channel
    /// (bounded-buffer backpressure).
    pub backpressure_cycles: u64,
    /// Coherence messages delivered.
    pub messages: u64,
    /// Deepest any `(src, dst)` channel ever grew.
    pub peak_channel_depth: usize,
    /// Mean cycles from issue to completion over miss transactions.
    pub avg_miss_latency: f64,
    /// Median miss latency.
    pub p50_latency: u64,
    /// 95th-percentile miss latency.
    pub p95_latency: u64,
    /// 99th-percentile miss latency.
    pub p99_latency: u64,
    /// Worst-case miss latency.
    pub max_latency: u64,
    /// Messages delivered per miss transaction.
    pub msgs_per_miss: f64,
    /// Fraction of directory-entry cycles spent in a transient (busy)
    /// state — how occupied the directory was mid-transaction.
    pub dir_occupancy: f64,
    /// Every `(machine, state, event)` dispatch the run attempted, for
    /// conformance against the model checker. Not serialized.
    pub coverage: PairSet,
}

impl SimResult {
    /// The run's measurements as an ordered JSON object (coverage is
    /// bookkeeping for conformance tests and is not serialized).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("completed", Json::U64(self.completed as u64)),
            ("hits", Json::U64(self.hits as u64)),
            ("misses", Json::U64(self.misses as u64)),
            ("cycles", Json::U64(self.cycles)),
            ("stall_cycles", Json::U64(self.stall_cycles)),
            ("backpressure_cycles", Json::U64(self.backpressure_cycles)),
            ("messages", Json::U64(self.messages)),
            ("peak_channel_depth", Json::U64(self.peak_channel_depth as u64)),
            ("avg_miss_latency", Json::F64(self.avg_miss_latency)),
            ("p50_latency", Json::U64(self.p50_latency)),
            ("p95_latency", Json::U64(self.p95_latency)),
            ("p99_latency", Json::U64(self.p99_latency)),
            ("max_latency", Json::U64(self.max_latency)),
            ("msgs_per_miss", Json::F64(self.msgs_per_miss)),
            ("dir_occupancy", Json::F64(self.dir_occupancy)),
        ])
    }

    /// `sim --json`: the run's header — `protocol`, its generator
    /// `config`, the workload, caches and seed of `cfg` — then the stats.
    pub fn document(&self, protocol: &str, config: &str, cfg: &SimConfig) -> Json {
        let [protocol, config, workload] = run_header(protocol, config, &cfg.workload);
        let (caches, seed) = (Json::U64(cfg.n_caches as u64), Json::U64(cfg.seed));
        let stats = ("stats", self.to_json());
        Json::obj([protocol, config, workload, ("caches", caches), ("seed", seed), stats])
    }

    /// `sim`'s text report: the accesses, the miss latency summary and the
    /// traffic, one line each.
    pub fn render_text(&self, protocol: &str, workload: &Workload) -> String {
        let SimResult { completed, hits, misses, cycles, messages, stall_cycles, .. } = self;
        let (p50, p95, p99, max) =
            (self.p50_latency, self.p95_latency, self.p99_latency, self.max_latency);
        let (avg, per_miss, backpressure) =
            (self.avg_miss_latency, self.msgs_per_miss, self.backpressure_cycles);
        format!(
            "{protocol}: {completed} accesses ({hits} hits, {misses} misses) in {cycles} cycles \
             under {workload}\n  miss latency p50/p95/p99/max: {p50}/{p95}/{p99}/{max} (avg \
             {avg:.1})\n  {messages} messages ({per_miss:.1}/miss), {stall_cycles} stall-cycles, \
             {backpressure} backpressure-cycles, dir occupancy {:.1}%\n",
            self.dir_occupancy * 100.0
        )
    }
}

/// The fields a `sim` or `serve` document opens with: the protocol, its
/// generator configuration and the workload it ran.
pub fn run_header(protocol: &str, config: &str, workload: &Workload) -> [(&'static str, Json); 3] {
    [
        ("protocol", Json::Str(protocol.to_string())),
        ("config", Json::Str(config.to_string())),
        ("workload", Json::Str(workload.label())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(95.0), 100);
        assert_eq!(h.percentile(99.0), 100);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 55.0);
        assert_eq!(h.len(), 10);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn percentile_reads_take_shared_references() {
        let mut h = Histogram::new();
        for v in [30u64, 10, 20] {
            h.record(v);
        }
        // Two simultaneous &self borrows: the read path must not need &mut.
        let (r, s) = (&h, &h);
        assert_eq!(r.percentile(50.0), 20);
        assert_eq!(s.percentile(50.0), 20);
    }

    #[test]
    fn percentile_extremes_and_single_sample() {
        let mut h = Histogram::new();
        for v in [50u64, 10, 40, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 10, "p=0 is the minimum sample");
        assert_eq!(h.percentile(100.0), 50, "p=100 is the maximum sample");
        let mut single = Histogram::new();
        single.record(7);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(single.percentile(p), 7, "single-sample p={p}");
        }
    }

    #[test]
    fn recording_after_a_read_invalidates_the_sorted_view() {
        let mut h = Histogram::new();
        h.record(10);
        assert_eq!(h.percentile(100.0), 10);
        h.record(99);
        assert_eq!(h.percentile(100.0), 99);
        assert_eq!(h.percentile(0.0), 10);
    }

    /// The sort-based histogram this module used to be: the oracle.
    struct Reference(Vec<u64>);

    impl Reference {
        fn percentile(&self, p: f64) -> u64 {
            let mut sorted = self.0.clone();
            sorted.sort_unstable();
            if sorted.is_empty() {
                return 0;
            }
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        }

        fn mean(&self) -> f64 {
            if self.0.is_empty() {
                0.0
            } else {
                self.0.iter().sum::<u64>() as f64 / self.0.len() as f64
            }
        }
    }

    const PERCENTILES: [f64; 8] = [0.0, 0.1, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0];

    fn assert_matches(h: &Histogram, samples: &[u64]) {
        let r = Reference(samples.to_vec());
        for p in PERCENTILES {
            assert_eq!(h.percentile(p), r.percentile(p), "p={p} over {samples:?}");
        }
        assert_eq!(h.mean().to_bits(), r.mean().to_bits(), "mean over {samples:?}");
        assert_eq!(h.max(), samples.iter().copied().max().unwrap_or(0));
        assert_eq!(h.len(), samples.len());
        assert_eq!(h.is_empty(), samples.is_empty());
    }

    fn histogram(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    /// Samples on both sides of `DENSE`, its edges, and past 2³².
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        let dense = DENSE as u64;
        let one = (0u8..7, any::<u64>()).prop_map(move |(kind, r)| match kind {
            0 => 0,
            1 => dense - 1,
            2 => dense,
            3 => r % dense,
            4 => dense + r % (4 * dense),
            5 => (1 << 32) + r % (1 << 40),
            _ => r % 64,
        });
        proptest::collection::vec(one, 0..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn statistics_equal_a_sorted_copy(s in samples()) {
            assert_matches(&histogram(&s), &s);
        }

        #[test]
        fn merge_equals_recording_both_in_turn(a in samples(), b in samples()) {
            let mut merged = histogram(&a);
            merged.percentile(50.0); // a sorted tail must take b's too
            merged.merge(&histogram(&b));
            let both = [a, b].concat();
            assert_matches(&merged, &both);
            assert_matches(&merged.clone(), &both);
        }

        #[test]
        fn a_record_after_a_read_is_seen(s in samples(), cut in 0usize..300) {
            let cut = cut.min(s.len());
            let mut h = histogram(&s[..cut]);
            assert_matches(&h, &s[..cut]);
            for &v in &s[cut..] {
                h.record(v);
            }
            assert_matches(&h, &s);
        }
    }

    #[test]
    fn a_million_dense_samples_fit_in_the_counters() {
        let mut h = Histogram::new();
        for i in 0..1_000_000u64 {
            h.record(i * 7919 % DENSE as u64);
        }
        assert_eq!(h.len(), 1_000_000);
        assert!(h.heap_bytes() <= DENSE * 8, "{} heap bytes", h.heap_bytes());
    }
}
