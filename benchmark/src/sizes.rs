//! The one table of workload sizes, and the thread-sizing rule.
//!
//! Every size the benchmark runs at is a constant here. Result files record
//! the table, and `compare` refuses two files that differ in any entry.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// The flat MESI space of `verify_flat`, `verify_par`, `verify_spill`.
    pub verify_caches: usize,
    pub verify_stalling: bool,
    /// `verify_spill`'s memory budget and spill granularity.
    pub spill_budget_bytes: usize,
    pub spill_chunk_bytes: usize,
    /// `verify_composed`: L1s per L2, L2s under the root.
    pub composed_fanout: (usize, usize),
    /// The spaces ISSUE 11 pinned, too long to repeat inside a run: MESI
    /// non-stalling at this many caches and this composed stack are checked
    /// once in the traced run, ungated (`mc.full_*`, `hier.full_*`).
    pub full_verify_caches: usize,
    pub full_composed_fanout: (usize, usize),
    /// `gen_many` rounds per unit; one round is 7 protocols × 2
    /// configurations plus the negative control.
    pub gen_rounds: usize,
    /// Ops of one `serve` call.
    pub serve_miss_ops: usize,
    pub serve_shared_ops: usize,
    /// Blocks each serve trace cycles (per core for `serve_miss`, shared
    /// for `serve_shared`).
    pub serve_blocks: usize,
    /// The traced-only `Workload::Private` hit-loop run.
    pub serve_hit_ops: usize,
    pub sim_caches: usize,
    pub sim_addrs: usize,
    pub sim_store_pct: u8,
    pub sim_net_latency: u64,
    pub sim_accesses_per_core: usize,
    /// States sampled for the per-layer replays.
    pub corpus_states: usize,
    /// Round trips of the mailbox micro-measurements.
    pub mailbox_round_trips: usize,
}

pub const FULL: Sizes = Sizes {
    verify_caches: 4,
    verify_stalling: true,
    spill_budget_bytes: 4 << 20,
    spill_chunk_bytes: 1 << 20,
    composed_fanout: (1, 3),
    full_verify_caches: 4,
    full_composed_fanout: (2, 2),
    gen_rounds: 4,
    serve_miss_ops: 240_000,
    serve_shared_ops: 160_000,
    serve_blocks: 4,
    serve_hit_ops: 8_000_000,
    sim_caches: 4,
    sim_addrs: 64,
    sim_store_pct: 30,
    sim_net_latency: 8,
    sim_accesses_per_core: 50_000,
    corpus_states: 20_000,
    mailbox_round_trips: 200_000,
};

/// `--smoke`: the same code paths in seconds, for `cargo test`.
pub const SMOKE: Sizes = Sizes {
    verify_caches: 2,
    verify_stalling: true,
    // One byte over budget is over budget: every chunk spills.
    spill_budget_bytes: 1,
    spill_chunk_bytes: 4096,
    composed_fanout: (2, 1),
    full_verify_caches: 2,
    full_composed_fanout: (2, 1),
    gen_rounds: 1,
    serve_miss_ops: 20_000,
    serve_shared_ops: 20_000,
    serve_blocks: 4,
    serve_hit_ops: 20_000,
    sim_caches: 4,
    sim_addrs: 64,
    sim_store_pct: 30,
    sim_net_latency: 8,
    sim_accesses_per_core: 5_000,
    corpus_states: 500,
    mailbox_round_trips: 2_000,
};

impl Sizes {
    pub fn pick(smoke: bool) -> Sizes {
        if smoke {
            SMOKE
        } else {
            FULL
        }
    }

    pub fn to_json(self) -> Json {
        let n = |v: usize| Json::count(v as u64);
        Json::obj([
            ("verify_caches", n(self.verify_caches)),
            ("verify_stalling", Json::Bool(self.verify_stalling)),
            ("spill_budget_bytes", n(self.spill_budget_bytes)),
            ("spill_chunk_bytes", n(self.spill_chunk_bytes)),
            ("composed_fanout_l1", n(self.composed_fanout.0)),
            ("composed_fanout_l2", n(self.composed_fanout.1)),
            ("full_verify_caches", n(self.full_verify_caches)),
            ("full_composed_fanout_l1", n(self.full_composed_fanout.0)),
            ("full_composed_fanout_l2", n(self.full_composed_fanout.1)),
            ("gen_rounds", n(self.gen_rounds)),
            ("serve_miss_ops", n(self.serve_miss_ops)),
            ("serve_shared_ops", n(self.serve_shared_ops)),
            ("serve_blocks", n(self.serve_blocks)),
            ("serve_hit_ops", n(self.serve_hit_ops)),
            ("sim_caches", n(self.sim_caches)),
            ("sim_addrs", n(self.sim_addrs)),
            ("sim_store_pct", n(self.sim_store_pct as usize)),
            ("sim_net_latency", Json::count(self.sim_net_latency)),
            ("sim_accesses_per_core", n(self.sim_accesses_per_core)),
            ("corpus_states", n(self.corpus_states)),
            ("mailbox_round_trips", n(self.mailbox_round_trips)),
        ])
    }
}

/// Thread rule: `T = min(nproc, 4)`. Nothing runs more than `T` threads,
/// except `serve_shared` on a 2-core host (sharing needs two caches and a
/// directory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads {
    pub nproc: usize,
    pub t: usize,
    pub verify_par: usize,
    pub serve_miss_caches: usize,
    pub serve_shared_caches: usize,
}

pub const DIR_SHARDS: usize = 1;

impl Threads {
    pub fn for_host() -> Threads {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let t = nproc.min(4);
        Threads {
            nproc,
            t,
            verify_par: t,
            serve_miss_caches: t.saturating_sub(DIR_SHARDS).max(1),
            serve_shared_caches: t.saturating_sub(DIR_SHARDS).max(2),
        }
    }

    pub fn to_json(self) -> Json {
        let n = |v: usize| Json::count(v as u64);
        Json::obj([
            ("nproc", n(self.nproc)),
            ("t", n(self.t)),
            ("verify_par", n(self.verify_par)),
            ("serve_miss_caches", n(self.serve_miss_caches)),
            ("serve_shared_caches", n(self.serve_shared_caches)),
            ("dir_shards", n(DIR_SHARDS)),
        ])
    }
}
