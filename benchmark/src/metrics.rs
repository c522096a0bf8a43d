//! Metric names, units and directions — the same lists `BENCHMARK.json`
//! carries (`tests/smoke.rs` holds the two together).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every end-to-end metric. The unit of work is the
/// workload's own (`Workload::work_unit`): distinct states, pipelines,
/// served ops, simulated accesses.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "work_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "request_p50_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
];

/// Below this many seconds a relative bound on `setup_s` only measures
/// noise; `compare` lets set-up time move by this much regardless.
pub const SETUP_FLOOR_S: f64 = 0.05;

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// A count that must repeat exactly between two runs of one commit.
    pub exact: bool,
    pub higher_is_better: bool,
}

/// A time, a size or an overhead: lower is better.
const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, exact: false, higher_is_better: false }
}

/// A rate or a speed-up: higher is better.
const fn gain(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, exact: false, higher_is_better: true }
}

/// A count fixed by the inputs. It has no better direction — a host-speed
/// change must leave it identical — and is listed as "lower".
const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, exact: true, higher_is_better: false }
}

/// Per-layer metrics of the traced run, named `<layer>.<what>` after the
/// crate or module measured. A layer the workload does not exercise
/// reports 0.
pub const PER_LAYER: [PerLayer; 75] = [
    cost("dsl.parse_us", "us"),
    cost("core.generate_us", "us"),
    exact("core.cache_states", "count"),
    exact("core.dir_states", "count"),
    cost("core.compose_ms", "ms"),
    cost("runtime.index_build_us", "us"),
    cost("runtime.apply_into_ns", "ns"),
    cost("backend.emit_us", "us"),
    cost("mc.small_verify_us", "us"),
    exact("mc.small_states", "count"),
    cost("mc.run_s", "s"),
    cost("mc.run_ns_per_state", "ns"),
    cost("mc.run_ns_per_transition", "ns"),
    exact("mc.states", "count"),
    exact("mc.transitions", "count"),
    exact("mc.transitions_per_state", "ratio"),
    cost("mc.steps_ns", "ns"),
    cost("mc.successor_ns", "ns"),
    cost("mc.canon_fp_ns", "ns"),
    cost("mc.canon_candidates_mean", "count"),
    cost("mc.encode_canonical_ns", "ns"),
    cost("mc.encode_bytes_per_state", "bytes"),
    cost("mc.decode_ns", "ns"),
    cost("mc.fingerprint_ns", "ns"),
    cost("mc.delta_encode_ns", "ns"),
    cost("mc.delta_apply_ns", "ns"),
    cost("mc.delta_ratio", "ratio"),
    cost("mc.unattributed_ns_per_state", "ns"),
    cost("mc.peak_mem_bytes", "bytes"),
    cost("mc.peak_store_bytes", "bytes"),
    cost("mc.spill_bytes", "bytes"),
    cost("mc.spill_chunks", "count"),
    cost("mc.cpu_s", "s"),
    gain("mc.par_speedup", "ratio"),
    cost("mc.par_cpu_overhead", "ratio"),
    exact("mc.full_states", "count"),
    exact("mc.full_transitions", "count"),
    cost("mc.full_verify_s", "s"),
    gain("mc.full_states_per_s", "states/s"),
    cost("mc.full_peak_mem_bytes", "bytes"),
    cost("hier.check_s", "s"),
    exact("hier.states", "count"),
    exact("hier.transitions", "count"),
    cost("hier.ns_per_state", "ns"),
    cost("hier.bytes_per_state", "bytes"),
    exact("hier.group_size", "count"),
    exact("hier.full_states", "count"),
    exact("hier.full_transitions", "count"),
    cost("hier.full_verify_s", "s"),
    gain("hier.full_states_per_s", "states/s"),
    cost("sim.schedule_expand_ms", "ms"),
    cost("sim.ns_per_access", "ns"),
    cost("sim.ns_per_msg", "ns"),
    cost("sim.report_us", "us"),
    exact("sim.cycles", "count"),
    exact("sim.misses", "count"),
    exact("sim.messages", "count"),
    exact("sim.p95_latency_cycles", "count"),
    exact("sim.msgs_per_miss", "ratio"),
    cost("serve.envelope_s", "s"),
    cost("serve.ns_per_miss", "ns"),
    cost("serve.msgs_per_miss", "ratio"),
    gain("serve.msgs_per_s", "1/s"),
    cost("serve.hits", "count"),
    cost("serve.misses", "count"),
    cost("serve.messages", "count"),
    cost("serve.miss_p99_ns", "ns"),
    cost("serve.miss_max_ns", "ns"),
    cost("serve.peak_queue_depth", "count"),
    cost("serve.mailbox_push_pop_ns", "ns"),
    cost("serve.mailbox_xthread_rtt_ns", "ns"),
    cost("serve.hit_path_ns_per_op", "ns"),
    cost("proc.cpu_s", "s"),
    cost("proc.cpu_util", "ratio"),
    cost("proc.trace_overhead_pct", "%"),
];

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
}
