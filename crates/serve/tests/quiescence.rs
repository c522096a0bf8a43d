//! Quiescence detection (per-worker `sent`/`received` counters, swept
//! received-first) never fires early and never fails to fire: hundreds of
//! tiny runs, where start-up and wind-down are most of the run and the
//! termination rule is exercised at every topology it supports cheaply.
//!
//! A missed quiescence shows as [`StopReason::Deadline`]; an early one as
//! an incomplete schedule, or as `serve`'s own assertion that
//! Σsent == Σreceived once every worker has exited (`report.messages` *is*
//! Σreceived).

use protogen_core::{generate, GenConfig};
use protogen_mc::McConfig;
use protogen_serve::{checked_envelope, serve, FaultConfig, ServeConfig, StopReason};
use protogen_sim::Workload;

fn quiescence_runs(runs: usize) {
    let machines: Vec<_> = [protogen_protocols::msi(), protogen_protocols::mesi()]
        .iter()
        .map(|ssp| {
            let g = generate(ssp, &GenConfig::non_stalling()).expect("protocol generates");
            // One envelope per (protocol, cache count).
            let envelopes: Vec<_> = (1..=3)
                .map(|caches| {
                    checked_envelope(&g.cache, &g.directory, McConfig::with_caches(caches))
                        .expect("verification passes")
                })
                .collect();
            (g, envelopes)
        })
        .collect();
    for i in 0..runs {
        let caches = 1 + i % 3;
        let mut cfg = ServeConfig::new(caches);
        cfg.dir_shards = 1 + i / 3 % 2;
        let (g, envelopes) = &machines[i / 6 % 2];
        cfg.faults = (i / 12 % 2 == 1).then(|| FaultConfig::all(i as u64));
        cfg.n_addrs = 2 + i / 24 % 3; // every cache walks the same 2–4 blocks
        cfg.total_ops = 42 + 6 * (i * 7 % 60); // 42..=396, a multiple of every cache count
        cfg.workload = Workload::Uniform { store_pct: 50 };
        cfg.mailbox_cap = 16;
        cfg.seed = i as u64;
        cfg.max_seconds = 2.0; // a quiescent finish is milliseconds away
        let label = format!("run {i}: {cfg:?}");
        let report = serve(&g.cache, &g.directory, &cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(report.stop_reason, StopReason::Quiesced, "{label}: {:?}", report.stop_detail);
        assert_eq!(report.stop_detail, None, "{label}");
        assert_eq!(report.ops, cfg.total_ops as u64, "{label}: quiesced before the schedule ended");
        assert_eq!(report.hits + report.misses, report.ops, "{label}");
        assert_eq!(report.miss_latency.len() as u64, report.misses, "{label}: unmeasured miss");
        assert!(report.messages >= 2 * report.misses, "{label}: a transaction is a round trip");
        let escapes = report.escapes(&envelopes[caches - 1]);
        assert!(escapes.is_empty(), "{label}: escaped the envelope: {escapes:?}");
    }
}

#[test]
fn tiny_runs_always_quiesce_exactly_once_everything_is_done() {
    quiescence_runs(312);
}

/// Every worker records its own miss latencies and `serve` merges them:
/// the merged histogram must hold one sample per miss.
#[test]
fn merged_miss_latencies_count_every_miss() {
    let g = generate(&protogen_protocols::msi(), &GenConfig::non_stalling()).unwrap();
    let mut cfg = ServeConfig::new(2);
    cfg.dir_shards = 2;
    cfg.n_addrs = 8;
    cfg.total_ops = 20_000;
    cfg.workload = Workload::Uniform { store_pct: 50 };
    let report = serve(&g.cache, &g.directory, &cfg).expect("run completes");
    assert_eq!(report.stop_reason, StopReason::Quiesced, "{:?}", report.stop_detail);
    assert!(report.misses > 0, "a run without misses measures nothing");
    assert_eq!(report.miss_latency.len() as u64, report.misses);
}

/// The widest topology `serve` supports — 8 caches (the sharer-mask width)
/// and 2 shards: every worker's readiness scan peeks 10 inbound edges. No
/// envelope here (the checker cannot exhaust 8 caches), so this pins
/// termination and completeness only.
#[test]
fn widest_topology_quiesces() {
    let g = generate(&protogen_protocols::mesi(), &GenConfig::non_stalling()).unwrap();
    for faults in [None, Some(FaultConfig::all(3))] {
        let mut cfg = ServeConfig::new(8);
        cfg.dir_shards = 2;
        cfg.total_ops = 16_000;
        cfg.mailbox_cap = 16;
        cfg.faults = faults;
        let report = serve(&g.cache, &g.directory, &cfg).expect("run completes");
        assert_eq!(report.stop_reason, StopReason::Quiesced, "{:?}", report.stop_detail);
        assert_eq!((report.ops, report.hits + report.misses), (16_000, 16_000));
    }
}

/// The nightly soak of the same body.
#[test]
#[ignore = "20,000 runs: nightly"]
fn quiescence_soak() {
    quiescence_runs(20_000);
}
