//! Simulator ↔ model-checker conformance.
//!
//! The simulator and the checker execute the same generated FSMs through
//! the same runtime, so a simulated run under an ordered network must
//! never dispatch on a `(machine, state, event)` pair the exhaustive
//! checker did not visit at the same cache count. A pair outside the
//! checked set would mean the simulator drives the controllers through
//! unverified behaviour — exactly the drift this test exists to catch.

use protogen::gen::{generate, GenConfig};
use protogen::mc::{McConfig, ModelChecker};
use protogen::sim::{simulate, SimConfig, Workload};

#[test]
fn ordered_sim_only_dispatches_on_model_checked_pairs() {
    for name in ["msi", "mesi"] {
        let ssp = protogen::protocols::by_name(name).unwrap();
        for gc in [GenConfig::stalling(), GenConfig::non_stalling()] {
            let g = generate(&ssp, &gc).unwrap();
            let mut mc_cfg = McConfig::with_caches(2);
            mc_cfg.ordered = ssp.network_ordered;
            let checked = ModelChecker::new(&g.cache, &g.directory, mc_cfg).run();
            assert!(checked.passed(), "{name}: {:?}", checked.violation);
            let checked_pairs = checked.coverage;
            assert!(!checked_pairs.is_empty());

            for workload in Workload::synthetic() {
                let sim_cfg = SimConfig {
                    n_caches: 2,
                    n_addrs: 2,
                    accesses_per_core: 60,
                    workload: workload.clone(),
                    ..SimConfig::default()
                };
                let r = simulate(&g.cache, &g.directory, &sim_cfg)
                    .unwrap_or_else(|e| panic!("{name} under {workload}: {e}"));
                let observed = r.coverage;
                let unchecked: Vec<_> = observed.difference(&checked_pairs).collect();
                assert!(
                    unchecked.is_empty(),
                    "{name} ({:?}) under {workload}: simulator dispatched on pairs the \
                     model checker never visited: {unchecked:?}",
                    gc.concurrency
                );
            }
        }
    }
}
