//! Golden oracle for the engine: one `label fnv64(report)` line per cell of
//! a reduced grid, recorded at the commit *before* the cycle loop learned to
//! count incrementally and skip dead cycles (PR 20). Any change to a
//! simulated number — a cycle, a stall, a latency percentile, a digit of
//! directory occupancy — changes a digest.
//!
//! The fixture is `tests/golden.txt`. On a mismatch the failure prints the
//! whole actual table; a *deliberate* change of simulated behaviour re-pins
//! by pasting it over the fixture (and saying why in the PR).

use protogen_core::{generate, GenConfig};
use protogen_protocols::{by_name, NAMES};
use protogen_sim::{
    simulate, LatencyDist, NetModel, NetworkConfig, SimConfig, SimError, SimResult, Workload,
};

const FIXTURE: &str = include_str!("golden.txt");

/// One grid column: everything of a `SimConfig` but the protocol.
struct Variant {
    workload: Workload,
    latency: LatencyDist,
    capacity: usize,
    think_time: u64,
    n_caches: usize,
    n_addrs: usize,
    accesses: usize,
}

fn variant(
    workload: Workload,
    latency: LatencyDist,
    capacity: usize,
    think_time: u64,
    (n_caches, n_addrs, accesses): (usize, usize, usize),
) -> Variant {
    Variant { workload, latency, capacity, think_time, n_caches, n_addrs, accesses }
}

/// The ordered-network columns: every synthetic workload, the three latency
/// families, capacity 0 / 1 / 2, think time 0 / 2 / 50. Two-deep buffers
/// alone backpressure in only four cells; the one-deep columns are the ones
/// every protocol completes (one-deep buffers wedge `msi-unordered` under
/// `uniform-80` — that shape is `engine.rs`'s fixed-point test, not a cell).
fn ordered_variants() -> Vec<Variant> {
    use LatencyDist::{Fixed, Geometric, Uniform};
    vec![
        variant(Workload::Uniform { store_pct: 50 }, Fixed(8), 0, 2, (4, 4, 60)),
        variant(Workload::Zipfian { store_pct: 30 }, Uniform { lo: 2, hi: 20 }, 0, 0, (4, 16, 60)),
        variant(Workload::ProducerConsumer, Geometric { base: 6, extra_pct: 25 }, 1, 2, (3, 2, 50)),
        variant(Workload::Migratory, Fixed(8), 1, 0, (4, 2, 50)),
        variant(Workload::FalseSharing, Uniform { lo: 4, hi: 16 }, 2, 50, (3, 1, 40)),
        variant(Workload::Private, Geometric { base: 3, extra_pct: 50 }, 0, 50, (4, 4, 40)),
        variant(Workload::FalseSharing, Fixed(1), 0, 0, (4, 2, 60)),
        variant(Workload::Uniform { store_pct: 80 }, Fixed(20), 2, 2, (3, 2, 50)),
        variant(
            Workload::Zipfian { store_pct: 50 },
            Geometric { base: 6, extra_pct: 25 },
            0,
            50,
            (2, 8, 50),
        ),
    ]
}

/// The reordering-network columns (`msi-unordered` only).
fn unordered_variants() -> Vec<Variant> {
    use LatencyDist::{Geometric, Uniform};
    vec![
        variant(Workload::Uniform { store_pct: 50 }, Uniform { lo: 2, hi: 24 }, 0, 2, (4, 4, 60)),
        variant(Workload::FalseSharing, Uniform { lo: 1, hi: 40 }, 2, 0, (3, 2, 50)),
        variant(Workload::Migratory, Geometric { base: 2, extra_pct: 80 }, 0, 50, (4, 2, 40)),
    ]
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

struct Cell {
    label: String,
    result: Result<SimResult, SimError>,
}

/// Runs the whole grid, in fixture order.
fn run_grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for name in NAMES {
        let ssp = by_name(name).unwrap();
        for (gc, gc_label) in
            [(GenConfig::stalling(), "stalling"), (GenConfig::non_stalling(), "non-stalling")]
        {
            let g = generate(&ssp, &gc).unwrap();
            let mut columns: Vec<(NetModel, Variant)> =
                ordered_variants().into_iter().map(|v| (NetModel::Ordered, v)).collect();
            if !ssp.network_ordered {
                columns.extend(unordered_variants().into_iter().map(|v| (NetModel::Unordered, v)));
            }
            for (i, (model, v)) in columns.into_iter().enumerate() {
                let network = NetworkConfig { model, latency: v.latency, capacity: v.capacity };
                let label = format!(
                    "{name}/{gc_label}/{}/{model}/{}/cap{}/think{}/{}x{}x{}",
                    v.workload.label(),
                    v.latency,
                    v.capacity,
                    v.think_time,
                    v.n_caches,
                    v.n_addrs,
                    v.accesses
                );
                let cfg = SimConfig {
                    n_caches: v.n_caches,
                    n_addrs: v.n_addrs,
                    think_time: v.think_time,
                    accesses_per_core: v.accesses,
                    workload: v.workload,
                    network,
                    seed: 0x600D + i as u64,
                    // A wedged cell must not cost the parent's engine 50 M
                    // cycles; no cell of this grid comes near the limit.
                    max_cycles: 200_000,
                };
                cells.push(Cell { label, result: simulate(&g.cache, &g.directory, &cfg) });
            }
        }
    }
    cells
}

#[test]
fn reports_match_the_digests_recorded_at_the_parent() {
    let cells = run_grid();
    let mut actual = String::new();
    for cell in &cells {
        let r = cell.result.as_ref().unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        actual.push_str(&format!(
            "{} {:016x}\n",
            cell.label,
            fnv64(r.to_json().render().as_bytes())
        ));
    }
    assert!(cells.len() <= 150, "the grid is meant to stay small: {} cells", cells.len());
    assert!(
        actual == FIXTURE,
        "simulated reports diverged from crates/sim/tests/golden.txt; actual table:\n{actual}"
    );

    // The oracle is only worth something where the counters the skip must
    // not disturb are live.
    let live =
        |f: fn(&SimResult) -> bool| cells.iter().filter(|c| c.result.as_ref().is_ok_and(f)).count();
    assert!(live(|r| r.stall_cycles > 0) >= 10, "too few cells stall");
    assert!(live(|r| r.backpressure_cycles > 0) >= 10, "too few cells backpressure");
    assert!(live(|r| r.dir_occupancy > 0.0) >= 10, "too few cells occupy the directory");
}
