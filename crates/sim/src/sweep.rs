//! Multi-threaded configuration sweeps over the
//! `protocol × stalling × workload × cache-count × network` grid.
//!
//! Cells fan out through [`protogen_core::par`] (cell `i` on worker
//! `i % threads`) and every cell derives its own RNG seed from the sweep
//! seed and the cell index alone ([`par::job_seed`]) — never from thread
//! identity or timing — so the merged report is **byte-identical for any
//! thread count**. CI diffs the JSON to enforce exactly that.

use crate::config::{NetModel, NetworkConfig, SimConfig};
use crate::engine::simulate;
use crate::stats::Json;
use crate::workload::Workload;
use crate::{SimError, SimResult};
use protogen_core::{generate, par, GenConfig};

/// The sweep grid's free dimensions and per-run parameters. Every cell
/// otherwise runs [`SimConfig::default`].
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Protocol CLI names (see `protogen_protocols::NAMES`).
    pub protocols: Vec<String>,
    /// Cache counts.
    pub cache_counts: Vec<usize>,
    /// Accesses each core performs per run.
    pub accesses_per_core: usize,
    /// Sweep seed; each cell derives its own from this and its index.
    pub seed: u64,
    /// Worker threads; `0` means all available cores. Results are
    /// identical for every value.
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            protocols: vec!["msi".into(), "mesi".into()],
            cache_counts: vec![2, 4],
            accesses_per_core: 200,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

/// One cell of the expanded grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the deterministic grid order.
    pub index: usize,
    /// Protocol CLI name.
    pub protocol: String,
    /// Stalling (`true`) or non-stalling generation.
    pub stalling: bool,
    /// The workload.
    pub workload: Workload,
    /// Cache count.
    pub n_caches: usize,
    /// The interconnect ([`NetworkConfig::for_protocol`] builds it).
    pub network: NetModel,
}

impl SweepCell {
    /// Stable cell name, also used for `--out` file names:
    /// `msi.non-stall.uniform-50.c2.ordered`.
    pub fn label(&self) -> String {
        format!(
            "{}.{}.{}.c{}.{}",
            self.protocol,
            if self.stalling { "stall" } else { "non-stall" },
            self.workload.label(),
            self.n_caches,
            self.network
        )
    }
}

impl SweepConfig {
    /// The generation configs of the grid: stalling, then non-stalling.
    pub const STALLING: [bool; 2] = [true, false];
    /// The workloads of the grid.
    pub const WORKLOADS: [Workload; 4] = [
        Workload::Uniform { store_pct: 50 },
        Workload::Zipfian { store_pct: 50 },
        Workload::ProducerConsumer,
        Workload::FalseSharing,
    ];
    /// The interconnects of the grid.
    pub const NETWORKS: [NetModel; 2] = [NetModel::Ordered, NetModel::Unordered];

    /// Expands the grid in deterministic nested order (protocol outermost,
    /// network innermost).
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut out = Vec::new();
        for protocol in &self.protocols {
            for stalling in Self::STALLING {
                for workload in &Self::WORKLOADS {
                    for &n_caches in &self.cache_counts {
                        for network in Self::NETWORKS {
                            out.push(SweepCell {
                                index: out.len(),
                                protocol: protocol.clone(),
                                stalling,
                                workload: workload.clone(),
                                n_caches,
                                network,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Human-readable grid listing for `protogen sweep --list`: one line
    /// per cell plus a dimension summary.
    pub fn listing(&self) -> String {
        let cells = self.cells();
        let mut out = String::new();
        for c in &cells {
            out.push_str(&format!("{:>4}  {}\n", c.index, c.label()));
        }
        out.push_str(&format!(
            "{} cells = {} protocols x {} configs x {} workloads x {} cache counts x {} networks \
             ({} accesses/core each, seed {:#x})\n",
            cells.len(),
            self.protocols.len(),
            Self::STALLING.len(),
            Self::WORKLOADS.len(),
            self.cache_counts.len(),
            Self::NETWORKS.len(),
            self.accesses_per_core,
            self.seed,
        ));
        out
    }
}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: SweepCell,
    /// The derived per-cell seed.
    pub seed: u64,
    /// Whether the cell's unordered network was clamped to FIFO delivery
    /// because the protocol was generated for ordered networks (latency
    /// jitter still applies; reordering would feed the controllers
    /// messages they provably cannot handle).
    pub fifo_clamped: bool,
    /// The measurements.
    pub stats: SimResult,
}

impl CellResult {
    /// The cell as an ordered JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::Str(self.cell.label())),
            ("protocol", Json::Str(self.cell.protocol.clone())),
            (
                "config",
                Json::Str(if self.cell.stalling { "stalling" } else { "non-stalling" }.into()),
            ),
            ("workload", Json::Str(self.cell.workload.label())),
            ("caches", Json::U64(self.cell.n_caches as u64)),
            ("network", Json::Str(self.cell.network.to_string())),
            ("fifo_clamped", Json::Bool(self.fifo_clamped)),
            ("seed", Json::U64(self.seed)),
            ("stats", self.stats.to_json()),
        ])
    }
}

/// All cells of one sweep, in grid order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Completed cells, ordered by [`SweepCell::index`].
    pub cells: Vec<CellResult>,
}

impl SweepReport {
    /// The whole sweep as one JSON document. Contains no wall-clock
    /// timing, so the rendering is byte-identical for a fixed seed at any
    /// thread count.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cells", Json::U64(self.cells.len() as u64)),
            ("results", Json::Arr(self.cells.iter().map(CellResult::to_json).collect())),
        ])
    }
}

/// Runs every cell of the grid on `cfg.threads` workers
/// ([`protogen_core::par::map_indexed`]).
///
/// # Errors
///
/// The lowest-indexed failing cell's error (unknown protocol, generation
/// failure, or simulation failure), independent of thread schedule.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepReport, SimError> {
    let cells = cfg.cells();
    let results = par::map_indexed(cells.len(), cfg.threads, |i| run_cell(cfg, cells[i].clone()));
    Ok(SweepReport { cells: results.into_iter().collect::<Result<_, _>>()? })
}

fn run_cell(cfg: &SweepConfig, cell: SweepCell) -> Result<CellResult, SimError> {
    let ssp = protogen_protocols::by_name(&cell.protocol).ok_or_else(|| {
        SimError::Workload(format!(
            "unknown protocol `{}` (try {})",
            cell.protocol,
            protogen_protocols::NAMES.join(", ")
        ))
    })?;
    let gen_cfg = if cell.stalling { GenConfig::stalling() } else { GenConfig::non_stalling() };
    let g = generate(&ssp, &gen_cfg)
        .map_err(|e| SimError::Workload(format!("{}: generation failed: {e}", cell.label())))?;
    let (network, fifo_clamped) = NetworkConfig::for_protocol(cell.network, ssp.network_ordered);
    let seed = par::job_seed(cfg.seed, cell.index);
    let sim_cfg = SimConfig {
        n_caches: cell.n_caches,
        workload: cell.workload.clone(),
        network,
        seed,
        accesses_per_core: cfg.accesses_per_core,
        ..SimConfig::default()
    };
    let stats = simulate(&g.cache, &g.directory, &sim_cfg)
        .map_err(|e| SimError::Workload(format!("{}: {e}", cell.label())))?;
    Ok(CellResult { cell, seed, fifo_clamped, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_in_deterministic_order() {
        let cfg = SweepConfig::default();
        let cells = cfg.cells();
        assert_eq!(cells.len(), 2 * 2 * 4 * 2 * 2);
        assert_eq!(cells[0].label(), "msi.stall.uniform-50.c2.ordered");
        assert_eq!(cells.last().unwrap().label(), "mesi.non-stall.false-sharing.c4.unordered");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        let listing = cfg.listing();
        assert!(listing.contains("64 cells"), "{listing}");
        assert!(listing.contains("msi.stall.uniform-50.c2.ordered"), "{listing}");
    }

    #[test]
    fn cell_seeds_depend_on_index_not_thread() {
        let cfg = SweepConfig::default();
        let cells = cfg.cells();
        let seed = |i: usize| run_cell(&cfg, cells[i].clone()).unwrap().seed;
        assert_eq!(seed(5), par::job_seed(cfg.seed, 5));
        assert_ne!(seed(5), seed(4));
    }

    #[test]
    fn unknown_protocol_is_a_deterministic_error() {
        let cfg = SweepConfig { protocols: vec!["nonesuch".into()], ..SweepConfig::default() };
        let err = run_sweep(&cfg).unwrap_err();
        assert!(err.to_string().contains("unknown protocol"), "{err}");
    }

    #[test]
    fn small_sweep_is_thread_count_invariant() {
        let base = SweepConfig {
            protocols: vec!["msi".into()],
            cache_counts: vec![2],
            accesses_per_core: 30,
            ..SweepConfig::default()
        };
        let one = run_sweep(&SweepConfig { threads: 1, ..base.clone() }).unwrap();
        let four = run_sweep(&SweepConfig { threads: 4, ..base }).unwrap();
        assert_eq!(one.to_json().render(), four.to_json().render());
    }
}
