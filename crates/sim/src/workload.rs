//! Workload layer: synthetic sharing-pattern generators and replayable
//! text traces.
//!
//! A workload expands to one operation schedule per core
//! ([`Workload::schedules`]); the engine consumes the schedules in order,
//! one outstanding access per core. Expansion is a pure function of
//! `(workload, n_caches, n_addrs, accesses_per_core, rng)`, so a fixed
//! seed replays the exact same traffic — the determinism the CI smoke job
//! asserts.

use crate::SimError;
use protogen_spec::Access;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// One operation of a core's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The block accessed.
    pub addr: u32,
    /// The access performed.
    pub access: Access,
}

/// One line of a parsed `.trc` trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// The issuing core.
    pub core: u32,
    /// The block accessed.
    pub addr: u32,
    /// The access performed.
    pub access: Access,
}

/// Synthetic sharing patterns and trace replay over the simulated blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// Every core picks a uniformly random block and stores with the given
    /// percentage — maximal racing, the situation §V-D2's transient states
    /// exist for.
    Uniform {
        /// Percentage of accesses that are stores (0–100).
        store_pct: u8,
    },
    /// Zipf-distributed block popularity (weight `1/(rank+1)`): a hot set
    /// of contended blocks plus a long cold tail.
    Zipfian {
        /// Percentage of accesses that are stores (0–100).
        store_pct: u8,
    },
    /// Core 0 stores block 0; every other core loads it
    /// (producer/consumer sharing).
    ProducerConsumer,
    /// All cores alternate load/store on block 0, so ownership migrates
    /// core to core.
    Migratory,
    /// All cores store block 0 on every access — the write ping-pong that
    /// false sharing degenerates to.
    FalseSharing,
    /// Each core touches only its own block (`core % n_addrs`): the
    /// contention-free baseline. Loads with a store at every fourth
    /// access starting from the third, so the first miss is a read miss
    /// (this is what makes MESI's exclusive-clean state observable).
    Private,
    /// Replay of a parsed `.trc` trace (see [`parse_trace`]).
    Trace(Vec<TraceOp>),
}

impl Workload {
    /// The synthetic generators, for sweeps (traces are file-driven).
    pub fn synthetic() -> Vec<Workload> {
        vec![
            Workload::Uniform { store_pct: 50 },
            Workload::Zipfian { store_pct: 50 },
            Workload::ProducerConsumer,
            Workload::Migratory,
            Workload::FalseSharing,
            Workload::Private,
        ]
    }

    /// Parses a workload name as accepted by the CLI. `store_pct` is a
    /// percentage: a value above 100 is refused whichever workload is named.
    pub fn parse(name: &str, store_pct: u8) -> Result<Workload, String> {
        if store_pct > 100 {
            return Err(format!("bad store percentage `{store_pct}` (0 to 100)"));
        }
        Ok(match name {
            "uniform" => Workload::Uniform { store_pct },
            "zipfian" => Workload::Zipfian { store_pct },
            "producer-consumer" => Workload::ProducerConsumer,
            "migratory" => Workload::Migratory,
            "false-sharing" => Workload::FalseSharing,
            "private" => Workload::Private,
            _ => {
                return Err(format!(
                    "unknown workload `{name}` (try uniform, zipfian, producer-consumer, \
                     migratory, false-sharing, private)"
                ))
            }
        })
    }

    /// A short stable label for config-cell naming and JSON.
    pub fn label(&self) -> String {
        match self {
            Workload::Uniform { store_pct } => format!("uniform-{store_pct}"),
            Workload::Zipfian { store_pct } => format!("zipfian-{store_pct}"),
            Workload::ProducerConsumer => "producer-consumer".into(),
            Workload::Migratory => "migratory".into(),
            Workload::FalseSharing => "false-sharing".into(),
            Workload::Private => "private".into(),
            Workload::Trace(ops) => format!("trace-{}ops", ops.len()),
        }
    }

    /// Expands the workload into one schedule per core. Every emitted op
    /// satisfies `addr < n_addrs`, and trace cores must satisfy
    /// `core < n_caches`.
    ///
    /// # Errors
    ///
    /// [`SimError::Workload`] when a trace references a core or address
    /// outside the configured system.
    pub fn schedules(
        &self,
        n_caches: usize,
        n_addrs: usize,
        accesses_per_core: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Vec<Op>>, SimError> {
        if n_caches == 0 || n_addrs == 0 {
            return Err(SimError::Workload("need at least one cache and one address".into()));
        }
        if let Workload::Trace(ops) = self {
            let mut per_core: Vec<Vec<Op>> = vec![Vec::new(); n_caches];
            for (i, t) in ops.iter().enumerate() {
                if t.core as usize >= n_caches {
                    return Err(SimError::Workload(format!(
                        "trace op {i}: core {} out of range (n_caches = {n_caches})",
                        t.core
                    )));
                }
                if t.addr as usize >= n_addrs {
                    return Err(SimError::Workload(format!(
                        "trace op {i}: address {} out of range (n_addrs = {n_addrs})",
                        t.addr
                    )));
                }
                per_core[t.core as usize].push(Op { addr: t.addr, access: t.access });
            }
            return Ok(per_core);
        }

        // 8 bytes a block: built only for the workload that samples it.
        let zipf = match self {
            Workload::Zipfian { .. } => Some(ZipfTable::new(n_addrs)?),
            _ => None,
        };
        let mut per_core = Vec::with_capacity(n_caches);
        for core in 0..n_caches {
            let mut ops = Vec::with_capacity(accesses_per_core);
            for step in 0..accesses_per_core {
                ops.push(self.synth_op(core, step, n_addrs, zipf.as_ref(), rng));
            }
            per_core.push(ops);
        }
        Ok(per_core)
    }

    fn synth_op(
        &self,
        core: usize,
        step: usize,
        n_addrs: usize,
        zipf: Option<&ZipfTable>,
        rng: &mut StdRng,
    ) -> Op {
        match *self {
            Workload::Uniform { store_pct } => {
                Op { addr: rng.gen_range(0..n_addrs as u32), access: pick_store(rng, store_pct) }
            }
            Workload::Zipfian { store_pct } => {
                let zipf = zipf.expect("schedules() builds the table for Zipfian");
                Op { addr: zipf.sample(rng), access: pick_store(rng, store_pct) }
            }
            Workload::ProducerConsumer => {
                Op { addr: 0, access: if core == 0 { Access::Store } else { Access::Load } }
            }
            Workload::Migratory => Op {
                addr: 0,
                access: if step.is_multiple_of(2) { Access::Load } else { Access::Store },
            },
            Workload::FalseSharing => Op { addr: 0, access: Access::Store },
            Workload::Private => Op {
                addr: (core % n_addrs) as u32,
                access: if step % 4 == 2 { Access::Store } else { Access::Load },
            },
            Workload::Trace(_) => unreachable!("traces expand in schedules()"),
        }
    }
}

fn pick_store(rng: &mut StdRng, store_pct: u8) -> Access {
    if rng.gen_range(0..100u8) < store_pct {
        Access::Store
    } else {
        Access::Load
    }
}

/// Fixed-point cumulative Zipf weights (`w_rank = 1/(rank+1)`), sampled by
/// binary search — integer arithmetic only, so results are identical on
/// every platform.
struct ZipfTable {
    cumulative: Vec<u64>,
}

impl ZipfTable {
    /// The weight of rank 0, at least the block count so that no rank's
    /// weight rounds down to zero (which would leave its block untouched).
    /// At most a million blocks keep the scale the tables were recorded at.
    fn new(n_addrs: usize) -> Result<ZipfTable, SimError> {
        let scale = (n_addrs as u64).max(1_000_000);
        let mut cumulative = Vec::new();
        cumulative.try_reserve_exact(n_addrs).map_err(|_| {
            SimError::Workload(format!("no memory for the Zipf table of {n_addrs} blocks"))
        })?;
        let mut total = 0u64;
        for rank in 0..n_addrs as u64 {
            total += scale / (rank + 1);
            cumulative.push(total);
        }
        Ok(ZipfTable { cumulative })
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cumulative.last().expect("non-empty table");
        let r = rng.gen_range(0..total);
        self.cumulative.partition_point(|&c| c <= r) as u32
    }
}

/// Parses the `.trc` text trace format: one op per line,
/// `<core> <ld|st|ev> <addr>`, with `#` comments and blank lines ignored.
/// A trace with no op is refused: it would replay nothing and still report
/// like a pass.
///
/// ```text
/// # producer/consumer on block 0
/// 0 st 0
/// 1 ld 0
/// ```
///
/// # Errors
///
/// [`SimError::Workload`] with the offending line number on malformed
/// input, or with the last line's on a trace with no op.
pub fn parse_trace(src: &str) -> Result<Vec<TraceOp>, SimError> {
    let mut ops = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let mut field = |what: &str| {
            fields.next().ok_or_else(|| {
                SimError::Workload(format!("trace line {}: missing {what}", lineno + 1))
            })
        };
        let core = field("core")?;
        let op = field("op")?;
        let addr = field("address")?;
        let parse_u32 = |s: &str, what: &str| {
            s.parse::<u32>().map_err(|_| {
                SimError::Workload(format!("trace line {}: bad {what} `{s}`", lineno + 1))
            })
        };
        let access = match op {
            "ld" => Access::Load,
            "st" => Access::Store,
            "ev" => Access::Replacement,
            other => {
                return Err(SimError::Workload(format!(
                    "trace line {}: bad op `{other}` (ld, st, or ev)",
                    lineno + 1
                )))
            }
        };
        if fields.next().is_some() {
            return Err(SimError::Workload(format!(
                "trace line {}: trailing fields after address",
                lineno + 1
            )));
        }
        ops.push(TraceOp {
            core: parse_u32(core, "core")?,
            addr: parse_u32(addr, "address")?,
            access,
        });
    }
    if ops.is_empty() {
        return Err(SimError::Workload(format!(
            "trace line {}: no operation in the trace (a run of nothing replays nothing)",
            src.lines().count().max(1)
        )));
    }
    Ok(ops)
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn schedules_are_deterministic_and_bounded() {
        for w in Workload::synthetic() {
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            let sa = w.schedules(3, 5, 40, &mut a).unwrap();
            let sb = w.schedules(3, 5, 40, &mut b).unwrap();
            assert_eq!(sa, sb, "{w}");
            assert_eq!(sa.len(), 3);
            for ops in &sa {
                assert_eq!(ops.len(), 40);
                for op in ops {
                    assert!((op.addr as usize) < 5, "{w}: addr {}", op.addr);
                }
            }
        }
    }

    #[test]
    fn parse_refuses_store_percentages_above_100() {
        assert_eq!(Workload::parse("uniform", 100), Ok(Workload::Uniform { store_pct: 100 }));
        for name in ["uniform", "zipfian", "private"] {
            let err = Workload::parse(name, 101).unwrap_err();
            assert!(err.contains("`101` (0 to 100)"), "{err}");
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = ZipfTable::new(8).unwrap();
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[3] && counts[3] > counts[7], "{counts:?}");
    }

    #[test]
    fn zipf_tables_up_to_a_million_blocks_keep_their_weights() {
        let t = ZipfTable::new(64).unwrap();
        let mut total = 0;
        for (rank, &c) in t.cumulative.iter().enumerate() {
            total += 1_000_000 / (rank as u64 + 1);
            assert_eq!(c, total, "rank {rank}");
        }
    }

    #[test]
    fn zipf_reaches_ranks_past_a_million() {
        // Weight `1/(rank+1)` at a scale of 10^6 rounded every rank from
        // 999,999 on to zero: those blocks were never drawn.
        let n = 1_500_000;
        let t = ZipfTable::new(n).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let draws = 200_000;
        let past = (0..draws).filter(|_| t.sample(&mut rng) >= 1_000_000).count();
        // The share of ranks ≥ 10^6 is ln(1.5) / H(1.5 M) ≈ 2.7 %.
        let share = past as f64 / draws as f64;
        assert!((0.02..0.035).contains(&share), "{past} of {draws} draws past rank 10^6");
        let max = (0..draws).map(|_| t.sample(&mut rng)).max().unwrap();
        assert!(max as usize >= n - 10_000, "highest block drawn {max}");
    }

    #[test]
    fn trace_round_trips_through_text() {
        let src = "# header\n0 st 0\n1 ld 0  # inline comment\n\n2 ev 3\n";
        let ops = parse_trace(src).unwrap();
        assert_eq!(
            ops,
            vec![
                TraceOp { core: 0, addr: 0, access: Access::Store },
                TraceOp { core: 1, addr: 0, access: Access::Load },
                TraceOp { core: 2, addr: 3, access: Access::Replacement },
            ]
        );
    }

    #[test]
    fn trace_errors_name_the_line() {
        for (src, needle) in [
            ("0 st", "line 1: missing address"),
            ("0 mv 1", "bad op `mv`"),
            ("x st 1", "bad core"),
            ("0 st 1 9", "trailing fields"),
        ] {
            let err = parse_trace(src).unwrap_err().to_string();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn trace_without_an_operation_is_refused() {
        for src in ["", "\n", "# header only\n", "# a\n\n  # b\n"] {
            let err = parse_trace(src).unwrap_err().to_string();
            let line = src.lines().count().max(1);
            assert!(err.contains(&format!("trace line {line}: no operation")), "{src:?}: {err}");
        }
    }

    #[test]
    fn trace_schedules_validate_bounds() {
        let ops = vec![TraceOp { core: 5, addr: 0, access: Access::Load }];
        let mut rng = StdRng::seed_from_u64(0);
        let err = Workload::Trace(ops).schedules(2, 4, 10, &mut rng).unwrap_err();
        assert!(err.to_string().contains("core 5 out of range"), "{err}");
    }
}
