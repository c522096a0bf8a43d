//! Simulation parameters: interconnect models and run configuration.

use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Per-hop latency distribution of an interconnect link.
///
/// Sampling is seed-deterministic: a given [`crate::SimConfig::seed`]
/// always produces the same latencies, so runs are reproducible and
/// diffable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyDist {
    /// Every hop takes exactly this many cycles.
    Fixed(u64),
    /// Uniformly distributed in `[lo, hi]` cycles.
    Uniform {
        /// Minimum hop latency.
        lo: u64,
        /// Maximum hop latency (inclusive).
        hi: u64,
    },
    /// `base` cycles plus a geometrically distributed number of extra
    /// cycles: after the base, each additional cycle occurs with
    /// probability `extra_pct`/100 (models contention tails).
    Geometric {
        /// Deterministic part of the hop latency.
        base: u64,
        /// Percent chance (0–99) of each further +1-cycle extension.
        extra_pct: u8,
    },
}

impl LatencyDist {
    /// Samples one hop latency.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            LatencyDist::Fixed(n) => n,
            LatencyDist::Uniform { lo, hi } => {
                if lo >= hi {
                    lo
                } else {
                    // One below the top: an inclusive range ending at
                    // `u64::MAX` has no half-open form to sample from.
                    rng.gen_range(lo..=hi.min(u64::MAX - 1))
                }
            }
            LatencyDist::Geometric { base, extra_pct } => {
                let p = u64::from(extra_pct.min(99));
                let mut extra = 0;
                // Bounded so a pathological configuration cannot spin.
                while extra < 64 && rng.gen_range(0..100u64) < p {
                    extra += 1;
                }
                base.saturating_add(extra)
            }
        }
    }

    /// Parses `fixed:N`, `uniform:LO:HI`, or `geometric:BASE:PCT`. A hop
    /// takes at most `u32::MAX` cycles: nothing a run could wait out is
    /// excluded, and sums of hop latencies stay far from `u64::MAX`.
    pub fn parse(s: &str) -> Result<LatencyDist, String> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or_default();
        let mut num = |what: &str| -> Result<u64, String> {
            let n: u64 = parts
                .next()
                .ok_or_else(|| format!("latency `{s}`: missing {what}"))?
                .parse()
                .map_err(|_| format!("latency `{s}`: bad {what}"))?;
            if n > u64::from(u32::MAX) {
                return Err(format!("latency `{s}`: {what} above {}", u32::MAX));
            }
            Ok(n)
        };
        let dist = match kind {
            "fixed" => LatencyDist::Fixed(num("cycle count")?),
            "uniform" => LatencyDist::Uniform { lo: num("lo")?, hi: num("hi")? },
            "geometric" => LatencyDist::Geometric {
                base: num("base")?,
                extra_pct: num("extra-pct")?.min(99) as u8,
            },
            _ => return Err(format!("latency `{s}`: expected fixed:/uniform:/geometric:")),
        };
        if let LatencyDist::Uniform { lo, hi } = dist {
            if lo > hi {
                return Err(format!("latency `{s}`: lo > hi"));
            }
        }
        Ok(dist)
    }
}

impl fmt::Display for LatencyDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LatencyDist::Fixed(n) => write!(f, "fixed:{n}"),
            LatencyDist::Uniform { lo, hi } => write!(f, "uniform:{lo}:{hi}"),
            LatencyDist::Geometric { base, extra_pct } => write!(f, "geometric:{base}:{extra_pct}"),
        }
    }
}

/// Message-delivery discipline of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetModel {
    /// Point-to-point ordered: each `(src, dst)` channel delivers a
    /// block's messages in send order (the network model the paper's
    /// ordered protocols assume). Latency jitter never reorders.
    Ordered,
    /// Unordered: any ripe message in a channel may be delivered, so
    /// variable latency reorders messages (requires a protocol generated
    /// for unordered networks, e.g. `msi-unordered`).
    Unordered,
}

impl fmt::Display for NetModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetModel::Ordered => "ordered",
            NetModel::Unordered => "unordered",
        })
    }
}

/// Interconnect configuration: delivery discipline, latency distribution,
/// and buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Delivery discipline.
    pub model: NetModel,
    /// Per-hop latency distribution.
    pub latency: LatencyDist,
    /// Bounded-buffer capacity per `(src, dst)` channel; `0` means
    /// unbounded. A full channel exerts backpressure: the event whose
    /// sends would overflow is deferred and retried next cycle.
    pub capacity: usize,
}

impl NetworkConfig {
    /// An ordered network with fixed hop latency and unbounded buffers.
    pub fn ordered(latency: u64) -> Self {
        NetworkConfig {
            model: NetModel::Ordered,
            latency: LatencyDist::Fixed(latency),
            capacity: 0,
        }
    }

    /// An unordered network with the given latency distribution and
    /// unbounded buffers.
    pub fn unordered(latency: LatencyDist) -> Self {
        NetworkConfig { model: NetModel::Unordered, latency, capacity: 0 }
    }

    /// The interconnect `model` names for `sim --network` and the sweep's
    /// network dimension: ordered is fixed 8-cycle hops; unordered is
    /// uniform 4–16-cycle hops, so latency jitter actually reorders. A
    /// protocol generated for ordered networks (`protocol_ordered`) keeps
    /// FIFO delivery under that jitter, since reordering would feed its
    /// controllers messages they provably cannot handle; the flag says
    /// whether that clamp applied.
    pub fn for_protocol(model: NetModel, protocol_ordered: bool) -> (Self, bool) {
        if model == NetModel::Ordered {
            return (NetworkConfig::default(), false);
        }
        let model = if protocol_ordered { NetModel::Ordered } else { NetModel::Unordered };
        let latency = LatencyDist::Uniform { lo: 4, hi: 16 };
        (NetworkConfig { model, latency, capacity: 0 }, protocol_ordered)
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::ordered(8)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of caches.
    pub n_caches: usize,
    /// Number of distinct cache blocks (addresses) in play. Coherence is
    /// tracked per block: each address has its own directory entry and
    /// per-cache block state.
    pub n_addrs: usize,
    /// Cycles a core waits between completing one access and issuing the
    /// next.
    pub think_time: u64,
    /// Accesses each core performs.
    pub accesses_per_core: usize,
    /// The sharing pattern.
    pub workload: Workload,
    /// The interconnect model.
    pub network: NetworkConfig,
    /// RNG seed (simulations are deterministic given a seed).
    pub seed: u64,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_caches: 4,
            n_addrs: 4,
            think_time: 2,
            accesses_per_core: 200,
            workload: Workload::Uniform { store_pct: 50 },
            network: NetworkConfig::default(),
            seed: 0xC0FFEE,
            max_cycles: 50_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn latency_parse_round_trips_display() {
        for s in ["fixed:8", "uniform:4:16", "geometric:6:25"] {
            let d = LatencyDist::parse(s).unwrap();
            assert_eq!(d.to_string(), s);
        }
        assert!(LatencyDist::parse("uniform:9:3").is_err());
        assert!(LatencyDist::parse("gaussian:1").is_err());
        assert!(LatencyDist::parse("fixed:").is_err());
    }

    #[test]
    fn hop_latencies_are_capped_at_parse_and_saturate_at_sample() {
        let max = u64::MAX;
        assert_eq!(LatencyDist::parse("fixed:4294967295"), Ok(LatencyDist::Fixed(u32::MAX.into())));
        for s in [
            "fixed:4294967296",
            &format!("geometric:{max}:50"),
            &format!("uniform:1:{max}"),
            &format!("uniform:{max}:{max}"),
        ] {
            let err = LatencyDist::parse(s).unwrap_err();
            assert!(err.contains("above 4294967295"), "{s}: {err}");
        }
        // Library callers build the enum directly: sampling must not wrap.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            assert_eq!(LatencyDist::Geometric { base: max, extra_pct: 99 }.sample(&mut rng), max);
            assert!(LatencyDist::Uniform { lo: 1, hi: max }.sample(&mut rng) >= 1);
            assert!(LatencyDist::Uniform { lo: 0, hi: max }.sample(&mut rng) <= max);
        }
    }

    #[test]
    fn samples_respect_bounds_and_determinism() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for dist in [
            LatencyDist::Fixed(5),
            LatencyDist::Uniform { lo: 2, hi: 9 },
            LatencyDist::Geometric { base: 3, extra_pct: 50 },
        ] {
            for _ in 0..200 {
                let x = dist.sample(&mut a);
                assert_eq!(x, dist.sample(&mut b));
                match dist {
                    LatencyDist::Fixed(n) => assert_eq!(x, n),
                    LatencyDist::Uniform { lo, hi } => assert!((lo..=hi).contains(&x)),
                    LatencyDist::Geometric { base, .. } => assert!(x >= base && x <= base + 64),
                }
            }
        }
    }
}
