//! `protogen reproduce`: every deterministic table of the paper's
//! evaluation, as markdown, each between `<!-- reproduce:NAME -->` and
//! `<!-- /reproduce -->`. EXPERIMENTS.md holds the same blocks verbatim.
//! Nothing printed is a timing, so the output is the same at any
//! `--threads`. Exit 1 when a verification is not `PASSED`, a litmus
//! gate fails or a fuzz control is missed.

use super::{failed, quiet_panics, write_stdout, Args, Run};
use protogen_core::{generate, GenConfig, Generated};
use protogen_fuzz::{run_fuzz, FuzzConfig};
use protogen_litmus::{bundled, run_suite, MAX_STATES};
use protogen_mc::{McConfig, ModelChecker, PropertySet};
use protogen_protocols::{all, mesi, msi};
use protogen_sim::Workload::{FalseSharing, Migratory, Private, ProducerConsumer, Uniform};
use protogen_sim::{run_sweep, simulate, NetModel, SimConfig, SweepConfig};
use protogen_spec::Ssp;
use std::process::ExitCode;

/// A section's markdown, and whether every gate in it held.
type Output = (String, bool);

/// A section, given the worker count.
type Section = fn(usize) -> Output;

/// The sections in print order.
const SECTIONS: [(&str, Section); 7] = [
    ("sizes", sizes),
    ("verify-3", |threads| verification(all(), 3, threads)),
    ("verify-4", |threads| verification(vec![msi(), mesi()], 4, threads)),
    ("contention", contention),
    ("stall-vs-nonstall", stall_vs_nonstall),
    ("litmus", litmus),
    ("fuzz", fuzz),
];

pub(super) fn reproduce(args: &Args) -> Run {
    let (threads, mut passed) = (args.threads(), true);
    for (name, section) in SECTIONS {
        let (markdown, ok) = section(threads);
        out!("{}", block(name, &markdown));
        passed &= ok;
    }
    if !passed {
        return failed("reproduce: a verification, litmus gate or fuzz control failed (above)");
    }
    Ok(ExitCode::SUCCESS)
}

fn block(name: &str, markdown: &str) -> String {
    format!("<!-- reproduce:{name} -->\n{markdown}<!-- /reproduce -->\n")
}

/// A markdown table: `head` and each row are cells joined by ` | `.
fn table(head: &str, rows: impl IntoIterator<Item = String>) -> String {
    let rule = "---|".repeat(head.split(" | ").count());
    let mut s = format!("| {head} |\n|{rule}\n");
    for row in rows {
        s += &format!("| {row} |\n");
    }
    s
}

/// `x` with thousands separators: `18,326`.
fn n(x: u64) -> String {
    if x < 1000 {
        x.to_string()
    } else {
        format!("{},{:03}", n(x / 1000), x % 1000)
    }
}

/// One row per protocol × {stalling, non-stalling}.
fn per_config(ssps: Vec<Ssp>, mut row: impl FnMut(&Ssp, &str, Generated) -> String) -> Vec<String> {
    let mut rows = Vec::new();
    for ssp in &ssps {
        for (config, cfg) in
            [("stalling", GenConfig::stalling()), ("non-stalling", GenConfig::non_stalling())]
        {
            rows.push(row(ssp, config, generate(ssp, &cfg).expect("bundled protocols generate")));
        }
    }
    rows
}

fn sizes(_: usize) -> Output {
    let rows = per_config(all(), |ssp, config, g| {
        let (c, d) = (&g.cache, &g.directory);
        let states = format!("{} | {}", c.state_count(), d.state_count());
        let arcs = format!("{} | {}", c.transition_count(), d.transition_count());
        format!("{} | {config} | {states} | {arcs}", ssp.name)
    });
    (table("protocol | config | cache states | dir states | cache arcs | dir arcs", rows), true)
}

/// Each protocol checked for the property set its memory model promises.
fn verification(ssps: Vec<Ssp>, caches: usize, threads: usize) -> Output {
    let mut passed = true;
    let rows = per_config(ssps, |ssp, config, g| {
        let mut cfg = McConfig::with_caches_and_threads(caches, threads);
        cfg.ordered = ssp.network_ordered;
        cfg.properties = PropertySet::promised(ssp.consistency);
        let properties = cfg.properties;
        let r = ModelChecker::new(&g.cache, &g.directory, cfg).run();
        passed &= r.passed();
        let [states, transitions] = [r.states, r.transitions].map(|x| n(x as u64));
        let (name, verdict) = (&ssp.name, r.verdict());
        format!("{name} | {config} | {properties} | {states} | {transitions} | {verdict}")
    });
    (table("protocol | config | properties | explored states | transitions | result", rows), passed)
}

/// MSI at 4 caches: rising store shares on one block, then four sharing
/// patterns over the default blocks.
fn contention(_: usize) -> Output {
    let [stalling, non_stalling] = [GenConfig::stalling(), GenConfig::non_stalling()]
        .map(|c| generate(&msi(), &c).expect("MSI generates"));
    let one_block = [0, 10, 25, 50, 75, 100].map(|store_pct| (Uniform { store_pct }, 1));
    let patterns = [ProducerConsumer, Migratory, FalseSharing, Private]
        .map(|w| (w, SimConfig::default().n_addrs));
    let rows = one_block.into_iter().chain(patterns).map(|(workload, n_addrs)| {
        let cfg = SimConfig { workload, n_addrs, ..SimConfig::default() };
        let [a, b] = [&stalling, &non_stalling]
            .map(|g| simulate(&g.cache, &g.directory, &cfg).expect("MSI simulates"));
        let [ac, asc, bc, bsc] = [a.cycles, a.stall_cycles, b.cycles, b.stall_cycles].map(n);
        let (label, speedup) = (cfg.workload.label(), a.cycles as f64 / b.cycles as f64);
        format!("{label} | {n_addrs} | {ac} | {asc} | {bc} | {bsc} | {speedup:.3}×")
    });
    let head = "workload | blocks | stalling cycles | stalling stall-cycles | non-stalling cycles \
                | non-stalling stall-cycles | speedup";
    (table(head, rows), true)
}

/// The ordered cells of `sweep --protocols msi --caches 4`, each with the
/// grid index and seed it has in the whole grid.
fn stall_vs_nonstall(threads: usize) -> Output {
    let protocols = vec!["msi".into()];
    let cfg = SweepConfig { protocols, cache_counts: vec![4], threads, ..SweepConfig::default() };
    let report = run_sweep(&cfg).expect("the MSI grid simulates");
    let mut cells: Vec<_> =
        report.cells.iter().filter(|c| c.cell.network == NetModel::Ordered).collect();
    // Stable: a workload's stalling cell stays ahead of its non-stalling one.
    cells.sort_by_key(|c| SweepConfig::WORKLOADS.iter().position(|w| *w == c.cell.workload));
    let rows = cells.into_iter().map(|c| {
        let config = if c.cell.stalling { "stalling" } else { "non-stalling" };
        let [cycles, p50, p95, stalls] =
            [c.stats.cycles, c.stats.p50_latency, c.stats.p95_latency, c.stats.stall_cycles].map(n);
        format!("{} | {config} | {cycles} | {p50} | {p95} | {stalls}", c.cell.workload.label())
    });
    (table("workload | config | cycles | p50 lat | p95 lat | stall-cycles", rows), true)
}

fn litmus(threads: usize) -> Output {
    match run_suite(&all(), &bundled(), MAX_STATES, threads) {
        Ok(report) => (report.render_markdown(), report.passed()),
        Err(e) => (format!("litmus: {e}\n"), false),
    }
}

fn fuzz(threads: usize) -> Output {
    let cfg = FuzzConfig { seed: 1, mutants: 500, threads, ..FuzzConfig::default() };
    let report = quiet_panics(|| run_fuzz(&cfg)).expect("the bundled protocols are known");
    let share = |count| 100.0 * count as f64 / cfg.mutants as f64;
    let dist = report.distribution();
    let outcomes =
        dist.iter().map(|(label, count)| format!("{label} | {count} | {:.1}%", share(*count)));
    let families: Vec<_> =
        report.checker_families().iter().map(|(f, c)| format!("{c} {f}")).collect();
    let caught = report.controls.iter().filter(|c| c.caught()).count();
    let rows = outcomes.chain([
        format!("checker families | {} | ", families.join(", ")),
        format!("negative controls caught | {caught} of {} | ", report.controls.len()),
    ]);
    (table("outcome | count | share", rows), report.all_controls_caught())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sections tier-1 diffs against EXPERIMENTS.md, at 1 and 2
    /// threads. The rest — `verify-3`, `verify-4`, `litmus`, `fuzz` — CI
    /// diffs in release: a debug build checks about 26 k states/s (2 vCPUs),
    /// so the 3-cache verifications alone would take about 17 s here.
    #[test]
    fn cheap_sections_equal_experiments_md_at_any_thread_count() {
        let experiments = include_str!("../../../EXPERIMENTS.md");
        for (name, section) in SECTIONS {
            if !["sizes", "contention", "stall-vs-nonstall"].contains(&name) {
                continue;
            }
            let start = format!("<!-- reproduce:{name} -->\n");
            let at =
                experiments.find(&start).unwrap_or_else(|| panic!("EXPERIMENTS.md lacks {start}"));
            let len =
                experiments[at..].find("<!-- /reproduce -->\n").expect("every block is closed");
            let recorded = &experiments[at..at + len + "<!-- /reproduce -->\n".len()];
            for threads in [1, 2] {
                let (markdown, ok) = section(threads);
                assert!(ok, "{name}");
                assert_eq!(block(name, &markdown), recorded, "{name} at {threads} thread(s)");
            }
        }
    }
}
