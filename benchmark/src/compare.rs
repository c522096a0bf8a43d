//! `benchmark compare <a> <b>`: do two sets of runs agree?
//!
//! One row per (workload, end-to-end metric) with both medians, the ratio
//! and its base, the bound and a verdict:
//!
//! * `regressed` — b's median is worse than a's by more than the bound;
//! * `unresolved` — the run-to-run spread of either side is wider than the
//!   bound, so "no change" cannot be told from a change (unless every run
//!   of b beats every run of a);
//! * `ok` — otherwise.
//!
//! Counts that must repeat exactly are compared exactly. Files that were
//! not measured alike (host width, seed, run length, thread counts, sizes)
//! are refused, and so is a workload neither file measured.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER, SETUP_FLOOR_S};
use crate::runner::{count, measured, values};
use crate::stats::{median, spread};
use crate::workloads::Workload;

struct ResultFile {
    header: Json,
    records: Vec<Json>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = Json::parse(lines.next().ok_or_else(|| format!("{path}: empty"))?)?;
    if header.get("header").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{path}: first line is not a `benchmark run` header"));
    }
    let records = lines.map(Json::parse).collect::<Result<_, _>>()?;
    Ok(ResultFile { header, records })
}

impl ResultFile {
    fn of(&self, w: Workload, traced: bool) -> Vec<Json> {
        self.records
            .iter()
            .filter(|r| {
                r.get("workload").and_then(Json::as_str) == Some(w.name())
                    && r.get("traced").and_then(Json::as_bool) == Some(traced)
            })
            .cloned()
            .collect()
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    // Set-up of a few milliseconds: a relative bound alone measures noise.
    let floor = if m.name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
    if worse_by(m, ma, mb) > m.bound && (mb - ma).abs() > floor {
        return "regressed";
    }
    let range = |v: &[f64]| {
        v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - v.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let wide = |v: &[f64]| spread(v) > m.bound && range(v) > floor;
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| worse_by(m, x, y) < 0.0));
    if (wide(a) || wide(b)) && !b_always_better {
        return "unresolved";
    }
    "ok"
}

/// Counts that repeat exactly on this workload: the table's, plus the serve
/// counts where every op is a transaction by construction.
fn exact_metrics(w: Workload) -> Vec<&'static str> {
    let serve_counts = ["serve.hits", "serve.misses", "serve.messages"];
    PER_LAYER
        .iter()
        .filter(|m| m.exact || (w == Workload::ServeMiss && serve_counts.contains(&m.name)))
        .map(|m| m.name)
        .collect()
}

pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["seed", "seconds", "smoke", "threads", "sizes"] {
        if a.header.get(key) != b.header.get(key) {
            return Err(format!(
                "refusing to compare: `{key}` differs ({} vs {})",
                a.header.get(key).map_or("none".into(), Json::render),
                b.header.get(key).map_or("none".into(), Json::render),
            ));
        }
    }
    println!("a = {path_a}\nb = {path_b}\nratio = b / a (base: a's median)\n");
    println!(
        "{:<16} {:<16} {:<5} {:>16} {:>16} {:>7} {:>6} {:>8}  verdict",
        "workload", "metric", "unit", "a median", "b median", "ratio", "bound", "spread"
    );
    let mut ok = true;
    for w in Workload::ALL {
        let (ua, ub) = (a.of(w, false), b.of(w, false));
        if measured(&ua).next().is_none() && measured(&ub).next().is_none() {
            println!("{:<16} measured in neither file", w.name());
            ok = false;
            continue;
        }
        for m in &END_TO_END {
            let (va, vb) = (values(&ua, m.name), values(&ub, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{:<16} {:<16} missing from one file", w.name(), m.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let v = verdict(m, &va, &vb);
            ok &= v != "regressed";
            println!(
                "{:<16} {:<16} {:<5} {ma:>16.6} {mb:>16.6} {:>7.4} {:>6.2} {:>8.4}  {v}",
                w.name(),
                m.name,
                m.unit,
                mb / ma,
                m.bound,
                spread(&va).max(spread(&vb)),
            );
        }
        let all: Vec<Json> =
            ua.iter().chain(&ub).chain(&a.of(w, true)).chain(&b.of(w, true)).cloned().collect();
        for name in exact_metrics(w) {
            let mut seen: Vec<f64> =
                measured(&all).filter_map(|r| r.get("layer")?.get(name)?.as_f64()).collect();
            seen.dedup();
            if seen.len() > 1 {
                println!("{:<16} {name:<16} exact count changed: {seen:?}", w.name());
                ok = false;
            }
        }
        let failed: u64 = all.iter().map(|r| count(r, "failed")).sum();
        if failed > 0 {
            let attempted: u64 = all.iter().map(|r| count(r, "attempted")).sum();
            println!("{:<16} failed_share > 0: {failed} of {attempted} ops failed", w.name());
            ok = false;
        }
    }
    println!("\n{}", if ok { "no regression" } else { "REGRESSED or failed" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let rate = &END_TO_END[0];
        assert!(rate.higher_is_better && rate.bound == 0.25);
        assert_eq!(verdict(rate, &[100.0, 101.0, 99.0], &[100.5, 99.5, 100.0]), "ok");
        assert_eq!(verdict(rate, &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]), "regressed");
        // Spread wider than the bound on one side: cannot tell.
        assert_eq!(verdict(rate, &[100.0, 140.0, 90.0], &[101.0, 100.0, 99.0]), "unresolved");
        // ...unless every run of b beats every run of a.
        assert_eq!(verdict(rate, &[100.0, 140.0, 90.0], &[150.0, 160.0, 155.0]), "ok");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        // Twice as slow, but by three milliseconds: under the floor.
        assert_eq!(verdict(setup, &[0.003, 0.003, 0.003], &[0.006, 0.006, 0.006]), "ok");
        assert_eq!(verdict(setup, &[0.3, 0.3, 0.3], &[0.6, 0.6, 0.6]), "regressed");
    }
}
