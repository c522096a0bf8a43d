//! `cargo test --offline`: the benchmark's own smoke pass.
//!
//! Runs every workload at `--smoke` size through the same entry points the
//! benchmark driver and `benchmark run` use, and holds the binary's tables
//! and `BENCHMARK.json` together.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn benchmark(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (out.status.success(), String::from_utf8(out.stdout).expect("UTF-8 output"))
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr().iter().map(|m| m.get("name").and_then(Json::as_str).expect("name")).collect()
}

fn name_is_valid(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn benchmark_json_lists_what_the_binary_measures() {
    let declared = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let (ok, text) = benchmark(&["describe"]);
    assert!(ok);
    let described = Json::parse(&text).expect("describe prints JSON");
    for key in ["run_seconds", "workloads", "end_to_end", "per_layer"] {
        assert_eq!(declared.get(key), described.get(key), "`{key}` drifted from BENCHMARK.json");
    }
    assert_eq!(declared.get("paths"), Some(&Json::Arr(vec![Json::str("benchmark")])));
    let mut all: Vec<&str> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| names(declared.get(k).expect("list")))
        .collect();
    assert!(all.iter().all(|n| name_is_valid(n)), "a name uses other than letters, digits, _ . -");
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "a name is used twice");
    let setup = declared
        .get("end_to_end")
        .expect("list")
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    assert_eq!(setup.and_then(|m| m.get("unit")).and_then(Json::as_str), Some("s"));
}

/// The metrics object of a driver-mode run: exactly `declared`'s names, each
/// once, each with its unit.
fn assert_metrics(result: &Json, declared: &Json, what: &str) {
    let metrics = result.get("metrics").expect("metrics").entries();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, names(declared), "{what}: metric names");
    for ((_, m), d) in metrics.iter().zip(declared.as_arr()) {
        assert_eq!(m.get("unit"), d.get("unit"), "{what}: unit");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{what}: value");
    }
}

#[test]
fn smoke_pass() {
    let declared = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let e2e = declared.get("end_to_end").expect("end_to_end");
    let per_layer = declared.get("per_layer").expect("per_layer");

    // The driver's entry point, untraced and traced, on every workload.
    for w in names(declared.get("workloads").expect("workloads")) {
        for (trace, list) in [("0", e2e), ("1", per_layer)] {
            let (ok, text) = benchmark(&[
                "--workload",
                w,
                "--seed",
                "1",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--smoke",
            ]);
            let last = text.lines().last().unwrap_or_default();
            let result = Json::parse(last).unwrap_or_else(|e| panic!("{w}: {e}: {last}"));
            assert!(ok, "{w} --trace {trace} failed: {last}");
            let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{w}");
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1), "{w}");
            assert_metrics(&result, list, w);
            if trace == "0" {
                for (name, m) in result.get("metrics").expect("metrics").entries() {
                    let v = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    assert!(v > 0.0, "{w}: end-to-end metric {name} is {v}");
                }
            }
        }
    }

    // `run` over everything, then `compare` of the file with itself.
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/smoke-test.jsonl");
    let out = out.to_str().expect("UTF-8 path");
    let (ok, text) = benchmark(&["run", "--smoke", "--out", out]);
    assert!(ok, "run --smoke failed:\n{text}");
    for m in names(e2e).into_iter().chain(names(per_layer)) {
        assert!(text.contains(m), "`run` did not print {m}");
    }
    let (ok, table) = benchmark(&["compare", out, out]);
    assert!(ok, "compare of a file with itself:\n{table}");
    assert!(!table.contains("regressed") && !table.contains("unresolved"), "{table}");
    assert_eq!(table.matches("  ok").count(), 8 * names(e2e).len(), "{table}");

    // A file that measured nothing does not compare as "no regression".
    let empty = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/smoke-test-empty.jsonl");
    let header = std::fs::read_to_string(out).expect("result file");
    std::fs::write(&empty, header.lines().next().expect("header")).expect("write header");
    let empty = empty.to_str().expect("UTF-8 path");
    let (ok, table) = benchmark(&["compare", empty, empty]);
    assert!(!ok && table.contains("measured in neither file"), "{table}");
}
