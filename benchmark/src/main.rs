//! One benchmark for the whole ProtoGen pipeline.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload for about <s> seconds; the last line of stdout is the
//!     result object BENCHMARK.json's contract asks for.
//! benchmark run [--seed 1] [--out <file>] [--smoke]
//!     Every workload: 3 untraced repetitions and one traced, one JSON
//!     object per repetition streamed to <file>, every metric printed by name.
//! benchmark compare <a.jsonl> <b.jsonl>
//!     One row per (workload, metric) of two `run` files.
//! benchmark child <workload> --seed <n> --seconds <s> --rep <k> --trace <0|1> [--smoke]
//!     What `run` and the first form execute per repetition.
//! benchmark describe
//!     Workloads and metrics as BENCHMARK.json lists them.
//! ```
//!
//! The harness measures every layer from outside, through the crates'
//! public functions; see README.md for what each number means.

mod calib;
mod compare;
mod json;
mod layers;
mod metrics;
mod proc;
mod runner;
mod sizes;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use runner::{count, end_to_end_medians, field, run_child, values, ChildSpec};
use sizes::{Sizes, Threads};
use stats::lower_quartile;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Workload};

const EXPECTED: &str = include_str!("../expected.json");

/// How long a repetition keeps starting units of work unless told
/// otherwise: `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 10.0;

/// Untraced repetitions of each workload in `benchmark run`; a timed metric
/// is their median.
const REPS: usize = 3;

/// `proc.trace_overhead_pct` at or above this fails `benchmark run` — where
/// the run can tell: neighbouring identical units differ by a few percent
/// here, so the traced unit must also be the slower in nine tenths of at
/// least ten pairs.
const TRACE_OVERHEAD_LIMIT_PCT: f64 = 3.0;

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `--flag value` pairs and bare words, in order.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args { words: Vec::new(), flags: Vec::new() };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.flags.push(("smoke".into(), "1".into())),
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), v.clone()));
                }
                None => args.words.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    fn workload(&self, name: &str) -> Result<Workload, String> {
        Workload::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (one of {})", known.join(", "))
        })
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&raw).and_then(|args| match args.words.first().map(String::as_str) {
        Some("child") => child(&args),
        Some("describe") => {
            println!("{}", describe().render());
            Ok(true)
        }
        Some("run") => run_all(&args),
        Some("compare") => match &args.words[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err("compare needs two result files".into()),
        },
        None if args.get("workload").is_some() => drive(&args),
        _ => Err("usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | compare <a> <b>".into()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The benchmark as BENCHMARK.json declares it, from the tables this
/// binary measures by; `tests/smoke.rs` holds the two equal.
fn describe() -> Json {
    let better = |higher: bool| Json::str(if higher { "higher" } else { "lower" });
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", better(m.higher_is_better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", better(m.higher_is_better)),
            ])
        })
        .collect();
    Json::obj([
        ("run_seconds", Json::Num(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

// ------------------------------------------------------------------- child

/// Runs one repetition of one workload in this process — set-up, then
/// identical units of work for `--seconds` — and prints its record.
///
/// The record's timings are lower quartiles over the run's units and
/// set-up repetitions (`stats::lower_quartile` says why), in seconds of a
/// quiet host (`calib` says why); the same quartiles of the raw clock
/// readings (`raw_wall_s`, `raw_setup_s`) and every unit's raw wall time and
/// slow-down factor are listed beside them.
fn child(args: &Args) -> Result<bool, String> {
    let name = args.words.get(1).ok_or("child needs a workload")?;
    let w = args.workload(name)?;
    let traced = args.num("trace", 0u8)? != 0;
    let smoke = args.get("smoke").is_some();
    let seed: u64 = args.num("seed", workloads::DEFAULT_SEED)?;
    let rep: u64 = args.num("rep", 0)?;
    let expected = Json::parse(EXPECTED)?;
    let cx = Ctx {
        workload: w,
        sizes: Sizes::pick(smoke),
        threads: Threads::for_host(),
        seed,
        seconds: args.num("seconds", RUN_SECONDS)?,
        expected: &expected,
    };

    let mut tr = trace::Tracer::new(traced);
    let mut r = workloads::run(&cx, &mut tr);
    let wall_s: f64 = r.samples.iter().map(|s| s.wall_s).sum();
    let cpu_s: f64 = r.samples.iter().map(|s| s.cpu_s).sum();
    // A unit's time in seconds of a quiet host.
    let unit_s = |s: &workloads::Sample| s.wall_s / s.host_slowdown;
    let mut trace_pairs = (0, 0);
    if traced {
        r.layer.insert("proc.cpu_s", cpu_s);
        r.layer.insert("proc.cpu_util", cpu_s / (wall_s * r.threads.max(1) as f64));
        if matches!(w, Workload::VerifyFlat | Workload::VerifyPar | Workload::VerifySpill) {
            r.layer.insert("mc.cpu_s", cpu_s / r.samples.len().max(1) as f64);
        }
        // Tracing overhead: each unit with spans against the unit without
        // next to it, in this one process; the median over those pairs.
        let pairs: Vec<f64> = r
            .samples
            .chunks_exact(2)
            .map(|p| {
                let (with, without) = if p[0].traced { (&p[0], &p[1]) } else { (&p[1], &p[0]) };
                (unit_s(with) / unit_s(without) - 1.0) * 100.0
            })
            .collect();
        r.layer.insert("proc.trace_overhead_pct", stats::median(&pairs));
        trace_pairs = (pairs.len(), pairs.iter().filter(|&&p| p > 0.0).count());
        let run_id = format!("{}-seed{seed}-rep{rep}", w.name());
        let path = out_dir().join(format!("trace-{}.json", w.name()));
        std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&path, tr.to_json(&run_id).render() + "\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    for e in &r.errors {
        eprintln!("benchmark: {}: {e}", w.name());
    }
    let mut rec = Json::obj([
        ("workload", Json::str(w.name())),
        ("rep", Json::count(rep)),
        ("traced", Json::Bool(traced)),
        ("seed", Json::count(seed)),
        ("seeded", Json::Bool(w.seeded())),
        ("work_unit", Json::str(w.work_unit())),
        ("threads", Json::count(r.threads as u64)),
        ("attempted", Json::count(r.attempted)),
        ("failed", Json::count(r.failed)),
        ("errors", Json::Arr(r.errors.iter().map(Json::str).collect())),
        // Pairs of a traced and an untraced unit, and in how many the traced
        // one was the slower.
        ("trace_pairs", Json::count(trace_pairs.0 as u64)),
        ("trace_pairs_slower", Json::count(trace_pairs.1 as u64)),
    ]);
    if let Some(first) = r.samples.first() {
        // Units are identical, so the lower quartile of their times is the
        // upper quartile of their rates.
        let of = |f: &dyn Fn(&workloads::Sample) -> f64| -> Vec<f64> {
            r.samples.iter().map(f).collect()
        };
        let unit_wall_s = lower_quartile(&of(&unit_s));
        let units = r.samples.iter().map(|s| {
            Json::obj([
                ("wall_s", Json::Num(s.wall_s)),
                ("cpu_s", Json::Num(s.cpu_s)),
                ("request_p50_us", Json::Num(s.request_p50_us)),
                ("host_slowdown", Json::Num(s.host_slowdown)),
                ("traced", Json::Bool(s.traced)),
            ])
        });
        for (key, value) in [
            ("work", Json::count(first.work)),
            ("wall_s", Json::Num(unit_wall_s)),
            ("raw_wall_s", Json::Num(lower_quartile(&of(&|s| s.wall_s)))),
            ("cpu_s", Json::Num(lower_quartile(&of(&|s| s.cpu_s)))),
            ("work_per_s", Json::Num(first.work as f64 / unit_wall_s)),
            (
                "request_p50_us",
                Json::Num(lower_quartile(&of(&|s| s.request_p50_us / s.host_slowdown))),
            ),
            ("request_samples", Json::count(first.request_samples)),
            ("peak_rss_mb", Json::Num(proc::peak_rss_mb())),
            ("setup_s", Json::Num(lower_quartile(&r.setup_times))),
            ("raw_setup_s", Json::Num(lower_quartile(&r.raw_setup_times))),
            ("setup_reps", Json::count(r.setup_times.len() as u64)),
            ("units", Json::Arr(units.collect())),
        ] {
            rec.set(key, value);
        }
    }
    let layer = r.layer.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect();
    rec.set("layer", Json::Obj(layer));
    println!("{}", rec.render());
    Ok(r.failed == 0 && !r.samples.is_empty())
}

// ------------------------------------------------------------------ driver

/// The contract's entry point: one workload, measured for `--seconds`, one
/// result object on the last line: one repetition (a fresh child), untraced
/// for every end-to-end metric, traced for every per-layer metric (0 for a
/// layer the workload does not exercise).
fn drive(args: &Args) -> Result<bool, String> {
    let w = args.workload(args.get("workload").expect("checked by caller"))?;
    let traced = args.num("trace", 0u8)? != 0;
    let rec = run_child(ChildSpec {
        workload: w,
        seed: args.num("seed", workloads::DEFAULT_SEED)?,
        seconds: args.num("seconds", RUN_SECONDS)?,
        rep: 0,
        traced,
        smoke: args.get("smoke").is_some(),
    });
    let metrics: Vec<(&str, &str, f64)> = if traced {
        let layer = rec.get("layer").cloned().unwrap_or(Json::Null);
        PER_LAYER.iter().map(|m| (m.name, m.unit, field(&layer, m.name))).collect()
    } else {
        end_to_end_medians(std::slice::from_ref(&rec))
    };
    let failed = count(&rec, "failed");
    let correct = failed == 0 && rec.get("work_per_s").is_some();
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, v)| {
            (name.to_string(), Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]))
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::count(count(&rec, "attempted").max(1))),
        ("failed", Json::count(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

// --------------------------------------------------------------------- run

fn header(seed: u64, seconds: f64, smoke: bool) -> Json {
    Json::obj([
        ("header", Json::Bool(true)),
        ("seed", Json::count(seed)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("threads", Threads::for_host().to_json()),
        ("sizes", Sizes::pick(smoke).to_json()),
    ])
}

/// Every workload, `REPS` untraced runs of `RUN_SECONDS` and one traced run
/// each (`--smoke`: one of 0.2 s, at smoke sizes). Records are appended to
/// `--out` as they arrive.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.num("seed", workloads::DEFAULT_SEED)?;
    let smoke = args.get("smoke").is_some();
    let (seconds, reps) = if smoke { (0.2, 1) } else { (RUN_SECONDS, REPS) };
    let out = args.get("out").map_or_else(|| out_dir().join("results.jsonl"), PathBuf::from);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut file =
        std::fs::File::create(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut emit = |rec: &Json| -> Result<(), String> {
        writeln!(file, "{}", rec.render())
            .and_then(|_| file.flush())
            .map_err(|e| format!("write {}: {e}", out.display()))
    };
    emit(&header(seed, seconds, smoke))?;

    let threads = Threads::for_host();
    println!(
        "seed {seed}; nproc {}, T {}; {reps} untraced repetitions + 1 traced run per workload",
        threads.nproc, threads.t
    );
    let mut all_ok = true;
    for w in Workload::ALL {
        let spec = ChildSpec { workload: w, seed, seconds, rep: 0, traced: false, smoke };
        let mut untraced = Vec::with_capacity(reps);
        for rep in 0..reps {
            let rec = run_child(ChildSpec { rep, ..spec });
            emit(&rec)?;
            untraced.push(rec);
        }
        let traced = run_child(ChildSpec { rep: reps, traced: true, ..spec });
        emit(&traced)?;
        all_ok &= print_workload(w, &untraced, &traced);
    }
    println!("results: {}", out.display());
    Ok(all_ok)
}

/// Prints every metric of one workload by name with its unit; returns
/// whether no op failed and tracing stayed under its limit.
fn print_workload(w: Workload, untraced: &[Json], traced: &Json) -> bool {
    let attempted: u64 = untraced.iter().chain([traced]).map(|r| count(r, "attempted")).sum();
    let failed: u64 = untraced.iter().chain([traced]).map(|r| count(r, "failed")).sum();
    println!("\n{} — {}", w.name(), w.why());
    let seeded =
        if w.seeded() { "inputs drawn from --seed" } else { "no randomness in the inputs" };
    println!("  work unit: {}; one request: {}; {seeded}", w.work_unit(), w.request());
    for m in END_TO_END {
        let v = values(untraced, m.name);
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {:<34} {:>18.6} {:<6} (min {lo:.6}, max {hi:.6}, n {})",
            m.name,
            stats::median(&v),
            m.unit,
            v.len()
        );
    }
    // One unit and one set-up as the clock read them, before the division
    // by the host's slow-down.
    for name in ["raw_wall_s", "raw_setup_s"] {
        let v = stats::median(&values(untraced, name));
        println!("  {name:<34} {v:>18.6} {:<6} (uncorrected clock reading)", "s");
    }
    let share = failed as f64 / attempted.max(1) as f64;
    println!("  {:<34} {share:>18.6} {:<6} ({failed} of {attempted})", "failed_share", "ratio");
    let layer = traced.get("layer").cloned().unwrap_or(Json::Null);
    for (name, value) in layer.entries() {
        let unit = metrics::per_layer_unit(name).unwrap_or("?");
        println!("  {name:<34} {:>18.6} {unit}", value.as_f64().unwrap_or(0.0));
    }
    for r in untraced.iter().chain([traced]) {
        for e in r.get("errors").map_or(&[][..], Json::as_arr) {
            println!("  FAILED: {}", e.as_str().unwrap_or("?"));
        }
    }
    let overhead = field(&layer, "proc.trace_overhead_pct");
    let (pairs, slower) = (count(traced, "trace_pairs"), count(traced, "trace_pairs_slower"));
    println!("  traced unit slower than its untraced neighbour in {slower} of {pairs} pairs");
    let costly = overhead >= TRACE_OVERHEAD_LIMIT_PCT && pairs >= 10 && slower * 10 >= pairs * 9;
    if costly {
        println!("  FAILED: tracing overhead {overhead:.2} % >= {TRACE_OVERHEAD_LIMIT_PCT} %");
    }
    failed == 0 && !costly
}
