//! Runs each (workload, repetition) in a fresh child process of this same
//! binary, so peak resident set and CPU time are per run, a crash in one
//! workload leaves the others standing, and a hung one is killed.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::sizes::{Sizes, Threads};
use crate::stats::median;
use crate::workloads::{attempted, Workload};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct ChildSpec {
    pub workload: Workload,
    pub seed: u64,
    /// How long the child keeps starting units of work.
    pub seconds: f64,
    pub rep: usize,
    pub traced: bool,
    pub smoke: bool,
}

/// Runs one child to completion and returns its record. A child that
/// crashes, prints no record or outlives three times its expected time
/// yields a record in which every op of a unit failed.
pub fn run_child(spec: ChildSpec) -> Json {
    let w = spec.workload;
    // Expected: the units (one always runs, however long), and for a
    // traced child the full-size space and the layer replays after them.
    let after = match (spec.traced, spec.smoke) {
        (true, false) => 40.0,
        (true, true) => 10.0,
        (false, _) => 2.0,
    };
    let expected = spec.seconds.max(w.unit_s(spec.smoke)) + after;
    let budget = expected * 3.0;
    let started = Instant::now();
    let outcome = spawn_and_wait(spec, Duration::from_secs_f64(budget));
    let child_wall_s = started.elapsed().as_secs_f64();
    let mut rec = match outcome {
        Ok(rec) => rec,
        Err(why) => {
            let n = attempted(w, &Sizes::pick(spec.smoke), &Threads::for_host());
            Json::obj([
                ("workload", Json::str(w.name())),
                ("rep", Json::count(spec.rep as u64)),
                ("traced", Json::Bool(spec.traced)),
                ("seed", Json::count(spec.seed)),
                ("attempted", Json::count(n)),
                ("failed", Json::count(n)),
                ("errors", Json::Arr(vec![Json::str(why)])),
            ])
        }
    };
    rec.set("child_wall_s", Json::Num(child_wall_s));
    rec
}

fn spawn_and_wait(spec: ChildSpec, budget: Duration) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(spec.workload.name())
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--rep", &spec.rep.to_string()])
        .args(["--trace", if spec.traced { "1" } else { "0" }]);
    if spec.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    // Drain stdout on the side so a chatty child can never block on a full
    // pipe while we wait for it.
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + budget;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                // Kill, then reap: no process outlives the benchmark.
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("timed out after {:.0} s", budget.as_secs_f64()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("wait for child: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read child stdout: {e}"))?;
    let status = status?;
    let line = text.lines().rev().find(|l| !l.trim().is_empty());
    match line.map(Json::parse) {
        Some(Ok(rec)) if rec.get("workload").is_some() => Ok(rec),
        _ => Err(format!("child exited with {status} and no record")),
    }
}

pub fn field(rec: &Json, key: &str) -> f64 {
    rec.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn count(rec: &Json, key: &str) -> u64 {
    rec.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Records that carry measurements (a crashed child's does not).
pub fn measured<'a>(recs: &'a [Json]) -> impl Iterator<Item = &'a Json> + 'a {
    recs.iter().filter(|r| r.get("work_per_s").is_some())
}

pub fn values(recs: &[Json], key: &str) -> Vec<f64> {
    measured(recs).map(|r| field(r, key)).collect()
}

/// Medians of the end-to-end metrics over the untraced records of one
/// workload, in `END_TO_END` order.
pub fn end_to_end_medians(untraced: &[Json]) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END.iter().map(|m| (m.name, m.unit, median(&values(untraced, m.name)))).collect()
}
