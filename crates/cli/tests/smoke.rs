//! End-to-end smoke tests driving the `protogen` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn protogen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_protogen")).args(args).output().expect("protogen binary runs")
}

/// Runs `protogen` in a fresh, empty working directory; returns its output
/// and the names of whatever it left there.
fn protogen_in_empty_dir(args: &[&str]) -> (Output, Vec<String>) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("protogen-smoke-cwd-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_protogen"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("protogen binary runs");
    let left = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (out, left)
}

fn msi_pgen_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../dsl/protocols/msi.pgen")
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = protogen(&[]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
    for cmd in
        ["table", "verify", "dot", "murphi", "sim", "serve", "sweep", "fuzz", "litmus", "reproduce"]
    {
        assert!(err.contains(cmd), "usage line missing `{cmd}`: {err}");
    }
}

#[test]
fn unknown_protocol_is_reported() {
    let out = protogen(&["verify", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown protocol"));
}

#[test]
fn verify_msi_passes_at_two_caches() {
    let out = protogen(&["verify", "msi", "--caches", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PASSED"), "{stdout}");
}

#[test]
fn verify_reports_identical_counts_for_any_thread_count() {
    let single = protogen(&["verify", "msi", "--caches", "2", "--threads", "1"]);
    let quad = protogen(&["verify", "msi", "--caches", "2", "--threads", "4"]);
    assert!(single.status.success() && quad.status.success());
    let s = String::from_utf8_lossy(&single.stdout);
    let q = String::from_utf8_lossy(&quad.stdout);
    assert!(s.contains("on 1 thread"), "{s}");
    assert!(q.contains("on 4 threads"), "{q}");
    // Everything up to the timing field must agree: "<name>: PASSED — N
    // states, M transitions".
    let prefix = |out: &str| out.split(" transitions").next().unwrap_or_default().to_string();
    assert_eq!(prefix(&s), prefix(&q), "single:\n{s}\nquad:\n{q}");
}

#[test]
fn verify_rejects_zero_max_states() {
    // A zero budget used to stop before the initial state and print a
    // "PASSED"-shaped line for an exploration that proved nothing.
    let out = protogen(&["verify", "msi", "--caches", "2", "--max-states", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --max-states"), "{err}");
    assert!(err.contains("verifies nothing"), "{err}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("PASSED"));

    let out = protogen(&["verify", "msi", "--caches", "2", "--max-states", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --max-states"));
}

#[cfg(unix)]
#[test]
fn verify_under_memory_budget_spills_and_completes() {
    // A deliberately tiny budget forces the spill tier; the run must
    // still complete the whole space with identical counts and say so
    // ("spilled + completed" is not an early stop).
    let budgeted = protogen(&[
        "verify",
        "msi",
        "--stalling",
        "--caches",
        "3",
        "--store",
        "delta",
        "--mem-budget",
        "1K",
        "--spill-chunk",
        "4K",
    ]);
    let unbudgeted = protogen(&["verify", "msi", "--stalling", "--caches", "3"]);
    assert!(budgeted.status.success(), "{}", String::from_utf8_lossy(&budgeted.stderr));
    assert!(unbudgeted.status.success());
    let b = String::from_utf8_lossy(&budgeted.stdout);
    let u = String::from_utf8_lossy(&unbudgeted.stdout);
    assert!(b.contains("PASSED"), "{b}");
    assert!(b.contains("spilled"), "budgeted run never spilled:\n{b}");
    assert!(b.contains("exploration completed"), "{b}");
    assert!(!b.contains("stopped early"), "{b}");
    assert_spill_names_both_tiers(&b);
    let prefix = |out: &str| out.split(" transitions").next().unwrap_or_default().to_string();
    assert_eq!(prefix(&b), prefix(&u), "budgeted:\n{b}\nunbudgeted:\n{u}");

    let out = protogen(&["verify", "msi", "--mem-budget", "lots"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --mem-budget"));
}

/// The spill line says which tier filled: `spilled N bytes in C chunks
/// (frontier A bytes, visited records B bytes) …` with `A + B = N`. A
/// 1 KiB budget is exceeded by both tiers.
fn assert_spill_names_both_tiers(stdout: &str) {
    let line = stdout.lines().find(|l| l.starts_with("spilled ")).expect("a spill line");
    let number_after = |key: &str| -> u64 {
        let rest = &line[line.find(key).unwrap_or_else(|| panic!("no `{key}` in {line}"))..];
        rest[key.len()..].split(' ').next().unwrap().parse().unwrap()
    };
    let total = number_after("spilled ");
    let frontier = number_after("(frontier ");
    let visited = number_after(", visited records ");
    assert_eq!(total, frontier + visited, "{line}");
    assert!(frontier > 0 && visited > 0, "a tier never spilled: {line}");
    assert!(line.ends_with(" — exploration completed"), "{line}");
}

#[cfg(unix)]
#[test]
fn verify_compose_under_memory_budget_names_both_spill_tiers() {
    let stack = ["verify", "--compose", "l1=msi:1,llc=msi:2", "--stalling"];
    let budget = ["--store", "delta", "--mem-budget", "1K", "--spill-chunk", "4K"];
    let budgeted = protogen(&[&stack[..], &budget[..]].concat());
    let unbudgeted = protogen(&stack);
    assert!(budgeted.status.success(), "{}", String::from_utf8_lossy(&budgeted.stderr));
    let b = String::from_utf8_lossy(&budgeted.stdout);
    let u = String::from_utf8_lossy(&unbudgeted.stdout);
    assert_spill_names_both_tiers(&b);
    let prefix = |out: &str| out.split(" transitions").next().unwrap_or_default().to_string();
    assert_eq!(prefix(&b), prefix(&u), "budgeted:\n{b}\nunbudgeted:\n{u}");
}

#[test]
fn verify_fp_only_reports_collision_bound_and_matches_counts() {
    let fp = protogen(&["verify", "msi", "--caches", "2", "--store", "fp-only"]);
    let full = protogen(&["verify", "msi", "--caches", "2"]);
    assert!(fp.status.success(), "{}", String::from_utf8_lossy(&fp.stderr));
    let f = String::from_utf8_lossy(&fp.stdout);
    let u = String::from_utf8_lossy(&full.stdout);
    assert!(f.contains("PASSED"), "{f}");
    assert!(f.contains("fingerprint-only store"), "{f}");
    assert!(f.contains("collision"), "{f}");
    let prefix = |out: &str| out.split(" transitions").next().unwrap_or_default().to_string();
    assert_eq!(prefix(&f), prefix(&u));

    let out = protogen(&["verify", "msi", "--store", "compressed"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown store mode"));
}

#[test]
fn table_renders_generated_controller() {
    let out = protogen(&["table", "msi"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("IM_AD"), "{stdout}");
    // And the directory variant.
    let out = protogen(&["table", "msi", "--machine", "dir", "--markdown"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("| "));
}

/// The bundled MSI's DSL source compiles — parse, lower, generate — and
/// verifies, as `verify` on the file.
#[test]
fn compile_bundled_msi_spec_verifies() {
    let path = msi_pgen_path();
    let out = protogen(&["verify", path.to_str().unwrap(), "--caches", "2"]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MSI"), "{stdout}");
    assert!(stdout.contains("PASSED"), "{stdout}");
    assert!(stdout.contains("; properties sc\n"), "the verdict names its set: {stdout}");
}

/// `verify --json` (of a bundled name or a `.pgen` file) prints one document whose
/// figures are the text verdict line's, with the same exit code; the
/// violation's trace and a fired limit come along.
#[test]
fn verify_json_is_one_document_matching_the_text_line() {
    let field = |doc: &str, key: &str| -> u64 {
        let at = doc.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("{key}: {doc}"));
        let rest = &doc[at + key.len() + 4..];
        rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap()].parse().unwrap()
    };
    let pgen = msi_pgen_path();
    let pgen = pgen.to_str().unwrap();
    for args in [
        &["verify", "msi", "--caches", "3", "--threads", "2"][..],
        &["verify", "tso-cc", "--property", "sc", "--caches", "2"],
        &["verify", "--compose", "l1=msi:2,llc=msi:2", "--stalling", "--max-states", "300"],
        &["verify", pgen, "--caches", "2"],
    ] {
        let (text, json) = (protogen(args), protogen(&[args, &["--json"]].concat()));
        assert_eq!(text.status.code(), json.status.code(), "{args:?}");
        let (text, doc) =
            (String::from_utf8_lossy(&text.stdout), String::from_utf8_lossy(&json.stdout));
        assert!(doc.starts_with("{\n") && doc.ends_with("\n}\n"), "{args:?}: {doc}");
        assert_eq!(doc.matches("\n}\n").count(), 1, "{args:?}: one document: {doc}");
        let line = text.lines().find(|l| l.contains(" states, ")).expect("a verdict line");
        let (states, transitions) = (field(&doc, "states"), field(&doc, "transitions"));
        assert!(line.contains(&format!(" {states} states, {transitions} transitions")), "{line}");
        let verdict = ["PASSED", "FAILED", "INCOMPLETE"].into_iter().find(|v| line.contains(v));
        assert!(doc.contains(&format!("\"verdict\": \"{}\"", verdict.unwrap())), "{doc}");
        assert_eq!(text.contains("violation:"), doc.contains("\"violation\""), "{args:?}");
        assert_eq!(text.contains("stopped early:"), doc.contains("\"limit\""), "{args:?}");
        let trace_lines = text.lines().skip_while(|l| !l.starts_with("violation:")).count();
        assert_eq!(trace_lines > 1, doc.contains("\"trace\""), "{args:?}");
        assert!(field(&doc, "store_bytes") > 0 && field(&doc, "lookups") > 0, "{doc}");
        // The peak epoch's accounted RAM splits into the visited set, the
        // frontier's pages, the side column of parent-race keys and the
        // candidate batches; the epoch is named by the depth it expanded.
        let (frontier, hot) = (field(&doc, "frontier_bytes"), field(&doc, "hot_level_bytes"));
        assert!(frontier > 0 && hot > 0, "{doc}");
        assert!(frontier + hot < field(&doc, "peak_mem_bytes"), "{doc}");
        assert!(field(&doc, "peak_mem_depth") <= field(&doc, "states"), "{doc}");
    }
}

/// A `.pgen` operand names the protocol its file holds, wherever a bundled
/// name would do: the bundled MSI's source simulates byte for byte as `msi`.
#[test]
fn sim_on_a_pgen_file_matches_the_bundled_name() {
    let pgen = msi_pgen_path();
    let file = protogen(&["sim", pgen.to_str().unwrap(), "--seed", "7", "--json"]);
    let name = protogen(&["sim", "msi", "--seed", "7", "--json"]);
    assert!(file.status.success(), "{}", String::from_utf8_lossy(&file.stderr));
    assert_eq!(file.stdout, name.stdout);
}

/// A `.pgen` file whose levels sit in a `compose { … }` block.
fn stack_pgen(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("protogen-smoke-{tag}-{}.pgen", std::process::id()));
    std::fs::write(&path, "protocol H;\ncompose {\n  l1: msi(2);\n  llc: mesi;\n}\n").unwrap();
    path
}

#[test]
fn table_on_a_compose_file_prints_one_section_per_level() {
    let pgen = stack_pgen("table");
    let out = protogen(&["table", pgen.to_str().unwrap()]);
    let _ = std::fs::remove_file(&pgen);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("=== level ").count(), 2, "{stdout}");
    assert!(stdout.contains("=== level 0: l1 — MSI (fanout 2, 2 nodes) ==="), "{stdout}");
    assert!(stdout.contains("=== level 1: llc — MESI (fanout 1, 1 node) ==="), "{stdout}");
}

/// A compose block names a level's protocol as `--compose` does, hyphens
/// included: a one-level file prints the same table as the flag.
#[test]
fn compose_blocks_name_every_bundled_protocol_as_the_flag_does() {
    for name in protogen_protocols::NAMES {
        let path = std::env::temp_dir()
            .join(format!("protogen-smoke-level-{name}-{}.pgen", std::process::id()));
        std::fs::write(&path, format!("protocol H;\ncompose {{ l1: {name}(2); }}\n")).unwrap();
        let file = protogen(&["table", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        let flag = protogen(&["table", "--compose", &format!("l1={name}:2")]);
        assert!(file.status.success(), "{name}: {}", String::from_utf8_lossy(&file.stderr));
        assert!(flag.status.success(), "{name}: {}", String::from_utf8_lossy(&flag.stderr));
        assert_eq!(
            String::from_utf8_lossy(&file.stdout),
            String::from_utf8_lossy(&flag.stdout),
            "{name}"
        );
    }
}

/// `murphi`, `sim` and `serve` run a flat protocol: a stack file is a
/// usage error that says so, and nothing runs.
#[test]
fn sim_on_a_compose_file_exits_2() {
    let pgen = stack_pgen("flat-only");
    let path = pgen.to_str().unwrap();
    for cmd in ["sim", "murphi", "serve"] {
        let out = protogen(&[cmd, path]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        let says = format!("`{cmd}` runs a flat protocol: {path} is a composed stack");
        assert!(err.contains(&says), "{cmd}: {err}");
        assert!(out.stdout.is_empty() && !err.contains("model-checking"), "{cmd}: {err}");
    }
    let _ = std::fs::remove_file(&pgen);
}

/// A composition that fails validation says so once: the validation
/// error follows `composition failed:` with no second prefix.
#[test]
fn an_invalid_composition_prints_one_prefix() {
    let out = protogen(&["verify", "--compose", "l1=msi:2,l1=mesi:2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    let says =
        "composition failed: invalid specification: level 1 (l1): label already names level 0";
    assert!(err.starts_with(says), "{err}");
    assert!(out.stdout.is_empty() && !err.contains("invalid SSP"), "{err}");
}

/// A `.pgen` operand that cannot be read is a usage error.
#[test]
fn compile_rejects_missing_file() {
    let out = protogen(&["verify", "/nonexistent/file.pgen"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn sim_json_is_deterministic_for_a_fixed_seed() {
    let args = ["sim", "msi", "--caches", "2", "--seed", "7", "--accesses", "40", "--json"];
    let a = protogen(&args);
    let b = protogen(&args);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "same seed must yield byte-identical JSON");
    let text = String::from_utf8_lossy(&a.stdout);
    for key in ["\"protocol\": \"MSI\"", "\"p95_latency\"", "\"dir_occupancy\""] {
        assert!(text.contains(key), "missing {key}: {text}");
    }
}

#[test]
fn sim_accepts_workload_network_and_trace_flags() {
    let out = protogen(&["sim", "mesi", "--workload", "producer-consumer", "--caches", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("producer-consumer"));

    // An ordered-network protocol on an unordered interconnect is clamped
    // to FIFO delivery with a note, not an error.
    let out = protogen(&["sim", "msi", "--network", "unordered", "--latency", "uniform:4:16"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("ordered networks"));

    let out = protogen(&["sim", "msi", "--workload", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));

    let dir = std::env::temp_dir().join("protogen-smoke-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.trc");
    std::fs::write(&trace, "# two cores ping-pong\n0 st 0\n1 ld 0\n0 st 0\n1 ld 0\n").unwrap();
    let out = protogen(&["sim", "msi", "--caches", "2", "--trace", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 accesses"));
}

#[test]
fn serve_runs_inside_the_envelope_and_reports_json() {
    let out = protogen(&[
        "serve",
        "msi",
        "--caches",
        "2",
        "--dir-shards",
        "2",
        "--ops",
        "20000",
        "--seed",
        "7",
        "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // The exact line the CI smoke job greps for.
    assert!(text.contains("\"escapes\": 0"), "{text}");
    for key in ["\"protocol\": \"MSI\"", "\"ops\": 20000", "\"ops_per_sec\"", "\"coverage_pairs\""]
    {
        assert!(text.contains(key), "missing {key}: {text}");
    }
    // The envelope check runs before the service and reports on stderr —
    // stdout stays pure JSON.
    assert!(String::from_utf8_lossy(&out.stderr).contains("envelope"));
    assert!(text.trim_start().starts_with('{'), "{text}");
}

/// `serve msi --seed 7` at `caches` caches and `ops` operations: its stdout.
fn serve_msi(caches: &str, ops: &str, json: bool) -> String {
    let mut args = vec!["serve", "msi", "--caches", caches, "--ops", ops, "--seed", "7"];
    args.extend(json.then_some("--json"));
    let out = protogen(&args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// A tail percentile needs ten misses at or beyond its rank. One cache alone
/// misses 13 times in 100,000 operations, where p95, p99 and max used to
/// print the same slowest miss.
#[test]
fn serve_reports_no_tail_from_a_handful_of_misses() {
    let json = serve_msi("1", "100000", true);
    for key in ["\"miss_samples\": 13,", "\"miss_p50_ns\"", "\"miss_max_ns\""] {
        assert!(json.contains(key), "missing {key}: {json}");
    }
    assert!(!json.contains("miss_p95_ns") && !json.contains("miss_p99_ns"), "{json}");
    let text = serve_msi("1", "100000", false);
    assert!(text.contains("miss latency p50/p95/p99/max: "), "{text}");
    assert!(
        text.contains("/-/-/") && text.contains("over 13 misses; too few for p95/p99"),
        "{text}"
    );
}

/// Four caches contending for the blocks miss thousands of times: every
/// percentile stays.
#[test]
fn serve_keeps_the_tail_over_thousands_of_misses() {
    let json = serve_msi("4", "20000", true);
    let samples = json.split("\"miss_samples\": ").nth(1).and_then(|s| s.split(',').next());
    assert!(samples.unwrap().parse::<u64>().unwrap() >= 1000, "{json}");
    for key in ["\"miss_p50_ns\"", "\"miss_p95_ns\"", "\"miss_p99_ns\"", "\"miss_max_ns\""] {
        assert!(json.contains(key), "missing {key}: {json}");
    }
}

#[test]
fn serve_rejects_bad_flags() {
    let out = protogen(&["serve", "msi", "--ops", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --ops"));

    let out = protogen(&["serve", "msi", "--workload", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));

    // Validation failures from the service config itself are usage errors
    // too (mailbox below the floor).
    let out = protogen(&["serve", "msi", "--mailbox-cap", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mailbox_cap"));

    let out = protogen(&["serve", "msi", "--faults", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --faults"));

    let out = protogen(&["serve", "msi", "--crash-at-op", "10"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --faults"));
}

/// Fault classes are named in the singular, as the usage line lists them:
/// a plural is an unknown item, refused before the envelope is checked.
#[test]
fn fault_classes_are_named_in_the_singular() {
    let out = protogen(&["serve", "msi", "--faults", "delays"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --faults item `delays`"), "{err}");
    assert!(err.contains("(delay, stall, squeeze, crash, or all)"), "{err}");
    assert!(!err.contains("model-checking") && out.stdout.is_empty(), "{err}");
}

#[test]
fn serve_with_faults_stays_inside_the_envelope() {
    let out = protogen(&[
        "serve",
        "msi",
        "--caches",
        "2",
        "--dir-shards",
        "2",
        "--ops",
        "10000",
        "--seed",
        "7",
        "--faults",
        "all",
        "--fault-seed",
        "11",
        "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // The exact lines the CI serve-faults job greps for.
    assert!(text.contains("\"escapes\": 0"), "{text}");
    assert!(text.contains("\"stop_reason\": \"quiesced\""), "{text}");
    assert!(text.contains("\"crashes_completed\": 1"), "{text}");
    assert!(text.contains("\"lines_lost\": 0"), "{text}");
}

#[test]
fn serve_unfinished_fault_plan_exits_4() {
    // A crash point past the schedule end never fires: the workload
    // completes but the experiment is inconclusive.
    let out = protogen(&[
        "serve",
        "msi",
        "--caches",
        "2",
        "--ops",
        "2000",
        "--faults",
        "crash",
        "--crash-at-op",
        "999999999",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"stop_reason\": \"fault\""), "{text}");
    assert!(text.contains("\"crashes_completed\": 0"), "{text}");
}

#[test]
fn serve_deadline_exits_3_and_says_who_holds_what() {
    // 10M ops per core cannot finish in 50 ms (a pass completes at most
    // 1024, the deadline is looked at every 8192nd pass at the latest).
    let args = ["serve", "msi", "--caches", "2", "--ops", "20000000", "--duration", "0.05"];
    let out = protogen(&args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{err}");
    for want in [
        "partial measurements only",
        "message(s) still in flight, 0/2 cores done issuing",
        "\n  cache 0: sent ",
        "\n  cache 1: sent ",
        "\n  dir shard 0: sent ",
    ] {
        assert!(err.contains(want), "no {want:?} in {err}");
    }
    let out = protogen(&[&args[..], &["--json"]].concat());
    assert_eq!(out.status.code(), Some(3));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"stop_detail\": \"run did not quiesce in time ("), "{text}");
}

#[test]
fn verify_checkpoints_and_resumes_to_identical_counts() {
    let dir = std::env::temp_dir().join(format!("protogen-smoke-ck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = dir.to_str().unwrap();

    let full = protogen(&["verify", "msi", "--caches", "2", "--threads", "2"]);
    assert!(full.status.success());
    let counts = |out: &Output| {
        let s = String::from_utf8_lossy(&out.stdout).to_string();
        s.split(" — ").nth(1).unwrap_or_default().split(", ").take(2).collect::<Vec<_>>().join(", ")
    };

    // Interrupt via the state budget (to `verify` this is indistinguishable
    // from a kill: only the committed checkpoints survive), then resume.
    let partial = protogen(&[
        "verify",
        "msi",
        "--caches",
        "2",
        "--threads",
        "2",
        "--checkpoint-dir",
        ck,
        "--checkpoint-every",
        "1",
        "--max-states",
        "300",
    ]);
    assert!(String::from_utf8_lossy(&partial.stdout).contains("stopped early"));

    let resumed = protogen(&[
        "verify",
        "msi",
        "--caches",
        "2",
        "--threads",
        "2",
        "--checkpoint-dir",
        ck,
        "--resume",
    ]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(counts(&resumed), counts(&full), "resume must match the uninterrupted run");
    assert!(counts(&full).contains("states"), "count extraction worked: {}", counts(&full));
    // The resumed process timed only the epochs it ran, so its verdict
    // line must not divide every state by that time.
    let line = String::from_utf8_lossy(&resumed.stdout).lines().next().unwrap_or("").to_string();
    assert!(line.contains("s (resumed) on 2 threads"), "{line}");
    assert!(!line.contains("states/s"), "a rate over states this run did not explore: {line}");
    assert!(String::from_utf8_lossy(&full.stdout).contains(" states/s) on 2 threads"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `verify --compose` runs on the flat checker's explorer: `--threads`
/// never changes the counts, and a checkpointed run dropped mid-way
/// resumes to them (this combination used to exit 2).
#[test]
fn verify_compose_takes_threads_and_resumes_from_a_checkpoint() {
    let dir = std::env::temp_dir().join(format!("protogen-smoke-hck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = dir.to_str().unwrap();
    let stack = ["verify", "--compose", "l1=msi:1,llc=msi:2", "--stalling"];
    let run = |extra: &[&str]| protogen(&[&stack[..], extra].concat());
    let counts = |out: &Output| {
        let s = String::from_utf8_lossy(&out.stdout).to_string();
        s.split(" transitions").next().unwrap_or_default().to_string()
    };

    let single = run(&["--threads", "1"]);
    let quad = run(&["--threads", "4", "--store", "delta"]);
    assert!(single.status.success(), "{}", String::from_utf8_lossy(&single.stderr));
    let q = String::from_utf8_lossy(&quad.stdout);
    assert!(q.contains("on 4 threads; 2 levels, 4 nodes, symmetry group 2"), "{q}");
    assert!(counts(&single).contains("PASSED"), "{}", counts(&single));
    assert_eq!(counts(&single), counts(&quad));

    let ck_flags = ["--threads", "2", "--checkpoint-dir", ck, "--checkpoint-every", "1"];
    let partial = run(&[&ck_flags[..], &["--max-states", "300"]].concat());
    assert!(String::from_utf8_lossy(&partial.stdout).contains("stopped early"));
    let resumed = run(&[&ck_flags[..], &["--resume"]].concat());
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(counts(&resumed), counts(&single), "resume must match the uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unparsable numeric flag used to fall back to its default silently:
/// `verify msi --caches 3x` printed a PASSED line for MSI@2 and exited 0.
#[test]
fn unparsable_numeric_flags_are_usage_errors() {
    // `--threads banana` and `--seed -1` are among the hostile values
    // `main.rs`'s table test gives every numeric flag on every subcommand.
    for args in [
        &["verify", "msi", "--caches", "3x"][..],
        &["litmus", "msi", "--tests", "SB", "--depth", "deep"],
    ] {
        let out = protogen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let (flag, value) = (args[args.len() - 2], args[args.len() - 1]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("bad {flag} `{value}`")), "{args:?}: {err}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("PASSED"), "{args:?}");
    }
}

/// `--store-pct 101` used to run labelled `uniform-101` (and behave as 100);
/// a hop latency near `u64::MAX` used to panic in the dev profile and wrap
/// in release. Both are usage errors, for `sim` and `serve` alike.
#[test]
fn out_of_range_percentages_and_latencies_are_usage_errors() {
    // `--store-pct 101` is the percentage kind's hostile value in `main.rs`'s
    // table test, for `sim` and `serve` alike.
    for (args, needle) in [
        (
            &["sim", "mesi", "--latency", "geometric:18446744073709551615:50", "--accesses", "5"][..],
            "base above 4294967295",
        ),
        (&["sim", "mesi", "--latency", "uniform:1:18446744073709551615"], "hi above 4294967295"),
    ] {
        let out = protogen(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

/// A wedged simulation used to spin through all 50 M cycles of the safety
/// limit (20 s) before saying only that it had. One-deep buffers wedge MESI
/// within a few hundred cycles: the run stops there and names what is
/// stuck. A latency no run can wait out jumps to the limit.
#[test]
fn wedged_simulations_fail_fast_and_say_what_is_stuck() {
    let start = std::time::Instant::now();
    let out = protogen(&["sim", "mesi", "--cap", "1"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    for needle in [
        "deadlocked at cycle",
        "core 0: block",
        "in flight since cycle",
        "channel n",
        "backpressured",
    ] {
        assert!(err.contains(needle), "missing `{needle}`: {err}");
    }
    let out = protogen(&["sim", "mesi", "--latency", "fixed:4294967295"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("exceeded 50000000 cycles"), "{err}");
    assert!(start.elapsed().as_secs() < 5, "wedged runs took {:?}", start.elapsed());
}

/// A misspelt flag used to be ignored, and its value with it: `verify msi
/// --cachse 4` printed a PASSED line for MSI@2 and exited 0, and
/// `--max-state 10` ran unbudgeted. So was a flag of another subcommand:
/// `verify msi --json` printed a human-readable PASSED line, `sim …
/// --max-states 9` bounded nothing. Unknown flags, misplaced flags (named
/// with the subcommand that refused them) and surplus operands are usage
/// errors naming the offending token.
#[test]
fn unknown_flags_and_surplus_operands_are_usage_errors() {
    for (args, token) in [
        (&["verify", "msi", "--cachse", "4", "--stalling"][..], "--cachse"),
        (&["verify", "msi", "--caches", "3", "--max-state", "10"], "--max-state"),
        (&["verify", "msi", "--ops", "5"], "`verify` takes no `--ops`"),
        (&["verify", "msi", "--markdown"], "`verify` takes no `--markdown`"),
        (&["sim", "msi", "--max-states", "9"], "`sim` takes no `--max-states`"),
        (&["serve", "msi", "--mutants", "1"], "`serve` takes no `--mutants`"),
        (&["reproduce", "--stalling"], "`reproduce` takes no `--stalling`"),
        (&["verify", "msi", "mesi", "--caches", "2"], "`mesi`"),
        (&["verify", "msi", "--compose", "l1=msi:1,llc=msi:2"], "`msi`"),
        (&["reproduce", "msi"], "`msi`"),
        (&["simulate", "msi"], "`simulate`"),
    ] {
        let out = protogen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(token), "{args:?}: {err}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for verdict in ["PASSED", "FAILED", "INCOMPLETE"] {
            assert!(!stdout.contains(verdict), "{args:?} printed a verdict: {stdout}");
        }
    }
}

/// Command lines that used to be misread and run anyway: a value forgotten
/// at the end (`sweep --out` wrote 65 files into the current directory,
/// `verify msi --checkpoint-dir` checkpointed into it and passed), a flag
/// given twice (the first won), a word outside a closed set (`--machine
/// foo` meant "cache"), a fault flag without `--faults`, an empty fault
/// plan, an empty level label, a litmus test run twice; runs of nothing
/// that printed a pass-shaped report (an empty trace among them); block
/// counts past the `u32` addresses that aborted on allocation; a flag the
/// command dropped (`--caches` on a composed stack, `--machine` on a
/// composed table, `--checkpoint-every` without `--checkpoint-dir`,
/// `--spill-chunk` without `--mem-budget`, what a trace, a listing or a
/// replay replaces). Exit 2, the flag and the value named above the
/// subcommand's usage line, nothing printed, nothing written.
#[test]
fn misread_command_lines_exit_2_and_touch_nothing() {
    let dir = std::env::temp_dir().join(format!("protogen-smoke-misread-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, contents: &str| {
        std::fs::write(dir.join(name), contents).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    };
    let stack = file("stack.pgen", "protocol H;\ncompose {\n  l1: msi(2);\n  llc: mesi;\n}\n");
    let trace = file("t.trc", "0 st 0\n1 ld 0\n");
    let empty = file("empty.trc", "# nothing but comments\n\n# and blank lines\n");
    let script = file("s.mut", "protocol msi\nconfig non-stalling\nmutate flip-permission 1\n");
    let (stack, trace, empty, script) = (&*stack, &*trace, &*empty, &*script);
    for (args, needles) in [
        (&["sweep", "--out"][..], &["`--out` needs a value"][..]),
        (&["sweep", "--out", "--json"], &["`--out` needs a value"]),
        (&["verify", "msi", "--checkpoint-dir"], &["`--checkpoint-dir` needs a value"]),
        (&["sim", "msi", "--seed"], &["`--seed` needs a value"]),
        (&["verify", "msi", "--caches", "2", "--caches", "3"], &["`--caches` is given twice"]),
        (&["table", "msi", "--machine", "foo"], &["bad --machine `foo`", "cache or dir"]),
        (&["dot", "msi", "--machine", "directory"], &["bad --machine `directory`"]),
        (&["serve", "msi", "--fault-seed", "3"], &["--fault-seed requires --faults"]),
        (&["serve", "msi", "--faults", ""], &["bad --faults ``"]),
        (&["serve", "msi", "--faults", ","], &["bad --faults `,`"]),
        (&["verify", "--compose", "=msi"], &["bad --compose", "`=msi`"]),
        (&["litmus", "msi", "--tests", "SB,SB"], &["bad --tests `SB,SB`"]),
        (&["sim", "msi", "--accesses", "0"], &["bad --accesses `0`", "verifies nothing"]),
        (&["serve", "msi", "--ops", "0"], &["bad --ops `0`"]),
        (&["sweep", "--accesses", "0"], &["bad --accesses `0`"]),
        (&["fuzz", "--budget", "0"], &["bad --budget `0`"]),
        (&["litmus", "msi", "--depth", "0"], &["bad --depth `0`"]),
        // The explorer's breadth-first order is canonical: nothing to seed.
        (&["litmus", "msi", "--seed", "1"], &["`litmus` takes no `--seed`"]),
        (&["sweep", "--protocols", "nosuch"], &["unknown protocol `nosuch`"]),
        (&["sim", "msi", "--addrs", "0"], &["at least one cache and one address", "--addrs 0"]),
        (&["serve", "msi", "--addrs", "0"], &["n_addrs must be at least 1"]),
        // Past the u32 addresses: both used to abort allocating 40 GB.
        (
            &["sim", "mesi", "--addrs", "5000000000"],
            &["n_addrs must be at most 4294967296, got 5000000000"],
        ),
        (
            &["serve", "mesi", "--addrs", "5000000000", "--ops", "10"],
            &["n_addrs must be at most 4294967296, got 5000000000"],
        ),
        (&["serve", "msi", "--dir-shards", "0"], &["dir_shards must be 1..=62, got 0"]),
        (&["serve", "msi", "--mailbox-cap", "0"], &["mailbox_cap must be at least 16, got 0"]),
        (&["serve", "msi", "--duration", "0"], &["bad --duration `0`", "positive and finite"]),
        (&["sim", "msi", "--trace", empty], &["trace line 3: no operation"]),
        (&["verify", "--compose", "l1=msi:2", "--caches", "4"], &["--caches", "--compose"]),
        (&["verify", stack, "--caches", "3"], &["--caches", "compose block"]),
        (
            &["table", "--compose", "l1=msi:2", "--machine", "dir"],
            &["--compose replaces --machine"],
        ),
        (&["dot", "--compose", "l1=msi:2", "--machine", "dir"], &["--compose replaces --machine"]),
        (
            &["verify", "msi", "--checkpoint-every", "2"],
            &["--checkpoint-every requires --checkpoint-dir"],
        ),
        (&["verify", "msi", "--spill-chunk", "4K"], &["--spill-chunk requires --mem-budget"]),
        (
            &["sim", "msi", "--trace", trace, "--workload", "zipfian"],
            &["--trace replaces --workload"],
        ),
        (&["sim", "msi", "--trace", trace, "--store-pct", "30"], &["--trace replaces --store-pct"]),
        (&["sim", "msi", "--trace", trace, "--accesses", "9"], &["--trace replaces --accesses"]),
        (&["sweep", "--list", "--out", "cells"], &["--list replaces --out"]),
        (&["sweep", "--list", "--json"], &["--list replaces --json"]),
        (&["fuzz", "--replay", script, "--mutants", "3"], &["--replay replaces --mutants"]),
        (&["fuzz", "--replay", script, "--seed", "3"], &["--replay replaces --seed"]),
        (&["fuzz", "--replay", script, "--protocols", "msi"], &["--replay replaces --protocols"]),
        (&["fuzz", "--replay", script, "--out", "repro"], &["--replay replaces --out"]),
        (&["fuzz", "--replay", script, "--json"], &["--replay replaces --json"]),
    ] {
        let (out, left) = protogen_in_empty_dir(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        for needle in needles.iter().copied().chain([&*format!("\nusage: protogen {}", args[0])]) {
            assert!(err.contains(needle), "{args:?} lacks `{needle}`: {err}");
        }
        // `serve` used to model-check the envelope before refusing.
        assert!(!err.contains("model-checking"), "{args:?} started work: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(left.is_empty(), "{args:?} left {left:?} behind");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A reader that closes stdout early (`protogen table msi | head -1`) used to
/// kill the process with a `failed printing to stdout` panic, a backtrace
/// and exit 101. It now ends quietly, and not with exit 0: a `verify` whose
/// verdict line was not delivered must not read as a pass.
#[test]
fn closed_stdout_ends_the_process_quietly() {
    use std::process::Stdio;
    for args in [&["table", "mesi"][..], &["verify", "msi", "--threads", "1"]] {
        // Closed before the child has generated anything to print: stdout
        // is a pipe whose reading end belonged to a process that has
        // already exited without reading. Closing the reading end after
        // the spawn would race a fast subcommand, which can write its
        // whole output into the pipe buffer first and exit 0.
        let mut reader = Command::new(env!("CARGO_BIN_EXE_protogen"))
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("protogen binary runs");
        let closed = reader.stdin.take().expect("piped stdin");
        reader.wait().expect("protogen exits");
        let out = Command::new(env!("CARGO_BIN_EXE_protogen"))
            .args(args)
            .stdout(Stdio::from(closed))
            .stderr(Stdio::piped())
            .output()
            .expect("protogen exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(141), "{args:?}: {err}");
    }
}

/// `--caches 0` used to print `PASSED — 1 states, 0 transitions` (a
/// vacuous pass); `--caches 9` explored a space in which cache 8's sharer
/// bit aliased cache 0's and printed a verdict for it. Both are usage
/// errors on every subcommand that takes a count; 8 is the last count
/// that still starts.
#[test]
fn out_of_range_cache_counts_are_usage_errors() {
    // Every other subcommand that takes a count gets 0 and 9 from `main.rs`'s
    // table test.
    for args in [&["verify", "msi", "--caches", "0"][..], &["sweep", "--list", "--caches", "2,9"]] {
        let out = protogen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("bad --caches `{}`", args[args.len() - 1])), "{err}");
        assert!(err.contains("1..=8"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let out = protogen(&["verify", "msi", "--caches", "8", "--threads", "1", "--max-states", "50"]);
    assert_eq!(out.status.code(), Some(1), "a budget-stopped run, not a usage error");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("state budget exhausted"), "{stdout}");
}

/// A stack with more than 256 nodes at one machine level used to wrap its
/// one-byte node indices and die on an index panic (exit 101). Now every
/// way into the composed pipeline refuses it by level and node count; the
/// widest stack that fits (8·8·4 = 256 leaves) still starts, unreduced,
/// and says why it runs unreduced.
#[test]
fn stacks_past_the_level_node_bound_are_usage_errors() {
    let pgen =
        std::env::temp_dir().join(format!("protogen-smoke-wide-{}.pgen", std::process::id()));
    std::fs::write(&pgen, "protocol Wide; compose { l1: msi(8); l2: msi(8); llc: msi(5); }")
        .unwrap();
    let wide = "l1=msi:8,l2=msi:8,llc=msi:5";
    for args in [
        &["verify", "--compose", wide, "--stalling", "--max-states", "50"][..],
        &["table", "--compose", wide],
        &["dot", "--compose", wide],
        &["verify", pgen.to_str().unwrap()],
    ] {
        let out = protogen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("level 0 (l1) has 320 nodes"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let _ = std::fs::remove_file(&pgen);

    let fits = "l1=msi:8,l2=msi:8,llc=msi:4";
    let out = protogen(&["verify", "--compose", fits, "--stalling", "--max-states", "50"]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 levels, 292 nodes, no symmetry reduction: group order"), "{stdout}");
    assert!(stdout.contains(" > 40320; properties sc\n"), "{stdout}");
    assert!(stdout.contains("state budget exhausted"), "{stdout}");
}

/// The verdict word tells a counterexample from a run a limit cut short:
/// only the first is `FAILED`; both exit 1. A group just past the cap is
/// printed in full.
#[test]
fn budget_stops_read_incomplete_and_violations_failed() {
    let stack = ["verify", "--compose", "l1=msi:4,llc=msi:3", "--stalling", "--threads", "1"];
    let out = protogen(&[&stack[..], &["--max-states", "200"]].concat());
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("l1=msi:4,llc=msi:3: INCOMPLETE — "), "{stdout}");
    assert!(stdout.contains("no symmetry reduction: group order 82944 > 40320"), "{stdout}");
    assert!(!stdout.contains("FAILED") && !stdout.contains("PASSED"), "{stdout}");

    let out = protogen(&["verify", "tso-cc", "--property", "sc", "--caches", "2"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED") && stdout.contains("violation:"), "{stdout}");
    assert!(!stdout.contains("INCOMPLETE"), "{stdout}");
}

/// A `PASSED` says what it passed: the verdict line ends with the property
/// set the run checked, for flat protocols and composed stacks alike, and
/// `--property` reaches the composed path.
#[test]
fn verdict_lines_name_the_checked_properties() {
    let verdict = |args: &[&str]| {
        let out = protogen(args);
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        (out.status.code(), stdout.lines().next().unwrap_or_default().to_string())
    };
    let (code, sc) = verdict(&["verify", "msi", "--caches", "2"]);
    assert_eq!(code, Some(0), "{sc}");
    assert!(sc.starts_with("MSI: PASSED — 1534 states, 4110 transitions"), "{sc}");
    assert!(sc.ends_with("; properties sc"), "{sc}");
    let (code, none) = verdict(&["verify", "msi", "--caches", "2", "--property", "none"]);
    assert_eq!(code, Some(0), "{none}");
    assert!(none.ends_with("; properties none"), "{none}");
    let counts = |line: &str| line.split(" transitions").next().unwrap_or_default().to_string();
    assert_eq!(counts(&sc), counts(&none));

    let stack = ["verify", "--compose", "l1=tso-cc:2", "--threads", "1"];
    let (code, failed) = verdict(&[&stack[..], &["--property", "sc"]].concat());
    assert_eq!(code, Some(1), "{failed}");
    assert!(failed.contains("FAILED — 64 states, 132 transitions"), "{failed}");
    assert!(failed.ends_with("symmetry group 2; properties sc"), "{failed}");
    let (code, tso) = verdict(&[&stack[..], &["--property", "tso"]].concat());
    assert_eq!(code, Some(0), "{tso}");
    assert!(tso.contains("PASSED — 980 states, 2922 transitions"), "{tso}");
    assert!(tso.ends_with("; properties tso"), "{tso}");
    let (code, none) = verdict(&[&stack[..], &["--property", "none"]].concat());
    assert_eq!(code, Some(0), "{none}");
    assert!(none.ends_with("; 1 levels, 2 nodes, symmetry group 2; properties none"), "{none}");
}

#[test]
fn verify_checkpoint_flag_misuse_is_rejected() {
    let out = protogen(&["verify", "msi", "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --checkpoint-dir"));

    // Composed stacks take the same flags under the same rules.
    let out = protogen(&["verify", "--compose", "l1=msi:2,llc=msi", "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --checkpoint-dir"));

    // Resuming from a directory with no committed checkpoint is a hard
    // error, never a silent fresh start.
    let empty = std::env::temp_dir().join(format!("protogen-smoke-nock-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let out = protogen(&["verify", "msi", "--checkpoint-dir", empty.to_str().unwrap(), "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot resume"));
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn sweep_list_prints_grid_without_running() {
    let out = protogen(&["sweep", "--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("64 cells"), "{stdout}");
    assert!(stdout.contains("msi.stall.uniform-50.c2.ordered"), "{stdout}");
    assert!(stdout.contains("mesi.non-stall.false-sharing.c4.unordered"), "{stdout}");
}

/// Under `--json`, stdout is the document alone even when `--out` writes
/// files too: the line that says where they went goes to stderr.
#[test]
fn out_with_json_prints_one_document() {
    let dir = std::env::temp_dir().join(format!("protogen-smoke-out-json-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    for args in [
        &["sweep", "--protocols", "msi", "--caches", "2", "--accesses", "20", "--out", dir][..],
        &["fuzz", "--mutants", "2", "--protocols", "msi", "--out", dir],
    ] {
        let out = protogen(&[args, &["--json"]].concat());
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let doc = String::from_utf8_lossy(&out.stdout);
        assert!(doc.starts_with("{\n") && doc.ends_with("\n}\n"), "{args:?}: {doc}");
        assert_eq!(doc.matches("\n}\n").count(), 1, "{args:?}: one document: {doc}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!(" to {dir}")), "{args:?}: {err}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn sweep_out_writes_one_json_per_cell() {
    let dir = std::env::temp_dir().join("protogen-smoke-sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let out = protogen(&[
        "sweep",
        "--protocols",
        "msi",
        "--caches",
        "2",
        "--accesses",
        "20",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // 1 protocol × 2 configs × 4 workloads × 1 cache count × 2 networks.
    let mut cells: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    cells.sort();
    assert_eq!(cells.len(), 17, "16 cells + sweep.json: {cells:?}");
    assert!(cells.contains(&"sweep.json".to_string()));
    assert!(cells.contains(&"msi.non-stall.uniform-50.c2.ordered.json".to_string()));
    let cell_text =
        std::fs::read_to_string(dir.join("msi.non-stall.uniform-50.c2.ordered.json")).unwrap();
    assert!(cell_text.contains("\"stats\""), "{cell_text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fuzz_smoke_catches_controls_and_is_thread_invariant() {
    let run = |threads: &str| {
        protogen(&[
            "fuzz",
            "--seed",
            "5",
            "--mutants",
            "8",
            "--threads",
            threads,
            "--protocols",
            "msi",
            "--json",
        ])
    };
    let (one, four) = (run("1"), run("4"));
    assert!(one.status.success(), "{}", String::from_utf8_lossy(&one.stderr));
    assert_eq!(
        String::from_utf8_lossy(&one.stdout),
        String::from_utf8_lossy(&four.stdout),
        "fuzz report differs across thread counts"
    );
    let text = String::from_utf8_lossy(&one.stdout);
    assert!(text.contains("\"controls_caught\": true"), "{text}");
    assert!(text.contains("\"unexpected\": []"), "{text}");
    for control in [
        "tso-cc-relaxation",
        "msi-s-gains-write-permission",
        "msi-dir-drops-s-getm",
        "msi-store-completes-into-wrong-state",
        "msi-inv-ack-never-sent",
    ] {
        assert!(text.contains(control), "control `{control}` missing:\n{text}");
    }
}

#[test]
fn fuzz_replay_runs_a_reproducer_script() {
    let dir = std::env::temp_dir().join(format!("protogen-fuzz-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("flip-s.mut");
    // The seeded negative control: S gains write permission → SWMR.
    std::fs::write(&script, "protocol msi\nconfig non-stalling\nmutate flip-permission 1\n")
        .unwrap();
    let out = protogen(&["fuzz", "--replay", script.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rejected-by-checker"), "{stdout}");
    assert!(stdout.contains("SWMR"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fuzz_rejects_bad_flags_and_unknown_protocols() {
    let out = protogen(&["fuzz", "--mutants", "three"]);
    assert_eq!(out.status.code(), Some(2));
    let out = protogen(&["fuzz", "--protocols", "nonesuch", "--mutants", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown protocol"));
}
