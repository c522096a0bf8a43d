//! `protogen` — the command-line front door to the toolchain.
//!
//! ```text
//! protogen table   <protocol> [--stalling] [--machine cache|dir] [--markdown]
//! protogen verify  <protocol> [--stalling] [--caches N] [--threads N] [--max-states N]
//!                  [--mem-budget BYTES] [--store full|delta|fp-only] [--spill-chunk BYTES]
//!                  [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//!                  [--property sc|tso|weak|none|P+Q]
//! protogen verify  --compose l1=msi:2,llc=mesi [--stalling] [the same flags, minus --caches]
//! protogen dot     <protocol> [--stalling] [--machine cache|dir]
//! protogen murphi  <protocol> [--stalling] [--caches N]
//! protogen sim     <protocol> [--stalling] [--caches N] [--addrs N] [--accesses N]
//!                  [--workload W] [--store-pct P] [--trace FILE]
//!                  [--network ordered|unordered] [--latency DIST] [--cap N]
//!                  [--seed N] [--json]
//! protogen serve   <protocol> [--stalling] [--caches N] [--dir-shards N] [--addrs N]
//!                  [--workload W] [--store-pct P] [--ops N] [--seed N]
//!                  [--duration SECS] [--mailbox-cap N] [--threads N] [--json]
//!                  [--faults delay,stall,squeeze,crash|all] [--fault-seed N]
//!                  [--crash-at-op N] [--property sc|tso|weak|none|P+Q]
//! protogen sweep   [--protocols a,b] [--caches 2,4] [--accesses N] [--seed N]
//!                  [--threads N] [--list] [--out DIR] [--json]
//! protogen fuzz    [--seed N] [--mutants N] [--threads N] [--budget N]
//!                  [--protocols a,b] [--out DIR] [--json]
//! protogen fuzz    --replay FILE [--budget N]
//! protogen litmus  [protocol|all] [--tests SB,MP] [--threads N] [--seed N]
//!                  [--depth N] [--markdown]
//! protogen stats
//! protogen compile <file.pgen> [the flags of verify, minus --compose]
//! ```
//!
//! `--threads` sets the worker count (default: all available cores);
//! verification and sweep results are identical for every thread count.
//! `--caches` takes a count in 1..=8 (the directory's sharer list is an
//! 8-bit mask); anything else is a usage error, exit 2 — as is a flag the
//! CLI does not know, a flag that belongs to another subcommand, or an
//! operand the subcommand does not take, so a typo never runs at a default
//! with a verdict printed. When stdout is closed early (`protogen stats |
//! head -1`) the process ends quietly with exit 141.
//!
//! `--compose` points `verify`, `table`, or `dot` at a *hierarchical
//! composition* instead of a flat protocol: a comma-separated stack of
//! `label=protocol[:fanout]` levels, leaf-first (fanout defaults to 1).
//! `verify --compose` model-checks the whole tree — per-level SWMR,
//! leaf-level data-value, deadlock freedom — on the same explorer and
//! with the same resource flags as flat `verify`, under per-level
//! symmetry reduction; `table`/`dot --compose` render one
//! section (or cluster) per level with the derived glue. `compile` on a
//! `.pgen` file carrying a `compose { … }` block does the same after
//! resolving the referenced protocol names. A stack with more than 256
//! nodes at one level is a usage error on all of them.
//!
//! `verify` prints one verdict word: `PASSED`, `FAILED` (a violation,
//! followed by its trace) or `INCOMPLETE` (a limit such as `--max-states`
//! stopped the exploration first); the last two exit 1.
//!
//! `verify --mem-budget` caps the checker's accounted RAM (suffixes K/M/G,
//! binary): over budget, cold frontier bytes and frozen visited records
//! spill to scratch files and stream back — results are byte-identical at
//! any budget. `--store delta` delta-compresses frontier encodings;
//! `--store fp-only` keeps only 64-bit fingerprints (least RAM, no
//! counterexample trace, collision bound printed with the result).
//!
//! `verify --checkpoint-dir` snapshots the exploration at epoch
//! boundaries (every `--checkpoint-every` depths, default 8) into a
//! checksummed, versioned checkpoint; after a crash or `kill -9`,
//! `--resume` continues from the newest committed checkpoint and produces
//! byte-identical states, transitions, and violation traces — for flat
//! protocols and composed stacks alike.
//!
//! `serve --faults` injects a seeded, replayable fault schedule into the
//! live run: FIFO-preserving delivery delays, bounded worker stalls,
//! transient mailbox-capacity squeezes, and full cache crashes recovered
//! through ordinary replacement traffic. Every fault schedule must stay
//! inside the verified envelope; the JSON report carries structured
//! fault/recovery counters and a `stop_reason` (exit 3 on `deadline`,
//! 4 on an unfinished fault plan).
//!
//! `sim` workloads: uniform, zipfian, producer-consumer, migratory,
//! false-sharing, private — or `--trace file.trc` to replay a trace.
//! Latency distributions: `fixed:N`, `uniform:LO:HI`, `geometric:BASE:PCT`.
//!
//! `serve` runs the protocol as a live multi-threaded cache service (one
//! thread per cache plus `--dir-shards` directory shards) *inside the
//! model-checked envelope*: the checker first collects exhaustive
//! `(machine, state, event)` pair coverage at the same cache count, then
//! the service executes `--ops` operations and any live dispatch outside
//! that coverage — or any invariant violation — exits non-zero.
//!
//! `litmus` classifies each protocol's observable memory model by
//! exhaustively enumerating the classical litmus tests (SB, MP, LB, IRIW,
//! CoRR) through the generated FSMs and comparing against executable SC
//! and TSO reference models. The exit code is non-zero unless every
//! protocol is classified exactly as its specification promises.
//! `--depth` bounds the per-(protocol, test) state space; `--seed` only
//! perturbs exploration order (the enumeration is exhaustive, so outcomes
//! are seed-invariant).
//!
//! `<protocol>` is one of: msi, mesi, mosi, msi-upgrade, msi-unordered,
//! tso-cc, si-sd.

use protogen_backend::{
    render_composed_table, render_table, to_dot, to_dot_composed, to_murphi, TableOptions,
};
use protogen_core::{compose, generate, Composed, GenConfig, Generated};
use protogen_litmus::{run_suite, Limits};
use protogen_mc::{
    HierChecker, McConfig, ModelChecker, PropertySet, StoreMode, MAX_CACHES, MAX_GROUP,
};
use protogen_serve::{
    checked_envelope, pair_label, serve, FaultConfig, ServeConfig, ServeError, StopReason,
};
use protogen_sim::{
    parse_trace, run_sweep, simulate, Json, LatencyDist, NetModel, SimConfig, SweepConfig, Workload,
};
use protogen_spec::{Composition, LevelSpec, Ssp};
use std::process::ExitCode;

/// Exit status when stdout was closed before the output was delivered: what
/// a shell reports for a process killed by `SIGPIPE`.
const EXIT_STDOUT_CLOSED: i32 = 141;

/// Writes to stdout. `print!` panics when the write fails — under `protogen
/// stats | head -1`, a backtrace and exit 101. A closed pipe ends the
/// process quietly instead, and never with exit 0: a `verify` whose verdict
/// line was not delivered must not read as a pass.
fn write_stdout(text: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("cannot write to stdout: {e}");
        }
        std::process::exit(EXIT_STDOUT_CLOSED);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The subcommands.
const COMMANDS: [&str; 11] = [
    "table", "verify", "dot", "murphi", "sim", "serve", "sweep", "fuzz", "litmus", "stats",
    "compile",
];

/// Every flag the CLI knows: its name, whether it takes a value, and the
/// subcommands that read it — the usage block at the top of this file, as
/// data. `compile` ends in `verify`, so it takes `verify`'s flags.
const FLAGS: [(&str, bool, &[&str]); 39] = [
    ("stalling", false, &["table", "verify", "dot", "murphi", "sim", "serve", "compile"]),
    ("markdown", false, &["table", "litmus"]),
    ("json", false, &["sim", "serve", "sweep", "fuzz"]),
    ("list", false, &["sweep"]),
    ("resume", false, &["verify", "compile"]),
    ("compose", true, &["table", "verify", "dot"]),
    ("machine", true, &["table", "dot"]),
    ("caches", true, &["verify", "murphi", "sim", "serve", "sweep", "compile"]),
    ("threads", true, &["verify", "serve", "sweep", "fuzz", "litmus", "compile"]),
    ("seed", true, &["sim", "serve", "sweep", "fuzz", "litmus"]),
    ("property", true, &["verify", "serve", "compile"]),
    ("max-states", true, &["verify", "compile"]),
    ("mem-budget", true, &["verify", "compile"]),
    ("store", true, &["verify", "compile"]),
    ("spill-chunk", true, &["verify", "compile"]),
    ("checkpoint-dir", true, &["verify", "compile"]),
    ("checkpoint-every", true, &["verify", "compile"]),
    ("addrs", true, &["sim", "serve"]),
    ("workload", true, &["sim", "serve"]),
    ("store-pct", true, &["sim", "serve"]),
    ("accesses", true, &["sim", "sweep"]),
    ("trace", true, &["sim"]),
    ("network", true, &["sim"]),
    ("latency", true, &["sim"]),
    ("cap", true, &["sim"]),
    ("dir-shards", true, &["serve"]),
    ("ops", true, &["serve"]),
    ("duration", true, &["serve"]),
    ("mailbox-cap", true, &["serve"]),
    ("faults", true, &["serve"]),
    ("fault-seed", true, &["serve"]),
    ("crash-at-op", true, &["serve"]),
    ("protocols", true, &["sweep", "fuzz"]),
    ("out", true, &["sweep", "fuzz"]),
    ("mutants", true, &["fuzz"]),
    ("budget", true, &["fuzz"]),
    ("replay", true, &["fuzz"]),
    ("tests", true, &["litmus"]),
    ("depth", true, &["litmus"]),
];

struct Args {
    /// `(flag, value)`; a switch carries an empty value.
    flags: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Splits the command line into flags and operands. A `--flag` that is
    /// not in [`FLAGS`], or not in the row of the subcommand it is given
    /// to, is a usage error (exit 2, naming it): ignored, `--cachse 4`
    /// would verify at the default cache count, `--max-state 10` run
    /// unbudgeted and `verify --json` print a human-readable line, each
    /// with a verdict and exit 0.
    fn parse() -> Args {
        let mut flags: Vec<(&'static str, String)> = Vec::new();
        let mut positional = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let Some(f) = a.strip_prefix("--") else {
                positional.push(a);
                continue;
            };
            let Some(&(name, takes_value, _)) = FLAGS.iter().find(|(name, ..)| *name == f) else {
                eprintln!("unknown flag `--{f}`");
                std::process::exit(2);
            };
            flags.push((
                name,
                if takes_value { it.next().unwrap_or_default() } else { String::new() },
            ));
        }
        // An unknown subcommand is reported as such by `main`.
        if let Some(cmd) = positional.first().filter(|c| COMMANDS.contains(&c.as_str())) {
            for (name, _, commands) in FLAGS {
                if flags.iter().any(|(f, _)| *f == name) && !commands.contains(&cmd.as_str()) {
                    eprintln!("`{cmd}` takes no `--{name}` (a flag of: {})", commands.join(", "));
                    std::process::exit(2);
                }
            }
        }
        Args { flags, positional }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| *f == name).map(|(_, v)| v.as_str())
    }
}

fn protocol(name: &str) -> Option<Ssp> {
    protogen_protocols::by_name(name)
}

fn gen_config(args: &Args) -> GenConfig {
    if args.flag("stalling") {
        GenConfig::stalling()
    } else {
        GenConfig::non_stalling()
    }
}

fn generate_or_exit(ssp: &Ssp, args: &Args) -> Generated {
    match generate(ssp, &gen_config(args)) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("generation failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Parses a byte size with optional binary K/M/G suffix (`64M` = 64 MiB).
fn parse_bytes(v: &str) -> Option<usize> {
    let (digits, shift) = match v.as_bytes().last()? {
        b'K' | b'k' => (&v[..v.len() - 1], 10),
        b'M' | b'm' => (&v[..v.len() - 1], 20),
        b'G' | b'g' => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    digits.parse::<usize>().ok()?.checked_shl(shift)
}

/// Resolves the `--property` flag: a named contract (`sc`, `tso`, `weak`,
/// `none`) or a `+`-combination of individual properties; defaults to the
/// set the protocol's declared memory model promises.
fn property_set(ssp: &Ssp, args: &Args) -> PropertySet {
    match args.value("property") {
        None => PropertySet::promised(ssp.consistency),
        Some(v) => match v.parse() {
            Ok(set) => set,
            Err(e) => {
                eprintln!("bad --property: {e}");
                std::process::exit(2);
            }
        },
    }
}

/// Parses flag `--name` with `parse`; an unparsable value is a usage error
/// (exit 2, naming the flag and the value), never a silent fall-back to
/// the default — a verification at the wrong cache count must not print a
/// "PASSED"-shaped line.
fn parsed_flag<T>(args: &Args, name: &str, hint: &str, parse: fn(&str) -> Option<T>) -> Option<T> {
    args.value(name).map(|v| {
        parse(v).unwrap_or_else(|| {
            eprintln!("bad --{name} `{v}`{hint}");
            std::process::exit(2)
        })
    })
}

/// A numeric flag.
fn num_flag<T: std::str::FromStr>(args: &Args, name: &str) -> Option<T> {
    parsed_flag(args, name, "", |v| v.parse().ok())
}

/// `--store-pct` (`sim`, `serve`): a percentage, 50 when absent. 101 is a
/// typo, not "always store".
fn store_pct_flag(args: &Args) -> u8 {
    parsed_flag(args, "store-pct", " (a percentage, 0 to 100)", |v| {
        v.parse().ok().filter(|pct| *pct <= 100)
    })
    .unwrap_or(50)
}

/// A cache count: `1..=MAX_CACHES`. Zero caches verify nothing (a vacuous
/// "PASSED"), and the directory's sharer list is an 8-bit mask, so cache 8
/// would alias cache 0 — a wrong state space with a verdict printed.
fn parse_cache_count(v: &str) -> Option<usize> {
    v.parse().ok().filter(|n| (1..=MAX_CACHES).contains(n))
}

fn cache_count_hint() -> String {
    format!(" (a count in 1..={MAX_CACHES}: the sharer list is an 8-bit mask)")
}

/// A byte-size flag (`--mem-budget`, `--spill-chunk`).
fn bytes_flag(args: &Args, name: &str) -> Option<usize> {
    parsed_flag(args, name, " (bytes, with optional K/M/G suffix)", parse_bytes)
}

/// What `verify` is pointed at: a flat protocol at a cache count, or a
/// composed stack.
enum Target<'a> {
    Flat(&'a Generated, &'a Ssp, usize),
    Composed(&'a Composed, &'a Composition),
}

/// `verify` for flat protocols and composed stacks alike: one set of
/// resource/property flags, one explorer, one result printer.
fn verify(target: Target, args: &Args, threads: usize) -> bool {
    // The property contract defaults to what the (leaf) protocol declares
    // — inner levels are where cores live; `--property` overrides it
    // (e.g. `--property sc` to demonstrate that TSO-CC really does trade
    // SWMR away).
    let (name, leaf) = match target {
        Target::Flat(_, ssp, _) => (&ssp.name, ssp),
        Target::Composed(_, comp) => (&comp.name, &comp.levels[0].ssp),
    };
    let mut cfg = McConfig { threads, properties: property_set(leaf, args), ..McConfig::default() };
    // `--max-states` raises (or lowers) the exploration budget — deep
    // cache counts can exceed the 20M-state default. A zero budget would
    // stop before the initial state and print a "PASSED"-shaped line for
    // an exploration that proved nothing, so reject it outright.
    match num_flag(args, "max-states") {
        Some(0) => {
            eprintln!(
                "bad --max-states `0`: the budget must admit at least the initial state \
                 (an empty exploration verifies nothing)"
            );
            std::process::exit(2);
        }
        Some(n) => cfg.max_states = n,
        None => {}
    }
    cfg.mem_budget_bytes = bytes_flag(args, "mem-budget").unwrap_or(cfg.mem_budget_bytes);
    cfg.spill_chunk_bytes = bytes_flag(args, "spill-chunk").unwrap_or(cfg.spill_chunk_bytes);
    if let Some(v) = args.value("store") {
        cfg.store = v.parse().unwrap_or_else(|e| {
            eprintln!("bad --store: {e}");
            std::process::exit(2)
        });
    }
    cfg.checkpoint_dir = args.value("checkpoint-dir").map(std::path::PathBuf::from);
    match num_flag(args, "checkpoint-every") {
        Some(0) => {
            eprintln!("bad --checkpoint-every `0` (whole epochs, at least 1)");
            std::process::exit(2);
        }
        Some(n) => cfg.checkpoint_every = n,
        None => {}
    }
    let resume = args.flag("resume");
    if resume && cfg.checkpoint_dir.is_none() {
        eprintln!("--resume requires --checkpoint-dir (where the checkpoints live)");
        std::process::exit(2);
    }
    let fp_only = cfg.store == StoreMode::FpOnly;
    let (r, shape) = match target {
        Target::Flat(g, ssp, n) => {
            cfg.n_caches = n;
            cfg.ordered = ssp.network_ordered;
            let mc = ModelChecker::new(&g.cache, &g.directory, cfg);
            (if resume { mc.resume() } else { Ok(mc.run()) }, String::new())
        }
        Target::Composed(composed, _) => {
            let hc = HierChecker::new(composed, cfg);
            // A group of 1 is what symmetry off reads too: say when it is
            // the cap that turned the reduction off.
            let order = hc.group_order();
            let symmetry = if order > MAX_GROUP as f64 {
                let order = if order < 1e15 { format!("{order}") } else { format!("{order:.2e}") };
                format!("no symmetry reduction: group order {order} > {MAX_GROUP}")
            } else {
                format!("symmetry group {}", hc.group_size())
            };
            let shape = format!(
                "; {} levels, {} nodes, {symmetry}",
                composed.depth(),
                hc.counts().iter().sum::<usize>() - 1,
            );
            (if resume { hc.resume() } else { Ok(hc.check()) }, shape)
        }
    };
    // Corruption and mismatches are hard errors, never a silent fresh
    // start: a "PASSED" that quietly re-ran from scratch would
    // misrepresent what was verified.
    let r = r.unwrap_or_else(|e| {
        eprintln!("cannot resume: {e}");
        std::process::exit(2)
    });
    outln!(
        "{name}: {} — {} states, {} transitions, {:.2}s ({:.0} states/s) on {} thread{}{shape}",
        // A limit that fired before any violation proved nothing either
        // way: not a pass (exit 1), but not a counterexample.
        match (&r.violation, &r.limit) {
            (Some(_), _) => "FAILED",
            (None, Some(_)) => "INCOMPLETE",
            (None, None) => "PASSED",
        },
        r.states,
        r.transitions,
        r.seconds,
        r.states as f64 / r.seconds.max(1e-9),
        r.threads,
        if r.threads == 1 { "" } else { "s" }
    );
    if r.spill_bytes > 0 {
        outln!(
            "spilled {} bytes in {} chunks under the memory budget (peak accounted RAM {} \
             bytes){}",
            r.spill_bytes,
            r.spill_chunks,
            r.peak_mem_bytes,
            // "spilled + completed" is not an early stop: unless a limit
            // fired below, the whole space was still explored.
            if r.limit.is_none() { " — exploration completed" } else { "" }
        );
    }
    if fp_only {
        outln!(
            "fingerprint-only store: no counterexample traces; expected state pairs merged by \
             a 64-bit collision ≈ {:.3e}",
            r.expected_collision_pairs()
        );
    }
    if let Some(v) = &r.violation {
        outln!("violation: {}", v.kind);
        for line in &v.trace {
            outln!("  {line}");
        }
    }
    if let Some(l) = &r.limit {
        outln!("stopped early: {l} — partial stats only (raise --max-states to go further)");
    }
    r.passed()
}

/// Exit code 0 for a passed verification, 1 for a failed or incomplete one.
fn exit_code(passed: bool) -> ExitCode {
    ExitCode::from(u8::from(!passed))
}

/// Builds a [`Composition`] from `label=protocol[:fanout]` level specs,
/// leaf-first. Fanout defaults to 1.
fn build_composition(
    name: &str,
    levels: impl Iterator<Item = Result<(String, String, usize), String>>,
) -> Result<Composition, String> {
    let mut out = Vec::new();
    for level in levels {
        let (label, proto, fanout) = level?;
        let ssp = protocol(&proto).ok_or(format!(
            "unknown protocol `{proto}` in composition (try msi, mesi, mosi, msi-upgrade, \
             msi-unordered, tso-cc, si-sd)"
        ))?;
        out.push(LevelSpec { label, ssp, fanout });
    }
    if out.is_empty() {
        return Err("composition has no levels".into());
    }
    Ok(Composition { name: name.to_string(), levels: out })
}

/// Parses the `--compose l1=msi:2,llc=mesi` level list.
fn parse_compose_flag(spec: &str) -> Result<Composition, String> {
    build_composition(
        spec,
        spec.split(',').map(|part| {
            let (label, rest) = part
                .split_once('=')
                .ok_or(format!("bad level `{part}` (want label=protocol[:fanout])"))?;
            let (proto, fanout) = match rest.split_once(':') {
                Some((p, f)) => {
                    (p, f.parse().map_err(|_| format!("bad fanout `{f}` in `{part}`"))?)
                }
                None => (rest, 1),
            };
            Ok((label.to_string(), proto.to_string(), fanout))
        }),
    )
}

/// Generates a composition or exits with a usage error, mirroring
/// [`generate_or_exit`] for the composed pipeline.
fn compose_or_exit(comp: &Composition, args: &Args) -> Composed {
    let composed = compose(comp, &gen_config(args)).map_err(|e| e.to_string());
    match composed.and_then(|c| HierChecker::check_size(&c).map(|()| c)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("composition failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Dispatches `verify`/`table`/`dot` over a resolved composition.
fn compose_cmd(cmd: &str, comp: &Composition, args: &Args, threads: usize) -> ExitCode {
    let composed = compose_or_exit(comp, args);
    match cmd {
        "verify" => exit_code(verify(Target::Composed(&composed, comp), args, threads)),
        "table" => {
            let opts = TableOptions { markdown: args.flag("markdown"), ..TableOptions::default() };
            out!("{}", render_composed_table(&composed, &opts));
            ExitCode::SUCCESS
        }
        // `FLAGS` admits `--compose` on verify, table and dot only.
        _ => {
            out!("{}", to_dot_composed(&composed));
            ExitCode::SUCCESS
        }
    }
}

/// Builds a [`SimConfig`] from CLI flags, warning (and clamping to FIFO
/// delivery) when an ordered-network protocol is pointed at an unordered
/// interconnect.
fn sim_config(ssp: &Ssp, args: &Args) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::default();
    if let Some(v) = args.value("caches") {
        cfg.n_caches = parse_cache_count(v)
            .ok_or_else(|| format!("bad --caches `{v}`{}", cache_count_hint()))?;
    }
    if let Some(v) = args.value("addrs") {
        cfg.n_addrs = v.parse().map_err(|_| format!("bad --addrs `{v}`"))?;
    }
    if let Some(v) = args.value("accesses") {
        cfg.accesses_per_core = v.parse().map_err(|_| format!("bad --accesses `{v}`"))?;
    }
    if let Some(v) = args.value("seed") {
        cfg.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
    }
    let store_pct = store_pct_flag(args);
    cfg.workload = if let Some(path) = args.value("trace") {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Workload::Trace(parse_trace(&src).map_err(|e| e.to_string())?)
    } else {
        Workload::parse(args.value("workload").unwrap_or("uniform"), store_pct)?
    };
    match args.value("network") {
        None | Some("ordered") => {}
        Some("unordered") => {
            // An unordered request implies jittered hops (the sweep's
            // unordered point) unless --latency overrides below.
            cfg.network.latency = LatencyDist::Uniform { lo: 4, hi: 16 };
            if ssp.network_ordered {
                eprintln!(
                    "note: {} is generated for ordered networks; applying latency jitter \
                     with per-block FIFO delivery instead of reordering",
                    ssp.name
                );
            } else {
                cfg.network.model = NetModel::Unordered;
            }
        }
        Some(other) => return Err(format!("bad --network `{other}` (ordered or unordered)")),
    }
    if let Some(v) = args.value("latency") {
        cfg.network.latency = LatencyDist::parse(v)?;
    }
    if let Some(v) = args.value("cap") {
        cfg.network.capacity = v.parse().map_err(|_| format!("bad --cap `{v}`"))?;
    }
    Ok(cfg)
}

fn sim(ssp: &Ssp, g: &Generated, args: &Args) -> ExitCode {
    let cfg = match sim_config(ssp, args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match simulate(&g.cache, &g.directory, &cfg) {
        Ok(r) => {
            if args.flag("json") {
                let doc = Json::obj([
                    ("protocol", Json::Str(ssp.name.clone())),
                    (
                        "config",
                        Json::Str(
                            if args.flag("stalling") { "stalling" } else { "non-stalling" }.into(),
                        ),
                    ),
                    ("workload", Json::Str(cfg.workload.label())),
                    ("caches", Json::U64(cfg.n_caches as u64)),
                    ("seed", Json::U64(cfg.seed)),
                    ("stats", r.to_json()),
                ]);
                out!("{}", doc.render());
            } else {
                outln!(
                    "{}: {} accesses ({} hits, {} misses) in {} cycles under {}",
                    ssp.name,
                    r.completed,
                    r.hits,
                    r.misses,
                    r.cycles,
                    cfg.workload
                );
                outln!(
                    "  miss latency p50/p95/p99/max: {}/{}/{}/{} (avg {:.1})",
                    r.p50_latency,
                    r.p95_latency,
                    r.p99_latency,
                    r.max_latency,
                    r.avg_miss_latency
                );
                outln!(
                    "  {} messages ({:.1}/miss), {} stall-cycles, {} backpressure-cycles, \
                     dir occupancy {:.1}%",
                    r.messages,
                    r.msgs_per_miss,
                    r.stall_cycles,
                    r.backpressure_cycles,
                    r.dir_occupancy * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `protogen serve`: model-check the coverage envelope, run the live
/// multi-threaded service, and fail on any escape or invariant violation.
fn serve_cmd(ssp: &Ssp, g: &Generated, args: &Args, caches: usize, threads: usize) -> ExitCode {
    let usage_err = |m: String| -> ExitCode {
        eprintln!("{m}");
        ExitCode::from(2)
    };
    let mut cfg = ServeConfig::new(caches);
    cfg.dir_shards = num_flag(args, "dir-shards").unwrap_or(cfg.dir_shards);
    cfg.n_addrs = num_flag(args, "addrs").unwrap_or(cfg.n_addrs);
    cfg.total_ops = num_flag(args, "ops").unwrap_or(cfg.total_ops);
    cfg.seed = num_flag(args, "seed").unwrap_or(cfg.seed);
    cfg.mailbox_cap = num_flag(args, "mailbox-cap").unwrap_or(cfg.mailbox_cap);
    cfg.max_seconds = num_flag(args, "duration").unwrap_or(cfg.max_seconds);
    let store_pct = store_pct_flag(args);
    cfg.workload = match Workload::parse(args.value("workload").unwrap_or("uniform"), store_pct) {
        Ok(w) => w,
        Err(e) => return usage_err(e),
    };
    if let Some(list) = args.value("faults") {
        // The fault seed defaults to the workload seed: one seed replays
        // the whole run, faults included.
        let seed = num_flag(args, "fault-seed").unwrap_or(cfg.seed);
        let mut fc = FaultConfig::none(seed);
        for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match item {
                "all" => fc = FaultConfig::all(seed),
                "delay" | "delays" => fc.delays = true,
                "stall" | "stalls" => fc.stalls = true,
                "squeeze" | "squeezes" => fc.squeezes = true,
                "crash" | "crashes" => fc.crashes = fc.crashes.max(1),
                other => {
                    return usage_err(format!(
                        "bad --faults item `{other}` (delay, stall, squeeze, crash, or all)"
                    ))
                }
            }
        }
        if let Some(n) = num_flag(args, "crash-at-op") {
            fc.crash_at_op = Some(n);
            fc.crashes = fc.crashes.max(1);
        }
        cfg.faults = Some(fc);
    } else if args.value("crash-at-op").is_some() {
        return usage_err("--crash-at-op requires --faults (e.g. --faults crash)".into());
    }

    // The envelope: exhaustive pair coverage at the same cache count. Runs
    // first so a protocol the checker rejects never goes live. Progress
    // goes to stderr — `--json` keeps stdout machine-readable.
    let mut mc_cfg = McConfig::with_caches(caches);
    mc_cfg.ordered = ssp.network_ordered;
    mc_cfg.threads = threads;
    // The envelope enforces exactly the contract `verify` enforces: the
    // property set the protocol's memory model promises (or --property).
    mc_cfg.properties = property_set(ssp, args);
    eprintln!("model-checking the {caches}-cache envelope for {}…", ssp.name);
    let envelope = match checked_envelope(&g.cache, &g.directory, mc_cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("envelope: {} model-checked (machine, state, event) pairs", envelope.len());

    let report = match serve(&g.cache, &g.directory, &cfg) {
        Ok(r) => r,
        Err(ServeError::Config(m)) => return usage_err(format!("bad configuration: {m}")),
        Err(e) => {
            eprintln!("service run FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let escapes = report.escapes(&envelope);

    if args.flag("json") {
        let doc = Json::obj([
            ("protocol", Json::Str(ssp.name.clone())),
            (
                "config",
                Json::Str(if args.flag("stalling") { "stalling" } else { "non-stalling" }.into()),
            ),
            ("workload", Json::Str(cfg.workload.label())),
            ("seed", Json::U64(cfg.seed)),
            ("envelope_pairs", Json::U64(envelope.len() as u64)),
            ("report", report.to_json(&g.cache, &g.directory, &escapes)),
        ]);
        out!("{}", doc.render());
    } else {
        outln!(
            "{}: {} ops ({} hits, {} misses) in {:.3}s — {:.0} ops/s over {} cache \
             worker(s) + {} dir shard(s)",
            ssp.name,
            report.ops,
            report.hits,
            report.misses,
            report.seconds,
            report.ops_per_sec(),
            report.n_caches,
            report.dir_shards
        );
        if !report.miss_latency.is_empty() {
            outln!(
                "  miss latency p50/p95/p99/max: {}/{}/{}/{} ns",
                report.miss_latency.percentile(50.0),
                report.miss_latency.percentile(95.0),
                report.miss_latency.percentile(99.0),
                report.miss_latency.max()
            );
        }
        outln!("  {} messages, peak queue depths {:?}", report.messages, report.peak_queue_depths);
        outln!(
            "  live coverage: {} pairs, all inside the {}-pair checked envelope: {}",
            report.coverage.len(),
            envelope.len(),
            if escapes.is_empty() { "yes" } else { "NO" }
        );
        outln!("  stop reason: {}", report.stop_reason.label());
        if let Some(fs) = &report.faults {
            outln!(
                "  faults: {}/{} crash recoveries, {} recovery writeback(s), {} delay(s), \
                 {} stall(s), {} squeeze park(s){}",
                fs.crashes_completed,
                fs.planned_crashes,
                fs.recovery_writebacks,
                fs.delays_injected,
                fs.stalls_injected,
                fs.squeeze_parks,
                if fs.lines_lost > 0 {
                    format!(", {} LINE(S) LOST", fs.lines_lost)
                } else {
                    String::new()
                }
            );
        }
    }
    if !escapes.is_empty() {
        eprintln!(
            "COVERAGE ESCAPE: {} live pair(s) the model checker never visited:",
            escapes.len()
        );
        for p in &escapes {
            eprintln!("  {}", pair_label(&g.cache, &g.directory, p));
        }
        return ExitCode::FAILURE;
    }
    match report.stop_reason {
        StopReason::Quiesced => ExitCode::SUCCESS,
        StopReason::Deadline => {
            eprintln!("run stopped at the wall-clock deadline — partial measurements only");
            ExitCode::from(3)
        }
        StopReason::Fault => {
            eprintln!("fault plan did not complete (crash point never reached) — inconclusive");
            ExitCode::from(4)
        }
    }
}

fn sweep(args: &Args, threads: usize) -> ExitCode {
    let mut cfg = SweepConfig { threads, ..SweepConfig::default() };
    if let Some(list) = args.value("protocols") {
        cfg.protocols = list.split(',').map(str::to_string).collect();
    }
    if let Some(list) = args.value("caches") {
        match list.split(',').map(parse_cache_count).collect::<Option<Vec<usize>>>() {
            Some(counts) => cfg.cache_counts = counts,
            None => {
                eprintln!(
                    "bad --caches `{list}` (comma-separated counts, each in 1..={MAX_CACHES})"
                );
                return ExitCode::from(2);
            }
        }
    }
    cfg.accesses_per_core = num_flag(args, "accesses").unwrap_or(cfg.accesses_per_core);
    cfg.seed = num_flag(args, "seed").unwrap_or(cfg.seed);
    if args.flag("list") {
        out!("{}", cfg.listing());
        return ExitCode::SUCCESS;
    }
    let report = match run_sweep(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = args.value("out") {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        // One diffable JSON per config cell, plus the merged report.
        for cell in &report.cells {
            let path = dir.join(format!("{}.json", cell.cell.label()));
            if let Err(e) = std::fs::write(&path, cell.to_json().render()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        let path = dir.join("sweep.json");
        if let Err(e) = std::fs::write(&path, report.to_json().render()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        outln!("wrote {} cell files + sweep.json to {}", report.cells.len(), dir.display());
    }
    if args.flag("json") {
        out!("{}", report.to_json().render());
    } else if args.value("out").is_none() {
        outln!(
            "{:<44} {:>9} {:>6} {:>6} {:>6} {:>8}",
            "cell",
            "cycles",
            "p50",
            "p95",
            "stalls",
            "msgs"
        );
        for c in &report.cells {
            outln!(
                "{:<44} {:>9} {:>6} {:>6} {:>6} {:>8}",
                c.cell.label(),
                c.stats.cycles,
                c.stats.p50_latency,
                c.stats.p95_latency,
                c.stats.stall_cycles,
                c.stats.messages
            );
        }
    }
    ExitCode::SUCCESS
}

/// `protogen fuzz`: a seeded mutation campaign (or a single `--replay`).
///
/// Exit code 0 only when every negative control was caught *and* no
/// unexpected outcome (generator/checker panic, exec violation) appeared.
fn fuzz(args: &Args, threads: usize) -> ExitCode {
    use protogen_fuzz::{run_fuzz, run_mutant, FuzzConfig, Script};
    let mut cfg = FuzzConfig { threads, ..FuzzConfig::default() };
    cfg.seed = num_flag(args, "seed").unwrap_or(cfg.seed);
    cfg.mutants = num_flag(args, "mutants").unwrap_or(cfg.mutants);
    cfg.budget = num_flag(args, "budget").unwrap_or(cfg.budget);
    if let Some(list) = args.value("protocols") {
        cfg.protocols = list.split(',').map(str::to_string).collect();
    }

    // Single-reproducer replay: run one script back through the pipeline.
    if let Some(path) = args.value("replay") {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let script = match Script::parse(&src) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        let Some(base) = protogen_protocols::by_name(&script.protocol) else {
            eprintln!("unknown protocol `{}`", script.protocol);
            return ExitCode::from(2);
        };
        let r = run_mutant(&base, &script.mutations, &script.gen_config(), cfg.budget, false);
        outln!("{}: {}", r.outcome.label(), r.outcome.detail());
        for line in &r.trace {
            outln!("  {line}");
        }
        // A script whose site no longer applies did not reconstruct the
        // mutant — that is a usage error, not "the bug is fixed".
        return match r.outcome {
            protogen_fuzz::Outcome::MutationInapplicable(_) => ExitCode::from(2),
            o if o.is_unexpected() => ExitCode::FAILURE,
            _ => ExitCode::SUCCESS,
        };
    }

    // Mutant pipelines panic by design; compress each panic to one line
    // so caught-and-classified mutants don't spray backtraces, while a
    // panic that *escapes* the harness still leaves a trail to debug.
    std::panic::set_hook(Box::new(|info| eprintln!("fuzz worker panic: {info}")));
    let report = match run_fuzz(&cfg) {
        Ok(r) => r,
        Err(e) => {
            let _ = std::panic::take_hook();
            eprintln!("fuzz failed: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::panic::take_hook();

    if let Some(dir) = args.value("out") {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("fuzz.json");
        if let Err(e) = std::fs::write(&path, report.to_json().render()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        for r in report.unexpected() {
            let s = r.shrunk.as_ref().expect("unexpected records carry a shrunk case");
            let path = dir.join(format!("repro-{}.mut", r.index));
            if let Err(e) = std::fs::write(&path, &s.script) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        outln!(
            "wrote fuzz.json + {} reproducer script(s) to {}",
            report.unexpected().len(),
            dir.display()
        );
    }
    if args.flag("json") {
        out!("{}", report.to_json().render());
    } else {
        outln!("fuzz: seed {}, {} mutants, budget {}", report.seed, cfg.mutants, report.budget);
        for (label, count) in report.distribution() {
            if count > 0 {
                outln!("  {label:<22} {count:>6}");
            }
            if label == "rejected-by-checker" {
                // The property-aware breakdown of what the checker caught.
                for (family, n) in report.checker_families() {
                    outln!("    {family:<20} {n:>6}");
                }
            }
        }
        for c in &report.controls {
            outln!(
                "control {:<38} {} ({})",
                c.name,
                if c.caught { "CAUGHT" } else { "MISSED" },
                c.detail
            );
        }
        for r in report.unexpected() {
            let s = r.shrunk.as_ref().expect("unexpected records carry a shrunk case");
            outln!("unexpected mutant {}: {} — {}", r.index, r.outcome, r.detail);
            for line in s.script.lines() {
                outln!("  {line}");
            }
        }
    }
    if report.all_controls_caught() && report.unexpected().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `protogen litmus`: classify protocols against the litmus suite and
/// fail unless every one matches its promised memory model.
fn litmus_cmd(args: &Args, threads: usize) -> ExitCode {
    let which = args.positional.get(1).map(String::as_str).unwrap_or("all");
    let ssps: Vec<Ssp> = if which == "all" {
        protogen_protocols::all()
    } else {
        match protocol(which) {
            Some(ssp) => vec![ssp],
            None => {
                eprintln!(
                    "unknown protocol `{which}` (try all, msi, mesi, mosi, msi-upgrade, \
                     msi-unordered, tso-cc, si-sd)"
                );
                return ExitCode::from(2);
            }
        }
    };
    let all_tests = protogen_litmus::bundled();
    let tests: Vec<_> = match args.value("tests") {
        None => all_tests,
        Some(list) => {
            let mut picked = Vec::new();
            for name in list.split(',') {
                match all_tests.iter().find(|t| t.name.eq_ignore_ascii_case(name.trim())) {
                    Some(t) => picked.push(t.clone()),
                    None => {
                        let known: Vec<&str> = all_tests.iter().map(|t| t.name.as_str()).collect();
                        eprintln!("unknown litmus test `{name}` (known: {})", known.join(", "));
                        return ExitCode::from(2);
                    }
                }
            }
            picked
        }
    };
    let mut limits = Limits::default();
    limits.max_states = num_flag(args, "depth").unwrap_or(limits.max_states);
    limits.seed = num_flag(args, "seed").unwrap_or(limits.seed);
    let workers = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    match run_suite(&ssps, &tests, &limits, workers) {
        Err(e) => {
            eprintln!("litmus: {e}");
            ExitCode::FAILURE
        }
        Ok(report) => {
            if args.flag("markdown") {
                out!("{}", report.render_markdown());
            } else {
                out!("{}", report.render_text());
            }
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                eprintln!("litmus: observed memory model differs from the specification's promise");
                ExitCode::FAILURE
            }
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let Some(cmd) = args.positional.first().map(String::as_str) else {
        eprintln!("usage: protogen <{}> …", COMMANDS.join("|"));
        return ExitCode::from(2);
    };
    // Operands after the subcommand: one protocol (or file), except where
    // the subcommand takes none. A surplus one is most often the value of
    // a misspelt flag, so it is refused rather than ignored.
    let operands = match cmd {
        "stats" | "sweep" | "fuzz" => 0,
        "table" | "verify" | "dot" if args.value("compose").is_some() => 0,
        _ => 1,
    };
    if let Some(extra) = args.positional.get(1 + operands) {
        eprintln!("unexpected argument `{extra}`: `{cmd}` takes {operands} operand(s) here");
        return ExitCode::from(2);
    }
    // Parsed on use: `sweep --caches 2,4` takes a list, everything else a
    // count.
    let caches =
        || parsed_flag(&args, "caches", &cache_count_hint(), parse_cache_count).unwrap_or(2);
    // 0 = "auto": the checker resolves it to available_parallelism.
    let threads: usize = num_flag(&args, "threads").unwrap_or(0);

    match cmd {
        "stats" => {
            outln!(
                "{:<14} {:<13} {:>12} {:>12} {:>10} {:>10}",
                "protocol",
                "config",
                "cache-states",
                "dir-states",
                "cache-arcs",
                "dir-arcs"
            );
            for ssp in protogen_protocols::all() {
                for (label, cfg) in [
                    ("stalling", GenConfig::stalling()),
                    ("non-stalling", GenConfig::non_stalling()),
                ] {
                    match generate(&ssp, &cfg) {
                        Ok(g) => outln!(
                            "{:<14} {:<13} {:>12} {:>12} {:>10} {:>10}",
                            ssp.name,
                            label,
                            g.cache.state_count(),
                            g.directory.state_count(),
                            g.cache.transition_count(),
                            g.directory.transition_count()
                        ),
                        Err(e) => outln!("{:<14} {label}: error {e}", ssp.name),
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "sweep" => sweep(&args, threads),
        "fuzz" => fuzz(&args, threads),
        "litmus" => litmus_cmd(&args, threads),
        "table" | "verify" | "dot" | "murphi" | "sim" | "serve" => {
            if let Some(spec) = args.value("compose") {
                let comp = match parse_compose_flag(spec) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("bad --compose: {e}");
                        return ExitCode::from(2);
                    }
                };
                return compose_cmd(cmd, &comp, &args, threads);
            }
            let Some(name) = args.positional.get(1) else {
                eprintln!("usage: protogen {cmd} <protocol> [flags]");
                return ExitCode::from(2);
            };
            let Some(ssp) = protocol(name) else {
                eprintln!(
                    "unknown protocol `{name}` (try msi, mesi, mosi, msi-upgrade, \
                     msi-unordered, tso-cc, si-sd)"
                );
                return ExitCode::from(2);
            };
            let g = generate_or_exit(&ssp, &args);
            match cmd {
                "table" => {
                    let machine =
                        if args.value("machine") == Some("dir") { &g.directory } else { &g.cache };
                    let opts =
                        TableOptions { markdown: args.flag("markdown"), ..TableOptions::default() };
                    outln!("{}", g.report);
                    outln!("{}", render_table(machine, &opts));
                    ExitCode::SUCCESS
                }
                "dot" => {
                    let machine =
                        if args.value("machine") == Some("dir") { &g.directory } else { &g.cache };
                    outln!("{}", to_dot(machine));
                    ExitCode::SUCCESS
                }
                "murphi" => {
                    outln!("{}", to_murphi(&g.cache, &g.directory, caches()));
                    ExitCode::SUCCESS
                }
                "verify" => exit_code(verify(Target::Flat(&g, &ssp, caches()), &args, threads)),
                "serve" => serve_cmd(&ssp, &g, &args, caches(), threads),
                _ => sim(&ssp, &g, &args),
            }
        }
        "compile" => {
            let Some(path) = args.positional.get(1) else {
                eprintln!("usage: protogen compile <file.pgen> [flags]");
                return ExitCode::from(2);
            };
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let ast = match protogen_dsl::parse(&src) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            // A `compose { … }` block makes this a composition source:
            // resolve the referenced protocols and run the composed
            // pipeline (table + verify) instead of the flat one.
            if !ast.compose.is_empty() {
                let comp = match build_composition(
                    &ast.name,
                    ast.compose.iter().map(|l| {
                        Ok((l.label.clone(), l.protocol.clone(), l.fanout.unwrap_or(1) as usize))
                    }),
                ) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("bad compose block in {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let composed = compose_or_exit(&comp, &args);
                out!("{}", render_composed_table(&composed, &TableOptions::default()));
                return exit_code(verify(Target::Composed(&composed, &comp), &args, threads));
            }
            let ssp = match protogen_dsl::lower(&ast) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let g = generate_or_exit(&ssp, &args);
            outln!("{}", g.report);
            outln!("{}", render_table(&g.cache, &TableOptions::default()));
            exit_code(verify(Target::Flat(&g, &ssp, caches()), &args, threads))
        }
        other => {
            eprintln!("unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}
