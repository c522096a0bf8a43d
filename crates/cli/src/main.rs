//! `protogen` — the command-line front door to the toolchain.
//!
//! The command line is described once: [`COMMANDS`] (subcommand, operand,
//! entry point), [`FLAGS`] (flag, the *kind* of value it takes, the
//! subcommands that read it, the flags it needs) and [`REPLACES`].
//! [`Args::parse`] checks every token against the tables before anything
//! runs; each subcommand's usage line is generated from them (README.md
//! lists all eleven, held equal by a test).
//!
//! Exit codes: 0 pass · 1 ran, and the answer is no (`FAILED`,
//! `INCOMPLETE`, a coverage escape, a run error) · 2 the command line was
//! wrong and nothing ran · 3 `serve` hit its deadline · 4 `serve`'s fault
//! plan did not finish · 141 stdout was closed early (`protogen table msi
//! | head -1`). Exit 2 covers a flag the CLI does not know, a flag of
//! another subcommand, a repeated flag, a missing, unparsable or
//! out-of-range value, a flag the command would ignore and a surplus
//! operand, each named on stderr above the usage line — a typo never runs
//! at a default with a verdict printed.
//!
//! `--threads` sets the worker count (0 or absent: all available cores);
//! verification and sweep results are identical for every thread count.
//! `--caches` takes a count in 1..=8 (the directory's sharer list is an
//! 8-bit mask).
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
//! stopped the exploration first); the last two exit 1. The verdict line
//! ends with `; properties <set>`, the property set the run checked
//! (`sc`, `tso`, `weak`, `none` or a `+`-combination).
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
//! protocol is classified exactly as its specification promises. Each
//! (protocol, test) pair runs on the model checker's explorer: `--depth`
//! bounds its state space and `--threads` sets its workers (the search is
//! exhaustive, so the report is the same at every worker count).
//!
//! `<protocol>` is one of: msi, mesi, mosi, msi-upgrade, msi-unordered,
//! tso-cc, si-sd.

use protogen_backend::{
    render_composed_table, render_table, to_dot, to_dot_composed, to_murphi, TableOptions,
};
use protogen_core::{compose, generate, par, Composed, GenConfig, Generated};
use protogen_litmus::run_suite;
use protogen_mc::{
    CheckResult, HierChecker, McConfig, ModelChecker, PropertySet, ResourceLimit, StoreMode,
    MAX_CACHES, MAX_GROUP, SHARD_CAPACITY,
};
use protogen_serve::{
    checked_envelope, pair_label, serve, FaultConfig, ServeConfig, ServeError, StopReason,
};
use protogen_sim::{
    parse_trace, run_sweep, simulate, Json, LatencyDist, NetModel, NetworkConfig, SimConfig,
    SimError, SweepConfig, Workload,
};
use protogen_spec::{Composition, Fsm, LevelSpec, Ssp};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Exit status when stdout was closed before the output was delivered: what
/// a shell reports for a process killed by `SIGPIPE`.
const EXIT_STDOUT_CLOSED: i32 = 141;

/// Writes to stdout. `print!` panics when the write fails — under `protogen
/// table msi | head -1`, a backtrace and exit 101. A closed pipe ends the
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

mod reproduce;

/// A command line that was wrong. Nothing has run: `main` prints the
/// message above the subcommand's usage line and exits 2.
#[derive(Debug)]
struct Usage(String);

/// What every subcommand returns: its exit code, or why it could not start.
type Run = Result<ExitCode, Usage>;

/// A run that started and failed: says why, exit 1.
fn failed(why: impl Display) -> Run {
    eprintln!("{why}");
    Ok(ExitCode::FAILURE)
}

/// A subcommand: its name, its operand, its entry point.
struct Command {
    name: &'static str,
    /// `<x>`: required, unless `--compose` names the target instead;
    /// `[x]`: optional; empty: none.
    operand: &'static str,
    run: fn(&Args) -> Run,
}

/// The subcommands.
const COMMANDS: [Command; 11] = [
    Command { name: "table", operand: "<protocol>", run: table },
    Command { name: "verify", operand: "<protocol>", run: verify_cmd },
    Command { name: "dot", operand: "<protocol>", run: dot },
    Command { name: "murphi", operand: "<protocol>", run: murphi },
    Command { name: "sim", operand: "<protocol>", run: sim },
    Command { name: "serve", operand: "<protocol>", run: serve_cmd },
    Command { name: "sweep", operand: "", run: sweep },
    Command { name: "fuzz", operand: "", run: fuzz },
    Command { name: "litmus", operand: "[protocol|all]", run: litmus_cmd },
    Command { name: "reproduce", operand: "", run: reproduce::reproduce },
    Command { name: "compile", operand: "<file.pgen>", run: compile },
];

/// The shape of a flag's value. [`Args::parse`] checks it once, whatever
/// the subcommand; the text kinds carry what the usage line shows for the
/// value. Rules about what a value *means* (`dir_shards + n_caches ≤ 64`,
/// a known workload name) stay with the library that owns the meaning.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// No value.
    Switch,
    /// Cache counts, each in `1..=MAX_CACHES` and given once: zero caches
    /// verify nothing (a vacuous "PASSED"), and the directory's sharer list
    /// is an 8-bit mask, so cache 8 would alias cache 0. `sweep` takes a
    /// comma list, every other subcommand exactly one.
    Counts,
    /// A whole number in `min..=max`.
    Num(u64, u64),
    /// A byte size with optional binary K/M/G suffix (`64M` = 64 MiB).
    Bytes,
    /// Seconds: positive and finite.
    Seconds,
    /// One of the listed words.
    OneOf(&'static [&'static str]),
    /// Non-empty text: a path, or a value whose grammar a library's parser
    /// owns.
    Text(&'static str),
    /// A comma list of non-empty items, none given twice.
    List(&'static str),
}

/// Fits `usize` and, for the seeds, `u64`.
const UNSIGNED: Kind = Kind::Num(0, usize::MAX as u64);
/// At least 1: zero operations, accesses or states is a run of nothing
/// with a pass-shaped report.
const POSITIVE: Kind = Kind::Num(1, usize::MAX as u64);
const PERCENT: Kind = Kind::Num(0, 100);
/// Checkpoint intervals, in depths: the field is a `u32`.
const DEPTHS: Kind = Kind::Num(1, u32::MAX as u64);

/// Whether no item occurs twice.
fn distinct<T: PartialEq>(items: &[T]) -> bool {
    items.iter().enumerate().all(|(i, item)| !items[..i].contains(item))
}

impl Kind {
    /// The value as [`Args`] keeps it — a byte size in bytes, anything else
    /// as given — or `None` when the kind does not admit `v`.
    fn check(self, v: &str) -> Option<String> {
        let admitted = match self {
            Kind::Switch => false,
            Kind::Counts => {
                let count = |n: &str| n.parse().ok().filter(|n| (1..=MAX_CACHES).contains(n));
                let counts: Option<Vec<usize>> = v.split(',').map(count).collect();
                counts.is_some_and(|counts| distinct(&counts))
            }
            Kind::Num(min, max) => v.parse().is_ok_and(|n: u64| (min..=max).contains(&n)),
            Kind::Bytes => {
                let (digits, shift) = match v.as_bytes().last()? {
                    b'K' | b'k' => (&v[..v.len() - 1], 10),
                    b'M' | b'm' => (&v[..v.len() - 1], 20),
                    b'G' | b'g' => (&v[..v.len() - 1], 30),
                    _ => (v, 0),
                };
                let bytes = digits.parse::<usize>().ok()?.checked_mul(1 << shift)?;
                return Some(bytes.to_string());
            }
            Kind::Seconds => v.parse().is_ok_and(|s: f64| s.is_finite() && s > 0.0),
            Kind::OneOf(words) => words.contains(&v),
            Kind::Text(_) => !v.is_empty(),
            Kind::List(_) => {
                let items: Vec<String> = v.split(',').map(|i| i.trim().to_lowercase()).collect();
                items.iter().all(|i| !i.is_empty()) && distinct(&items)
            }
        };
        admitted.then(|| v.to_string())
    }

    /// What the kind accepts, for the error that refuses a value.
    fn accepts(self) -> String {
        match self {
            Kind::Switch => "no value".into(),
            Kind::Counts => format!(
                "a count in 1..={MAX_CACHES}: the sharer list is an 8-bit mask; `sweep` takes a \
                 comma list of distinct counts"
            ),
            UNSIGNED => "a whole number".into(),
            POSITIVE => "a whole number, at least 1: a run of nothing verifies nothing".into(),
            Kind::Num(min, max) => format!("a whole number in {min}..={max}"),
            Kind::Bytes => "bytes, with optional K/M/G suffix".into(),
            Kind::Seconds => "seconds, positive and finite".into(),
            Kind::OneOf(words) => words.join(" or "),
            Kind::Text(what) => format!("{what}, not empty"),
            Kind::List(what) => format!("{what}: a comma list, no item empty or given twice"),
        }
    }

    /// How the usage line shows the value.
    fn placeholder(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Counts | Kind::Num(..) => " N".into(),
            Kind::Bytes => " BYTES".into(),
            Kind::Seconds => " SECS".into(),
            Kind::OneOf(words) => format!(" {}", words.join("|")),
            Kind::Text(what) | Kind::List(what) => format!(" {what}"),
        }
    }
}

/// Every flag the CLI knows: its name, the kind of value it takes, the
/// subcommands that read it, and the flags without which it has no effect.
/// The only place any of the four is written: a row is all a new flag needs
/// to be parsed, range-checked, refused when repeated, valueless, on the
/// wrong subcommand or without what it needs, and shown in the usage line.
/// `compile` ends in `verify`, so it takes `verify`'s flags.
const FLAGS: [(&str, Kind, &[&str], &[&str]); 39] = [
    (
        "stalling",
        Kind::Switch,
        &["table", "verify", "dot", "murphi", "sim", "serve", "compile"],
        &[],
    ),
    ("markdown", Kind::Switch, &["table", "litmus"], &[]),
    ("json", Kind::Switch, &["verify", "sim", "serve", "sweep", "fuzz", "compile"], &[]),
    ("list", Kind::Switch, &["sweep"], &[]),
    ("resume", Kind::Switch, &["verify", "compile"], &["checkpoint-dir"]),
    ("compose", Kind::Text("l1=msi:2,llc=mesi"), &["table", "verify", "dot"], &[]),
    ("machine", Kind::OneOf(&["cache", "dir"]), &["table", "dot"], &[]),
    ("caches", Kind::Counts, &["verify", "murphi", "sim", "serve", "sweep", "compile"], &[]),
    (
        "threads",
        UNSIGNED,
        &["verify", "serve", "sweep", "fuzz", "litmus", "reproduce", "compile"],
        &[],
    ),
    ("seed", UNSIGNED, &["sim", "serve", "sweep", "fuzz"], &[]),
    ("property", Kind::Text("sc|tso|weak|none|P+Q"), &["verify", "serve", "compile"], &[]),
    ("max-states", POSITIVE, &["verify", "compile"], &[]),
    ("mem-budget", Kind::Bytes, &["verify", "compile"], &[]),
    ("store", Kind::Text("full|delta|fp-only"), &["verify", "compile"], &[]),
    ("spill-chunk", Kind::Bytes, &["verify", "compile"], &["mem-budget"]),
    ("checkpoint-dir", Kind::Text("DIR"), &["verify", "compile"], &[]),
    ("checkpoint-every", DEPTHS, &["verify", "compile"], &["checkpoint-dir"]),
    ("addrs", UNSIGNED, &["sim", "serve"], &[]),
    ("workload", Kind::Text("W"), &["sim", "serve"], &[]),
    ("store-pct", PERCENT, &["sim", "serve"], &[]),
    ("accesses", POSITIVE, &["sim", "sweep"], &[]),
    ("trace", Kind::Text("FILE"), &["sim"], &[]),
    ("network", Kind::OneOf(&["ordered", "unordered"]), &["sim"], &[]),
    ("latency", Kind::Text("DIST"), &["sim"], &[]),
    ("cap", UNSIGNED, &["sim"], &[]),
    ("dir-shards", UNSIGNED, &["serve"], &[]),
    ("ops", POSITIVE, &["serve"], &[]),
    ("duration", Kind::Seconds, &["serve"], &[]),
    ("mailbox-cap", UNSIGNED, &["serve"], &[]),
    ("faults", Kind::List("delay,stall,squeeze,crash|all"), &["serve"], &[]),
    ("fault-seed", UNSIGNED, &["serve"], &["faults"]),
    ("crash-at-op", UNSIGNED, &["serve"], &["faults"]),
    ("protocols", Kind::List("a,b"), &["sweep", "fuzz"], &[]),
    ("out", Kind::Text("DIR"), &["sweep", "fuzz"], &[]),
    ("mutants", UNSIGNED, &["fuzz"], &[]),
    ("budget", POSITIVE, &["fuzz"], &[]),
    ("replay", Kind::Text("FILE"), &["fuzz"], &[]),
    ("tests", Kind::List("SB,MP"), &["litmus"], &[]),
    ("depth", POSITIVE, &["litmus"], &[]),
];

/// Each flag with the flags it replaces: given with it, those would be
/// ignored. A trace fixes the operations a run makes, a listing runs
/// nothing, a replay runs one script, and a composed stack's tables are per
/// level.
const REPLACES: [(&str, &[&str]); 4] = [
    ("compose", &["machine"]),
    ("trace", &["workload", "store-pct", "accesses"]),
    ("list", &["out", "json"]),
    ("replay", &["mutants", "seed", "protocols", "out", "json"]),
];

/// The usage line of `cmd`, generated from the two tables; of the program
/// when the subcommand is not known.
fn usage_line(cmd: Option<&Command>) -> String {
    let Some(cmd) = cmd else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        return format!("usage: protogen <{}> …", names.join("|"));
    };
    let mut line = format!("usage: protogen {}", cmd.name);
    if !cmd.operand.is_empty() {
        line += &format!(" {}", cmd.operand);
    }
    for (name, kind, ..) in FLAGS.iter().filter(|(_, _, cmds, _)| cmds.contains(&cmd.name)) {
        let value = match kind {
            Kind::Counts if cmd.name == "sweep" => " N,N".into(),
            _ => kind.placeholder(),
        };
        line += &format!(" [--{name}{value}]");
    }
    line
}

/// A checked command line: every value has passed the kind its flag's row
/// names, so the typed accessors cannot fail.
struct Args {
    cmd: &'static Command,
    operand: Option<String>,
    /// `(flag, value)`; a switch carries an empty value.
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Checks the command line against [`COMMANDS`], [`FLAGS`] and
    /// [`REPLACES`]. Refused, with the subcommand when it is known (for its
    /// usage line): a flag in neither table, or not in the row of this
    /// subcommand; a flag given twice; a value that is missing or not of
    /// the flag's kind; a flag without one it needs, or with one that
    /// replaces it; an operand the subcommand does not take, or a missing
    /// one. Ignored, `--cachse 4` would verify at the default cache count,
    /// `--caches 2 --caches 3` at 2, `--out` (value forgotten) write into
    /// the current directory, `--checkpoint-every 4` alone checkpoint
    /// nothing — each with a verdict and exit 0.
    fn parse(
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, (Option<&'static Command>, Usage)> {
        // Which tokens are values is a property of the flag, not of the
        // subcommand — which may come after them.
        let mut given = Vec::new();
        let mut operands = Vec::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(f) = arg.strip_prefix("--") else {
                operands.push(arg);
                continue;
            };
            let Some(row) = FLAGS.iter().find(|(name, ..)| *name == f) else {
                return Err((None, Usage(format!("unknown flag `--{f}`"))));
            };
            // A following `--flag` is the next flag, not this one's value.
            let takes_value = !matches!(row.1, Kind::Switch);
            given.push((row, argv.next_if(|v| takes_value && !v.starts_with("--"))));
        }
        let mut operands = operands.into_iter();
        let Some(name) = operands.next() else {
            return Err((None, Usage("no subcommand given".into())));
        };
        let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
            return Err((None, Usage(format!("unknown command `{name}`"))));
        };
        let bad = |why: String| Err((Some(cmd), Usage(why)));

        let mut flags: Vec<(&'static str, String)> = Vec::new();
        for (&(name, kind, cmds, _), raw) in given {
            if !cmds.contains(&cmd.name) {
                let of = cmds.join(", ");
                return bad(format!("`{}` takes no `--{name}` (a flag of: {of})", cmd.name));
            }
            if flags.iter().any(|(f, _)| *f == name) {
                return bad(format!("`--{name}` is given twice"));
            }
            let value = if matches!(kind, Kind::Switch) {
                String::new()
            } else {
                let Some(v) = raw else {
                    return bad(format!("`--{name}` needs a value ({})", kind.accepts()));
                };
                // Only `sweep` runs a grid of cache counts.
                let one = cmd.name != "sweep" && matches!(kind, Kind::Counts);
                let Some(value) = kind.check(&v).filter(|v| !(one && v.contains(','))) else {
                    return bad(format!("bad --{name} `{v}` ({})", kind.accepts()));
                };
                value
            };
            flags.push((name, value));
        }
        // A flag that would be ignored is refused, so that no run reads as
        // if it had taken it.
        let has = |flag: &str| flags.iter().any(|(f, _)| *f == flag);
        for &(name, .., needs) in FLAGS.iter().filter(|(name, ..)| has(name)) {
            if let Some(need) = needs.iter().find(|need| !has(need)) {
                return bad(format!("--{name} requires --{need}"));
            }
        }
        for (a, replaced) in REPLACES.iter().filter(|(a, _)| has(a)) {
            if let Some(b) = replaced.iter().find(|b| has(b)) {
                return bad(format!("--{a} replaces --{b}: `{}` would ignore --{b}", cmd.name));
            }
        }

        // A surplus operand is most often the value of a misspelt flag, so
        // it is refused rather than ignored.
        let operands: Vec<String> = operands.collect();
        let composed = flags.iter().any(|(f, _)| *f == "compose");
        let takes = usize::from(!cmd.operand.is_empty() && !composed);
        if let Some(extra) = operands.get(takes) {
            return bad(format!(
                "unexpected argument `{extra}`: `{}` takes {takes} operand(s) here",
                cmd.name
            ));
        }
        if operands.is_empty() && takes == 1 && cmd.operand.starts_with('<') {
            return bad(format!("`{}` needs {}", cmd.name, cmd.operand));
        }
        Ok(Args { cmd, operand: operands.into_iter().next(), flags })
    }

    /// The value of `--name`, if given.
    fn text(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| *f == name).map(|(_, v)| v.as_str())
    }

    fn flag(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// A numeric flag, in the type of the field it sets.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).map(|v| v.parse().ok().expect("FLAGS bounds a number to its field"))
    }

    /// Overwrites `field` — a configuration default — with `--name`, if given.
    fn set<T: std::str::FromStr>(&self, name: &str, field: &mut T) {
        if let Some(n) = self.num(name) {
            *field = n;
        }
    }

    /// The items of a list flag.
    fn list(&self, name: &str) -> Option<impl Iterator<Item = &str>> {
        self.text(name).map(|list| list.split(','))
    }

    /// A value whose grammar a library owns, through that library's parser.
    fn parsed<T, E: Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, Usage> {
        let parsed = self.text(name).map(parse).transpose();
        parsed.map_err(|e| Usage(format!("bad --{name}: {e}")))
    }

    /// `--caches`, as given.
    fn counts(&self) -> Option<Vec<usize>> {
        let count = |n: &str| n.parse().expect("checked as a count list");
        self.list("caches").map(|counts| counts.map(count).collect())
    }

    /// `--caches` where one count is taken: 2 when absent.
    fn caches(&self) -> usize {
        self.counts().map_or(2, |counts| counts[0])
    }

    /// `--threads`; 0 or absent is every available core.
    fn threads(&self) -> usize {
        par::threads(self.num("threads").unwrap_or(0), usize::MAX)
    }

    /// The operand of a subcommand that requires one.
    fn operand(&self) -> &str {
        self.operand.as_deref().expect("Args::parse refuses a missing operand")
    }
}

/// The bundled protocol called `name`.
fn protocol(name: &str) -> Result<Ssp, Usage> {
    protogen_protocols::by_name(name).ok_or_else(|| {
        Usage(format!("unknown protocol `{name}` (try {})", protogen_protocols::NAMES.join(", ")))
    })
}

fn read(path: &str) -> Result<String, Usage> {
    std::fs::read_to_string(path).map_err(|e| Usage(format!("cannot read {path}: {e}")))
}

fn gen_config(args: &Args) -> GenConfig {
    if args.flag("stalling") {
        GenConfig::stalling()
    } else {
        GenConfig::non_stalling()
    }
}

fn generated(ssp: &Ssp, args: &Args) -> Result<Generated, Usage> {
    generate(ssp, &gen_config(args)).map_err(|e| Usage(format!("generation failed: {e}")))
}

/// The flat protocol the operand names, generated.
fn flat(args: &Args) -> Result<(Ssp, Generated), Usage> {
    let ssp = protocol(args.operand())?;
    let g = generated(&ssp, args)?;
    Ok((ssp, g))
}

/// `--machine`: the directory controller, or (the default) the cache's.
fn machine<'g>(args: &Args, g: &'g Generated) -> &'g Fsm {
    match args.text("machine") {
        Some("dir") => &g.directory,
        _ => &g.cache,
    }
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
        let ssp = protocol(&proto).map_err(|Usage(e)| format!("{e}, in composition"))?;
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
                .filter(|(label, _)| !label.is_empty())
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

/// What `verify`, `table` and `dot` are pointed at: a flat protocol or a
/// composed stack, generated. One per process, so the variants' sizes are
/// of no account.
#[allow(clippy::large_enum_variant)]
enum Target {
    Flat(Ssp, Generated),
    Stack(Composition, Composed),
}

/// Generates a composition, refusing one the checker cannot index, and
/// `--caches`, which a stack ignores: `from` (`--compose`, or a file's
/// `compose` block) sets its node counts through the fanouts.
fn composed(comp: Composition, from: &str, args: &Args) -> Result<Target, Usage> {
    if args.flag("caches") {
        return Err(Usage(format!(
            "--caches does not apply to a composed stack: the fanouts of {from} set its node counts"
        )));
    }
    let composed = compose(&comp, &gen_config(args)).map_err(|e| e.to_string());
    match composed.and_then(|c| HierChecker::check_size(&c).map(|()| c)) {
        Ok(composed) => Ok(Target::Stack(comp, composed)),
        Err(e) => Err(Usage(format!("composition failed: {e}"))),
    }
}

/// The stack `--compose` names, or else the flat protocol the operand names.
fn target(args: &Args) -> Result<Target, Usage> {
    match args.parsed("compose", parse_compose_flag)? {
        Some(comp) => composed(comp, "--compose", args),
        None => flat(args).map(|(ssp, g)| Target::Flat(ssp, g)),
    }
}

/// The controller tables of `target`, under `--markdown` and `--machine`
/// where the subcommand takes them.
fn print_tables(target: &Target, args: &Args) {
    let opts = TableOptions { markdown: args.flag("markdown"), ..TableOptions::default() };
    match target {
        Target::Stack(_, composed) => out!("{}", render_composed_table(composed, &opts)),
        Target::Flat(_, g) => {
            outln!("{}", g.report);
            outln!("{}", render_table(machine(args, g), &opts));
        }
    }
}

/// The checker configuration `verify`'s flags describe — one set of
/// resource and property flags for flat protocols and composed stacks.
fn mc_config(target: &Target, args: &Args) -> Result<McConfig, Usage> {
    // The property contract defaults to what the (leaf) protocol declares
    // — inner levels are where cores live; `--property` overrides it
    // (e.g. `--property sc` to demonstrate that TSO-CC really does trade
    // SWMR away).
    let leaf = match target {
        Target::Flat(ssp, _) => ssp,
        Target::Stack(comp, _) => &comp.levels[0].ssp,
    };
    let mut cfg = McConfig {
        threads: args.threads(),
        properties: property_set(leaf, args)?,
        checkpoint_dir: args.text("checkpoint-dir").map(PathBuf::from),
        ..McConfig::default()
    };
    // Deep cache counts can exceed the 20M-state default budget.
    args.set("max-states", &mut cfg.max_states);
    args.set("mem-budget", &mut cfg.mem_budget_bytes);
    args.set("spill-chunk", &mut cfg.spill_chunk_bytes);
    args.set("checkpoint-every", &mut cfg.checkpoint_every);
    if let Some(store) = args.parsed("store", str::parse)? {
        cfg.store = store;
    }
    Ok(cfg)
}

/// Resolves the `--property` flag: a named contract (`sc`, `tso`, `weak`,
/// `none`) or a `+`-combination of individual properties; defaults to the
/// set the protocol's declared memory model promises.
fn property_set(ssp: &Ssp, args: &Args) -> Result<PropertySet, Usage> {
    let given = args.parsed("property", str::parse)?;
    Ok(given.unwrap_or_else(|| PropertySet::promised(ssp.consistency)))
}

/// What would let a limit-stopped exploration go further.
fn limit_hint(limit: &ResourceLimit) -> String {
    match limit {
        ResourceLimit::StateBudget => "raise --max-states to go further".into(),
        ResourceLimit::ShardCapacity { shard } => format!(
            "shard {shard} holds SHARD_CAPACITY = {SHARD_CAPACITY} states and --max-states cannot \
             raise that; more --threads = more shards"
        ),
    }
}

/// The verdict word of a check. A limit that fired before any violation
/// proved nothing either way: not a pass, but not a counterexample.
fn verdict(r: &CheckResult) -> &'static str {
    match (&r.violation, &r.limit) {
        (Some(_), _) => "FAILED",
        (None, Some(_)) => "INCOMPLETE",
        (None, None) => "PASSED",
    }
}

/// `verify` for flat protocols and composed stacks alike: one explorer,
/// one result printer.
fn verify(target: &Target, mut cfg: McConfig, args: &Args) -> Run {
    let (fp_only, resume) = (cfg.store == StoreMode::FpOnly, args.flag("resume"));
    let properties = cfg.properties;
    let (name, r, shape) = match target {
        Target::Flat(ssp, g) => {
            cfg.n_caches = args.caches();
            cfg.ordered = ssp.network_ordered;
            let mc = ModelChecker::new(&g.cache, &g.directory, cfg);
            (&ssp.name, if resume { mc.resume() } else { Ok(mc.run()) }, String::new())
        }
        Target::Stack(comp, composed) => {
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
            (&comp.name, if resume { hc.resume() } else { Ok(hc.check()) }, shape)
        }
    };
    // Corruption and mismatches are hard errors, never a silent fresh
    // start: a "PASSED" that quietly re-ran from scratch would
    // misrepresent what was verified.
    let r = r.map_err(|e| Usage(format!("cannot resume: {e}")))?;
    // `seconds` times only this process's epochs while `states` counts the
    // checkpointed ones too, so a resumed run has no honest rate to print.
    let rate = if resume {
        "resumed".to_string()
    } else {
        format!("{:.0} states/s", r.states as f64 / r.seconds.max(1e-9))
    };
    let json = || verify_json(name, &r, properties);
    emit(args, json, || {
        outln!(
            "{name}: {} — {} states, {} transitions, {:.2}s ({rate}) on {} thread{}{shape}; \
             properties {properties}",
            verdict(&r),
            r.states,
            r.transitions,
            r.seconds,
            r.threads,
            if r.threads == 1 { "" } else { "s" }
        );
        if r.spill_bytes > 0 {
            outln!(
                "spilled {} bytes in {} chunks (frontier {} bytes, visited records {} bytes) \
                 under the memory budget (peak accounted RAM {} bytes){}",
                r.spill_bytes,
                r.spill_chunks,
                r.frontier_spill_bytes,
                r.visited_spill_bytes,
                r.peak_mem_bytes,
                // "spilled + completed" is not an early stop: unless a limit
                // fired below, the whole space was still explored.
                if r.limit.is_none() { " — exploration completed" } else { "" }
            );
        }
        if fp_only {
            outln!(
                "fingerprint-only store: no counterexample traces; expected state pairs merged \
                 by a 64-bit collision ≈ {:.3e}",
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
            outln!("stopped early: {l} — partial stats only ({})", limit_hint(l));
        }
    });
    Ok(ExitCode::from(u8::from(!r.passed())))
}

/// `verify --json`: the verdict line's figures, the violation and its
/// trace, the limit that fired, and the visited set's memory by component
/// with the fingerprint map's counters. `limit` and `violation` are absent
/// when nothing fired.
fn verify_json(name: &str, r: &CheckResult, properties: PropertySet) -> Json {
    let (split, counters) = (r.store_split, r.store_counters);
    let mut doc = Json::obj([
        ("protocol", Json::Str(name.to_string())),
        ("verdict", Json::Str(verdict(r).into())),
        ("properties", Json::Str(properties.to_string())),
        ("states", Json::U64(r.states as u64)),
        ("transitions", Json::U64(r.transitions as u64)),
        ("threads", Json::U64(r.threads as u64)),
        ("seconds", Json::F64(r.seconds)),
        (
            "memory",
            Json::obj([
                ("store_bytes", Json::U64(r.store_bytes as u64)),
                ("store_bytes_per_state", Json::F64(r.store_bytes as f64 / r.states as f64)),
                ("column_bytes", Json::U64(split.column as u64)),
                ("slot_bytes", Json::U64(split.slots as u64)),
                ("record_bytes", Json::U64(split.records as u64)),
                ("peak_mem_bytes", Json::U64(r.peak_mem_bytes as u64)),
                ("peak_mem_depth", Json::U64(u64::from(r.peak_mem_depth))),
                ("frontier_bytes", Json::U64(r.frontier_bytes as u64)),
                ("hot_level_bytes", Json::U64(r.hot_level_bytes as u64)),
                ("frontier_spill_bytes", Json::U64(r.frontier_spill_bytes)),
                ("visited_spill_bytes", Json::U64(r.visited_spill_bytes)),
                ("spill_chunks", Json::U64(r.spill_chunks)),
            ]),
        ),
        (
            "store",
            Json::obj([
                ("lookups", Json::U64(counters.lookups)),
                ("probes", Json::U64(counters.probes)),
                ("column_reads", Json::U64(counters.column_reads)),
            ]),
        ),
    ]);
    if let Some(l) = &r.limit {
        doc.push("limit", Json::Str(l.to_string()));
    }
    if let Some(v) = &r.violation {
        let trace = v.trace.iter().map(|l| Json::Str(l.clone())).collect();
        doc.push(
            "violation",
            Json::obj([("kind", Json::Str(v.kind.to_string())), ("trace", Json::Arr(trace))]),
        );
    }
    doc
}

fn verify_cmd(args: &Args) -> Run {
    let target = target(args)?;
    let cfg = mc_config(&target, args)?;
    verify(&target, cfg, args)
}

fn table(args: &Args) -> Run {
    print_tables(&target(args)?, args);
    Ok(ExitCode::SUCCESS)
}

fn dot(args: &Args) -> Run {
    match target(args)? {
        Target::Stack(_, composed) => out!("{}", to_dot_composed(&composed)),
        Target::Flat(_, g) => outln!("{}", to_dot(machine(args, &g))),
    }
    Ok(ExitCode::SUCCESS)
}

fn murphi(args: &Args) -> Run {
    let (_, g) = flat(args)?;
    outln!("{}", to_murphi(&g.cache, &g.directory, args.caches()));
    Ok(ExitCode::SUCCESS)
}

/// `compile`: a `.pgen` file through `table` and `verify`. Everything the
/// command line can get wrong is settled before the table is printed.
fn compile(args: &Args) -> Run {
    let path = args.operand();
    let ast = protogen_dsl::parse(&read(path)?).map_err(|e| Usage(e.to_string()))?;
    let target = if ast.compose.is_empty() {
        let ssp = protogen_dsl::lower(&ast).map_err(|e| Usage(e.to_string()))?;
        let g = generated(&ssp, args)?;
        Target::Flat(ssp, g)
    } else {
        // A `compose { … }` block makes this a composition source: resolve
        // the referenced protocols and run the composed pipeline.
        let levels = ast
            .compose
            .iter()
            .map(|l| Ok((l.label.clone(), l.protocol.clone(), l.fanout.unwrap_or(1) as usize)));
        let comp = build_composition(&ast.name, levels)
            .map_err(|e| Usage(format!("bad compose block in {path}: {e}")))?;
        composed(comp, &format!("the compose block of {path}"), args)?
    };
    let cfg = mc_config(&target, args)?;
    // Under `--json` stdout carries the verification's document alone.
    if !args.flag("json") {
        print_tables(&target, args);
    }
    verify(&target, cfg, args)
}

/// The one place a report reaches stdout: the document under `--json`,
/// the lines `text` prints otherwise.
fn emit(args: &Args, json: impl FnOnce() -> Json, text: impl FnOnce()) {
    if args.flag("json") {
        out!("{}", json().render());
    } else {
        text();
    }
}

/// The fields `sim`'s and `serve`'s JSON documents open with.
fn run_header(ssp: &Ssp, args: &Args, workload: &Workload) -> [(&'static str, Json); 3] {
    let config = if args.flag("stalling") { "stalling" } else { "non-stalling" };
    [
        ("protocol", Json::Str(ssp.name.clone())),
        ("config", Json::Str(config.into())),
        ("workload", Json::Str(workload.label())),
    ]
}

/// Writes `contents` to `dir/name`, creating `dir` on the way: the one
/// path `sweep --out` and `fuzz --out` files take to disk.
fn write_artifact(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `--workload` under `--store-pct` (`sim`, `serve`): uniform at 50 %
/// stores when absent.
fn workload(args: &Args) -> Result<Workload, Usage> {
    let store_pct = args.num("store-pct").unwrap_or(50);
    Workload::parse(args.text("workload").unwrap_or("uniform"), store_pct)
        .map_err(|e| Usage(format!("bad --workload: {e}")))
}

/// Builds a [`SimConfig`] from CLI flags, warning when an ordered-network
/// protocol keeps FIFO delivery on the unordered interconnect
/// ([`NetworkConfig::for_protocol`]).
fn sim_config(ssp: &Ssp, args: &Args) -> Result<SimConfig, Usage> {
    let mut cfg = SimConfig::default();
    if let Some(counts) = args.counts() {
        cfg.n_caches = counts[0];
    }
    args.set("addrs", &mut cfg.n_addrs);
    args.set("accesses", &mut cfg.accesses_per_core);
    args.set("seed", &mut cfg.seed);
    cfg.workload = match args.text("trace") {
        Some(path) => Workload::Trace(
            parse_trace(&read(path)?).map_err(|e| Usage(format!("bad --trace {path}: {e}")))?,
        ),
        None => workload(args)?,
    };
    let model = match args.text("network") {
        Some("unordered") => NetModel::Unordered,
        _ => NetModel::Ordered,
    };
    let (network, fifo_clamped) = NetworkConfig::for_protocol(model, ssp.network_ordered);
    cfg.network = network;
    if fifo_clamped {
        eprintln!(
            "note: {} is generated for ordered networks; applying latency jitter \
             with per-block FIFO delivery instead of reordering",
            ssp.name
        );
    }
    args.set("cap", &mut cfg.network.capacity);
    if let Some(latency) = args.parsed("latency", LatencyDist::parse)? {
        cfg.network.latency = latency;
    }
    Ok(cfg)
}

fn sim(args: &Args) -> Run {
    let (ssp, g) = flat(args)?;
    let cfg = sim_config(&ssp, args)?;
    let r = match simulate(&g.cache, &g.directory, &cfg) {
        Ok(r) => r,
        // Raised while the schedules are expanded, before cycle 0: the
        // workload does not fit the system the flags describe.
        Err(e @ SimError::Workload(_)) => {
            let (caches, addrs) = (cfg.n_caches, cfg.n_addrs);
            return Err(Usage(format!("{e} (under --caches {caches} --addrs {addrs})")));
        }
        Err(e) => return failed(format_args!("simulation failed: {e}")),
    };
    let json = || {
        let [protocol, config, workload] = run_header(&ssp, args, &cfg.workload);
        let caches = ("caches", Json::U64(cfg.n_caches as u64));
        let seed = ("seed", Json::U64(cfg.seed));
        Json::obj([protocol, config, workload, caches, seed, ("stats", r.to_json())])
    };
    emit(args, json, || {
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
    });
    Ok(ExitCode::SUCCESS)
}

/// `--faults`, with `--fault-seed` and `--crash-at-op`, which need it.
fn fault_config(args: &Args, run_seed: u64) -> Result<Option<FaultConfig>, Usage> {
    let Some(classes) = args.list("faults") else {
        return Ok(None);
    };
    // The fault seed defaults to the workload seed: one seed replays the
    // whole run, faults included.
    let seed = args.num("fault-seed").unwrap_or(run_seed);
    let mut fc = FaultConfig::none(seed);
    for class in classes {
        match class.trim() {
            "all" => fc = FaultConfig::all(seed),
            "delay" | "delays" => fc.delays = true,
            "stall" | "stalls" => fc.stalls = true,
            "squeeze" | "squeezes" => fc.squeezes = true,
            "crash" | "crashes" => fc.crashes = fc.crashes.max(1),
            other => {
                return Err(Usage(format!(
                    "bad --faults item `{other}` (delay, stall, squeeze, crash, or all)"
                )))
            }
        }
    }
    if let Some(n) = args.num("crash-at-op") {
        fc.crash_at_op = Some(n);
        fc.crashes = fc.crashes.max(1);
    }
    Ok(Some(fc))
}

/// `protogen serve`: model-check the coverage envelope, run the live
/// multi-threaded service, and fail on any escape or invariant violation.
fn serve_cmd(args: &Args) -> Run {
    let (ssp, g) = flat(args)?;
    let caches = args.caches();
    let mut cfg = ServeConfig::new(caches);
    args.set("dir-shards", &mut cfg.dir_shards);
    args.set("addrs", &mut cfg.n_addrs);
    args.set("ops", &mut cfg.total_ops);
    args.set("seed", &mut cfg.seed);
    args.set("mailbox-cap", &mut cfg.mailbox_cap);
    args.set("duration", &mut cfg.max_seconds);
    cfg.workload = workload(args)?;
    cfg.faults = fault_config(args, cfg.seed)?;
    // Before the envelope is model-checked (seconds at 4 caches), not after.
    cfg.validate().map_err(|e| Usage(e.to_string()))?;

    // The envelope: exhaustive pair coverage at the same cache count. Runs
    // first so a protocol the checker rejects never goes live. Progress
    // goes to stderr — `--json` keeps stdout machine-readable.
    let mut mc_cfg = McConfig::with_caches(caches);
    mc_cfg.ordered = ssp.network_ordered;
    mc_cfg.threads = args.threads();
    // The envelope enforces exactly the contract `verify` enforces: the
    // property set the protocol's memory model promises (or --property).
    mc_cfg.properties = property_set(&ssp, args)?;
    eprintln!("model-checking the {caches}-cache envelope for {}…", ssp.name);
    let envelope = match checked_envelope(&g.cache, &g.directory, mc_cfg) {
        Ok(p) => p,
        Err(e) => return failed(e),
    };
    eprintln!("envelope: {} model-checked (machine, state, event) pairs", envelope.len());

    let report = match serve(&g.cache, &g.directory, &cfg) {
        Ok(r) => r,
        Err(e @ ServeError::Config(_)) => return Err(Usage(e.to_string())),
        Err(e) => return failed(format_args!("service run FAILED: {e}")),
    };
    let escapes = report.escapes(&envelope);

    let json = || {
        let [protocol, config, workload] = run_header(&ssp, args, &cfg.workload);
        let seed = ("seed", Json::U64(cfg.seed));
        let pairs = ("envelope_pairs", Json::U64(envelope.len() as u64));
        let report = ("report", report.to_json(&g.cache, &g.directory, &escapes));
        Json::obj([protocol, config, workload, seed, pairs, report])
    };
    emit(args, json, || {
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
        let percentiles = report.miss_percentiles();
        if !percentiles.is_empty() {
            let names: Vec<&str> = percentiles.iter().map(|p| p.0).collect();
            let values: Vec<String> =
                percentiles.iter().map(|p| p.1.map_or("-".into(), |ns| ns.to_string())).collect();
            let few: Vec<&str> =
                percentiles.iter().filter(|p| p.1.is_none()).map(|p| p.0).collect();
            let few = if few.is_empty() {
                String::new()
            } else {
                format!("; too few for {}", few.join("/"))
            };
            outln!(
                "  miss latency {}: {} ns over {} misses{few}",
                names.join("/"),
                values.join("/"),
                report.miss_latency.len()
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
    });
    if !escapes.is_empty() {
        eprintln!(
            "COVERAGE ESCAPE: {} live pair(s) the model checker never visited:",
            escapes.len()
        );
        for p in &escapes {
            eprintln!("  {}", pair_label(&g.cache, &g.directory, p));
        }
        return Ok(ExitCode::FAILURE);
    }
    match report.stop_reason {
        StopReason::Quiesced => Ok(ExitCode::SUCCESS),
        StopReason::Deadline => {
            eprintln!("run stopped at the wall-clock deadline — partial measurements only");
            if let Some(detail) = &report.stop_detail {
                eprintln!("{detail}");
            }
            Ok(ExitCode::from(3))
        }
        StopReason::Fault => {
            eprintln!("fault plan did not complete (crash point never reached) — inconclusive");
            Ok(ExitCode::from(4))
        }
    }
}

/// `--protocols` (`sweep`, `fuzz`): bundled names, looked up before
/// anything runs.
fn protocols(args: &Args, names: &mut Vec<String>) -> Result<(), Usage> {
    if let Some(list) = args.list("protocols") {
        *names =
            list.map(|name| protocol(name).map(|_| name.to_string())).collect::<Result<_, _>>()?;
    }
    Ok(())
}

fn sweep(args: &Args) -> Run {
    let mut cfg = SweepConfig { threads: args.threads(), ..SweepConfig::default() };
    protocols(args, &mut cfg.protocols)?;
    if let Some(counts) = args.counts() {
        cfg.cache_counts = counts;
    }
    args.set("accesses", &mut cfg.accesses_per_core);
    args.set("seed", &mut cfg.seed);
    if args.flag("list") {
        out!("{}", cfg.listing());
        return Ok(ExitCode::SUCCESS);
    }
    let report = match run_sweep(&cfg) {
        Ok(r) => r,
        Err(e) => return failed(format_args!("sweep failed: {e}")),
    };
    let out_dir = args.text("out").map(Path::new);
    if let Some(dir) = out_dir {
        // One diffable JSON per config cell, plus the merged report.
        let cells = report.cells.iter().map(|c| (format!("{}.json", c.cell.label()), c.to_json()));
        for (name, doc) in cells.chain([("sweep.json".to_string(), report.to_json())]) {
            if let Err(e) = write_artifact(dir, &name, &doc.render()) {
                return failed(e);
            }
        }
        outln!("wrote {} cell files + sweep.json to {}", report.cells.len(), dir.display());
    }
    // The files are the report of a run under `--out`.
    let table = || {
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
    };
    emit(
        args,
        || report.to_json(),
        || {
            if out_dir.is_none() {
                table()
            }
        },
    );
    Ok(ExitCode::SUCCESS)
}

/// Runs a fuzz campaign's `run`. Mutant pipelines panic by design; each
/// panic is compressed to one line so caught-and-classified mutants don't
/// spray backtraces, while a panic that *escapes* the harness still leaves
/// a trail to debug.
fn quiet_panics<T>(run: impl FnOnce() -> T) -> T {
    std::panic::set_hook(Box::new(|info| eprintln!("fuzz worker panic: {info}")));
    let result = run();
    let _ = std::panic::take_hook();
    result
}

/// `fuzz --replay`: one reproducer script back through the pipeline.
fn replay(path: &str, budget: usize) -> Run {
    use protogen_fuzz::{Outcome, Script};
    let script = Script::parse(&read(path)?).map_err(|e| Usage(e.to_string()))?;
    let r = script.subject(protocol(&script.protocol)?).run(budget);
    outln!("{}: {}", r.outcome.label(), r.outcome.detail());
    for line in &r.trace {
        outln!("  {line}");
    }
    match r.outcome {
        // A script whose site no longer applies did not reconstruct the
        // mutant — that is a usage error, not "the bug is fixed".
        Outcome::MutationInapplicable(_) => {
            Err(Usage(format!("{path} no longer applies to `{}`", script.protocol)))
        }
        o if o.is_unexpected() => Ok(ExitCode::FAILURE),
        _ => Ok(ExitCode::SUCCESS),
    }
}

/// `protogen fuzz`: a seeded mutation campaign (or a single `--replay`).
///
/// Exit code 0 only when every negative control was caught *and* no
/// unexpected outcome (generator/checker panic, exec violation) appeared.
fn fuzz(args: &Args) -> Run {
    use protogen_fuzz::{run_fuzz, FuzzConfig};
    let mut cfg = FuzzConfig { threads: args.threads(), ..FuzzConfig::default() };
    args.set("seed", &mut cfg.seed);
    args.set("mutants", &mut cfg.mutants);
    args.set("budget", &mut cfg.budget);
    protocols(args, &mut cfg.protocols)?;
    if let Some(path) = args.text("replay") {
        return replay(path, cfg.budget);
    }

    let report = quiet_panics(|| run_fuzz(&cfg)).map_err(|e| Usage(format!("fuzz failed: {e}")))?;
    let unexpected: Vec<_> = report
        .unexpected()
        .into_iter()
        .map(|r| (r, r.reproducer(report.seed).expect("unexpected records carry a shrunk case")))
        .collect();

    if let Some(dir) = args.text("out").map(Path::new) {
        let scripts =
            unexpected.iter().map(|(r, script)| (format!("repro-{}.mut", r.index), script.clone()));
        let summary = ("fuzz.json".to_string(), report.to_json().render());
        for (name, contents) in std::iter::once(summary).chain(scripts) {
            if let Err(e) = write_artifact(dir, &name, &contents) {
                return failed(e);
            }
        }
        let n = unexpected.len();
        outln!("wrote fuzz.json + {n} reproducer script(s) to {}", dir.display());
    }
    let text = || {
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
                if c.caught() { "CAUGHT" } else { "MISSED" },
                c.result.outcome.detail()
            );
        }
        for (r, script) in &unexpected {
            let o = &r.result.outcome;
            outln!("unexpected mutant {}: {} — {}", r.index, o.label(), o.detail());
            for line in script.lines() {
                outln!("  {line}");
            }
        }
    };
    emit(args, || report.to_json(), text);
    Ok(ExitCode::from(u8::from(!(report.all_controls_caught() && unexpected.is_empty()))))
}

/// `protogen litmus`: classify protocols against the litmus suite and
/// fail unless every one matches its promised memory model.
fn litmus_cmd(args: &Args) -> Run {
    let ssps = match args.operand.as_deref() {
        None | Some("all") => protogen_protocols::all(),
        Some(name) => vec![protocol(name)?],
    };
    let bundled = protogen_litmus::bundled();
    let tests = match args.list("tests") {
        None => bundled,
        Some(names) => {
            let pick = |name: &str| {
                let test = bundled.iter().find(|t| t.name.eq_ignore_ascii_case(name.trim()));
                test.cloned().ok_or_else(|| {
                    let known: Vec<&str> = bundled.iter().map(|t| t.name.as_str()).collect();
                    Usage(format!("unknown litmus test `{name}` (known: {})", known.join(", ")))
                })
            };
            names.map(pick).collect::<Result<_, _>>()?
        }
    };
    let mut max_states = protogen_litmus::MAX_STATES;
    args.set("depth", &mut max_states);
    let report = match run_suite(&ssps, &tests, max_states, args.threads()) {
        Ok(report) => report,
        Err(e) => return failed(format_args!("litmus: {e}")),
    };
    if args.flag("markdown") {
        out!("{}", report.render_markdown());
    } else {
        out!("{}", report.render_text());
    }
    if !report.passed() {
        return failed("litmus: observed memory model differs from the specification's promise");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let (cmd, run) = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => (Some(args.cmd), (args.cmd.run)(&args)),
        Err((cmd, usage)) => (cmd, Err(usage)),
    };
    run.unwrap_or_else(|Usage(why)| {
        eprintln!("{why}\n{}", usage_line(cmd));
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Args, String> {
        Args::parse(line.iter().map(|s| s.to_string())).map_err(|(_, Usage(why))| why)
    }

    /// `cmd` with the operand it needs (none once `--compose` names the
    /// target), followed by `rest`.
    fn line<'a>(cmd: &Command, rest: &[&'a str]) -> Vec<&'a str> {
        let mut line = vec![cmd.name];
        if cmd.operand.starts_with('<') && !rest.contains(&"--compose") {
            line.push("msi");
        }
        line.extend(rest);
        line
    }

    /// One value the kind admits, and values it must refuse.
    fn samples(kind: Kind) -> (&'static str, Vec<&'static str>) {
        const NOT_NUMBERS: [&str; 6] = ["", "-1", "1e3", "18446744073709551616", "3x", "banana"];
        match kind {
            Kind::Switch => unreachable!("a switch has no value"),
            Kind::Counts => ("3", [&NOT_NUMBERS[..], &["0", "9", "2,,4", "2,2", "2,9"]].concat()),
            Kind::Num(min, max) => {
                let mut bad = NOT_NUMBERS.to_vec();
                bad.extend((min > 0).then_some("0"));
                bad.extend((max == 100).then_some("101"));
                bad.extend((max == u64::from(u32::MAX)).then_some("4294967296"));
                ("1", bad)
            }
            Kind::Bytes => ("64M", [&NOT_NUMBERS[..], &["64X", "lots", "99999999999G"]].concat()),
            Kind::Seconds => ("1.5", vec!["", "nan", "inf", "-inf", "-1", "0", "soon"]),
            Kind::OneOf(words) => (words[0], vec!["", "foo", "directory"]),
            Kind::Text(_) => ("x", vec![""]),
            Kind::List(_) => ("a,b", vec!["", ",", "a,,b", "a,", "a,a", "SB,sb", "a, a"]),
        }
    }

    /// Reads `--name` back through the accessor of its kind.
    fn read_back(args: &Args, name: &str, kind: Kind) {
        match kind {
            Kind::Switch => assert!(args.flag(name)),
            Kind::Counts => assert_eq!(args.counts(), Some(vec![3])),
            Kind::Num(..) => assert_eq!(args.num::<u64>(name), Some(1)),
            Kind::Bytes => assert_eq!(args.num::<usize>(name), Some(64 << 20)),
            Kind::Seconds => assert_eq!(args.num::<f64>(name), Some(1.5)),
            Kind::OneOf(_) | Kind::Text(_) => assert!(args.text(name).is_some()),
            Kind::List(_) => assert_eq!(args.list(name).map(Iterator::count), Some(2)),
        }
    }

    /// `--name VALUE` for a value the flag's kind admits.
    fn good(name: &str) -> Vec<String> {
        let &(_, kind, ..) = FLAGS.iter().find(|(f, ..)| *f == name).expect("a flag");
        let switch = matches!(kind, Kind::Switch);
        let value = (!switch).then(|| samples(kind).0.to_string());
        std::iter::once(format!("--{name}")).chain(value).collect()
    }

    /// The table tests itself: every (subcommand, flag) pair, every way a
    /// flag can be given wrongly, every kind's hostile values.
    #[test]
    fn every_flag_is_checked_on_every_subcommand() {
        for cmd in &COMMANDS {
            assert!(parse(&line(cmd, &[])).is_ok(), "{}", cmd.name);
            for &(name, kind, cmds, needs) in &FLAGS {
                // What the flag needs, given once and well.
                let with: Vec<String> = needs.iter().flat_map(|need| good(need)).collect();
                let with: Vec<&str> = with.iter().map(String::as_str).collect();
                let flag = format!("--{name}");
                let err = |rest: &[&str]| match parse(&line(cmd, rest)) {
                    Ok(_) => panic!("`{} {rest:?}` was accepted", cmd.name),
                    Err(why) => {
                        assert!(why.contains(&flag), "{} {rest:?}: {why}", cmd.name);
                        why
                    }
                };
                let switch = matches!(kind, Kind::Switch);
                let (good, hostile) = if switch { ("", vec![]) } else { samples(kind) };
                let given: &[&str] = if switch { &[&flag] } else { &[&flag, good] };
                if !cmds.contains(&cmd.name) {
                    assert!(err(given).contains("takes no"), "{} {flag}", cmd.name);
                    continue;
                }
                let args = parse(&line(cmd, &[&with, given].concat()))
                    .unwrap_or_else(|why| panic!("{given:?}: {why}"));
                read_back(&args, name, kind);
                assert!(err(&[&with, given, given].concat()).contains("twice"));
                if switch {
                    continue;
                }
                assert!(err(&[&flag]).contains("needs a value"));
                // A flag that follows is the next flag, not the value.
                assert!(err(&[&flag, "--stalling"]).contains("needs a value"));
                for value in hostile {
                    let why = err(&[&flag, value]);
                    assert!(why.contains(&format!("`{value}`")), "{} {flag}: {why}", cmd.name);
                }
            }
        }
    }

    /// A flag that would be ignored is refused with the flag that makes it
    /// so: one it needs and lacks, or one that replaces it. Each rule names
    /// flags of the same subcommands.
    #[test]
    fn flags_a_command_would_ignore_are_refused() {
        let row = |name: &str| FLAGS.iter().find(|(f, ..)| *f == name).expect("a flag");
        for &(name, _, cmds, needs) in &FLAGS {
            for cmd in cmds.iter().copied() {
                let cmd = COMMANDS.iter().find(|c| c.name == cmd).expect("a command");
                for need in needs {
                    assert!(row(need).2.contains(&cmd.name), "--{need} is no flag of {}", cmd.name);
                    let alone = good(name);
                    let alone: Vec<&str> = alone.iter().map(String::as_str).collect();
                    let why = parse(&line(cmd, &alone)).err().expect("refused");
                    assert_eq!(why, format!("--{name} requires --{need}"));
                }
            }
        }
        for (a, b) in REPLACES.iter().flat_map(|(a, bs)| bs.iter().map(move |b| (*a, *b))) {
            let cmds = row(a).2.iter().filter(|cmd| row(b).2.contains(cmd));
            let mut shared = 0;
            for cmd in cmds.map(|name| COMMANDS.iter().find(|c| c.name == *name).unwrap()) {
                shared += 1;
                let both = [good(a), good(b)].concat();
                let both: Vec<&str> = both.iter().map(String::as_str).collect();
                let why = parse(&line(cmd, &both)).err().expect("refused");
                assert!(why.starts_with(&format!("--{a} replaces --{b}: ")), "{why}");
            }
            assert!(shared > 0, "--{a} and --{b} share no subcommand");
        }
    }

    #[test]
    fn only_sweep_takes_a_list_of_cache_counts() {
        assert_eq!(parse(&["sweep", "--caches", "2,4"]).unwrap().counts(), Some(vec![2, 4]));
        let why = parse(&["verify", "msi", "--caches", "2,4"]).err().unwrap();
        assert!(why.contains("bad --caches `2,4`") && why.contains("1..=8"), "{why}");
        assert_eq!(parse(&["verify", "msi"]).unwrap().caches(), 2);
    }

    #[test]
    fn operands_are_counted() {
        let err = |line: &[&str]| parse(line).err().unwrap_or_else(|| panic!("{line:?} accepted"));
        assert!(err(&[]).contains("no subcommand"));
        assert!(err(&["frobnicate"]).contains("`frobnicate`"));
        assert!(err(&["verify", "msi", "--cachse", "4"]).contains("`--cachse`"));
        for cmd in &COMMANDS {
            let required = cmd.operand.starts_with('<');
            assert_eq!(parse(&[cmd.name]).is_err(), required, "{}", cmd.name);
            let takes = usize::from(!cmd.operand.is_empty());
            assert!(
                err(&[&[cmd.name][..], &["a", "b"][..takes + 1]].concat()).contains("unexpected")
            );
        }
        assert!(parse(&["verify", "--compose", "l1=msi"]).is_ok());
        assert!(err(&["verify", "msi", "--compose", "l1=msi"]).contains("`msi`"));
        // The subcommand need not come first.
        assert_eq!(parse(&["--caches", "3", "verify", "msi"]).unwrap().caches(), 3);
    }

    /// README's flag reference is the generated usage, line for line
    /// (README wraps them; whitespace is not compared).
    #[test]
    fn readme_lists_the_generated_usage_lines() {
        let words = |text: &str| text.split_whitespace().collect::<Vec<_>>().join(" ");
        let readme = words(include_str!("../../../README.md"));
        for cmd in &COMMANDS {
            let usage = usage_line(Some(cmd));
            let synopsis = usage.strip_prefix("usage: ").expect("usage lines open alike");
            assert!(readme.contains(&words(synopsis)), "README.md lacks: {synopsis}");
        }
    }

    #[test]
    fn the_hint_follows_the_limit_that_stopped_the_run() {
        assert_eq!(limit_hint(&ResourceLimit::StateBudget), "raise --max-states to go further");
        let hint = limit_hint(&ResourceLimit::ShardCapacity { shard: 3 });
        for needle in ["shard 3", &SHARD_CAPACITY.to_string(), "more --threads"] {
            assert!(hint.contains(needle), "{hint}");
        }
        assert!(!hint.contains("raise --max-states"), "{hint}");
    }
}
