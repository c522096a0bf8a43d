//! The structural invariants of DESIGN.md (§2–§4, §6–§9, §11), checked on the
//! sources. Each test is one lint, a list of checks; a check counts patterns
//! in the files its globs select (`*` within a path segment, `**` across, `!`
//! excludes) outside `target` and dot-directories. Patterns and lines are
//! compared with their whitespace removed; `""` matches every line, so its
//! files must not exist. `every_check_fires_on_its_planted_mutation` runs each
//! check with its planted text prepended to (or as) its file.

use std::collections::BTreeSet;
use std::path::Path;

/// Which lines a check reads: all, those before the first `#[cfg(test)]` at
/// column 0, or those but their `//` comment lines.
#[derive(Clone, Copy, PartialEq)]
enum Part {
    All,
    NonTest,
    Code,
}
use Part::{All, Code, NonTest};

/// `lines` filters a line and `scope` the nearest `fn` or `struct` declaration
/// at or above it: text passes if it contains one of the plain filters (when
/// there are any) and none of the `!` ones. Each pattern must occur in the
/// whole file set a number of times within `count`.
struct Check {
    part: Part,
    files: &'static [&'static str],
    pats: &'static [&'static str],
    lines: &'static [&'static str],
    scope: &'static [&'static str],
    count: (usize, usize),
}

const fn check(part: Part, files: &'static [&'static str], pats: &'static [&'static str]) -> Check {
    Check { part, files, pats, lines: &[], scope: &[], count: (0, 0) }
}

impl Check {
    const fn lines(self, lines: &'static [&'static str]) -> Check {
        Check { lines, ..self }
    }

    const fn scope(self, scope: &'static [&'static str]) -> Check {
        Check { scope, ..self }
    }

    const fn count(self, min: usize, max: usize) -> Check {
        Check { count: (min, max), ..self }
    }

    /// One message per pattern whose count is out of bounds in the files of
    /// `tree`, with `plant`'s text prepended to (or as) its file.
    fn violations(&self, tree: &[String], plant: Option<(&str, &str)>) -> Vec<String> {
        let (at, planted) = plant.unwrap_or_default();
        let paths: BTreeSet<&str> = tree.iter().map(|p| &**p).chain(plant.map(|p| p.0)).collect();
        let pats: Vec<String> = self.pats.iter().map(|p| p.replace(' ', "")).collect();
        let (mut found, mut bare) = (vec![(0, String::new()); pats.len()], String::new());
        for path in paths.into_iter().filter(|p| passes(self.files, p, glob)) {
            let bytes = std::fs::read(Path::new(ROOT).join(path)).unwrap_or_default();
            let text = String::from_utf8_lossy(&bytes);
            let text = if path == at { format!("{planted}\n{text}") } else { text.into_owned() };
            let mut scope = "";
            let cut = |l: &&str| self.part == All || !l.starts_with("#[cfg(test)]");
            for (n, line) in text.split('\n').take_while(cut).enumerate() {
                let decl = line.split_whitespace().find(|w| !w.starts_with("pub"));
                if matches!(decl, Some("fn" | "struct")) {
                    scope = line;
                }
                let has = |f: &str, text: &str| text.contains(f);
                if self.part == Code && line.trim_start_matches(' ').starts_with("//")
                    || !passes(self.lines, line, has)
                    || !passes(self.scope, scope, has)
                {
                    continue;
                }
                bare.clear();
                bare.extend(line.split_whitespace());
                for (pat, (count, lines)) in pats.iter().zip(&mut found) {
                    let k = bare.matches(pat.as_str()).count();
                    *count += k;
                    if k > 0 {
                        *lines += &format!("\n  {path}:{}: {line}", n + 1);
                    }
                }
            }
        }
        let (min, max) = self.count;
        let bad = self.pats.iter().zip(found).filter(|(_, (n, _))| !(min..=max).contains(n));
        bad.map(|(pat, (n, lines))| format!("`{pat}` occurs {n} times, not {min}..={max}:{lines}"))
            .collect()
    }
}

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every file and directory under `dir`, relative to the repository.
fn sources(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().map(Result::unwrap) {
        let (path, name) = (entry.path(), entry.file_name());
        if !name.to_string_lossy().starts_with('.') && name != "target" {
            out.push(path.strip_prefix(ROOT).unwrap().to_string_lossy().into_owned());
            out.extend(if path.is_dir() { sources(&path) } else { Vec::new() });
        }
    }
    out
}

fn passes(filters: &[&str], text: &str, matches: impl Fn(&str, &str) -> bool) -> bool {
    let mut yes = filters.iter().filter(|f| !f.starts_with('!')).peekable();
    (yes.peek().is_none() || yes.any(|f| matches(f, text)))
        && !filters.iter().filter_map(|f| f.strip_prefix('!')).any(|f| matches(f, text))
}

fn glob(pat: &str, path: &str) -> bool {
    let Some((head, tail)) = pat.split_once('*') else { return pat == path };
    let (deep, tail) = tail.strip_prefix('*').map_or((false, tail), |tail| (true, tail));
    path.strip_prefix(head).is_some_and(|rest| {
        (0..=rest.len())
            .take_while(|&i| deep || !rest[..i].contains('/'))
            .any(|i| rest.is_char_boundary(i) && glob(tail, &rest[i..]))
    })
}

fn holds(test: &str) {
    let (_, checks) = LINTS.iter().find(|l| l.0 == test).unwrap();
    let tree = sources(Path::new(ROOT));
    let bad: Vec<String> = checks.iter().flat_map(|(c, _)| c.violations(&tree, None)).collect();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn every_check_fires_on_its_planted_mutation() {
    let tree = sources(Path::new(ROOT));
    for (test, (check, plant)) in LINTS.iter().flat_map(|(t, cs)| cs.iter().map(move |c| (t, c))) {
        assert!(!check.violations(&tree, Some(*plant)).is_empty(), "{test} misses {plant:?}");
    }
}

macro_rules! lints {
    ($($test:ident: [$($check:expr => $plant:expr),*],)*) => {
        const LINTS: &[(&str, &[(Check, (&str, &str))])] =
            &[$((stringify!($test), &[$(($check, $plant)),*])),*];
        $(#[test] fn $test() { holds(stringify!($test)) })*
    };
}

lints! {
    the_dispatch_kernel_is_the_only_in_tree_path_to_the_primitives: [
        check(All, &["crates/*/src/**.rs", "!crates/runtime/**"],
              &["select_arc_indexed(", "apply_into("])
            => ("crates/sim/src/engine.rs", "m.apply_into(&arc, &mut st);")],
    the_generation_kernel_is_the_only_place_the_generators_build_fsm_parts: [
        check(All, &["crates/core/src/cachegen.rs", "crates/core/src/dirgen.rs"],
              &["Arc {", "FsmState {", "AckSrc::Captured"])
            => ("crates/core/src/dirgen.rs", "let arc = Arc {")],
    the_front_door_renders_no_report: [
        check(Code, &["crates/cli/src/main.rs"], &["Json::"])
            => ("crates/cli/src/main.rs", "let doc = Json::obj([(\"verdict\", verdict)]);")],
    the_front_door_has_one_exit: [
        check(Code, &["crates/cli/src/main.rs"], &["process::exit"])
            .scope(&["!fn main(", "!fn write_stdout("])
            => ("crates/cli/src/main.rs", "std::process::exit(1);"),
        check(Code, &["crates/cli/src/main.rs"], &["ExitCode::from(2)"]).scope(&["!fn main("])
            => ("crates/cli/src/main.rs", "fn usage() -> ExitCode { ExitCode::from(2) }")],
    the_property_set_is_the_only_place_invariant_violations_are_built: [
        check(All, &["crates/mc/src/flat.rs", "crates/mc/src/hier.rs"],
              &["ViolationKind::Swmr", "ViolationKind::DataValue", "ViolationKind::Deadlock"])
            => ("crates/mc/src/hier.rs", "ViolationKind::Deadlock,")],
    stepping_and_the_symmetry_sweep_are_written_once: [
        check(All, &["crates/mc/src/flat.rs", "crates/mc/src/hier.rs"],
              &[".select(", "ChannelOverflow(", "perm_tables"])
            => ("crates/mc/src/flat.rs", "let t = perm_tables(n);"),
        check(NonTest, &["crates/litmus/src/**"],
              &[".apply(", "UnexpectedMessage(", "ChannelOverflow("])
            => ("crates/litmus/src/machine.rs",
                "let applied = machine.apply(arc, msg, ctx, store_value, out);")],
    the_frontier_is_appended_in_one_place: [
        check(All, &["crates/mc/src/*.rs"], &["enc_scratch", "encode_best_into",
              "fn encode_canonical_into(&self, scratch", "global_bytes"])
            => ("crates/mc/src/frontier.rs", "let enc_scratch = Vec::new();"),
        check(Code, &["crates/mc/src/*.rs", "!crates/mc/src/explore.rs",
              "!crates/mc/src/checkpoint.rs"], &["put_record("]).lines(&["!fn put_record"])
            => ("crates/mc/src/flat.rs", "put_record(&mut out, lid, false, body);"),
        check(Code, &["crates/mc/src/explore.rs"], &["put_record("])
            .lines(&["!fn put_record"]).count(0, 1)
            => ("crates/mc/src/explore.rs", "put_record(&mut out, lid, false, body);"),
        check(Code, &["crates/mc/src/checkpoint.rs"], &["put_record("])
            .lines(&["!fn put_record"]).count(0, 1)
            => ("crates/mc/src/checkpoint.rs", "put_record(&mut out, lid, false, body);")],
    the_explorer_reads_one_configuration_and_one_arena: [
        check(All, &["crates/mc/src/**"], &["Resources", "fn resources"])
            => ("crates/mc/src/system.rs", "fn resources(&self) -> Resources;"),
        check(All, &["crates/**"], &["value_domain"])
            => ("crates/sim/src/config.rs", "value_domain: u8,"),
        check(All, &["crates/serve/**"], &["FaultPlan"])
            => ("crates/serve/src/fault.rs", "pub struct FaultPlan;"),
        check(All, &["crates/mc/src/explore.rs"], &["map:", "delta_mode:", "prev_full:",
              "cur_full:", "chunk_buf:", "chunk_at:", "cur:", "next:", "pool:", "pages:",
              "front:", "base:"]).scope(&["struct Worker"])
            => ("crates/mc/src/explore.rs", "struct Worker {\n    pool: Vec<Page>,\n}"),
        check(Code, &["crates/mc/src/explore.rs"], &[".pop()"]).lines(&["frontier"]).count(1, 1)
            => ("crates/mc/src/explore.rs", "let e = self.frontier.pop();"),
        check(Code, &["crates/mc/src/explore.rs"], &["Record::parse("]).scope(&["!fn pop("])
            => ("crates/mc/src/explore.rs", "let r = Record::parse(bytes);")],
    the_visited_set_is_one_column_and_its_slots: [
        check(Code, &["crates/mc/src/store.rs"], &["HashMap"])
            => ("crates/mc/src/store.rs", "use std::collections::HashMap;"),
        check(All, &["crates/**"], &["FpPassthroughHasher"])
            => ("crates/mc/src/store.rs", "struct FpPassthroughHasher;")],
    coverage_is_recorded_in_one_place: [
        check(All, &["**.rs", "!tests/structure.rs"],
              &["collect_coverage", "collect_pair_coverage"])
            => ("benchmark/src/main.rs", "cfg.collect_coverage = true;"),
        check(Code, &["crates/mc/src/*.rs", "crates/sim/src/*.rs", "crates/serve/src/*.rs"],
              &["PairSet::new()", ".insert(("])
            => ("crates/sim/src/engine.rs", "let mut seen = PairSet::new();")],
    batch_fan_out_is_written_once: [
        check(All, &["crates/sim/src/**", "crates/fuzz/src/**", "crates/litmus/src/**"],
              &["thread::scope"])
            => ("crates/litmus/src/lib.rs", "std::thread::scope(|s| run(s));")],
    the_fuzzer_has_one_stage_guard_and_one_spelling_of_each_outcome: [
        check(NonTest, &["crates/fuzz/src/*.rs"], &["catch_unwind"]).count(1, 1)
            => ("crates/fuzz/src/harness.rs", "let r = std::panic::catch_unwind(f);"),
        check(NonTest, &["crates/fuzz/src/*.rs"], &["\"rejected-at-build\"",
              "\"rejected-by-generator\"", "\"rejected-by-checker\"", "\"silent-pass\"",
              "\"resource-exhausted\"", "\"generator-panic\"", "\"exec-violation\"",
              "\"checker-panic\"", "\"mutation-inapplicable\""]).count(1, 1)
            => ("crates/fuzz/src/run.rs", "\"silent-pass\" => Outcome::SilentPass,")],
    front_ends_keep_only_what_a_caller_reaches: [
        check(All, &["crates/dsl/src/render.rs"], &[""])
            => ("crates/dsl/src/render.rs", "pub fn render() {}"),
        check(All, &["crates/**"], &["fn render_trace", "fn parse_composition"])
            => ("crates/dsl/src/lib.rs", "pub fn parse_composition(src: &str) {}"),
        check(All, &["crates/sim/src/sweep.rs"], &["pub n_addrs:", "pub think_time:",
              "pub max_cycles:"]).scope(&["struct SweepConfig"])
            => ("crates/sim/src/sweep.rs", "pub struct SweepConfig {\n    pub think_time: u64,")],
    each_bundled_protocol_is_written_once: [
        check(All, &["crates/**", "src/**", "tests/**", "examples/**", "!tests/structure.rs"],
              &["SspBuilder"])
            => ("tests/conformance.rs", "use protogen_spec::SspBuilder;"),
        check(All, &["crates/spec/src/builder.rs", "compat/serde"], &[""])
            => ("compat/serde", ""),
        check(All, &["crates/**.rs", "src/**.rs"],
              &["Serialize,", "Serialize)", "Deserialize,", "Deserialize)", "serde::"])
            => ("crates/spec/src/ssp.rs", "#[derive(Debug, Serialize)]")],
    one_tokenizer_reads_every_token_grammar: [
        check(All, &["crates/**", "!crates/dsl/src/lexer.rs"],
              &["fn tokenize(", "fn lex(", "enum Tok"])
            => ("crates/litmus/src/test.rs", "enum Tok<'a> { Ident(&'a str), Punct(char) }")],
    minimization_keys_on_interned_structure_not_text: [
        check(NonTest, &["crates/core/src/minimize.rs"], &["format!"])
            => ("crates/core/src/minimize.rs", "let key = format!(\"{arc:?}\");")],
}
