//! Hostile input: every text reader of the toolchain — the DSL
//! (`parse`, `parse_protocol`), litmus tests, `.trc` traces
//! and fuzz `.mut` scripts — over a deterministic corpus built from the
//! bundled sources: prefix truncations of each, and single-byte
//! substitutions. Every reader gets every input. Nothing may panic, and
//! an error from a reader that reports lines must name a line of the input
//! it was given.
//!
//! Every truncation of a source re-reads everything before it, so the
//! whole corpus is quadratic in the sources' length: ≈ 20 s of the dev
//! profile for the seven `.pgen` files. The tier-1 test takes every
//! truncation and substitution of the small sources and every 32nd of the
//! `.pgen` ones (a different residue per file); the ignored one takes all
//! of them (`cargo test --release --test hostile_input -- --ignored`, a
//! few seconds).

use protogen::dsl::{parse, parse_protocol, DslError};
use protogen::fuzz::Script;
use protogen::litmus::parse_litmus;
use protogen::sim::{parse_trace, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};

const TRACE: &str = "# two cores ping-pong on block 0\n0 st 0\n1 ld 0\n\n0 ev 0 # evict\n1 st 3\n";
const SCRIPT: &str = "# protogen fuzz reproducer\n# seed 1 mutant 42\nprotocol msi\n\
                      config non-stalling\nmutate flip-permission 1\nmutate drop-ack 0\n";
const COMPOSITION: &str = "protocol H;\ncompose {\n  l1: msi(2);\n  llc: mesi;\n}\n";

/// The bytes a substitution writes, picked by position.
const HOSTILE: &[u8] = b"{};()=,:0 9\n#x/-|&>";

/// The prefixes `src[..k]` and the copies of `src` with byte `k` replaced
/// by a hostile one (for an ASCII byte), for every `k ≡ phase (mod
/// stride)`.
fn corpus(src: &str, stride: usize, phase: usize) -> impl Iterator<Item = String> + '_ {
    let sampled = move |k: &usize| k % stride == phase % stride;
    let prefixes = (0..=src.len()).filter(sampled).filter(|&k| src.is_char_boundary(k));
    let prefixes = prefixes.map(|k| src[..k].to_string());
    let positions = src.bytes().enumerate().filter(move |(i, b)| sampled(i) && b.is_ascii());
    let substituted = positions.map(|(i, _)| {
        let mut bytes = src.as_bytes().to_vec();
        bytes[i] = HOSTILE[i % HOSTILE.len()];
        String::from_utf8(bytes).expect("ASCII for ASCII keeps UTF-8")
    });
    prefixes.chain(substituted)
}

/// The line number a DSL parse error names: the `N` of its last ` at N`
/// or ` at N:M`.
fn dsl_line(msg: &str) -> Option<usize> {
    let tail = &msg[msg.rfind(" at ")? + 4..];
    tail.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Runs every reader on `input`; `Err` names the first reader that
/// panicked or reported a line outside the input.
fn read_all(input: &str) -> Result<(), String> {
    // Lines an error may name: the input's, plus the end-of-input line.
    let lines = input.lines().count().max(1) + 1;
    let named = |what: &str, line: usize| {
        (1..=lines).contains(&line).then_some(()).ok_or(format!("{what} names line {line}"))
    };
    let dsl = |result: Result<_, DslError>| match result {
        Err(DslError::Parse(e)) => {
            named("DSL", dsl_line(&e.0).unwrap_or(0)).map_err(|m| format!("{m}: {e}"))
        }
        _ => Ok(()),
    };
    let guarded = |reader: &str, run: &dyn Fn() -> Result<(), String>| {
        catch_unwind(AssertUnwindSafe(run)).map_err(|_| format!("{reader} panicked"))?
    };
    guarded("parse_protocol", &|| dsl(parse_protocol(input).map(drop)))?;
    guarded("parse", &|| dsl(parse(input).map(drop).map_err(DslError::Parse)))?;
    guarded("parse_litmus", &|| match parse_litmus(input) {
        Err(e) => named("litmus", e.line),
        Ok(_) => Ok(()),
    })?;
    guarded("parse_trace", &|| match parse_trace(input) {
        Err(SimError::Workload(msg)) => {
            let line = msg.strip_prefix("trace line ").and_then(|t| t.split(':').next());
            named("trace", line.and_then(|n| n.parse().ok()).unwrap_or(0))
        }
        Err(e) => Err(format!("trace: {e}")),
        Ok(_) => Ok(()),
    })?;
    guarded("Script::parse", &|| match Script::parse(input) {
        Err(e) if e.line == 0 && e.msg == "missing `protocol` line" => Ok(()),
        Err(e) => named("script", e.line),
        Ok(_) => Ok(()),
    })
}

/// The bundled sources the corpus is built from: the seven `.pgen` files
/// first.
const PGEN: usize = 7;
const SOURCES: [&str; 15] = [
    protogen::dsl::MSI_PGEN,
    protogen::dsl::MESI_PGEN,
    protogen::dsl::MOSI_PGEN,
    protogen::dsl::MSI_UPGRADE_PGEN,
    protogen::dsl::MSI_UNORDERED_PGEN,
    protogen::dsl::TSO_CC_PGEN,
    protogen::dsl::SI_SD_PGEN,
    COMPOSITION,
    protogen::litmus::SB,
    protogen::litmus::MP,
    protogen::litmus::LB,
    protogen::litmus::IRIW,
    protogen::litmus::CORR,
    TRACE,
    SCRIPT,
];

/// Feeds every reader the corpus of every source, `.pgen` sources
/// sampled at `pgen_stride`; returns the number of inputs.
fn read_corpus(pgen_stride: usize) -> usize {
    std::panic::set_hook(Box::new(|_| {})); // a failure is reported with its input
    let mut inputs = 0;
    for (n, src) in SOURCES.into_iter().enumerate() {
        let stride = if n < PGEN { pgen_stride } else { 1 };
        for input in corpus(src, stride, n) {
            inputs += 1;
            if let Err(e) = read_all(&input) {
                let _ = std::panic::take_hook();
                panic!("{e} on this input:\n{input}");
            }
        }
    }
    let _ = std::panic::take_hook();
    inputs
}

#[test]
fn no_reader_panics_on_truncated_or_substituted_sources() {
    let inputs = read_corpus(32);
    assert!(inputs > 3_000, "a corpus of {inputs} inputs");
}

#[test]
#[ignore = "the whole corpus: a few seconds in release, minutes in the dev profile"]
fn no_reader_panics_on_any_truncation_or_substitution() {
    let inputs = read_corpus(1);
    assert!(inputs > 55_000, "a corpus of {inputs} inputs");
}
