//! The replayable `.ssp`-mutation script format.
//!
//! A script names a bundled base protocol, the generator configuration,
//! and an ordered mutation list — everything needed to reconstruct a
//! mutant exactly. The fuzzer emits one for every shrunk unexpected
//! outcome; `protogen fuzz --replay FILE` runs one back through the
//! pipeline.
//!
//! ```text
//! # protogen fuzz reproducer
//! protocol msi
//! config non-stalling
//! mutate flip-permission 1
//! mutate drop-ack 0
//! ```

use crate::harness::Subject;
use crate::mutate::{MutOp, Mutation};
use protogen_core::GenConfig;
use protogen_spec::Ssp;
use std::fmt;

/// A parsed (or to-be-rendered) mutation script.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// CLI name of the base protocol (see `protogen_protocols::NAMES`).
    pub protocol: String,
    /// `true` for stalling generation.
    pub stalling: bool,
    /// The ordered mutation list.
    pub mutations: Vec<Mutation>,
}

impl Script {
    /// The generator configuration the script selects.
    pub fn gen_config(&self) -> GenConfig {
        if self.stalling {
            GenConfig::stalling()
        } else {
            GenConfig::non_stalling()
        }
    }

    /// The configuration's script name: `stalling` or `non-stalling`.
    pub(crate) fn config(&self) -> &'static str {
        if self.stalling {
            "stalling"
        } else {
            "non-stalling"
        }
    }

    /// The flat subject the script describes, applied to `base` (the
    /// protocol the script names).
    pub fn subject(&self, base: Ssp) -> Subject {
        let (mutations, gen) = (self.mutations.clone(), self.gen_config());
        Subject::Flat { base, mutations, gen, full_invariants: false }
    }

    /// Renders the script with an optional `# …` comment header line.
    pub fn render(&self, comment: &str) -> String {
        let mut out = String::from("# protogen fuzz reproducer\n");
        if !comment.is_empty() {
            for line in comment.lines() {
                out.push_str(&format!("# {line}\n"));
            }
        }
        out.push_str(&format!("protocol {}\n", self.protocol));
        out.push_str(&format!("config {}\n", self.config()));
        for m in &self.mutations {
            out.push_str(&format!("mutate {m}\n"));
        }
        out
    }

    /// Parses a script.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn parse(src: &str) -> Result<Script, ScriptError> {
        let mut protocol: Option<String> = None;
        let mut stalling = false;
        let mut mutations = Vec::new();
        for (lineno, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| ScriptError { line: lineno + 1, msg };
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("protocol") => {
                    let name = parts.next().ok_or_else(|| err("`protocol` needs a name".into()))?;
                    protocol = Some(name.to_string());
                }
                Some("config") => match parts.next() {
                    Some("stalling") => stalling = true,
                    Some("non-stalling") => stalling = false,
                    other => {
                        return Err(err(format!(
                            "`config` must be stalling or non-stalling, got {other:?}"
                        )))
                    }
                },
                Some("mutate") => {
                    let op_name =
                        parts.next().ok_or_else(|| err("`mutate` needs an operator".into()))?;
                    let op = MutOp::by_name(op_name)
                        .ok_or_else(|| err(format!("unknown operator `{op_name}`")))?;
                    let site: usize = parts
                        .next()
                        .ok_or_else(|| err("`mutate` needs a site index".into()))?
                        .parse()
                        .map_err(|_| err("site must be a non-negative integer".into()))?;
                    mutations.push(Mutation { op, site });
                }
                Some(other) => return Err(err(format!("unknown directive `{other}`"))),
                None => unreachable!("blank lines are skipped"),
            }
            if let Some(extra) = parts.next() {
                return Err(err(format!("trailing token `{extra}`")));
            }
        }
        let protocol = protocol
            .ok_or_else(|| ScriptError { line: 0, msg: "missing `protocol` line".into() })?;
        Ok(Script { protocol, stalling, mutations })
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(""))
    }
}

/// A script parse error, with the 1-based offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number (0 for whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_round_trip() {
        let s = Script {
            protocol: "msi".into(),
            stalling: true,
            mutations: vec![
                Mutation { op: MutOp::FlipPermission, site: 1 },
                Mutation { op: MutOp::DropAck, site: 0 },
            ],
        };
        let text = s.render("seed 1 mutant 42 — outcome generator-panic");
        let parsed = Script::parse(&text).unwrap();
        assert_eq!(parsed, s);
        assert!(text.contains("# seed 1 mutant 42"), "{text}");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Script::parse("protocol msi\nmutate bogus-op 0\n").is_err());
        assert!(Script::parse("mutate drop-ack 0\n").is_err(), "missing protocol");
        assert!(Script::parse("protocol msi\nmutate drop-ack zero\n").is_err());
        assert!(Script::parse("protocol msi\nfrobnicate 1\n").is_err());
        assert!(Script::parse("protocol msi extra\n").is_err());
    }
}
