//! Classification and reporting: running litmus tests across protocols
//! and deciding SC / TSO / WEAK per protocol.
//!
//! A protocol's verdict on one test compares its outcome set `O` against
//! the reference models: `O ⊆ SC` → SC, else `O ⊆ TSO` → TSO, else WEAK.
//! The protocol's overall verdict is the weakest verdict across the suite,
//! and the suite *passes* for a protocol iff that verdict equals the
//! memory model its SSP promises (`Ssp::consistency`) — a protocol must
//! exhibit its documented relaxations, not just stay within them, so an
//! SC-strong implementation labelled TSO fails the gate just like a
//! too-weak one.

use crate::machine::{outcomes, LitmusError};
use crate::reference::{sc_outcomes, tso_outcomes};
use crate::test::{render_outcomes, LitmusTest, Val};
use protogen_core::{generate, GenConfig, Generated};
use protogen_spec::{MemoryModel, Ssp};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Where a protocol's observable outcomes sit in the model hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every outcome is an SC outcome.
    Sc,
    /// Some outcome needs store buffering, none needs more.
    Tso,
    /// Some outcome is not even a TSO outcome.
    Weak,
}

impl Verdict {
    /// The verdict a protocol's promised memory model corresponds to.
    pub fn promised(m: MemoryModel) -> Verdict {
        match m {
            MemoryModel::Sc => Verdict::Sc,
            MemoryModel::Tso => Verdict::Tso,
            MemoryModel::Weak => Verdict::Weak,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Sc => "SC",
            Verdict::Tso => "TSO",
            Verdict::Weak => "WEAK",
        })
    }
}

/// One protocol's behaviour on one litmus test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestReport {
    /// Test name.
    pub test: String,
    /// Every outcome the protocol can produce.
    pub outcomes: BTreeSet<Vec<Val>>,
    /// Containment verdict for this test alone.
    pub verdict: Verdict,
    /// Size of the SC reference outcome set (for reports).
    pub n_sc: usize,
    /// Size of the TSO reference outcome set (for reports).
    pub n_tso: usize,
    /// Rendered outcomes that violate the test's `forbid` clauses
    /// (must be empty for the suite to pass).
    pub forbidden: Vec<String>,
    /// Rendered outcomes beyond the SC reference (the interesting ones).
    pub beyond_sc: Vec<String>,
    /// States the explorer visited (the same at every worker count; not
    /// rendered).
    pub states: usize,
}

/// One protocol's behaviour across the whole suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolReport {
    /// Protocol name (`Ssp::name`).
    pub protocol: String,
    /// The verdict the SSP's declared consistency model corresponds to.
    pub promised: Verdict,
    /// Per-test results, in suite order.
    pub tests: Vec<TestReport>,
}

impl ProtocolReport {
    /// The weakest per-test verdict: what the protocol observably is.
    pub fn verdict(&self) -> Verdict {
        self.tests.iter().map(|t| t.verdict).max().unwrap_or(Verdict::Sc)
    }

    /// Classified exactly as promised and no forbidden outcome observed.
    pub fn passed(&self) -> bool {
        self.verdict() == self.promised && self.tests.iter().all(|t| t.forbidden.is_empty())
    }
}

/// The full suite result: every protocol against every test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteReport {
    /// Per-protocol results, in input order.
    pub protocols: Vec<ProtocolReport>,
}

impl SuiteReport {
    /// Every protocol classified exactly as promised.
    pub fn passed(&self) -> bool {
        self.protocols.iter().all(ProtocolReport::passed)
    }

    /// A plain-text report (the CLI's output).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for p in &self.protocols {
            let status = if p.passed() { "ok" } else { "FAIL" };
            let (promised, observed) = (p.promised, p.verdict());
            s += &format!("{}: promised {promised}, observed {observed} [{status}]\n", p.protocol);
            for t in &p.tests {
                let (verdict, n, sc, tso) =
                    (t.verdict.to_string(), t.outcomes.len(), t.n_sc, t.n_tso);
                s += &format!(
                    "  {:<5} {verdict:<4} {n} outcomes (SC ref {sc}, TSO ref {tso})",
                    t.test
                );
                if !t.beyond_sc.is_empty() {
                    s.push_str(&format!("; beyond SC: {}", t.beyond_sc.join(" ")));
                }
                if !t.forbidden.is_empty() {
                    s.push_str(&format!("; FORBIDDEN: {}", t.forbidden.join(" ")));
                }
                s.push('\n');
            }
        }
        s
    }

    /// A GitHub-flavoured markdown table (EXPERIMENTS.md, CI artifacts).
    pub fn render_markdown(&self) -> String {
        let tests = self.protocols.first().map_or(&[][..], |p| &p.tests[..]);
        let mut s = String::from("| protocol | promised |");
        for t in tests {
            s.push_str(&format!(" {} |", t.test));
        }
        s.push_str(" observed | gate |\n|---|---|");
        s.push_str(&"---|".repeat(tests.len() + 2));
        s.push('\n');
        for p in &self.protocols {
            s.push_str(&format!("| {} | {} |", p.protocol, p.promised));
            for t in &p.tests {
                s.push_str(&format!(" {} ({}) |", t.verdict, t.outcomes.len()));
            }
            let gate = if p.passed() { "pass" } else { "**fail**" };
            s.push_str(&format!(" {} | {gate} |\n", p.verdict()));
        }
        s
    }
}

/// A [`LitmusError`] with the `(protocol, test)` pair it occurred in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteError {
    /// The protocol being driven.
    pub protocol: String,
    /// The test being enumerated.
    pub test: String,
    /// The underlying failure.
    pub source: LitmusError,
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}: {}", self.protocol, self.test, self.source)
    }
}

impl Error for SuiteError {}

/// Runs one litmus test against `ssp`'s `generated` machines, exploring up
/// to `max_states` states with `threads` workers (0: every core).
///
/// # Errors
///
/// Propagates enumeration failures as [`LitmusError`].
pub fn run_test(
    ssp: &Ssp,
    generated: &Generated,
    test: &LitmusTest,
    max_states: usize,
    threads: usize,
) -> Result<TestReport, LitmusError> {
    let (outcomes, states) = outcomes(ssp, generated, test, max_states, threads)?;
    let sc = sc_outcomes(test);
    let tso = tso_outcomes(test);
    let verdict = if outcomes.is_subset(&sc) {
        Verdict::Sc
    } else if outcomes.is_subset(&tso) {
        Verdict::Tso
    } else {
        Verdict::Weak
    };
    let forbidden: BTreeSet<Vec<Val>> =
        outcomes.iter().filter(|o| test.violates_forbid(o).is_some()).cloned().collect();
    let beyond: BTreeSet<Vec<Val>> = outcomes.difference(&sc).cloned().collect();
    Ok(TestReport {
        test: test.name.clone(),
        verdict,
        n_sc: sc.len(),
        n_tso: tso.len(),
        forbidden: render_outcomes(test, &forbidden),
        beyond_sc: render_outcomes(test, &beyond),
        outcomes,
        states,
    })
}

/// Runs the whole suite: every `ssp` × every `test` in input order, each
/// pair explored with `threads` workers (0: every core) up to `max_states`
/// states. The search is exhaustive, so the report is identical for any
/// worker count — a conformance test relies on this.
///
/// # Errors
///
/// Returns the first failing `(protocol, test)` pair in input order.
pub fn run_suite(
    ssps: &[Ssp],
    tests: &[LitmusTest],
    max_states: usize,
    threads: usize,
) -> Result<SuiteReport, SuiteError> {
    let mut protocols = Vec::new();
    for ssp in ssps {
        let generated = generate(ssp, &GenConfig::default()).expect("bundled protocols generate");
        let run = |test: &LitmusTest| {
            run_test(ssp, &generated, test, max_states, threads).map_err(|source| SuiteError {
                protocol: ssp.name.clone(),
                test: test.name.clone(),
                source,
            })
        };
        protocols.push(ProtocolReport {
            protocol: ssp.name.clone(),
            promised: Verdict::promised(ssp.consistency),
            tests: tests.iter().map(run).collect::<Result<_, _>>()?,
        });
    }
    Ok(SuiteReport { protocols })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MAX_STATES;
    use crate::test::bundled;

    #[test]
    fn verdict_order_matches_model_strength() {
        assert!(Verdict::Sc < Verdict::Tso && Verdict::Tso < Verdict::Weak);
        assert_eq!(Verdict::promised(MemoryModel::Sc), Verdict::Sc);
        assert_eq!(Verdict::promised(MemoryModel::Tso), Verdict::Tso);
        assert_eq!(Verdict::promised(MemoryModel::Weak), Verdict::Weak);
    }

    #[test]
    fn suite_classifies_msi_and_tso_cc_as_promised() {
        let ssps = vec![protogen_protocols::msi(), protogen_protocols::tso_cc()];
        let report = run_suite(&ssps, &bundled(), MAX_STATES, 2).unwrap();
        assert!(report.passed(), "{}", report.render_text());
        assert_eq!(report.protocols[0].verdict(), Verdict::Sc);
        assert_eq!(report.protocols[1].verdict(), Verdict::Tso);
    }

    #[test]
    fn markdown_table_has_a_row_per_protocol() {
        let ssps = vec![protogen_protocols::msi()];
        let report = run_suite(&ssps, &bundled(), MAX_STATES, 1).unwrap();
        let md = report.render_markdown();
        assert!(md.contains("| MSI | SC |"), "{md}");
        assert!(md.contains("| pass |"), "{md}");
    }

    /// The states the explorer visits for every bundled (protocol, test)
    /// pair, in `protogen_protocols::all()` × `bundled()` order, pinned and
    /// equal at 1, 2 and 4 workers. Queues are per (source, destination,
    /// location), so states that differ only in how two locations'
    /// messages interleave on one link are one state.
    #[test]
    fn every_pair_explores_its_pinned_state_count() {
        const STATES: [[usize; 5]; 7] = [
            [154, 125, 135, 133_249, 52],     // MSI
            [154, 125, 135, 133_249, 52],     // MESI
            [126, 99, 117, 130_774, 47],      // MOSI
            [154, 125, 135, 133_249, 52],     // MSI-Upgrade
            [158, 129, 139, 147_044, 56],     // MSI-unordered
            [509, 451, 409, 73_177, 116],     // TSO-CC
            [2376, 1790, 1176, 347_904, 137], // SI-SD
        ];
        let ssps = protogen_protocols::all();
        let reference = run_suite(&ssps, &bundled(), MAX_STATES, 1).unwrap();
        assert!(reference.passed(), "{}", reference.render_text());
        let states: Vec<Vec<usize>> = reference
            .protocols
            .iter()
            .map(|p| p.tests.iter().map(|t| t.states).collect())
            .collect();
        assert_eq!(states, STATES.map(Vec::from), "explored state counts moved");
        for threads in [2, 4] {
            let report = run_suite(&ssps, &bundled(), MAX_STATES, threads).unwrap();
            assert_eq!(report, reference, "{threads} workers changed the report");
        }
    }
}
