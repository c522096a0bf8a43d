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

use crate::machine::{Harness, Limits, LitmusError};
use crate::reference::{sc_outcomes, tso_outcomes};
use crate::test::{render_outcomes, LitmusTest, Val};
use protogen_core::{generate, par, GenConfig};
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
            s.push_str(&format!(
                "{}: promised {}, observed {} [{}]\n",
                p.protocol,
                p.promised,
                p.verdict(),
                status
            ));
            for t in &p.tests {
                s.push_str(&format!(
                    "  {:<5} {:<4} {} outcomes (SC ref {}, TSO ref {})",
                    t.test,
                    t.verdict.to_string(),
                    t.outcomes.len(),
                    t.n_sc,
                    t.n_tso
                ));
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
        let tests: Vec<&str> = self
            .protocols
            .first()
            .map(|p| p.tests.iter().map(|t| t.test.as_str()).collect())
            .unwrap_or_default();
        let mut s = String::from("| protocol | promised |");
        for t in &tests {
            s.push_str(&format!(" {t} |"));
        }
        s.push_str(" observed | gate |\n|---|---|");
        s.push_str(&"---|".repeat(tests.len() + 2));
        s.push('\n');
        for p in &self.protocols {
            s.push_str(&format!("| {} | {} |", p.protocol, p.promised));
            for t in &p.tests {
                s.push_str(&format!(" {} ({}) |", t.verdict, t.outcomes.len()));
            }
            s.push_str(&format!(
                " {} | {} |\n",
                p.verdict(),
                if p.passed() { "pass" } else { "**fail**" }
            ));
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

/// Runs one litmus test against one wired-up protocol.
///
/// # Errors
///
/// Propagates enumeration failures as [`LitmusError`].
pub fn run_test(
    harness: &Harness<'_>,
    test: &LitmusTest,
    limits: &Limits,
) -> Result<TestReport, LitmusError> {
    let outcomes = harness.outcomes(test, limits)?;
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
    })
}

/// Runs the whole suite: every `ssp` × every `test`, fanned over `workers`
/// threads (0: every core) by [`par::map_indexed`], pair `i` on worker
/// `i % workers`. The report is assembled in input order, so it is
/// identical for any worker count — a conformance test relies on this.
///
/// # Errors
///
/// Returns the first failing `(protocol, test)` pair in input order.
pub fn run_suite(
    ssps: &[Ssp],
    tests: &[LitmusTest],
    limits: &Limits,
    workers: usize,
) -> Result<SuiteReport, SuiteError> {
    let generated: Vec<_> = ssps
        .iter()
        .map(|ssp| generate(ssp, &GenConfig::default()).expect("bundled protocols generate"))
        .collect();
    let harnesses: Vec<Harness<'_>> =
        ssps.iter().zip(&generated).map(|(ssp, g)| Harness::new(ssp, g)).collect();

    let pairs: Vec<(usize, usize)> =
        (0..ssps.len()).flat_map(|p| (0..tests.len()).map(move |t| (p, t))).collect();
    let results = par::map_indexed(pairs.len(), workers, |i| {
        let (p, t) = pairs[i];
        run_test(&harnesses[p], &tests[t], limits).map_err(|e| SuiteError {
            protocol: ssps[p].name.clone(),
            test: tests[t].name.clone(),
            source: e,
        })
    });

    let mut protocols: Vec<ProtocolReport> = ssps
        .iter()
        .map(|ssp| ProtocolReport {
            protocol: ssp.name.clone(),
            promised: Verdict::promised(ssp.consistency),
            tests: Vec::new(),
        })
        .collect();
    for (result, &(p, _)) in results.into_iter().zip(&pairs) {
        protocols[p].tests.push(result?);
    }
    Ok(SuiteReport { protocols })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let report = run_suite(&ssps, &bundled(), &Limits::default(), 2).unwrap();
        assert!(report.passed(), "{}", report.render_text());
        assert_eq!(report.protocols[0].verdict(), Verdict::Sc);
        assert_eq!(report.protocols[1].verdict(), Verdict::Tso);
    }

    #[test]
    fn markdown_table_has_a_row_per_protocol() {
        let ssps = vec![protogen_protocols::msi()];
        let report = run_suite(&ssps, &bundled(), &Limits::default(), 1).unwrap();
        let md = report.render_markdown();
        assert!(md.contains("| MSI | SC |"), "{md}");
        assert!(md.contains("| pass |"), "{md}");
    }
}
