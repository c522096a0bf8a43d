//! The litmus test format and its parser.
//!
//! A litmus test is a tiny multi-threaded program over a handful of shared
//! locations plus (optionally) outcomes asserted never to occur. The
//! concrete syntax is the classical assignment shorthand:
//!
//! ```text
//! litmus SB;
//! thread P0 { x = 1; r0 = y; }
//! thread P1 { y = 1; r1 = x; }
//! ```
//!
//! A statement `loc = n;` (integer right-hand side) is a store; a
//! statement `reg = loc;` (identifier right-hand side) is a load into a
//! register. Registers are write-once and globally unique, so the tuple of
//! register values at the end of an execution — in order of first
//! appearance, thread-major — is the test's *outcome*. `forbid (r0=1,
//! r1=0);` asserts that no execution may satisfy all listed equalities
//! (a partial constraint: unlisted registers are unconstrained).
//!
//! All shared locations start at 0; stores should therefore write non-zero
//! values to be observable.

use protogen_dsl::{Cursor, TokenKind, Unexpected};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// A data value (matches [`protogen_runtime::Val`]).
pub type Val = u8;

/// One statement of a litmus thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `reg = loc;` — read `addr` into register `reg`.
    Load {
        /// Index into [`LitmusTest::addrs`].
        addr: u8,
        /// Index into [`LitmusTest::registers`].
        reg: u8,
    },
    /// `loc = n;` — write `val` to `addr`.
    Store {
        /// Index into [`LitmusTest::addrs`].
        addr: u8,
        /// The stored value.
        val: Val,
    },
}

/// A parsed litmus test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusTest {
    /// Test name (`litmus <name>;`).
    pub name: String,
    /// Per-thread programs, in declaration order.
    pub threads: Vec<Vec<Op>>,
    /// Register names; the index is the register id and the position in an
    /// outcome tuple (order of first appearance, thread-major).
    pub registers: Vec<String>,
    /// Shared-location names; the index is the address id.
    pub addrs: Vec<String>,
    /// Forbidden outcomes: each entry is a conjunction of
    /// `(register, value)` equalities that no execution may satisfy.
    pub forbids: Vec<Vec<(u8, Val)>>,
}

impl LitmusTest {
    /// Outcomes (full register tuples) matching a forbid conjunction.
    pub fn violates_forbid(&self, outcome: &[Val]) -> Option<usize> {
        self.forbids
            .iter()
            .position(|conj| conj.iter().all(|&(r, v)| outcome.get(r as usize) == Some(&v)))
    }
}

/// Parse errors, with a line number and explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for LitmusParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "litmus parse error (line {}): {}", self.line, self.msg)
    }
}

impl Error for LitmusParseError {}

/// The classical store-buffering test: the canonical SC/TSO separator.
/// TSO (and anything weaker) allows `(r0, r1) = (0, 0)`.
pub const SB: &str = "litmus SB;
thread P0 { x = 1; r0 = y; }
thread P1 { y = 1; r1 = x; }
";

/// Message passing: a flag-protected publish. Any model at least as strong
/// as TSO forbids `(r0, r1) = (1, 0)`; self-invalidation protocols without
/// epoch decay allow it.
pub const MP: &str = "litmus MP;
thread P0 { x = 1; y = 1; }
thread P1 { r0 = y; r1 = x; }
";

/// Load buffering. `(1, 1)` needs a load to read from a program-order-later
/// store; in-order blocking cores can never show it, so it is asserted
/// forbidden outright.
pub const LB: &str = "litmus LB;
thread P0 { r0 = x; y = 1; }
thread P1 { r1 = y; x = 1; }
forbid (r0=1, r1=1);
";

/// Independent reads of independent writes: the multi-copy-atomicity test.
/// SC and TSO forbid the two readers disagreeing on the write order,
/// `(r0, r1, r2, r3) = (1, 0, 1, 0)`.
pub const IRIW: &str = "litmus IRIW;
thread P0 { x = 1; }
thread P1 { y = 1; }
thread P2 { r0 = x; r1 = y; }
thread P3 { r2 = y; r3 = x; }
";

/// Coherence of read-read pairs: two reads of one location may not observe
/// new-then-old. Even the weak SI/SD protocols keep per-location values
/// monotone at the directory, so `(1, 0)` is asserted forbidden for all.
pub const CORR: &str = "litmus CoRR;
thread P0 { x = 1; }
thread P1 { r0 = x; r1 = x; }
forbid (r0=1, r1=0);
";

/// The bundled tests, parsed: SB, MP, LB, IRIW, CoRR.
pub fn bundled() -> Vec<LitmusTest> {
    [SB, MP, LB, IRIW, CORR]
        .iter()
        .map(|src| parse_litmus(src).expect("bundled litmus sources parse"))
        .collect()
}

/// The limits the harness machinery depends on: thread count is bounded by
/// the runtime's 8-bit sharer bitmask, the rest keep state tuples small.
pub const MAX_THREADS: usize = 8;
/// Maximum distinct shared locations per test.
pub const MAX_ADDRS: usize = 8;
/// Maximum registers (and thus loads) per test.
pub const MAX_REGISTERS: usize = 16;

impl From<Unexpected<'_>> for LitmusParseError {
    fn from(u: Unexpected<'_>) -> Self {
        LitmusParseError { line: u.at.line, msg: u.to_string() }
    }
}

fn fail<T>(line: usize, msg: impl Into<String>) -> Result<T, LitmusParseError> {
    Err(LitmusParseError { line, msg: msg.into() })
}

/// `n` as a [`Val`], or the error naming `line`.
fn val(n: u64, line: usize) -> Result<Val, LitmusParseError> {
    Val::try_from(n).or_else(|_| fail(line, format!("value {n} exceeds {}", Val::MAX)))
}

/// Parses litmus source into a validated [`LitmusTest`], through the DSL's
/// tokenizer and [`Cursor`].
///
/// # Errors
///
/// Returns a [`LitmusParseError`] for syntax errors and for semantic
/// problems: register reuse, a name used both as register and location,
/// or exceeding [`MAX_THREADS`] / [`MAX_ADDRS`] / [`MAX_REGISTERS`].
pub fn parse_litmus(src: &str) -> Result<LitmusTest, LitmusParseError> {
    let mut cur = Cursor::new(src).or_else(|e| fail(e.at.line, e.msg))?;
    if !cur.eat_ident("litmus") {
        return fail(cur.line(), format!("expected `litmus`, found {}", cur.peek()));
    }
    let name = cur.ident()?.to_string();
    cur.expect(&TokenKind::Semi)?;

    let mut threads: Vec<Vec<Op>> = Vec::new();
    let mut registers: Vec<String> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    let mut forbids: Vec<Vec<(u8, Val)>> = Vec::new();

    let intern_addr = |addrs: &mut Vec<String>, name: &str, line| -> Result<u8, LitmusParseError> {
        if let Some(i) = addrs.iter().position(|a| a == name) {
            return Ok(i as u8);
        }
        if addrs.len() >= MAX_ADDRS {
            return fail(line, format!("more than {MAX_ADDRS} locations"));
        }
        addrs.push(name.to_string());
        Ok((addrs.len() - 1) as u8)
    };

    loop {
        let line = cur.line();
        match cur.bump() {
            TokenKind::Eof => break,
            TokenKind::Ident("thread") => {
                cur.ident()?; // thread label, informational
                if threads.len() >= MAX_THREADS {
                    return fail(cur.line(), format!("more than {MAX_THREADS} threads"));
                }
                cur.expect(&TokenKind::LBrace)?;
                let mut ops = Vec::new();
                while *cur.peek() != TokenKind::RBrace {
                    let line = cur.line();
                    let lhs = cur.ident()?;
                    cur.expect(&TokenKind::Eq)?;
                    match cur.bump() {
                        TokenKind::Int(n) => {
                            let val = val(n, line)?;
                            let addr = intern_addr(&mut addrs, lhs, line)?;
                            ops.push(Op::Store { addr, val });
                        }
                        TokenKind::Ident(loc) => {
                            if registers.iter().any(|r| r == lhs) {
                                return fail(line, format!("register {lhs} assigned twice"));
                            }
                            if registers.len() >= MAX_REGISTERS {
                                return fail(line, format!("more than {MAX_REGISTERS} registers"));
                            }
                            registers.push(lhs.to_string());
                            let reg = (registers.len() - 1) as u8;
                            let addr = intern_addr(&mut addrs, loc, line)?;
                            ops.push(Op::Load { addr, reg });
                        }
                        t => return fail(line, format!("expected value or location, found {t}")),
                    }
                    cur.expect(&TokenKind::Semi)?;
                }
                cur.expect(&TokenKind::RBrace)?;
                threads.push(ops);
            }
            TokenKind::Ident("forbid") => {
                cur.expect(&TokenKind::LParen)?;
                let mut conj = Vec::new();
                loop {
                    let line = cur.line();
                    let reg_name = cur.ident()?;
                    let Some(reg) = registers.iter().position(|r| r == reg_name) else {
                        return fail(line, format!("unknown register {reg_name}"));
                    };
                    cur.expect(&TokenKind::Eq)?;
                    match cur.bump() {
                        TokenKind::Int(n) => conj.push((reg as u8, val(n, line)?)),
                        t => return fail(line, format!("expected value, found {t}")),
                    }
                    match cur.bump() {
                        TokenKind::Comma => continue,
                        TokenKind::RParen => break,
                        TokenKind::Eof => return fail(cur.line(), "unterminated forbid clause"),
                        t => return fail(cur.line(), format!("expected `,` or `)`, found {t}")),
                    }
                }
                cur.expect(&TokenKind::Semi)?;
                forbids.push(conj);
            }
            t => return fail(line, format!("expected `thread` or `forbid`, found {t}")),
        }
    }

    if threads.is_empty() {
        return fail(1, "litmus test declares no threads");
    }
    if let Some(clash) = registers.iter().find(|r| addrs.contains(r)) {
        return fail(1, format!("{clash} used both as register and location"));
    }
    Ok(LitmusTest { name, threads, registers, addrs, forbids })
}

/// Collects the distinct outcome tuples of `set` as display strings
/// (`"(r0=0, r1=1)"`) — used by reports and error messages.
pub fn render_outcomes(test: &LitmusTest, set: &BTreeSet<Vec<Val>>) -> Vec<String> {
    set.iter()
        .map(|o| {
            let fields: Vec<String> =
                o.iter().enumerate().map(|(i, v)| format!("{}={v}", test.registers[i])).collect();
            format!("({})", fields.join(", "))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_tests_parse() {
        let tests = bundled();
        assert_eq!(tests.len(), 5);
        let sb = &tests[0];
        assert_eq!(sb.name, "SB");
        assert_eq!(sb.threads.len(), 2);
        assert_eq!(sb.registers, vec!["r0", "r1"]);
        assert_eq!(sb.addrs, vec!["x", "y"]);
        assert_eq!(
            sb.threads[0],
            vec![Op::Store { addr: 0, val: 1 }, Op::Load { addr: 1, reg: 0 }]
        );
        let iriw = &tests[3];
        assert_eq!(iriw.threads.len(), 4);
        assert_eq!(iriw.registers.len(), 4);
    }

    #[test]
    fn forbid_is_a_partial_constraint() {
        let corr = parse_litmus(CORR).unwrap();
        assert_eq!(corr.violates_forbid(&[1, 0]), Some(0));
        assert_eq!(corr.violates_forbid(&[1, 1]), None);
        assert_eq!(corr.violates_forbid(&[0, 0]), None);
    }

    #[test]
    fn rejects_register_reuse_and_name_clashes() {
        let reuse = "litmus T;\nthread P0 { r0 = x; r0 = y; }\n";
        assert!(parse_litmus(reuse).unwrap_err().msg.contains("assigned twice"));
        let clash = "litmus T;\nthread P0 { x = 1; x = y; }\n";
        assert!(parse_litmus(clash).unwrap_err().msg.contains("both as register and location"));
        let noreg = "litmus T;\nthread P0 { r0 = x; }\nforbid (bogus=1);\n";
        assert!(parse_litmus(noreg).unwrap_err().msg.contains("unknown register"));
    }

    /// Litmus sources are read by the DSL's tokenizer: its identifiers
    /// (non-ASCII ones too) and comments, and its tokens named in errors,
    /// each on its own line.
    #[test]
    fn sources_read_through_the_dsl_tokenizer() {
        let src = "litmus Ü;\nthread P0 { /* store */ é = 1; r0 = y; } // load\n";
        let t = parse_litmus(src).unwrap();
        assert_eq!(t.name, "Ü");
        assert_eq!(t.addrs, ["é", "y"]);
        for (src, line, msg) in [
            ("litmus T;\nthread P0 {\n x: 1; }\n", 3, "expected `=`, found `:`"),
            (
                "litmus T;\nthread P0 { r0 = x; }\nforbid (r0 -> 1);\n",
                3,
                "expected `=`, found `->`",
            ),
            ("litmus T;\nthread P0 { x = 256; }\n", 2, "value 256 exceeds 255"),
            ("litmus T;\nthread P0 { x = 1 }\n", 2, "expected `;`, found `}`"),
            ("litmus T;\nthread P0 { x = 1; /* }\n", 2, "unterminated block comment"),
        ] {
            let err = parse_litmus(src).unwrap_err();
            assert_eq!((err.line, err.msg.as_str()), (line, msg), "{src:?}");
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_litmus("litmus T;\nthread P0 { x # 1; }\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_litmus("").is_err());
        assert!(parse_litmus("litmus T;").unwrap_err().msg.contains("no threads"));
    }

    /// A token where a name belongs is reported on its own line, also when
    /// it ends that line.
    #[test]
    fn a_bad_name_at_the_end_of_a_line_names_its_own_line() {
        let err = parse_litmus("litmus 5\n;\nthread P0 { x = 1; }\n").unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (1, "expected identifier, found `5`"));
    }
}
