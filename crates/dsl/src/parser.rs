//! Recursive-descent parser for the ProtoGen DSL.

use crate::ast::*;
use crate::lexer::{Cursor, TokenKind, Unexpected};

/// Parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl From<Unexpected<'_>> for ParseError {
    fn from(u: Unexpected<'_>) -> Self {
        ParseError(format!("{u} at {}", u.at))
    }
}

/// Parses DSL source into an AST.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic problem.
pub fn parse(src: &str) -> Result<Spec, ParseError> {
    let mut p = Cursor::new(src).map_err(|e| ParseError(e.to_string()))?;

    // protocol NAME;
    if !p.eat_ident("protocol") {
        return Err(ParseError(format!("expected `protocol` header at {}", p.here())));
    }
    let name = p.ident()?.to_string();
    p.expect(&TokenKind::Semi)?;

    let mut spec = Spec {
        name,
        ordered: true,
        consistency: "sc".to_string(),
        si_epoch: false,
        messages: vec![],
        cache_states: vec![],
        dir_states: vec![],
        cache_procs: vec![],
        dir_procs: vec![],
        compose: vec![],
    };

    loop {
        match *p.peek() {
            TokenKind::Eof => break,
            TokenKind::Ident(word) => match word {
                "network" => {
                    p.bump();
                    let at = p.here();
                    let mode = p.ident()?;
                    spec.ordered = match mode {
                        "ordered" => true,
                        "unordered" => false,
                        other => {
                            return Err(ParseError(format!(
                                "network must be ordered|unordered, found `{other}` at {at}"
                            )))
                        }
                    };
                    p.expect(&TokenKind::Semi)?;
                }
                "consistency" => {
                    p.bump();
                    let at = p.here();
                    let model = p.ident()?;
                    match model {
                        "sc" | "tso" | "weak" => spec.consistency = model.to_string(),
                        other => {
                            return Err(ParseError(format!(
                                "consistency must be sc|tso|weak, found `{other}` at {at}"
                            )))
                        }
                    }
                    p.expect(&TokenKind::Semi)?;
                }
                "si" => {
                    p.bump();
                    let at = p.here();
                    let mode = p.ident()?;
                    spec.si_epoch = match mode {
                        "epoch" => true,
                        "line" => false,
                        other => {
                            return Err(ParseError(format!(
                                "si must be epoch|line, found `{other}` at {at}"
                            )))
                        }
                    };
                    p.expect(&TokenKind::Semi)?;
                }
                "message" => {
                    p.bump();
                    spec.messages.push(parse_message(&mut p)?);
                }
                "cache" => {
                    p.bump();
                    spec.cache_states = parse_states(&mut p)?;
                }
                "directory" => {
                    p.bump();
                    spec.dir_states = parse_states(&mut p)?;
                }
                "compose" => {
                    p.bump();
                    parse_compose(&mut p, &mut spec.compose)?;
                }
                "architecture" => {
                    p.bump();
                    let at = p.here();
                    let which = p.ident()?;
                    let procs = parse_arch(&mut p)?;
                    match which {
                        "cache" => spec.cache_procs = procs,
                        "directory" => spec.dir_procs = procs,
                        other => {
                            return Err(ParseError(format!(
                                "architecture must be cache|directory, found `{other}` at {at}"
                            )))
                        }
                    }
                }
                other => {
                    return Err(ParseError(format!(
                        "unexpected top-level `{other}` at {}",
                        p.here()
                    )))
                }
            },
            other => return Err(ParseError(format!("unexpected {other} at {}", p.here()))),
        }
    }
    Ok(spec)
}

/// `compose { l1: msi-upgrade(2); llc: mesi; }` — one or more levels,
/// leaf-first, each a label, a protocol name, and an optional
/// parenthesized fanout. A protocol name is identifiers joined by `-`, as
/// the CLI spells the bundled protocols. All words are contextual
/// identifiers, so labels or protocols named `compose` (or any other
/// keyword) parse fine.
fn parse_compose(p: &mut Cursor<'_>, out: &mut Vec<ComposeLevel>) -> Result<(), ParseError> {
    p.expect(&TokenKind::LBrace)?;
    if *p.peek() == TokenKind::RBrace {
        return Err(ParseError(format!("empty compose block at {}", p.here())));
    }
    while *p.peek() != TokenKind::RBrace {
        let label = p.ident()?.to_string();
        p.expect(&TokenKind::Colon)?;
        let mut protocol = p.ident()?.to_string();
        while *p.peek() == TokenKind::Minus {
            p.bump();
            protocol = format!("{protocol}-{}", p.ident()?);
        }
        let fanout = if *p.peek() == TokenKind::LParen {
            p.bump();
            let v = match p.bump() {
                TokenKind::Int(v) => v,
                other => {
                    return Err(ParseError(format!(
                        "expected fanout integer, found {other} at {}",
                        p.here()
                    )))
                }
            };
            p.expect(&TokenKind::RParen)?;
            Some(v)
        } else {
            None
        };
        p.expect(&TokenKind::Semi)?;
        out.push(ComposeLevel { label, protocol, fanout });
    }
    p.expect(&TokenKind::RBrace)?;
    Ok(())
}

fn parse_message(p: &mut Cursor<'_>) -> Result<MessageDecl, ParseError> {
    let name = p.ident()?.to_string();
    p.expect(&TokenKind::Colon)?;
    let class = p.ident()?.to_string();
    let mut fields = vec![];
    if *p.peek() == TokenKind::LBrace {
        p.bump();
        loop {
            fields.push(p.ident()?.to_string());
            if *p.peek() == TokenKind::Comma {
                p.bump();
            } else {
                break;
            }
        }
        p.expect(&TokenKind::RBrace)?;
    }
    let vnet = if p.eat_ident("on") { Some(p.ident()?.to_string()) } else { None };
    p.expect(&TokenKind::Semi)?;
    Ok(MessageDecl { name, class, fields, vnet })
}

fn parse_states(p: &mut Cursor<'_>) -> Result<Vec<StateDecl>, ParseError> {
    p.expect(&TokenKind::LBrace)?;
    let mut out = vec![];
    while *p.peek() != TokenKind::RBrace {
        if !p.eat_ident("state") {
            return Err(ParseError(format!("expected `state` at {}", p.here())));
        }
        let name = p.ident()?.to_string();
        let mut perm = "none".to_string();
        let mut data = false;
        while *p.peek() != TokenKind::Semi {
            let at = p.here();
            let w = p.ident()?;
            match w {
                "read" | "readwrite" | "none" => perm = w.to_string(),
                "data" => data = true,
                other => return Err(ParseError(format!("unknown state flag `{other}` at {at}"))),
            }
        }
        p.expect(&TokenKind::Semi)?;
        out.push(StateDecl { name, perm, data });
    }
    p.expect(&TokenKind::RBrace)?;
    Ok(out)
}

fn parse_arch(p: &mut Cursor<'_>) -> Result<Vec<Process>, ParseError> {
    p.expect(&TokenKind::LBrace)?;
    let mut out = vec![];
    while *p.peek() != TokenKind::RBrace {
        if !p.eat_ident("process") {
            return Err(ParseError(format!("expected `process` at {}", p.here())));
        }
        p.expect(&TokenKind::LParen)?;
        let state = p.ident()?.to_string();
        p.expect(&TokenKind::Comma)?;
        let trigger = p.ident()?.to_string();
        p.expect(&TokenKind::RParen)?;
        let guards = parse_guards(p)?;
        p.expect(&TokenKind::LBrace)?;
        let mut body = vec![];
        let mut next = None;
        let mut awaits = vec![];
        loop {
            match *p.peek() {
                TokenKind::RBrace => {
                    p.bump();
                    break;
                }
                TokenKind::Arrow => {
                    p.bump();
                    next = Some(p.ident()?.to_string());
                    p.expect(&TokenKind::Semi)?;
                }
                TokenKind::Ident("await") => {
                    p.bump();
                    awaits.push(parse_await(p)?);
                }
                _ => body.push(parse_stmt(p)?),
            }
        }
        out.push(Process { state, trigger, guards, body, next, awaits });
    }
    p.expect(&TokenKind::RBrace)?;
    Ok(out)
}

fn parse_guards(p: &mut Cursor<'_>) -> Result<Vec<String>, ParseError> {
    let mut out = vec![];
    if p.eat_ident("if") {
        loop {
            out.push(p.ident()?.to_string());
            if *p.peek() == TokenKind::AndAnd {
                p.bump();
            } else {
                break;
            }
        }
    }
    Ok(out)
}

fn parse_await(p: &mut Cursor<'_>) -> Result<AwaitBlock, ParseError> {
    let tag = p.ident()?.to_string();
    p.expect(&TokenKind::LBrace)?;
    let mut whens = vec![];
    while *p.peek() != TokenKind::RBrace {
        if !p.eat_ident("when") {
            return Err(ParseError(format!("expected `when` at {}", p.here())));
        }
        let msg = p.ident()?.to_string();
        let guards = parse_guards(p)?;
        p.expect(&TokenKind::Colon)?;
        let mut stmts = vec![];
        let target;
        loop {
            match *p.peek() {
                TokenKind::Arrow => {
                    p.bump();
                    let s = p.ident()?.to_string();
                    p.expect(&TokenKind::Semi)?;
                    target = WhenTarget::Done(s);
                    break;
                }
                TokenKind::FatArrow => {
                    p.bump();
                    let s = p.ident()?.to_string();
                    p.expect(&TokenKind::Semi)?;
                    target = WhenTarget::Wait(s);
                    break;
                }
                _ => stmts.push(parse_stmt(p)?),
            }
        }
        whens.push(WhenArm { msg, guards, stmts, target });
    }
    p.expect(&TokenKind::RBrace)?;
    Ok(AwaitBlock { tag, whens })
}

fn parse_stmt(p: &mut Cursor<'_>) -> Result<Stmt, ParseError> {
    let word = p.ident()?;
    if word == "send" {
        let msg = p.ident()?.to_string();
        let mut args = vec![];
        if *p.peek() == TokenKind::LParen {
            p.bump();
            while *p.peek() != TokenKind::RParen {
                let mut a = p.ident()?.to_string();
                if *p.peek() == TokenKind::Eq {
                    p.bump();
                    let at = p.here();
                    match p.bump() {
                        TokenKind::Ident(v) => a = format!("{a}={v}"),
                        TokenKind::Int(v) => a = format!("{a}={v}"),
                        other => {
                            return Err(ParseError(format!("bad send argument {other} at {at}")))
                        }
                    }
                }
                args.push(a);
                if *p.peek() == TokenKind::Comma {
                    p.bump();
                }
            }
            p.expect(&TokenKind::RParen)?;
        }
        if !p.eat_ident("to") {
            return Err(ParseError(format!("expected `to` in send at {}", p.here())));
        }
        let dst = p.ident()?.to_string();
        p.expect(&TokenKind::Semi)?;
        Ok(Stmt::Send { msg, args, dst })
    } else {
        p.expect(&TokenKind::Semi)?;
        Ok(Stmt::Word(word.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = r#"
        protocol Toy;
        network ordered;
        message Get : request;
        message Data : response { data };
        cache { state I; state V read; }
        directory { state I; state V; }
        architecture cache {
            process(V, load) { perform; }
            process(I, load) {
                send Get to dir;
                await D { when Data: copy_data; perform; -> V; }
            }
        }
        architecture directory {
            process(I, Get) { send Data(data) to req; -> V; }
        }
    "#;

    #[test]
    fn parses_toy_protocol() {
        let spec = parse(TOY).unwrap();
        assert_eq!(spec.name, "Toy");
        assert!(spec.ordered);
        assert_eq!(spec.messages.len(), 2);
        assert_eq!(spec.cache_states.len(), 2);
        assert_eq!(spec.cache_procs.len(), 2);
        let issue = &spec.cache_procs[1];
        assert_eq!(issue.awaits.len(), 1);
        assert_eq!(issue.awaits[0].tag, "D");
        assert_eq!(issue.awaits[0].whens[0].target, WhenTarget::Done("V".into()));
    }

    #[test]
    fn parses_guards_and_wait_targets() {
        let src = r#"
            protocol G;
            message M : response { acks };
            message A : response;
            cache { state I; state V readwrite; }
            directory { state I; }
            architecture cache {
                process(I, store) {
                    send M to dir;
                    await AD {
                        when M if acks_complete: perform; -> V;
                        when M if acks_incomplete: set_expected; => A;
                        when A: inc_acks; => AD;
                    }
                    await A {
                        when A if acks_complete: inc_acks; perform; -> V;
                        when A if acks_incomplete: inc_acks; => A;
                    }
                }
            }
            architecture directory { }
        "#;
        let spec = parse(src).unwrap();
        let proc_ = &spec.cache_procs[0];
        assert_eq!(proc_.awaits.len(), 2);
        assert_eq!(proc_.awaits[0].whens[1].target, WhenTarget::Wait("A".into()));
        assert_eq!(proc_.awaits[0].whens[1].guards, vec!["acks_incomplete"]);
    }

    #[test]
    fn reports_position_on_error() {
        let err = parse("protocol X;\nbogus").unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    /// A misspelt word where the grammar wants one of a fixed set names
    /// its own line and column, like every other parse error.
    #[test]
    fn bad_keyword_values_name_their_position() {
        for (src, want) in [
            ("protocol X;\nnetwork o", "found `o` at 2:9"),
            ("protocol X;\n consistency pso;", "found `pso` at 2:14"),
            ("protocol X;\nsi decay;", "found `decay` at 2:4"),
            ("protocol X;\narchitecture core { }", "found `core` at 2:14"),
            ("protocol X;\ncache { state I\n  dirty; }", "state flag `dirty` at 3:3"),
            (
                "protocol X; architecture cache {\nprocess(I, load) { send M(a=;",
                "argument `;` at 2:29",
            ),
        ] {
            let err = parse(src).unwrap_err().to_string();
            assert!(err.ends_with(want), "{err}");
        }
    }

    /// A token where an identifier belongs is reported at its own
    /// position, not at the token after it.
    #[test]
    fn a_missing_identifier_names_the_offending_token() {
        let err = parse("protocol H;\nmessage 7 : request;").unwrap_err();
        assert_eq!(err.to_string(), "parse error: expected identifier, found `7` at 2:9");
    }

    #[test]
    fn parses_compose_block() {
        let spec = parse("protocol H; compose { l1: msi(2); llc: mesi; }").unwrap();
        assert_eq!(
            spec.compose,
            vec![
                ComposeLevel { label: "l1".into(), protocol: "msi".into(), fanout: Some(2) },
                ComposeLevel { label: "llc".into(), protocol: "mesi".into(), fanout: None },
            ]
        );
    }

    #[test]
    fn compose_stays_contextual_as_an_identifier() {
        // `compose` is only a keyword at the top level: states, messages,
        // triggers, labels, and protocol names may all use the word.
        let src = r#"
            protocol compose;
            message compose : request;
            cache { state compose readwrite; }
            directory { state I; }
            compose { compose: compose(3); state: compose; }
        "#;
        let spec = parse(src).unwrap();
        assert_eq!(spec.name, "compose");
        assert_eq!(spec.cache_states[0].name, "compose");
        assert_eq!(spec.compose.len(), 2);
        assert_eq!(spec.compose[0].label, "compose");
        assert_eq!(spec.compose[1].label, "state");
    }

    /// A `compose` block may close the source, after every flat section;
    /// the sections before it parse as they would alone.
    #[test]
    fn compose_block_at_the_end_of_the_source_parses() {
        let src = r#"
            protocol Stack;
            network unordered;
            message Get : request;
            message Data : response { data };
            cache { state I; state V read; }
            directory { state I; state V; }
            architecture cache {
                process(I, load) {
                    send Get to dir;
                    await D { when Data: copy_data; perform; -> V; }
                }
            }
            architecture directory {
                process(I, Get) { send Data(data) to req; -> V; }
            }
            compose { l1: msi(2); llc: mesi; }
        "#;
        let spec = parse(src).unwrap();
        assert_eq!((spec.name.as_str(), spec.ordered), ("Stack", false));
        let messages: Vec<_> = spec.messages.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(messages, ["Get", "Data"]);
        assert_eq!(spec.messages[1].fields, ["data"]);
        assert_eq!(spec.cache_states[1].perm, "read");
        assert_eq!(spec.dir_states.len(), 2);
        let load = &spec.cache_procs[0];
        assert_eq!((load.state.as_str(), load.trigger.as_str()), ("I", "load"));
        assert_eq!(load.awaits[0].whens[0].target, WhenTarget::Done("V".into()));
        assert_eq!(spec.dir_procs[0].next.as_deref(), Some("V"));
        assert_eq!(
            spec.compose,
            vec![
                ComposeLevel { label: "l1".into(), protocol: "msi".into(), fanout: Some(2) },
                ComposeLevel { label: "llc".into(), protocol: "mesi".into(), fanout: None },
            ]
        );
    }

    /// Every name position is a bare identifier the parser never
    /// dispatches on, so names that collide with keywords, `compose`
    /// included, need no escaping.
    #[test]
    fn keyword_colliding_names_parse_as_names() {
        let src = r#"
            protocol compose;
            message compose : request;
            message state : response { data };
            cache { state compose readwrite; state state; }
            directory { state process; }
            architecture cache {
                process(compose, load) { perform; }
                process(state, compose) { perform; -> compose; }
            }
            architecture directory { }
            compose { compose: compose(2); state: state; }
        "#;
        let spec = parse(src).unwrap();
        assert_eq!(spec.name, "compose");
        let messages: Vec<_> = spec.messages.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(messages, ["compose", "state"]);
        let states: Vec<_> = spec.cache_states.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(states, ["compose", "state"]);
        assert_eq!(spec.dir_states[0].name, "process");
        let second = &spec.cache_procs[1];
        assert_eq!((second.state.as_str(), second.trigger.as_str()), ("state", "compose"));
        assert_eq!(second.body, [Stmt::Word("perform".into())]);
        assert_eq!(second.next.as_deref(), Some("compose"));
        assert!(spec.dir_procs.is_empty());
        assert_eq!(
            spec.compose,
            vec![
                ComposeLevel {
                    label: "compose".into(),
                    protocol: "compose".into(),
                    fanout: Some(2)
                },
                ComposeLevel { label: "state".into(), protocol: "state".into(), fanout: None },
            ]
        );
    }

    #[test]
    fn rejects_malformed_compose_levels() {
        assert!(parse("protocol H; compose { l1 msi; }").is_err());
        assert!(parse("protocol H; compose { l1: msi(x); }").is_err());
        assert!(parse("protocol H; compose { l1: msi(2) }").is_err());
        assert!(parse("protocol H; compose { l1: msi-(2); }").is_err());
        let empty = parse("protocol H;\ncompose {\n}").unwrap_err();
        assert_eq!(empty.to_string(), "parse error: empty compose block at 3:1");
    }

    /// A protocol name in a compose block may be hyphenated, as the CLI
    /// names the bundled protocols; no other word may.
    #[test]
    fn compose_protocol_names_take_hyphens() {
        let spec = parse("protocol H; compose { l1: msi-upgrade(2); llc: tso-cc; }").unwrap();
        let names: Vec<_> = spec.compose.iter().map(|l| l.protocol.as_str()).collect();
        assert_eq!(names, ["msi-upgrade", "tso-cc"]);
        let err = parse("protocol H; compose { l-1: msi; }").unwrap_err();
        assert_eq!(err.to_string(), "parse error: expected `:`, found `-` at 1:24");
        assert!(parse("protocol H-1;").is_err());
    }
}
