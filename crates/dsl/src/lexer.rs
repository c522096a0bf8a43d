//! Tokenizer for the ProtoGen DSL.

use std::fmt;

/// A token with its source position (for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'s> {
    /// The token itself.
    pub kind: TokenKind<'s>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub col: usize,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'s> {
    /// Identifier or keyword, borrowed from the source.
    Ident(&'s str),
    /// Integer literal.
    Int(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `->` (done target)
    Arrow,
    /// `=>` (wait target)
    FatArrow,
    /// `&&`
    AndAnd,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(n) => write!(f, "`{n}`"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Arrow => f.write_str("`->`"),
            TokenKind::FatArrow => f.write_str("`=>`"),
            TokenKind::AndAnd => f.write_str("`&&`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// Tokenizes `src`. Line (`//`) and block (`/* */`) comments are skipped.
///
/// The scan runs over bytes; a non-ASCII character is decoded whole where
/// it appears, so identifiers and whitespace follow Unicode's
/// `is_alphabetic`/`is_alphanumeric`/`is_whitespace` and columns count
/// characters.
///
/// # Errors
///
/// Returns a message with position on an unexpected character, an integer
/// literal that does not fit in a `u64`, or an unterminated block comment.
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>, String> {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut out = Vec::new();
    // `i` is a byte offset, always on a character boundary.
    let (mut i, mut line, mut col) = (0, 1, 1);
    while i < n {
        let next = bytes.get(i + 1).copied();
        // The token at `i` and its length in bytes.
        let (kind, len) = match bytes[i] {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
                continue;
            }
            b'/' if next == Some(b'/') => {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'/' if next == Some(b'*') => {
                let (sl, sc) = (line, col);
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= n {
                        return Err(format!("unterminated block comment at {sl}:{sc}"));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else if bytes[i] & 0xC0 != 0x80 {
                        // Not a UTF-8 continuation byte: a new character.
                        col += 1;
                    }
                    i += 1;
                }
                continue;
            }
            b'{' => (TokenKind::LBrace, 1),
            b'}' => (TokenKind::RBrace, 1),
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b';' => (TokenKind::Semi, 1),
            b':' => (TokenKind::Colon, 1),
            b',' => (TokenKind::Comma, 1),
            b'-' if next == Some(b'>') => (TokenKind::Arrow, 2),
            b'=' if next == Some(b'>') => (TokenKind::FatArrow, 2),
            b'=' => (TokenKind::Eq, 1),
            b'&' if next == Some(b'&') => (TokenKind::AndAnd, 2),
            b'0'..=b'9' => {
                let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                let text = &src[i..i + len];
                let v = text
                    .parse::<u64>()
                    .map_err(|_| format!("bad integer `{text}` at {line}:{col}"))?;
                (TokenKind::Int(v), len)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => ident(src, i),
            _ => {
                let c = src[i..].chars().next().expect("`i` is a character boundary");
                if c.is_whitespace() {
                    i += c.len_utf8();
                    col += 1;
                    continue;
                }
                if !c.is_alphabetic() {
                    return Err(format!("unexpected character `{c}` at {line}:{col}"));
                }
                ident(src, i)
            }
        };
        out.push(Token { kind, line, col });
        col += src[i..i + len].chars().count();
        i += len;
    }
    out.push(Token { kind: TokenKind::Eof, line, col });
    Ok(out)
}

/// The identifier starting at byte `start`, and its length in bytes.
fn ident(src: &str, start: usize) -> (TokenKind<'_>, usize) {
    let bytes = src.as_bytes();
    let mut end = start;
    while end < bytes.len() {
        let b = bytes[end];
        if b.is_ascii_alphanumeric() || b == b'_' {
            end += 1;
        } else if b.is_ascii() {
            break;
        } else {
            let c = src[end..].chars().next().expect("`end` is a character boundary");
            if !c.is_alphanumeric() {
                break;
            }
            end += c.len_utf8();
        }
    }
    (TokenKind::Ident(&src[start..end]), end - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_symbols_and_idents() {
        let toks = tokenize("process(I, load) { send GetS to dir; -> S; }").unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| &t.kind).collect();
        assert_eq!(*kinds[0], TokenKind::Ident("process"));
        assert!(kinds.contains(&&TokenKind::Arrow));
        assert_eq!(*kinds.last().unwrap(), &TokenKind::Eof);
    }

    #[test]
    fn skips_comments() {
        let toks = tokenize("a // line\n/* block\nstill */ b").unwrap();
        let idents: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = tokenize("a\nb").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
    }

    fn positions(src: &str) -> Vec<(TokenKind<'_>, usize, usize)> {
        tokenize(src).unwrap().into_iter().map(|t| (t.kind, t.line, t.col)).collect()
    }

    /// An integer literal is reported where it starts, like every other
    /// token.
    #[test]
    fn integers_report_their_first_column() {
        assert_eq!(
            positions("ab 123 cd"),
            [
                (TokenKind::Ident("ab"), 1, 1),
                (TokenKind::Int(123), 1, 4),
                (TokenKind::Ident("cd"), 1, 8),
                (TokenKind::Eof, 1, 10),
            ]
        );
    }

    /// A literal past `u64::MAX` names its line and column.
    #[test]
    fn integer_overflow_names_its_position() {
        let err = tokenize("x\n  99999999999999999999 y").unwrap_err();
        assert_eq!(err, "bad integer `99999999999999999999` at 2:3");
    }

    /// Columns count characters, not bytes: Unicode identifiers,
    /// whitespace and comments advance one column per character, and an
    /// unexpected character is named whole.
    #[test]
    fn columns_count_characters() {
        assert_eq!(
            positions("é1_x\u{a0}y /* ü */ z"),
            [
                (TokenKind::Ident("é1_x"), 1, 1),
                (TokenKind::Ident("y"), 1, 6),
                (TokenKind::Ident("z"), 1, 16),
                (TokenKind::Eof, 1, 17),
            ]
        );
        assert_eq!(tokenize("ab ☃").unwrap_err(), "unexpected character `☃` at 1:4");
        assert_eq!(tokenize("a\n /* é").unwrap_err(), "unterminated block comment at 2:2");
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(tokenize("a $ b").is_err());
        assert!(tokenize("/* unterminated").is_err());
    }
}
