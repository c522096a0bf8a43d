//! The tokenizer and token cursor every token grammar of the toolchain
//! reads through: the `.pgen` DSL and the litmus test format.

use std::fmt;

/// A 1-based source position; prints as `line:col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub col: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A token with its source position (for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'s> {
    /// The token itself.
    pub kind: TokenKind<'s>,
    /// Where its first character stands.
    pub at: Pos,
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
    /// `-` (not followed by `>`)
    Minus,
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
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Arrow => f.write_str("`->`"),
            TokenKind::FatArrow => f.write_str("`=>`"),
            TokenKind::AndAnd => f.write_str("`&&`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A tokenizer error; prints as `<msg> at line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub msg: String,
    /// Where it went wrong.
    pub at: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.msg, self.at)
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
/// Returns a [`LexError`] on an unexpected character, an integer literal
/// that does not fit in a `u64`, or an unterminated block comment.
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>, LexError> {
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
                        let at = Pos { line: sl, col: sc };
                        return Err(LexError { msg: "unterminated block comment".into(), at });
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
            b'-' => (TokenKind::Minus, 1),
            b'=' if next == Some(b'>') => (TokenKind::FatArrow, 2),
            b'=' => (TokenKind::Eq, 1),
            b'&' if next == Some(b'&') => (TokenKind::AndAnd, 2),
            b'0'..=b'9' => {
                let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                let text = &src[i..i + len];
                let v = text.parse::<u64>().map_err(|_| LexError {
                    msg: format!("bad integer `{text}`"),
                    at: Pos { line, col },
                })?;
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
                    let msg = format!("unexpected character `{c}`");
                    return Err(LexError { msg, at: Pos { line, col } });
                }
                ident(src, i)
            }
        };
        out.push(Token { kind, at: Pos { line, col } });
        col += src[i..i + len].chars().count();
        i += len;
    }
    out.push(Token { kind: TokenKind::Eof, at: Pos { line, col } });
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

/// A token the grammar did not want, and where the cursor stands; prints
/// as `expected <wanted>, found <found>`, without the position, which each
/// grammar places itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unexpected<'s> {
    /// The token the grammar asked for; `None` for an identifier.
    pub wanted: Option<TokenKind<'s>>,
    /// The token found instead.
    pub found: TokenKind<'s>,
    /// The cursor's position when it gave up.
    pub at: Pos,
}

impl fmt::Display for Unexpected<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.wanted {
            Some(k) => write!(f, "expected {k}, found {}", self.found),
            None => write!(f, "expected identifier, found {}", self.found),
        }
    }
}

/// A cursor over a source's tokens, for recursive-descent grammars. It
/// never moves past the final [`TokenKind::Eof`].
#[derive(Debug)]
pub struct Cursor<'s> {
    toks: Vec<Token<'s>>,
    pos: usize,
}

// The methods are `#[inline]`: the parsers call them per token, from other
// codegen units and crates, and without it the DSL parse is about 2 % slower.
impl<'s> Cursor<'s> {
    /// Tokenizes `src` and stands on its first token.
    ///
    /// # Errors
    ///
    /// Returns the [`LexError`] of [`tokenize`].
    pub fn new(src: &'s str) -> Result<Self, LexError> {
        Ok(Cursor { toks: tokenize(src)?, pos: 0 })
    }

    /// The current token.
    #[inline]
    pub fn peek(&self) -> &TokenKind<'s> {
        &self.toks[self.pos].kind
    }

    /// The current token's position.
    #[inline]
    pub fn here(&self) -> Pos {
        self.toks[self.pos].at
    }

    /// The current token's line.
    #[inline]
    pub fn line(&self) -> usize {
        self.toks[self.pos].at.line
    }

    /// Returns the current token and moves past it.
    #[inline]
    pub fn bump(&mut self) -> TokenKind<'s> {
        let k = self.toks[self.pos].kind;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    /// Moves past the current token if it is `k`.
    ///
    /// # Errors
    ///
    /// Returns the token found instead, at its own position; the cursor
    /// stays on it.
    #[inline]
    pub fn expect(&mut self, k: &TokenKind<'s>) -> Result<(), Unexpected<'s>> {
        if self.peek() == k {
            self.bump();
            Ok(())
        } else {
            Err(Unexpected { wanted: Some(*k), found: *self.peek(), at: self.here() })
        }
    }

    /// Moves past the current token and returns it if it is an identifier.
    ///
    /// # Errors
    ///
    /// Returns the token found instead, at its own position, as
    /// [`Cursor::expect`] does.
    #[inline]
    pub fn ident(&mut self) -> Result<&'s str, Unexpected<'s>> {
        let at = self.here();
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            found => Err(Unexpected { wanted: None, found, at }),
        }
    }

    /// Moves past the current token if it is the identifier `word`.
    #[inline]
    pub fn eat_ident(&mut self, word: &str) -> bool {
        if *self.peek() == TokenKind::Ident(word) {
            self.bump();
            true
        } else {
            false
        }
    }
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
        assert_eq!(toks[0].at.line, 1);
        assert_eq!(toks[1].at.line, 2);
    }

    fn positions(src: &str) -> Vec<(TokenKind<'_>, usize, usize)> {
        tokenize(src).unwrap().into_iter().map(|t| (t.kind, t.at.line, t.at.col)).collect()
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
        let err = tokenize("x\n  99999999999999999999 y").unwrap_err().to_string();
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
        assert_eq!(tokenize("ab ☃").unwrap_err().to_string(), "unexpected character `☃` at 1:4");
        let err = tokenize("a\n /* é").unwrap_err();
        assert_eq!(err.to_string(), "unterminated block comment at 2:2");
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(tokenize("a $ b").is_err());
        assert!(tokenize("/* unterminated").is_err());
    }
}
