//! Lexer: source text → position-tagged tokens.
//!
//! Handles line (`//`) and block (`/* */`) comments, line continuations
//! (`\` before newline, needed for multi-line `#define`s), decimal and hex
//! integer literals with `u`/`U` suffix, float literals with optional
//! `f`/`F` suffix and exponents, and string literals (kept as written,
//! for `extern "C"`).

use crate::token::{LangError, Punct, Tok, Token};

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    line_start: bool,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn peek3(&self) -> Option<u8> {
        self.src.get(self.pos + 2).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
            self.line_start = true;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::new("lex", self.line, self.col, msg)
    }

    /// Skip whitespace and comments. Line continuations glue lines together
    /// (the continuation does NOT set `line_start`).
    fn skip_trivia(&mut self) -> Result<(), LangError> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'\\') if self.peek2() == Some(b'\n') => {
                    self.bump();
                    self.bump();
                    // A continuation means the next token is *not* at a
                    // logical line start.
                    self.line_start = false;
                }
                Some(b'\\') if self.peek2() == Some(b'\r') && self.peek3() == Some(b'\n') => {
                    self.bump();
                    self.bump();
                    self.bump();
                    self.line_start = false;
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => return Err(self.err("unterminated block comment")),
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self) -> Result<Tok, LangError> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let hstart = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                self.bump();
            }
            if self.pos == hstart {
                return Err(self.err("hex literal with no digits"));
            }
            let text = std::str::from_utf8(&self.src[hstart..self.pos]).unwrap();
            let value = u64::from_str_radix(text, 16)
                .map_err(|_| self.err("hex literal out of range"))? as i64;
            let unsigned = self.consume_int_suffix();
            return Ok(Tok::Int { value, unsigned });
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        } else if self.peek() == Some(b'.')
            && !matches!(self.peek2(), Some(c) if c.is_ascii_alphabetic())
        {
            // "1." style literal
            is_float = true;
            self.bump();
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let save = self.pos;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            } else {
                self.pos = save;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap()
            .to_string();
        if is_float || matches!(self.peek(), Some(b'f') | Some(b'F')) {
            if matches!(self.peek(), Some(b'f') | Some(b'F')) {
                self.bump();
            }
            let v: f32 = text.parse().map_err(|_| self.err("bad float literal"))?;
            Ok(Tok::Float(v))
        } else {
            let value: i64 = text
                .parse()
                .map_err(|_| self.err("integer literal out of range"))?;
            let unsigned = self.consume_int_suffix();
            Ok(Tok::Int { value, unsigned })
        }
    }

    /// The text of a string literal whose opening quote is next, up to
    /// the closing one; a backslash keeps the character after it. It
    /// must close on its line.
    fn lex_string(&mut self) -> Result<Tok, LangError> {
        let open = self.err("unterminated string literal");
        self.bump();
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') if !matches!(self.peek2(), None | Some(b'\n')) => {
                    self.bump();
                    self.bump();
                }
                None | Some(b'\n') | Some(b'\\') => return Err(open),
                Some(_) => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.bump();
        Ok(Tok::Str(text))
    }

    /// Whether the suffix has a `u`. A literal's type is decided where its
    /// width is known (`constexpr::literal_unsigned`); `l` is accepted and
    /// ignored.
    fn consume_int_suffix(&mut self) -> bool {
        let mut unsigned = false;
        while matches!(
            self.peek(),
            Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')
        ) {
            if matches!(self.peek(), Some(b'u') | Some(b'U')) {
                unsigned = true;
            }
            self.bump();
        }
        unsigned
    }

    fn lex_punct(&mut self) -> Result<Punct, LangError> {
        use Punct::*;
        let c = self.bump().unwrap();
        let p1 = self.peek();
        let p2 = self.peek2();
        let two = |l: &mut Self, p: Punct| {
            l.bump();
            p
        };
        Ok(match c {
            b'+' => match p1 {
                Some(b'+') => two(self, PlusPlus),
                Some(b'=') => two(self, PlusAssign),
                _ => Plus,
            },
            b'-' => match p1 {
                Some(b'-') => two(self, MinusMinus),
                Some(b'=') => two(self, MinusAssign),
                _ => Minus,
            },
            b'*' => match p1 {
                Some(b'=') => two(self, StarAssign),
                _ => Star,
            },
            b'/' => match p1 {
                Some(b'=') => two(self, SlashAssign),
                _ => Slash,
            },
            b'%' => match p1 {
                Some(b'=') => two(self, PercentAssign),
                _ => Percent,
            },
            b'=' => match p1 {
                Some(b'=') => two(self, EqEq),
                _ => Assign,
            },
            b'!' => match p1 {
                Some(b'=') => two(self, NotEq),
                _ => Not,
            },
            b'<' => match (p1, p2) {
                (Some(b'<'), Some(b'=')) => {
                    self.bump();
                    self.bump();
                    ShlAssign
                }
                (Some(b'<'), _) => two(self, Shl),
                (Some(b'='), _) => two(self, Le),
                _ => Lt,
            },
            b'>' => match (p1, p2) {
                (Some(b'>'), Some(b'=')) => {
                    self.bump();
                    self.bump();
                    ShrAssign
                }
                (Some(b'>'), _) => two(self, Shr),
                (Some(b'='), _) => two(self, Ge),
                _ => Gt,
            },
            b'&' => match p1 {
                Some(b'&') => two(self, AndAnd),
                Some(b'=') => two(self, AmpAssign),
                _ => Amp,
            },
            b'|' => match p1 {
                Some(b'|') => two(self, OrOr),
                Some(b'=') => two(self, PipeAssign),
                _ => Pipe,
            },
            b'^' => match p1 {
                Some(b'=') => two(self, CaretAssign),
                _ => Caret,
            },
            b'~' => Tilde,
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'.' => Dot,
            b'?' => Question,
            b':' => Colon,
            b'#' => Hash,
            other => return Err(self.err(format!("unexpected character '{}'", other as char))),
        })
    }
}

/// Lex a full source string.
pub fn lex(source: &str) -> Result<Vec<Token>, LangError> {
    let mut lx = Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        line_start: true,
    };
    let mut out = Vec::new();
    loop {
        lx.skip_trivia()?;
        let Some(c) = lx.peek() else { break };
        let (line, col, line_start) = (lx.line, lx.col, lx.line_start);
        lx.line_start = false;
        let tok = if c.is_ascii_alphabetic() || c == b'_' {
            let start = lx.pos;
            while matches!(lx.peek(), Some(ch) if ch.is_ascii_alphanumeric() || ch == b'_') {
                lx.bump();
            }
            Tok::Ident(
                std::str::from_utf8(&lx.src[start..lx.pos])
                    .unwrap()
                    .to_string(),
            )
        } else if c.is_ascii_digit()
            // leading-dot float literals like `.5f`
            || (c == b'.' && matches!(lx.peek2(), Some(d) if d.is_ascii_digit()))
        {
            lx.lex_number()?
        } else if c == b'"' {
            lx.lex_string()?
        } else {
            Tok::Punct(lx.lex_punct()?)
        };
        out.push(Token {
            tok,
            line,
            col,
            line_start,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Punct;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_ints() {
        assert_eq!(
            toks("foo bar_2 42 0x1F 7u"),
            vec![
                Tok::ident("foo"),
                Tok::ident("bar_2"),
                Tok::Int {
                    value: 42,
                    unsigned: false
                },
                Tok::Int {
                    value: 31,
                    unsigned: false
                },
                Tok::Int {
                    value: 7,
                    unsigned: true
                },
            ]
        );
    }

    #[test]
    fn floats() {
        assert_eq!(
            toks("1.5 2.0f 3f 1e3 2.5e-2f"),
            vec![
                Tok::Float(1.5),
                Tok::Float(2.0),
                Tok::Float(3.0),
                Tok::Float(1000.0),
                Tok::Float(0.025),
            ]
        );
    }

    #[test]
    fn operators_maximal_munch() {
        assert_eq!(
            toks("a<<=b >>= << >> <= < ++ += +"),
            vec![
                Tok::ident("a"),
                Tok::Punct(Punct::ShlAssign),
                Tok::ident("b"),
                Tok::Punct(Punct::ShrAssign),
                Tok::Punct(Punct::Shl),
                Tok::Punct(Punct::Shr),
                Tok::Punct(Punct::Le),
                Tok::Punct(Punct::Lt),
                Tok::Punct(Punct::PlusPlus),
                Tok::Punct(Punct::PlusAssign),
                Tok::Punct(Punct::Plus),
            ]
        );
    }

    #[test]
    fn comments_stripped() {
        assert_eq!(
            toks("a // comment\nb /* multi\nline */ c"),
            vec![Tok::ident("a"), Tok::ident("b"), Tok::ident("c")]
        );
    }

    #[test]
    fn line_start_flags_and_continuations() {
        let ts = lex("#define A \\\n 1\nB").unwrap();
        // '#' starts a line; 'define', 'A', and '1' (after continuation) do
        // not; 'B' starts the next logical line.
        assert!(ts[0].line_start);
        assert!(!ts[1].line_start);
        assert!(!ts[2].line_start);
        assert!(!ts[3].line_start);
        assert!(ts[4].line_start);
        assert!(ts[4].tok.is_ident("B"));
    }

    #[test]
    fn member_access_lexes_as_dot() {
        assert_eq!(
            toks("threadIdx.x"),
            vec![
                Tok::ident("threadIdx"),
                Tok::Punct(Punct::Dot),
                Tok::ident("x")
            ]
        );
    }

    #[test]
    fn string_literals_keep_their_text() {
        assert_eq!(
            toks(r#"extern "C" "a\"b" "#),
            vec![
                Tok::ident("extern"),
                Tok::Str("C".into()),
                Tok::Str(r#"a\"b"#.into()),
            ]
        );
        let e = lex("a \"open\nb").unwrap_err();
        assert_eq!((e.line, e.col), (1, 3));
        assert!(e.message.contains("unterminated string"), "{e}");
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn large_unsigned_hex() {
        // Pointer-style values used for specialized PTR_IN constants: no
        // suffix, and unsigned in a kernel because no `int` holds them.
        assert_eq!(
            toks("0x200ca0200"),
            vec![Tok::Int {
                value: 0x200ca0200,
                unsigned: false
            }]
        );
        assert!(crate::constexpr::literal_unsigned(0x200ca0200, false, 32));
    }
}
