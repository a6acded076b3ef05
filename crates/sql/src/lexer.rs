//! A std-only SQL tokenizer.
//!
//! Produces a flat token vector with byte spans; keywords are plain
//! identifiers (matched case-insensitively by the parser) so the lexer
//! stays trivially total: every input either tokenizes or returns a typed
//! [`SqlError`] — it can never panic.

use crate::error::{Span, SqlError, SqlResult};

/// One lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (original spelling preserved).
    Ident(String),
    /// Integer literal (decimals are rejected: the engine computes in
    /// scaled integers, e.g. cents and percent points).
    Number(i64),
    /// Single-quoted string literal.
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// End of input.
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Number(n) => write!(f, "{n}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::Comma => f.write_str("`,`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::Eq => f.write_str("`=`"),
            Tok::Ne => f.write_str("`<>`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token plus its source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Its byte range in the input.
    pub span: Span,
}

/// Tokenizes `input`, always terminating with [`Tok::Eof`].
pub fn lex(input: &str) -> SqlResult<Vec<SpannedTok>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        // Whitespace.
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // `--` line comment.
        if b == b'-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        // Identifier / keyword.
        if b.is_ascii_alphabetic() || b == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let text = &input[start..i];
            out.push(SpannedTok {
                tok: Tok::Ident(text.to_string()),
                span: Span::new(start, i),
            });
            continue;
        }
        // Number.
        if b.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'.' {
                return Err(SqlError::lex(
                    "decimal literals are not supported; use scaled integers \
                     (cents, percent points, days)",
                    Span::new(start, i + 1),
                ));
            }
            let text = &input[start..i];
            let value: i64 = match text.parse::<i64>() {
                Ok(v) => v,
                // 2^63 only exists negated: after a `-` it lexes as its
                // two's complement, `i64::MIN`, which negates to itself.
                Err(_)
                    if text == "9223372036854775808"
                        && out.last().is_some_and(|t| t.tok == Tok::Minus) =>
                {
                    i64::MIN
                }
                Err(_) => {
                    return Err(SqlError::lex(
                        format!("integer literal `{text}` overflows i64"),
                        Span::new(start, i),
                    ))
                }
            };
            out.push(SpannedTok {
                tok: Tok::Number(value),
                span: Span::new(start, i),
            });
            continue;
        }
        // String literal.
        if b == b'\'' {
            i += 1;
            let content_start = i;
            while i < bytes.len() && bytes[i] != b'\'' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(SqlError::lex(
                    "unterminated string literal",
                    Span::new(start, bytes.len()),
                ));
            }
            let text = &input[content_start..i];
            i += 1; // closing quote
            out.push(SpannedTok {
                tok: Tok::Str(text.to_string()),
                span: Span::new(start, i),
            });
            continue;
        }
        // Operators and punctuation.
        let (tok, len) = match b {
            b',' => (Tok::Comma, 1),
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b'*' => (Tok::Star, 1),
            b'+' => (Tok::Plus, 1),
            b'-' => (Tok::Minus, 1),
            b'/' => (Tok::Slash, 1),
            b'.' => (Tok::Dot, 1),
            b';' => (Tok::Semi, 1),
            b'=' => (Tok::Eq, 1),
            b'<' => match bytes.get(i + 1) {
                Some(b'=') => (Tok::Le, 2),
                Some(b'>') => (Tok::Ne, 2),
                _ => (Tok::Lt, 1),
            },
            b'>' => match bytes.get(i + 1) {
                Some(b'=') => (Tok::Ge, 2),
                _ => (Tok::Gt, 1),
            },
            b'!' => match bytes.get(i + 1) {
                Some(b'=') => (Tok::Ne, 2),
                _ => {
                    return Err(SqlError::lex(
                        "unexpected character `!` (did you mean `!=`?)",
                        Span::new(i, i + 1),
                    ))
                }
            },
            other => {
                return Err(SqlError::lex(
                    format!("unexpected character `{}`", other as char),
                    Span::new(i, i + 1),
                ))
            }
        };
        out.push(SpannedTok {
            tok,
            span: Span::new(i, i + len),
        });
        i += len;
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        span: Span::at(bytes.len()),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Tok> {
        lex(s).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("SELECT a, b FROM t WHERE a <= 10;"),
            vec![
                Tok::Ident("SELECT".into()),
                Tok::Ident("a".into()),
                Tok::Comma,
                Tok::Ident("b".into()),
                Tok::Ident("FROM".into()),
                Tok::Ident("t".into()),
                Tok::Ident("WHERE".into()),
                Tok::Ident("a".into()),
                Tok::Le,
                Tok::Number(10),
                Tok::Semi,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn strings_comments_operators() {
        assert_eq!(
            toks("x <> 'MAIL' -- comment\n>= != ."),
            vec![
                Tok::Ident("x".into()),
                Tok::Ne,
                Tok::Str("MAIL".into()),
                Tok::Ge,
                Tok::Ne,
                Tok::Dot,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn spans_are_byte_offsets() {
        let ts = lex("ab 'cd'").unwrap();
        assert_eq!(ts[0].span, Span::new(0, 2));
        assert_eq!(ts[1].span, Span::new(3, 7));
    }

    #[test]
    fn errors_are_typed() {
        assert!(lex("1.5").is_err());
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ? b").is_err());
        assert!(lex("!x").is_err());
        assert!(lex("99999999999999999999999999").is_err());
    }

    #[test]
    fn two_to_the_63_lexes_only_negated() {
        assert_eq!(
            toks("-9223372036854775808"),
            vec![Tok::Minus, Tok::Number(i64::MIN), Tok::Eof]
        );
        assert!(lex("9223372036854775808").is_err());
        assert!(lex("-9223372036854775809").is_err());
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(toks(""), vec![Tok::Eof]);
        assert_eq!(toks("   -- only a comment"), vec![Tok::Eof]);
    }
}
