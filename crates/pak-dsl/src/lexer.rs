//! The tokenizer for the protocol language.
//!
//! The alphabet is deliberately small: identifiers, decimal integers, the
//! punctuation `{ } ( ) [ ] , ; : / = _` and the arrow `->`. Whitespace
//! separates tokens and `#` starts a comment running to the end of the
//! line. A [`Lexer`] hands out one token at a time as the parser asks for
//! it, so nothing is tokenized ahead of the parse and an identifier is a
//! borrowed slice of the source until the parser copies it into the AST.
//! Every token carries a [`Span`] with its byte offset and 1-based
//! line/column, which the parser and compiler thread through to
//! diagnostics.

use crate::error::{DslError, DslErrorKind, Span};

/// A lexical token kind. Keywords are not distinguished here — the parser
/// matches [`TokenKind::Ident`] text contextually (`protocol`, `agents`,
/// `at`, `from`, `when`, `skip`, `fail`, …), so protocol/state/action
/// names only collide with the few truly reserved words the compiler
/// rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'src> {
    /// An identifier: `[A-Za-z][A-Za-z0-9_]*` (or `_`-led with more
    /// characters; a lone `_` lexes as [`TokenKind::Underscore`]),
    /// borrowed from the source.
    Ident(&'src str),
    /// A decimal integer fitting `u64`.
    Int(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `->`
    Arrow,
    /// A lone `_` (the wildcard move pattern).
    Underscore,
    /// End of input (returned again on every later call).
    Eof,
}

impl TokenKind<'_> {
    /// A short human rendering used in "expected …, found …" diagnostics.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Int(n) => format!("integer {n}"),
            TokenKind::LBrace => "`{`".to_string(),
            TokenKind::RBrace => "`}`".to_string(),
            TokenKind::LParen => "`(`".to_string(),
            TokenKind::RParen => "`)`".to_string(),
            TokenKind::LBracket => "`[`".to_string(),
            TokenKind::RBracket => "`]`".to_string(),
            TokenKind::Comma => "`,`".to_string(),
            TokenKind::Semi => "`;`".to_string(),
            TokenKind::Colon => "`:`".to_string(),
            TokenKind::Slash => "`/`".to_string(),
            TokenKind::Eq => "`=`".to_string(),
            TokenKind::Arrow => "`->`".to_string(),
            TokenKind::Underscore => "`_`".to_string(),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'src> {
    /// The token kind (and payload, for identifiers and integers).
    pub kind: TokenKind<'src>,
    /// Where the token sits in the source.
    pub span: Span,
}

/// An on-demand tokenizer over one source text.
///
/// # Examples
///
/// ```
/// use pak_dsl::lexer::{Lexer, TokenKind};
///
/// let mut lexer = Lexer::new("horizon 2; # the end");
/// assert_eq!(lexer.next_token().unwrap().kind, TokenKind::Ident("horizon"));
/// assert_eq!(lexer.next_token().unwrap().kind, TokenKind::Int(2));
/// assert_eq!(lexer.next_token().unwrap().kind, TokenKind::Semi);
/// let eof = lexer.next_token().unwrap();
/// assert_eq!((eof.kind, eof.span.col), (TokenKind::Eof, 21));
/// ```
#[derive(Debug, Clone)]
pub struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// 1-based line of `pos`.
    line: u32,
    /// 1-based column (in characters) of `pos`.
    col: u32,
}

impl<'src> Lexer<'src> {
    /// A lexer positioned at the start of `src`.
    #[must_use]
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Skips whitespace and comments, then lexes the next token; at the
    /// end of input it returns [`TokenKind::Eof`], on this and every later
    /// call.
    ///
    /// # Errors
    ///
    /// Returns a spanned [`DslError`] on a character outside the alphabet
    /// or an integer literal exceeding `u64`.
    pub fn next_token(&mut self) -> Result<Token<'src>, DslError> {
        let bytes = self.src.as_bytes();
        loop {
            let Some(c) = self.src[self.pos..].chars().next() else {
                return Ok(Token {
                    kind: TokenKind::Eof,
                    span: self.span(0),
                });
            };
            let kind = match c {
                '\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                c if c.is_whitespace() => {
                    self.advance(c.len_utf8(), 1);
                    continue;
                }
                '#' => {
                    let len = self.src[self.pos..]
                        .find('\n')
                        .unwrap_or(bytes.len() - self.pos);
                    let chars = self.src[self.pos..self.pos + len].chars().count();
                    self.advance(len, chars);
                    continue;
                }
                '{' => TokenKind::LBrace,
                '}' => TokenKind::RBrace,
                '(' => TokenKind::LParen,
                ')' => TokenKind::RParen,
                '[' => TokenKind::LBracket,
                ']' => TokenKind::RBracket,
                ',' => TokenKind::Comma,
                ';' => TokenKind::Semi,
                ':' => TokenKind::Colon,
                '/' => TokenKind::Slash,
                '=' => TokenKind::Eq,
                '-' if bytes.get(self.pos + 1) == Some(&b'>') => {
                    return Ok(self.token(TokenKind::Arrow, 2));
                }
                c if c.is_ascii_digit() => {
                    let len = bytes[self.pos..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                    let value = bytes[self.pos..self.pos + len]
                        .iter()
                        .try_fold(0u64, |v, b| {
                            v.checked_mul(10)?.checked_add(u64::from(b - b'0'))
                        })
                        .ok_or_else(|| {
                            DslError::new(self.span(len), DslErrorKind::NumberTooLarge)
                        })?;
                    return Ok(self.token(TokenKind::Int(value), len));
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let len = bytes[self.pos..]
                        .iter()
                        .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                        .count();
                    let kind = match &self.src[self.pos..self.pos + len] {
                        "_" => TokenKind::Underscore,
                        text => TokenKind::Ident(text),
                    };
                    return Ok(self.token(kind, len));
                }
                other => {
                    return Err(DslError::new(
                        self.span(other.len_utf8()),
                        DslErrorKind::UnexpectedChar(other),
                    ));
                }
            };
            return Ok(self.token(kind, 1));
        }
    }

    /// The span of the `len` bytes starting at the current position.
    fn span(&self, len: usize) -> Span {
        Span {
            offset: self.pos,
            len,
            line: self.line,
            col: self.col,
        }
    }

    /// Moves past `len` bytes holding `chars` characters on this line.
    fn advance(&mut self, len: usize, chars: usize) {
        self.pos += len;
        self.col = self
            .col
            .saturating_add(u32::try_from(chars).unwrap_or(u32::MAX));
    }

    /// Emits a token of `len` single-byte characters and moves past it.
    fn token(&mut self, kind: TokenKind<'src>, len: usize) -> Token<'src> {
        let token = Token {
            kind,
            span: self.span(len),
        };
        self.advance(len, len);
        token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src` up to and including the end of input.
    fn tokens(src: &str) -> Result<Vec<Token<'_>>, DslError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token()?;
            out.push(t);
            if t.kind == TokenKind::Eof {
                return Ok(out);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokens(src).unwrap().iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokens_carry_line_and_column() {
        let toks = tokens("protocol p {\n  horizon 2;\n}").unwrap();
        assert_eq!(
            toks.iter().map(|t| t.kind).collect::<Vec<_>>(),
            vec![
                TokenKind::Ident("protocol"),
                TokenKind::Ident("p"),
                TokenKind::LBrace,
                TokenKind::Ident("horizon"),
                TokenKind::Int(2),
                TokenKind::Semi,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
        let horizon = &toks[3];
        assert_eq!((horizon.span.line, horizon.span.col), (2, 3));
        assert_eq!(horizon.span.offset, 15);
    }

    #[test]
    fn comments_and_arrow_and_underscore() {
        let toks = tokens("a -> _ # comment -> ignored\n;").unwrap();
        assert_eq!(
            toks.iter().map(|t| t.kind).collect::<Vec<_>>(),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Arrow,
                TokenKind::Underscore,
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
        assert_eq!(toks[3].span.line, 2);
    }

    #[test]
    fn comment_columns_count_its_characters() {
        // "é" is two bytes but one column.
        let toks = tokens("a # é").unwrap();
        assert_eq!((toks[1].span.offset, toks[1].span.col), (6, 6));
    }

    #[test]
    fn end_of_input_repeats() {
        let mut lexer = Lexer::new("");
        assert_eq!(lexer.next_token().unwrap().kind, TokenKind::Eof);
        assert_eq!(lexer.next_token().unwrap().kind, TokenKind::Eof);
    }

    #[test]
    fn bad_character_is_spanned() {
        let err = tokens("agents a$;").unwrap_err();
        assert_eq!(err.kind, DslErrorKind::UnexpectedChar('$'));
        assert_eq!((err.span.line, err.span.col), (1, 9));
    }

    #[test]
    fn huge_number_rejected() {
        let err = tokens("horizon 99999999999999999999;").unwrap_err();
        assert_eq!(err.kind, DslErrorKind::NumberTooLarge);
        assert_eq!((err.span.col, err.span.len), (9, 20));
        assert_eq!(kinds("18446744073709551615")[0], TokenKind::Int(u64::MAX));
    }

    #[test]
    fn lone_minus_rejected() {
        let err = tokens("a - b").unwrap_err();
        assert_eq!(err.kind, DslErrorKind::UnexpectedChar('-'));
    }
}
