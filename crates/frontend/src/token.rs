//! Lexical analysis for MiniC.

use crate::error::CompileError;
use std::fmt;

/// A lexical token. Identifiers borrow their spelling from the source, so
/// lexing allocates only the token vector and string-literal contents.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    // literals & identifiers
    /// An integer literal.
    Int(i64),
    /// A floating literal.
    Float(f64),
    /// A string literal (contents, unescaped).
    Str(String),
    /// A character literal, lexed to its byte value.
    Char(u8),
    /// An identifier, borrowed from the source.
    Ident(&'a str),

    // keywords
    /// `void`
    KwVoid,
    /// `bool`
    KwBool,
    /// `char`
    KwChar,
    /// `short`
    KwShort,
    /// `int`
    KwInt,
    /// `long`
    KwLong,
    /// `double`
    KwDouble,
    /// `struct`
    KwStruct,
    /// `const`
    KwConst,
    /// `extern`
    KwExtern,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `for`
    KwFor,
    /// `return`
    KwReturn,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,
    /// `sizeof`
    KwSizeof,
    /// `true`
    KwTrue,
    /// `false`
    KwFalse,
    /// `null` (MiniC spells `NULL` this way too)
    KwNull,

    // punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `&`
    Amp,
    /// `&&`
    AmpAmp,
    /// `|`
    Pipe,
    /// `||`
    PipePipe,
    /// `^`
    Caret,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `!`
    Bang,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `*=`
    StarAssign,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `do`
    KwDo,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,

    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Char(c) => write!(f, "'{}'", *c as char),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Eof => write!(f, "<eof>"),
            other => {
                let s = match other {
                    Tok::KwVoid => "void",
                    Tok::KwBool => "bool",
                    Tok::KwChar => "char",
                    Tok::KwShort => "short",
                    Tok::KwInt => "int",
                    Tok::KwLong => "long",
                    Tok::KwDouble => "double",
                    Tok::KwStruct => "struct",
                    Tok::KwConst => "const",
                    Tok::KwExtern => "extern",
                    Tok::KwIf => "if",
                    Tok::KwElse => "else",
                    Tok::KwWhile => "while",
                    Tok::KwFor => "for",
                    Tok::KwReturn => "return",
                    Tok::KwBreak => "break",
                    Tok::KwContinue => "continue",
                    Tok::KwSizeof => "sizeof",
                    Tok::KwTrue => "true",
                    Tok::KwFalse => "false",
                    Tok::KwNull => "null",
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::LBrace => "{",
                    Tok::RBrace => "}",
                    Tok::LBracket => "[",
                    Tok::RBracket => "]",
                    Tok::Semi => ";",
                    Tok::Comma => ",",
                    Tok::Dot => ".",
                    Tok::Arrow => "->",
                    Tok::Amp => "&",
                    Tok::AmpAmp => "&&",
                    Tok::Pipe => "|",
                    Tok::PipePipe => "||",
                    Tok::Caret => "^",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::Star => "*",
                    Tok::Slash => "/",
                    Tok::Percent => "%",
                    Tok::Bang => "!",
                    Tok::Assign => "=",
                    Tok::PlusAssign => "+=",
                    Tok::MinusAssign => "-=",
                    Tok::StarAssign => "*=",
                    Tok::PlusPlus => "++",
                    Tok::MinusMinus => "--",
                    Tok::KwDo => "do",
                    Tok::EqEq => "==",
                    Tok::NotEq => "!=",
                    Tok::Lt => "<",
                    Tok::Le => "<=",
                    Tok::Gt => ">",
                    Tok::Ge => ">=",
                    Tok::Shl => "<<",
                    Tok::Shr => ">>",
                    _ => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Source line.
    pub line: u32,
}

/// Lexes MiniC source into tokens (with a trailing [`Tok::Eof`]).
///
/// # Errors
/// Returns a [`CompileError`] for unterminated strings/chars or unknown
/// characters.
pub fn lex(src: &str) -> Result<Vec<SpannedTok<'_>>, CompileError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;

    let kw = |s: &str| -> Option<Tok<'static>> {
        Some(match s {
            "void" => Tok::KwVoid,
            "bool" => Tok::KwBool,
            "char" => Tok::KwChar,
            "short" => Tok::KwShort,
            "int" => Tok::KwInt,
            "long" => Tok::KwLong,
            "double" => Tok::KwDouble,
            "do" => Tok::KwDo,
            "struct" => Tok::KwStruct,
            "const" => Tok::KwConst,
            "extern" => Tok::KwExtern,
            "if" => Tok::KwIf,
            "else" => Tok::KwElse,
            "while" => Tok::KwWhile,
            "for" => Tok::KwFor,
            "return" => Tok::KwReturn,
            "break" => Tok::KwBreak,
            "continue" => Tok::KwContinue,
            "sizeof" => Tok::KwSizeof,
            "true" => Tok::KwTrue,
            "false" => Tok::KwFalse,
            "null" | "NULL" => Tok::KwNull,
            _ => return None,
        })
    };

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(CompileError::new(line, "unterminated block comment"));
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                // hex literal
                if c == b'0' && i + 1 < bytes.len() && (bytes[i + 1] | 0x20) == b'x' {
                    i += 2;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    let text = &src[start + 2..i];
                    // Parse as u64 and reinterpret: C-legal literals in
                    // [0x8000000000000000, 0xFFFFFFFFFFFFFFFF] (e.g. the
                    // all-ones mask) wrap to negative i64, matching C
                    // unsigned-wrap semantics, instead of failing to lex.
                    let v = u64::from_str_radix(text, 16)
                        .map_err(|_| CompileError::new(line, "bad hex literal"))?;
                    out.push(SpannedTok { tok: Tok::Int(v as i64), line });
                    continue;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| CompileError::new(line, "bad float"))?)
                } else {
                    Tok::Int(text.parse().map_err(|_| CompileError::new(line, "bad int"))?)
                };
                out.push(SpannedTok { tok, line });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let text = &src[start..i];
                let tok = kw(text).unwrap_or(Tok::Ident(text));
                out.push(SpannedTok { tok, line });
            }
            b'"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(CompileError::new(line, "unterminated string"));
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < bytes.len() => {
                            s.push(match bytes[i + 1] {
                                b'n' => '\n',
                                b't' => '\t',
                                b'0' => '\0',
                                b'\\' => '\\',
                                b'"' => '"',
                                other => other as char,
                            });
                            i += 2;
                        }
                        b'\n' => return Err(CompileError::new(line, "newline in string")),
                        other => {
                            s.push(other as char);
                            i += 1;
                        }
                    }
                }
                out.push(SpannedTok { tok: Tok::Str(s), line });
            }
            b'\'' => {
                if i + 2 >= bytes.len() {
                    return Err(CompileError::new(line, "unterminated char literal"));
                }
                let (v, consumed) = if bytes[i + 1] == b'\\' {
                    let v = match bytes[i + 2] {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'0' => 0,
                        other => other,
                    };
                    (v, 4)
                } else {
                    (bytes[i + 1], 3)
                };
                // An escape at the very end of the input has no closing
                // quote to look at.
                if bytes.get(i + consumed - 1) != Some(&b'\'') {
                    return Err(CompileError::new(line, "unterminated char literal"));
                }
                out.push(SpannedTok { tok: Tok::Char(v), line });
                i += consumed;
            }
            _ => {
                // operators & punctuation (longest match first); match on
                // bytes — slicing `src` here could split a UTF-8 char.
                let next = if i + 1 < bytes.len() { bytes[i + 1] } else { 0 };
                let tok2 = match (c, next) {
                    (b'-', b'>') => Some(Tok::Arrow),
                    (b'+', b'=') => Some(Tok::PlusAssign),
                    (b'-', b'=') => Some(Tok::MinusAssign),
                    (b'*', b'=') => Some(Tok::StarAssign),
                    (b'+', b'+') => Some(Tok::PlusPlus),
                    (b'-', b'-') => Some(Tok::MinusMinus),
                    (b'&', b'&') => Some(Tok::AmpAmp),
                    (b'|', b'|') => Some(Tok::PipePipe),
                    (b'=', b'=') => Some(Tok::EqEq),
                    (b'!', b'=') => Some(Tok::NotEq),
                    (b'<', b'=') => Some(Tok::Le),
                    (b'>', b'=') => Some(Tok::Ge),
                    (b'<', b'<') => Some(Tok::Shl),
                    (b'>', b'>') => Some(Tok::Shr),
                    _ => None,
                };
                if let Some(t) = tok2 {
                    out.push(SpannedTok { tok: t, line });
                    i += 2;
                    continue;
                }
                let tok1 = match c {
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b'[' => Tok::LBracket,
                    b']' => Tok::RBracket,
                    b';' => Tok::Semi,
                    b',' => Tok::Comma,
                    b'.' => Tok::Dot,
                    b'&' => Tok::Amp,
                    b'|' => Tok::Pipe,
                    b'^' => Tok::Caret,
                    b'+' => Tok::Plus,
                    b'-' => Tok::Minus,
                    b'*' => Tok::Star,
                    b'/' => Tok::Slash,
                    b'%' => Tok::Percent,
                    b'!' => Tok::Bang,
                    b'=' => Tok::Assign,
                    b'<' => Tok::Lt,
                    b'>' => Tok::Gt,
                    other => {
                        return Err(CompileError::new(
                            line,
                            format!("unexpected character `{}`", other as char),
                        ))
                    }
                };
                out.push(SpannedTok { tok: tok1, line });
                i += 1;
            }
        }
    }
    out.push(SpannedTok { tok: Tok::Eof, line });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lex_declaration() {
        assert_eq!(
            toks("int x = 42;"),
            vec![
                Tok::KwInt,
                Tok::Ident("x"),
                Tok::Assign,
                Tok::Int(42),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lex_arrow_and_comparisons() {
        assert_eq!(
            toks("p->next >= q << 1"),
            vec![
                Tok::Ident("p"),
                Tok::Arrow,
                Tok::Ident("next"),
                Tok::Ge,
                Tok::Ident("q"),
                Tok::Shl,
                Tok::Int(1),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lex_comments_and_lines() {
        let ts = lex("int a; // c1\n/* c2\nc3 */ int b;").unwrap();
        let b_line = ts
            .iter()
            .find(|t| t.tok == Tok::Ident("b"))
            .unwrap()
            .line;
        assert_eq!(b_line, 3);
    }

    #[test]
    fn lex_strings_and_chars() {
        assert_eq!(
            toks(r#""hi\n" 'a' '\n'"#),
            vec![Tok::Str("hi\n".into()), Tok::Char(b'a'), Tok::Char(b'\n'), Tok::Eof]
        );
    }

    #[test]
    fn lex_hex() {
        assert_eq!(toks("0xFF"), vec![Tok::Int(255), Tok::Eof]);
    }

    #[test]
    fn lex_hex_at_signedness_boundary() {
        // Largest literal that fits i64 directly...
        assert_eq!(toks("0x7FFFFFFFFFFFFFFF"), vec![Tok::Int(i64::MAX), Tok::Eof]);
        // ...and the first one past it, which C wraps to i64::MIN.
        assert_eq!(toks("0x8000000000000000"), vec![Tok::Int(i64::MIN), Tok::Eof]);
    }

    #[test]
    fn lex_hex_all_ones_mask() {
        // The canonical all-ones mask must lex (to -1), not error.
        assert_eq!(toks("0xFFFFFFFFFFFFFFFF"), vec![Tok::Int(-1), Tok::Eof]);
        // 17 hex digits genuinely overflows u64 and stays an error.
        assert!(lex("0x1FFFFFFFFFFFFFFFF").is_err());
        // Bare `0x` with no digits is still rejected.
        assert!(lex("0x;").is_err());
    }

    #[test]
    fn char_literal_cut_off_at_eof_is_an_error() {
        for src in ["int main() { char c = '\\n", "'\\", "'a", "'"] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.msg, "unterminated char literal", "{src:?}");
        }
    }

    #[test]
    fn lex_error_on_unknown_char() {
        assert!(lex("int @;").is_err());
    }

    #[test]
    fn lex_floats() {
        assert_eq!(toks("3.5"), vec![Tok::Float(3.5), Tok::Eof]);
    }
}
