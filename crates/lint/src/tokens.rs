//! Token trees over the masked source.
//!
//! The masking lexer (`lexer::mask_source`) already removes the only
//! constructs that make Rust hard to tokenize byte-by-byte: comments,
//! string/char literals, and lifetimes' leading quotes survive as blanks.
//! On top of the mask this module builds a classic token-tree layer:
//! identifiers, punctuation, and *groups* — balanced `()`/`[]`/`{}` regions
//! parsed into nested trees.  Byte offsets into the original source are kept
//! on every token so rules can report accurate line numbers.
//!
//! The tree is deliberately lossy (no literals' contents, no whitespace) —
//! it exists so the model extractor in `model.rs` can walk item structure
//! without a real Rust parser and without any external dependency.

/// Which delimiter a [`Tok::Group`] was opened with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    Paren,
    Bracket,
    Brace,
}

impl Delim {
    fn open(b: u8) -> Option<Delim> {
        match b {
            b'(' => Some(Delim::Paren),
            b'[' => Some(Delim::Bracket),
            b'{' => Some(Delim::Brace),
            _ => None,
        }
    }

    fn close(self) -> u8 {
        match self {
            Delim::Paren => b')',
            Delim::Bracket => b']',
            Delim::Brace => b'}',
        }
    }
}

/// One node of the token tree.
#[derive(Debug, Clone)]
pub enum Tok {
    /// Identifier or keyword; `text` is the exact source spelling.
    Ident { text: String, off: usize },
    /// Numeric literal (e.g. `256`, `0xFF`, `1_000u64`); spelling preserved.
    Number { text: String, off: usize },
    /// Single punctuation byte (`:`, `;`, `<`, `-`, …).  Multi-byte operators
    /// appear as consecutive puncts; consumers that care (arrow skipping)
    /// reassemble them.
    Punct { ch: u8, off: usize },
    /// Balanced delimiter group with its parsed contents.
    Group {
        delim: Delim,
        toks: Vec<Tok>,
        off: usize,
    },
}

impl Tok {
    pub fn off(&self) -> usize {
        match self {
            Tok::Ident { off, .. }
            | Tok::Number { off, .. }
            | Tok::Punct { off, .. }
            | Tok::Group { off, .. } => *off,
        }
    }

    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tok::Ident { text, .. } if text == s)
    }

    pub fn is_punct(&self, c: u8) -> bool {
        matches!(self, Tok::Punct { ch, .. } if *ch == c)
    }

    pub fn ident_text(&self) -> Option<&str> {
        match self {
            Tok::Ident { text, .. } => Some(text),
            _ => None,
        }
    }

    pub fn group(&self, d: Delim) -> Option<&[Tok]> {
        match self {
            Tok::Group { delim, toks, .. } if *delim == d => Some(toks),
            _ => None,
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenize masked source into a flat token stream, then fold balanced
/// delimiters into groups.  Unbalanced delimiters are tolerated (the stray
/// closer is dropped, an unclosed group ends at EOF) so a half-edited file
/// degrades to a shallower tree instead of a hard error.
pub fn parse(masked: &str) -> Vec<Tok> {
    let bytes = masked.as_bytes();
    let mut i = 0usize;
    let mut stack: Vec<(Delim, usize, Vec<Tok>)> = Vec::new();
    let mut cur: Vec<Tok> = Vec::new();
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if is_ident_start(b) {
            let start = i;
            while i < bytes.len() && is_ident_cont(bytes[i]) {
                i += 1;
            }
            cur.push(Tok::Ident {
                text: masked[start..i].to_string(),
                off: start,
            });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            // Numeric literal: digits plus the alnum/underscore/dot tail
            // (covers hex, suffixes, floats).  `1.method()` is not valid on
            // an integer literal in this codebase, so the greedy dot is safe.
            while i < bytes.len()
                && (is_ident_cont(bytes[i])
                    || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit())))
            {
                i += 1;
            }
            cur.push(Tok::Number {
                text: masked[start..i].to_string(),
                off: start,
            });
            continue;
        }
        if let Some(d) = Delim::open(b) {
            stack.push((d, i, std::mem::take(&mut cur)));
            i += 1;
            continue;
        }
        if matches!(b, b')' | b']' | b'}') {
            if let Some((d, off, parent)) = stack.pop() {
                if d.close() == b {
                    let toks = std::mem::replace(&mut cur, parent);
                    cur.push(Tok::Group {
                        delim: d,
                        toks,
                        off,
                    });
                } else {
                    // Mismatched closer: restore and drop the byte.
                    stack.push((d, off, parent));
                }
            }
            i += 1;
            continue;
        }
        cur.push(Tok::Punct { ch: b, off: i });
        i += 1;
    }
    // Unclosed groups: fold innermost-first so partial content is kept.
    while let Some((d, off, parent)) = stack.pop() {
        let toks = std::mem::replace(&mut cur, parent);
        cur.push(Tok::Group {
            delim: d,
            toks,
            off,
        });
    }
    cur
}

/// Collect every identifier in a token slice (recursing into groups) into
/// `out`.  Used to build per-function "mentions" sets.
pub fn collect_idents<'a>(toks: &'a [Tok], out: &mut Vec<&'a str>) {
    for t in toks {
        match t {
            Tok::Ident { text, .. } => out.push(text),
            Tok::Group { toks, .. } => collect_idents(toks, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask_source;

    fn tree(src: &str) -> Vec<Tok> {
        parse(&mask_source(src))
    }

    #[test]
    fn flat_idents_and_puncts() {
        let t = tree("let x = y + 1;");
        assert!(t[0].is_ident("let"));
        assert!(t[1].is_ident("x"));
        assert!(t[2].is_punct(b'='));
        assert!(matches!(&t[4], Tok::Punct { ch: b'+', .. }));
        assert!(matches!(&t[5], Tok::Number { text, .. } if text == "1"));
    }

    #[test]
    fn nested_groups() {
        let t = tree("fn f(a: u32) { g([a, 2]); }");
        let body = t
            .iter()
            .find_map(|t| t.group(Delim::Brace))
            .expect("brace group");
        let call = body
            .iter()
            .find_map(|t| t.group(Delim::Paren))
            .expect("call parens");
        assert!(call.iter().any(|t| t.group(Delim::Bracket).is_some()));
    }

    #[test]
    fn offsets_point_into_source() {
        let src = "mod m {\n    fn inner() {}\n}\n";
        let t = tree(src);
        let grp = t.iter().find_map(|t| t.group(Delim::Brace)).unwrap();
        let fn_tok = grp.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(&src[fn_tok.off()..fn_tok.off() + 2], "fn");
    }

    #[test]
    fn unbalanced_input_degrades() {
        // A stray closer and an unclosed brace must not panic or loop.
        let t = tree(") fn f( {");
        assert!(t.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn masked_strings_do_not_tokenize() {
        let t = tree(r#"let s = "fn not_a_fn() {";"#);
        assert!(!t.iter().any(|t| t.is_ident("not_a_fn")));
    }
}
