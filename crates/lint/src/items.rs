//! Structural scan of one lexed file.
//!
//! No AST: the scanner walks the token stream with a brace-matching
//! cursor and extracts exactly what the rule engine needs — function
//! items with body token ranges, minus `#[cfg(test)] mod` regions (unit
//! tests are excluded from analysis; rules target product code).

use std::path::PathBuf;

use crate::lexer::{lex, Comment, TokKind, Token};

/// Everything the rules need from one source file.
pub struct FileAnalysis {
    pub path: PathBuf,
    pub toks: Vec<Token>,
    pub comments: Vec<Comment>,
    pub fns: Vec<FnItem>,
}

/// One `fn` item (free or associated).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Inclusive token-index range of the body braces `{ .. }`;
    /// `None` for trait method declarations without a default body.
    pub body: Option<(usize, usize)>,
}

/// Scan a source string into a [`FileAnalysis`].
pub fn scan_file(path: PathBuf, src: &str) -> FileAnalysis {
    let (toks, comments) = lex(src);
    let mut fns = Vec::new();

    let test_ranges = find_test_mod_ranges(&toks);
    let in_test = |i: usize| test_ranges.iter().any(|&(a, b)| i >= a && i <= b);

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "fn" || in_test(i) {
            continue;
        }
        // Skip fn-pointer types: `fn(usize) -> u64`.
        let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        fns.push(FnItem {
            name: name.text.clone(),
            body: find_fn_body(&toks, i + 2),
        });
    }

    FileAnalysis {
        path,
        toks,
        comments,
        fns,
    }
}

/// Token index of the `}` matching the `{` at `open`.
pub fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    debug_assert_eq!(toks[open].text, "{");
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// From just after `fn name`, find the body braces: the first `{` at
/// paren/bracket depth 0, unless a `;` (no-body declaration) comes
/// first.
fn find_fn_body(toks: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    for (j, t) in toks.iter().enumerate().skip(from) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            ";" if paren == 0 && bracket == 0 => return None,
            "{" if paren == 0 && bracket == 0 => {
                return matching_brace(toks, j).map(|close| (j, close));
            }
            _ => {}
        }
    }
    None
}

/// Token-index ranges of `#[cfg(test)] mod .. { .. }` bodies.
fn find_test_mod_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the following item; accept further attributes, then a
        // `mod name { .. }` region.
        let mut j = i + 7;
        while j < toks.len() && toks[j].text == "#" {
            // Skip `#[...]`.
            if toks.get(j + 1).map(|t| t.text.as_str()) == Some("[") {
                let mut depth = 0i64;
                let mut k = j + 1;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
            } else {
                break;
            }
        }
        if toks.get(j).map(|t| t.text.as_str()) == Some("mod") {
            // `mod name {` or `mod name;`.
            let mut k = j + 1;
            while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                k += 1;
            }
            if k < toks.len() && toks[k].text == "{" {
                if let Some(close) = matching_brace(toks, k) {
                    out.push((i, close));
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FileAnalysis {
        scan_file(PathBuf::from("test.rs"), src)
    }

    #[test]
    fn finds_free_and_assoc_fns() {
        let fa = scan(
            "pub fn free(a: usize) -> usize { a }\n\
             impl Foo { fn method(&self) {} }\n\
             impl Codec for Bar { fn encode(&self) {} }\n",
        );
        let names: Vec<_> = fa.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "method", "encode"]);
    }

    #[test]
    fn cfg_test_mods_are_excluded() {
        let fa = scan(
            "fn real() {}\n\
             #[cfg(test)]\nmod tests {\n  fn helper() { unsafe { x() } }\n  #[test]\n  fn t() {}\n}\n",
        );
        assert_eq!(fa.fns.len(), 1);
        assert_eq!(fa.fns[0].name, "real");
    }

    #[test]
    fn trait_decl_without_body() {
        let fa = scan("trait T { fn sig(&self) -> usize; fn with_default(&self) {} }");
        let sig = fa.fns.iter().find(|f| f.name == "sig").unwrap();
        assert!(sig.body.is_none());
        let d = fa.fns.iter().find(|f| f.name == "with_default").unwrap();
        assert!(d.body.is_some());
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let fa = scan("fn real(cb: fn(usize) -> u64) {}");
        assert_eq!(fa.fns.len(), 1);
    }
}
