//! Structural scan of one lexed file.
//!
//! No AST: the scanner walks the token stream with a brace-matching
//! cursor and extracts exactly what the rule engine needs — function
//! items with body token ranges, `impl` headers (for the `WireCodec`
//! coverage map), and `#[cfg(test)] mod` regions (unit tests are
//! excluded from analysis; rules target product code).

use std::path::PathBuf;

use crate::lexer::{lex, Comment, TokKind, Token};

/// Everything the rules need from one source file.
pub struct FileAnalysis {
    pub path: PathBuf,
    pub toks: Vec<Token>,
    pub comments: Vec<Comment>,
    pub fns: Vec<FnItem>,
    pub impls: Vec<ImplItem>,
}

/// One `fn` item (free or associated).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Self type name when the fn lives in an `impl` block.
    pub impl_type: Option<String>,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    pub col: u32,
    /// Inclusive token-index range of the body braces `{ .. }`;
    /// `None` for trait method declarations without a default body.
    pub body: Option<(usize, usize)>,
}

/// One `impl` header: `impl Trait for Type` or `impl Type`.
#[derive(Debug, Clone)]
pub struct ImplItem {
    pub trait_name: Option<String>,
    pub type_name: String,
    pub line: u32,
}

/// Scan a source string into a [`FileAnalysis`].
pub fn scan_file(path: PathBuf, src: &str) -> FileAnalysis {
    let (toks, comments) = lex(src);
    let mut fns = Vec::new();
    let mut impls = Vec::new();

    let test_ranges = find_test_mod_ranges(&toks);
    let in_test = |i: usize| test_ranges.iter().any(|&(a, b)| i >= a && i <= b);

    // Impl contexts as (type_name, closing-brace token index).
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    // Function bodies as (name, closing-brace token index) for
    // attributing unsafe blocks to their enclosing fn.
    let mut fn_stack: Vec<(String, usize)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(_, close)) = impl_stack.last() {
            if i > close {
                impl_stack.pop();
            } else {
                break;
            }
        }
        while let Some(&(_, close)) = fn_stack.last() {
            if i > close {
                fn_stack.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" if !in_test(i) => {
                if let Some((item, body)) = parse_impl_header(&toks, i) {
                    if let Some((open, close)) = body {
                        impl_stack.push((item.type_name.clone(), close));
                        impls.push(item);
                        i = open + 1;
                        continue;
                    }
                    impls.push(item);
                }
                i += 1;
            }
            "fn" => {
                // Skip fn-pointer types: `fn(usize) -> u64`.
                let name = match toks.get(i + 1) {
                    Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let body = find_fn_body(&toks, i + 2);
                if !in_test(i) {
                    fns.push(FnItem {
                        name: name.clone(),
                        impl_type: impl_stack.last().map(|(t, _)| t.clone()),
                        line: t.line,
                        col: t.col,
                        body,
                    });
                }
                if let Some((open, close)) = body {
                    fn_stack.push((name, close));
                    i = open + 1;
                    continue;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }

    FileAnalysis {
        path,
        toks,
        comments,
        fns,
        impls,
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

/// Parse `impl<G> Trait for Type { .. }` / `impl Type { .. }` starting
/// at the `impl` token. Returns the header and the body brace range.
fn parse_impl_header(toks: &[Token], at: usize) -> Option<(ImplItem, Option<(usize, usize)>)> {
    let line = toks[at].line;
    let mut j = at + 1;
    // Skip generic parameters `<...>` by angle counting; lifetimes and
    // nested generics are fine, comparison operators cannot appear in
    // an impl header.
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut depth = 0i64;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Collect header tokens until the body `{` (or `;`), splitting on
    // a top-level `for`.
    let mut before_for: Vec<&Token> = Vec::new();
    let mut after_for: Vec<&Token> = Vec::new();
    let mut saw_for = false;
    let mut depth = 0i64;
    let mut open = None;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "{" if depth <= 0 => {
                open = Some(j);
                break;
            }
            ";" if depth <= 0 => break,
            "for" if depth <= 0 && t.kind == TokKind::Ident => {
                saw_for = true;
                j += 1;
                continue;
            }
            "where" if depth <= 0 && t.kind == TokKind::Ident => {
                // `where` clause: scan ahead to the body brace.
                j += 1;
                continue;
            }
            _ => {}
        }
        if saw_for {
            after_for.push(t);
        } else {
            before_for.push(t);
        }
        j += 1;
    }
    let last_ident = |v: &[&Token]| {
        v.iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .next_back()
    };
    // The *first* path-segment ident of the trait is its name in our
    // model for `simmpi::WireCodec`-style paths... except the name is
    // the last segment; generics were already stripped above only at
    // the front. Take the last ident before any `<` in the segment.
    let head_name = |v: &[&Token]| -> Option<String> {
        let mut depth = 0i64;
        let mut name = None;
        for t in v {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                _ => {
                    if depth == 0 && t.kind == TokKind::Ident {
                        name = Some(t.text.clone());
                    }
                }
            }
        }
        name.or_else(|| last_ident(v))
    };
    let item = if saw_for {
        ImplItem {
            trait_name: head_name(&before_for),
            type_name: head_name(&after_for)?,
            line,
        }
    } else {
        ImplItem {
            trait_name: None,
            type_name: head_name(&before_for)?,
            line,
        }
    };
    let body = open.and_then(|o| matching_brace(toks, o).map(|c| (o, c)));
    Some((item, body))
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
        let names: Vec<_> = fa
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("method", Some("Foo")),
                ("encode", Some("Bar"))
            ]
        );
        assert_eq!(fa.impls.len(), 2);
        assert_eq!(fa.impls[1].trait_name.as_deref(), Some("Codec"));
        assert_eq!(fa.impls[1].type_name, "Bar");
    }

    #[test]
    fn impl_with_path_and_generics() {
        let fa = scan("impl<T: Clone> simmpi::WireCodec for RankOutput<T> { }\n");
        assert_eq!(fa.impls[0].trait_name.as_deref(), Some("WireCodec"));
        assert_eq!(fa.impls[0].type_name, "RankOutput");
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
