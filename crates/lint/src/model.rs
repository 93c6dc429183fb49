//! Workspace model: files, functions, call sites, and the name-resolved
//! call graph the interprocedural rules traverse.
//!
//! Resolution is purely name-based (the analyzer has no type system):
//! a call `x.foo(..)` is an edge to *every* workspace function named
//! `foo`. That over-approximates — which is the right direction for a
//! checker whose findings are reviewed — except for ubiquitous names
//! (`new`, `len`, `push`, ...) where an edge to every `new` in the
//! workspace would connect everything to everything; those names are
//! never resolved (see [`crate::config::CALL_NAME_STOPLIST`]).

use std::collections::HashMap;
use std::path::Path;

use crate::config;
use crate::items::{scan_file, FileAnalysis};
use crate::lexer::{TokKind, Token};

/// Index of a function: (file index, fn index within the file).
pub type FnId = (usize, usize);

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name: last path segment (`cmt_gs::setup` -> `setup`,
    /// `handle.gs_op_start` -> `gs_op_start`). Macro invocations are not
    /// call sites.
    pub name: String,
    /// Token index of the callee name.
    pub tok: usize,
    pub line: u32,
    pub col: u32,
}

/// The analyzed workspace.
pub struct Workspace {
    pub files: Vec<FileAnalysis>,
    /// Call sites per function, indexed like the function list.
    pub calls: HashMap<FnId, Vec<CallSite>>,
    /// Functions by bare name.
    pub fn_by_name: HashMap<String, Vec<FnId>>,
}

impl Workspace {
    /// Build the model from `(path, source)` pairs.
    pub fn build(sources: Vec<(std::path::PathBuf, String)>) -> Workspace {
        let files: Vec<FileAnalysis> = sources
            .into_iter()
            .map(|(p, src)| scan_file(p, &src))
            .collect();
        let mut fn_by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut calls = HashMap::new();
        for (fi, fa) in files.iter().enumerate() {
            for (gi, f) in fa.fns.iter().enumerate() {
                fn_by_name.entry(f.name.clone()).or_default().push((fi, gi));
                if let Some((open, close)) = f.body {
                    calls.insert((fi, gi), extract_calls(&fa.toks, open, close));
                }
            }
        }
        Workspace {
            files,
            calls,
            fn_by_name,
        }
    }

    pub fn fn_item(&self, id: FnId) -> &crate::items::FnItem {
        &self.files[id.0].fns[id.1]
    }

    pub fn path(&self, id: FnId) -> &Path {
        &self.files[id.0].path
    }

    /// Call-graph successors of `id`, name-resolved against the
    /// workspace, skipping stoplisted names.
    pub fn callees(&self, id: FnId) -> Vec<FnId> {
        let mut out = Vec::new();
        let Some(sites) = self.calls.get(&id) else {
            return out;
        };
        for c in sites {
            if config::CALL_NAME_STOPLIST.contains(&c.name.as_str()) {
                continue;
            }
            if let Some(ids) = self.fn_by_name.get(&c.name) {
                out.extend(ids.iter().copied());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Extract call sites from a body token range (exclusive of the braces).
pub fn extract_calls(toks: &[Token], open: usize, close: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Keywords never name calls; `if x(..)` must not read `if` as
        // a callee, and `match (..)` must not look like a call.
        if config::KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // Look past an optional turbofish `::<..>` for the call paren.
        let mut j = i + 1;
        if j + 1 < close && toks[j].text == "::" && toks[j + 1].text == "<" {
            let mut depth = 0i64;
            let mut k = j + 1;
            while k < close {
                match toks[k].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
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
        }
        if j < close && toks[j].text == "(" {
            out.push(CallSite {
                name: t.text.clone(),
                tok: i,
                line: t.line,
                col: t.col,
            });
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws(src: &str) -> Workspace {
        Workspace::build(vec![(PathBuf::from("a.rs"), src.to_string())])
    }

    #[test]
    fn extracts_method_path_and_turbofish_calls_but_not_macros() {
        let w = ws("fn f(rank: &mut Rank) {\n\
               let v = Vec::with_capacity(4);\n\
               rank.send::<f64>(1, TAG, &v);\n\
               let s = format!(\"{}\", 1);\n\
               helper(s);\n\
             }\n\
             fn helper(_s: String) {}\n");
        let names: Vec<&str> = w.calls[&(0, 0)].iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["with_capacity", "send", "helper"]);
    }

    #[test]
    fn call_graph_resolves_by_name() {
        let w = ws("fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n");
        let a = w.fn_by_name["a"][0];
        let b = w.fn_by_name["b"][0];
        let c = w.fn_by_name["c"][0];
        assert_eq!(w.callees(a), vec![b]);
        assert_eq!(w.callees(b), vec![c]);
    }

    #[test]
    fn stoplisted_names_do_not_resolve() {
        let w = ws("fn a(v: &mut Vec<u8>) { v.push(1); }\nfn push(_v: u8) {}\n");
        let a = w.fn_by_name["a"][0];
        assert!(w.callees(a).is_empty());
    }

    #[test]
    fn keyword_before_paren_is_not_a_call() {
        let w = ws("fn a(x: bool) { if x { } match x { _ => {} } while x { } }");
        assert!(w.calls[&(0, 0)].is_empty());
    }
}
