//! CMT-L002 — collective-order consistency.
//!
//! The static twin of `cmt-verify`'s runtime collective-fingerprint
//! matching: between two barriers, every rank must execute the same
//! sequence of collectives. Dynamically that is checked per call; the
//! static skeleton check catches the whole class at once — any
//! rank-dependent branch (`if rank.rank() == 0 { .. }`, `match
//! rank.rank() { .. }`) whose arms execute *different* collective
//! skeletons will deadlock or mis-match for some rank, on some
//! schedule.
//!
//! Skeletons are interprocedural: a call to a function that
//! (transitively) performs collectives appears in the skeleton under
//! its own name, so hiding an `allreduce` behind a helper does not hide
//! it from the rule.

use std::collections::HashSet;

use crate::config;
use crate::diag::Diagnostic;
use crate::lexer::{TokKind, Token};
use crate::model::{FnId, Workspace};

pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let bearing = collective_bearing(ws);
    let mut out = Vec::new();
    for (fi, fa) in ws.files.iter().enumerate() {
        for (gi, f) in fa.fns.iter().enumerate() {
            let Some((open, close)) = f.body else {
                continue;
            };
            check_body(ws, (fi, gi), &fa.toks, open, close, &bearing, &mut out);
        }
    }
    out
}

/// Names of workspace functions that (transitively) call a collective.
fn collective_bearing(ws: &Workspace) -> HashSet<String> {
    // Seed: functions with a direct collective call site.
    let mut bearing: HashSet<FnId> = HashSet::new();
    let mut worklist: Vec<FnId> = Vec::new();
    for (&id, calls) in &ws.calls {
        if calls
            .iter()
            .any(|c| config::COLLECTIVES.contains(&c.name.as_str()))
        {
            bearing.insert(id);
            worklist.push(id);
        }
    }
    // Reverse-propagate through the call graph.
    let mut changed = true;
    while changed {
        changed = false;
        let ids: Vec<FnId> = ws.calls.keys().copied().collect();
        for id in ids {
            if bearing.contains(&id) {
                continue;
            }
            if ws.callees(id).iter().any(|c| bearing.contains(c)) {
                bearing.insert(id);
                changed = true;
            }
        }
    }
    bearing
        .iter()
        .map(|&id| ws.fn_item(id).name.clone())
        .collect()
}

fn check_body(
    ws: &Workspace,
    id: FnId,
    toks: &[Token],
    open: usize,
    close: usize,
    bearing: &HashSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let path = ws.path(id).to_path_buf();
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && t.text == "if"
            && toks.get(i.wrapping_sub(1)).map(|p| p.text.as_str()) != Some("else")
        {
            if let Some(chain) = parse_if_chain(toks, i, close) {
                if rank_dependent(&chain.cond_toks(toks)) {
                    let skels: Vec<Vec<String>> = chain
                        .branches
                        .iter()
                        .map(|&(a, b)| skeleton(ws, id, a, b, bearing))
                        .collect();
                    report_mismatch(&path, t, &skels, chain.has_else, out);
                }
            }
        }
        if t.kind == TokKind::Ident && t.text == "match" {
            if let Some((scrut, arms)) = parse_match(toks, i, close) {
                if rank_dependent(&scrut) {
                    let skels: Vec<Vec<String>> = arms
                        .iter()
                        .map(|&(a, b)| skeleton(ws, id, a, b, bearing))
                        .collect();
                    report_mismatch(&path, t, &skels, true, out);
                }
            }
        }
        i += 1;
    }
}

fn report_mismatch(
    path: &std::path::Path,
    at: &Token,
    skels: &[Vec<String>],
    exhaustive: bool,
    out: &mut Vec<Diagnostic>,
) {
    let mut all = skels.to_vec();
    if !exhaustive {
        all.push(Vec::new()); // missing else = empty skeleton
    }
    if all.iter().all(|s| s.is_empty()) {
        return;
    }
    let first = &all[0];
    if all.iter().all(|s| s == first) {
        return;
    }
    let rendered: Vec<String> = all
        .iter()
        .map(|s| {
            if s.is_empty() {
                "(none)".to_string()
            } else {
                s.join(" -> ")
            }
        })
        .collect();
    out.push(Diagnostic {
        code: "CMT-L002",
        file: path.to_path_buf(),
        line: at.line,
        col: at.col,
        message: "rank-dependent branch executes different collective skeletons; some rank will \
                  mismatch or deadlock"
            .into(),
        note: Some(format!(
            "per-branch skeletons: [{}]",
            rendered.join("] vs [")
        )),
    });
}

/// Ordered collective skeleton of a token range: direct collective
/// calls plus calls into collective-bearing workspace functions.
fn skeleton(
    ws: &Workspace,
    id: FnId,
    a: usize,
    b: usize,
    bearing: &HashSet<String>,
) -> Vec<String> {
    let Some(calls) = ws.calls.get(&id) else {
        return Vec::new();
    };
    calls
        .iter()
        .filter(|c| c.tok >= a && c.tok < b)
        .filter(|c| {
            config::COLLECTIVES.contains(&c.name.as_str())
                || (!config::CALL_NAME_STOPLIST.contains(&c.name.as_str())
                    && bearing.contains(&c.name))
        })
        .map(|c| c.name.clone())
        .collect()
}

/// Does a condition/scrutinee token sequence depend on the rank id?
/// Matches `.rank()` calls, and identifiers containing `rank` used in a
/// comparison (`my_rank == 0`, `0 != rank`).
fn rank_dependent(cond: &[Token]) -> bool {
    for (j, t) in cond.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_ranky = t.text == "rank" || t.text.ends_with("_rank") || t.text == "is_root";
        if !is_ranky {
            continue;
        }
        let next = cond.get(j + 1).map(|t| t.text.as_str()).unwrap_or("");
        let next2 = cond.get(j + 2).map(|t| t.text.as_str()).unwrap_or("");
        let prev = if j > 0 { cond[j - 1].text.as_str() } else { "" };
        // `.rank()` / `.is_root()` call.
        if next == "(" && next2 == ")" {
            return true;
        }
        // `rank ==` / `rank !=` / `rank <` ... and the mirrored forms.
        if matches!(next, "==" | "!=" | "<" | ">" | "<=" | ">=" | "%") {
            return true;
        }
        if matches!(prev, "==" | "!=" | "<" | ">" | "<=" | ">=") {
            return true;
        }
    }
    false
}

/// An `if`/`else if`/`else` chain: condition span + branch body spans.
struct IfChain {
    cond: (usize, usize),
    /// Token ranges of each `{ .. }` branch body (exclusive braces).
    branches: Vec<(usize, usize)>,
    has_else: bool,
}

impl IfChain {
    fn cond_toks(&self, toks: &[Token]) -> Vec<Token> {
        toks[self.cond.0..self.cond.1].to_vec()
    }
}

/// Parse the chain starting at the `if` token. Returns `None` on
/// anything the scanner can't shape (malformed input only; rustc
/// accepted the file).
fn parse_if_chain(toks: &[Token], at: usize, close: usize) -> Option<IfChain> {
    let (cond_start, body_open) = find_block_open(toks, at + 1, close)?;
    let body_close = crate::items::matching_brace(toks, body_open)?;
    let mut chain = IfChain {
        cond: (cond_start, body_open),
        branches: vec![(body_open + 1, body_close)],
        has_else: false,
    };
    let mut j = body_close + 1;
    loop {
        if toks.get(j).map(|t| t.text.as_str()) != Some("else") {
            break;
        }
        if toks.get(j + 1).map(|t| t.text.as_str()) == Some("if") {
            let (_, open) = find_block_open(toks, j + 2, close)?;
            let cl = crate::items::matching_brace(toks, open)?;
            chain.branches.push((open + 1, cl));
            j = cl + 1;
        } else if toks.get(j + 1).map(|t| t.text.as_str()) == Some("{") {
            let cl = crate::items::matching_brace(toks, j + 1)?;
            chain.branches.push((j + 2, cl));
            chain.has_else = true;
            break;
        } else {
            break;
        }
    }
    Some(chain)
}

/// From `from`, find the `{` opening the block, skipping the condition
/// (parens/brackets balanced; struct literals cannot appear unless
/// parenthesized, per Rust's own restriction in `if` conditions).
fn find_block_open(toks: &[Token], from: usize, close: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(close).skip(from) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some((from, j)),
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
    }
    None
}

/// Scrutinee tokens and each arm body's token range.
type MatchShape = (Vec<Token>, Vec<(usize, usize)>);

/// Parse `match scrutinee { arm => body, .. }`.
fn parse_match(toks: &[Token], at: usize, close: usize) -> Option<MatchShape> {
    let (scrut_start, body_open) = find_block_open(toks, at + 1, close)?;
    let body_close = crate::items::matching_brace(toks, body_open)?;
    let scrut = toks[scrut_start..body_open].to_vec();
    let mut arms = Vec::new();
    let mut j = body_open + 1;
    while j < body_close {
        // Find the `=>` of this arm (skipping pattern-level nesting and
        // an optional `if` guard).
        let mut depth = 0i64;
        let mut arrow = None;
        let mut k = j;
        while k < body_close {
            let t = &toks[k];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=>" if depth == 0 => {
                    arrow = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let arrow = arrow?;
        // Arm body: `{ .. }` block or expression up to the top-level `,`.
        if toks.get(arrow + 1).map(|t| t.text.as_str()) == Some("{") {
            let cl = crate::items::matching_brace(toks, arrow + 1)?;
            arms.push((arrow + 2, cl));
            j = cl + 1;
            if toks.get(j).map(|t| t.text.as_str()) == Some(",") {
                j += 1;
            }
        } else {
            let mut depth = 0i64;
            let mut k = arrow + 1;
            while k < body_close {
                let t = &toks[k];
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            arms.push((arrow + 1, k));
            j = k + 1;
        }
    }
    Some((scrut, arms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&Workspace::build(vec![(
            PathBuf::from("t.rs"),
            src.to_string(),
        )]))
    }

    #[test]
    fn root_only_collective_is_flagged() {
        let d = run("fn f(rank: &mut Rank) {\n\
               if rank.rank() == 0 {\n\
                 let rows = rank.gather(0, data);\n\
               }\n\
             }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "CMT-L002");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn same_skeleton_on_both_branches_is_clean() {
        let d = run("fn f(rank: &mut Rank, root: usize) {\n\
               if rank.rank() == root {\n\
                 let v = rank.bcast(root, payload);\n\
               } else {\n\
                 let v = rank.bcast(root, Vec::new());\n\
               }\n\
             }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn rank_independent_branch_is_clean() {
        let d = run("fn f(rank: &mut Rank, flag: bool) {\n\
               if flag {\n\
                 rank.barrier();\n\
               }\n\
             }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn collective_hidden_behind_helper_is_still_seen() {
        let d = run(
            "fn helper(rank: &mut Rank) { rank.allreduce_f64(&xs, op); }\n\
             fn f(rank: &mut Rank) {\n\
               if rank.rank() == 0 {\n\
                 helper(rank);\n\
               }\n\
             }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn match_on_rank_with_differing_arms_is_flagged() {
        let d = run("fn f(rank: &mut Rank) {\n\
               match rank.rank() {\n\
                 0 => { rank.barrier(); }\n\
                 _ => {}\n\
               }\n\
             }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn rank_comparison_via_local_is_flagged() {
        let d = run("fn f(rank: &mut Rank, my_rank: usize) {\n\
               if my_rank == 0 {\n\
                 rank.barrier();\n\
               }\n\
             }");
        assert_eq!(d.len(), 1);
    }
}
