//! CMT-L003 — hot-path allocation.
//!
//! The tier-1 `tests/alloc_free.rs` counting-allocator tests
//! assert that steady-state timesteps perform zero heap allocations in
//! the gather–scatter and overlap-window regions — but only on the
//! schedules CI happens to run. This rule proves the property's static
//! side: no allocation construct (`Vec::new`, `vec!`, `.clone()`,
//! `.collect()`, `format!`, ...) may appear in any function reachable
//! from the zero-alloc roots through the workspace call graph, except
//! behind the blessed pool/instrumentation barriers
//! ([`config::ALLOC_BARRIERS`]).

use std::collections::HashMap;

use crate::config;
use crate::diag::Diagnostic;
use crate::model::{FnId, Workspace};

pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    // BFS from the roots; remember one parent per function so findings
    // can show a concrete call chain back to a root.
    let mut parent: HashMap<FnId, Option<FnId>> = HashMap::new();
    let mut queue: Vec<FnId> = Vec::new();
    for (name, ids) in &ws.fn_by_name {
        if config::HOT_ROOTS.contains(&name.as_str()) {
            for &id in ids {
                parent.entry(id).or_insert(None);
                queue.push(id);
            }
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let id = queue[qi];
        qi += 1;
        for callee in ws.callees(id) {
            let f = ws.fn_item(callee);
            if config::ALLOC_BARRIERS.contains(&f.name.as_str()) {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(callee) {
                e.insert(Some(id));
                queue.push(callee);
            }
        }
    }

    let mut out = Vec::new();
    for (&id, _) in parent.iter() {
        let Some(calls) = ws.calls.get(&id) else {
            continue;
        };
        for c in calls {
            let construct = if c.is_macro {
                config::ALLOC_MACROS
                    .contains(&c.name.as_str())
                    .then(|| format!("{}!", c.name))
            } else if c.is_method {
                config::ALLOC_METHODS
                    .contains(&c.name.as_str())
                    .then(|| format!(".{}()", c.name))
            } else if let Some(recv) = &c.receiver_type {
                config::ALLOC_PATH_CALLS
                    .iter()
                    .any(|&(t, m)| t == recv && m == c.name)
                    .then(|| format!("{}::{}", recv, c.name))
            } else {
                None
            };
            let Some(construct) = construct else {
                continue;
            };
            out.push(Diagnostic {
                code: "CMT-L003",
                file: ws.path(id).to_path_buf(),
                line: c.line,
                col: c.col,
                message: format!(
                    "allocation construct `{}` in `{}`, which is reachable from a zero-alloc \
                     steady-state root",
                    construct,
                    ws.fn_label(id)
                ),
                note: Some(format!(
                    "call chain: {}; route the buffer through the rank's BufferPool or a \
                     persistent plan instead",
                    chain(ws, &parent, id)
                )),
            });
        }
    }
    out
}

/// Render `root -> .. -> f` from the BFS parent map.
fn chain(ws: &Workspace, parent: &HashMap<FnId, Option<FnId>>, id: FnId) -> String {
    let mut names = vec![ws.fn_label(id)];
    let mut cur = id;
    while let Some(Some(p)) = parent.get(&cur) {
        names.push(ws.fn_label(*p));
        cur = *p;
        if names.len() > 12 {
            break;
        }
    }
    names.reverse();
    names.join(" -> ")
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
    fn direct_alloc_in_root_is_flagged() {
        let d = run("fn gs_op_start(rank: &mut Rank) { let v = Vec::with_capacity(8); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "CMT-L003");
        assert!(d[0].message.contains("Vec::with_capacity"));
    }

    #[test]
    fn alloc_behind_helper_is_flagged_with_chain() {
        let d = run("fn gs_op_finish(rank: &mut Rank) { unpack_stage(rank); }\n\
             fn unpack_stage(rank: &mut Rank) { let s = data.to_vec(); }");
        assert_eq!(d.len(), 1);
        assert!(d[0]
            .note
            .as_ref()
            .unwrap()
            .contains("gs_op_finish -> unpack_stage"));
    }

    #[test]
    fn pool_barrier_is_not_traversed() {
        let d = run(
            "fn gs_op_start(rank: &mut Rank) { let b = rank.pool().take(); }\n\
             fn take(p: &Pool) -> Buf { Vec::with_capacity(64) }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unreachable_alloc_is_fine() {
        let d = run("fn setup_only() { let v = vec![0.0; 64]; }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn macro_and_clone_constructs_are_flagged() {
        let d = run("fn gs_op(rank: &mut Rank) {\n\
               let msg = format!(\"{}\", x);\n\
               let c = buf.clone();\n\
             }");
        assert_eq!(d.len(), 2);
    }
}
