//! `cmt-lint` — a workspace static analyzer that proves two simmpi
//! communication invariants before the code ever runs.
//!
//! `cmt-verify` only catches a communication bug if it executes on the
//! right schedule; this crate is its static twin for the two invariants
//! that neither the type system nor a tier-1 test can state, checked on
//! every path at `cargo` time. Two rule families, stable codes:
//!
//! | code | invariant |
//! |------|-----------|
//! | CMT-L001 | split-phase `gs_op_start` pairs with `gs_op_finish` on all paths |
//! | CMT-L002 | rank-dependent branches execute identical collective skeletons |
//!
//! The pipeline: [`lexer`] tokenizes, [`items`] extracts the functions,
//! [`model`] builds the workspace call graph, [`rules`] runs the
//! families, and [`diag`] applies the in-source escape hatch
//! (`// cmt-lint: allow(CODE)`).
//!
//! Every other invariant has a stronger witness elsewhere (DESIGN.md,
//! *Static analysis*): payload encodability is the `simmpi::Msg` bound,
//! the zero-allocation steady state is counted by `tests/alloc_free.rs`,
//! and the `unsafe` boundary is `forbid`/`deny(unsafe_code)` on the crate
//! roots plus clippy's `undocumented_unsafe_blocks`.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod model;
pub mod rules;

use std::path::{Path, PathBuf};

use diag::Diagnostic;
use model::Workspace;

/// Analyze a set of `.rs` files (or directories, walked recursively)
/// and return the findings no in-source allow covers.
pub fn analyze(paths: &[PathBuf]) -> std::io::Result<Vec<Diagnostic>> {
    let mut sources = Vec::new();
    for p in paths {
        collect_sources(p, &mut sources)?;
    }
    sources.sort();
    sources.dedup();
    let mut loaded = Vec::with_capacity(sources.len());
    for p in sources {
        let src = std::fs::read_to_string(&p)?;
        loaded.push((p, src));
    }
    let ws = Workspace::build(loaded);
    Ok(diag::apply_source_allows(rules::run_all(&ws), &ws.files))
}

/// Product source roots of the workspace at `root`: every crate's
/// `src/` tree plus the top-level `src/`. Tests, benches, examples and
/// fixtures are deliberately out of scope — the invariants the rules
/// prove are contracts of product code.
pub fn workspace_source_roots(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let top = root.join("src");
    if top.is_dir() {
        out.push(top);
    }
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        for e in entries.flatten() {
            let src = e.path().join("src");
            if src.is_dir() {
                out.push(src);
            }
        }
    }
    out.sort();
    out
}

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

fn collect_sources(p: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if p.is_file() {
        if p.extension().is_some_and(|e| e == "rs") {
            out.push(p.to_path_buf());
        }
        return Ok(());
    }
    if p.is_dir() {
        for e in std::fs::read_dir(p)? {
            collect_sources(&e?.path(), out)?;
        }
    }
    Ok(())
}
