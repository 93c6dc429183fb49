//! The rule engine: each family takes the workspace model and returns
//! raw findings; the driver applies the in-source escape hatch afterwards.

pub mod coll;
pub mod split;

use crate::diag::Diagnostic;
use crate::model::Workspace;

/// Run every rule family over `ws`.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(split::check(ws));
    out.extend(coll::check(ws));
    out.sort_by(|a, b| {
        (a.file.clone(), a.line, a.col, a.code).cmp(&(b.file.clone(), b.line, b.col, b.code))
    });
    out
}
