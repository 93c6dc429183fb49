//! Self-check: the shipped workspace must be finding-free. This is the
//! gate (`cargo test --workspace` in CI runs it) — any source change
//! that starts an exchange without finishing it on every path, or skews
//! a collective skeleton across a rank-dependent branch, fails here.

use std::path::Path;

#[test]
fn shipped_workspace_is_finding_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let roots = cmt_lint::workspace_source_roots(root);
    assert!(
        roots.len() > 10,
        "expected every crate's src tree, got {roots:#?}"
    );
    let diags = cmt_lint::analyze(&roots).expect("workspace analysis failed");
    assert!(
        diags.is_empty(),
        "the shipped workspace must be cmt-lint clean; fix the finding or add a justified \
         in-source allow:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
