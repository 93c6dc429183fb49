//! Fixture-corpus integration tests: every rule family gets known-bad
//! snippets asserted down to exact codes and line numbers, and a
//! known-clean snippet asserted finding-free. The fixtures live under
//! `tests/fixtures/` (a subdirectory, so cargo never compiles them) and
//! are analyzed through the same [`cmt_lint::analyze`] entry point the
//! CLI uses.

use std::path::{Path, PathBuf};

use cmt_lint::diag::Diagnostic;

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

fn analyze_fixture(rel: &str) -> Vec<Diagnostic> {
    cmt_lint::analyze(&[fixture(rel)]).expect("fixture analysis failed")
}

/// `(code, line)` pairs, sorted, for exact-span assertions.
fn spans(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
    let mut v: Vec<(&'static str, u32)> = diags.iter().map(|d| (d.code, d.line)).collect();
    v.sort();
    v
}

// --------------------------------------------------------------- L001

#[test]
fn l001_unpaired_start_is_flagged_at_the_start_call() {
    let d = analyze_fixture("l001_unpaired.rs");
    assert_eq!(spans(&d), [("CMT-L001", 6)], "{d:#?}");
    assert!(d[0].message.contains("never finished"), "{}", d[0].message);
}

#[test]
fn l001_early_exits_are_flagged_at_the_exit_tokens() {
    let d = analyze_fixture("l001_early_exit.rs");
    // The `return` on line 7 and the `?` on line 14.
    assert_eq!(spans(&d), [("CMT-L001", 7), ("CMT-L001", 14)], "{d:#?}");
    for diag in &d {
        assert!(diag.message.contains("early exit"), "{}", diag.message);
    }
}

#[test]
fn l001_paired_drained_and_polling_forms_are_clean() {
    let d = analyze_fixture("l001_clean.rs");
    assert!(d.is_empty(), "{d:#?}");
}

// --------------------------------------------------------------- L002

#[test]
fn l002_root_only_collective_is_flagged_at_the_branch() {
    let d = analyze_fixture("l002_root_only.rs");
    assert_eq!(spans(&d), [("CMT-L002", 5)], "{d:#?}");
    let note = d[0].note.as_deref().unwrap_or("");
    assert!(note.contains("gather"), "{note}");
}

#[test]
fn l002_collective_behind_helpers_is_flagged_at_the_match() {
    let d = analyze_fixture("l002_match_helper.rs");
    assert_eq!(spans(&d), [("CMT-L002", 14)], "{d:#?}");
    let note = d[0].note.as_deref().unwrap_or("");
    assert!(note.contains("drain_queue"), "{note}");
}

#[test]
fn l002_symmetric_skeletons_are_clean() {
    let d = analyze_fixture("l002_clean.rs");
    assert!(d.is_empty(), "{d:#?}");
}

// ---------------------------------------------------- corpus sweeps

const BAD_FIXTURES: &[&str] = &[
    "l001_unpaired.rs",
    "l001_early_exit.rs",
    "l002_root_only.rs",
    "l002_match_helper.rs",
];

const CLEAN_FIXTURES: &[&str] = &["l001_clean.rs", "l002_clean.rs"];

#[test]
fn every_bad_fixture_yields_findings_only_for_its_own_family() {
    for rel in BAD_FIXTURES {
        let family = format!("CMT-{}", rel[..4].to_uppercase());
        let d = analyze_fixture(rel);
        assert!(!d.is_empty(), "{rel}: expected findings, got none");
        for diag in &d {
            assert_eq!(diag.code, family, "{rel}: cross-family finding {diag}");
        }
    }
}

#[test]
fn every_clean_fixture_is_finding_free() {
    for rel in CLEAN_FIXTURES {
        let d = analyze_fixture(rel);
        assert!(d.is_empty(), "{rel}: {d:#?}");
    }
}

// --------------------------------------------------------- CLI layer

#[test]
fn cli_exits_nonzero_on_bad_fixtures_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_cmt-lint");
    let bad = std::process::Command::new(bin)
        .arg(fixture("l001_unpaired.rs"))
        .output()
        .expect("spawn cmt-lint");
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("CMT-L001"), "{stdout}");

    let clean = std::process::Command::new(bin)
        .arg(fixture("l001_clean.rs"))
        .output()
        .expect("spawn cmt-lint");
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
}
