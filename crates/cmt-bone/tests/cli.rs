//! CLI-level checks of the `--variant` surface: every kernel tier the
//! library exposes must be reachable (and spelled) from the binary, the
//! simd tier must reproduce the scalar run bit for bit, and a bad
//! spelling must fail fast with the full usage list instead of running.

use std::process::Command;

const SMALL: &[&str] = &[
    "--ranks", "2", "--n", "5", "--elems", "4", "--steps", "4", "--fields", "2", "--method",
    "pairwise", "--quiet",
];

fn run_bin(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cmt-bone"))
        .args(SMALL)
        .args(extra)
        .output()
        .expect("spawn cmt-bone")
}

fn state_hash(extra: &[&str]) -> String {
    let out = run_bin(extra);
    assert!(
        out.status.success(),
        "cmt-bone {extra:?} failed:\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    let line = stdout
        .lines()
        .find(|l| l.contains("state "))
        .unwrap_or_else(|| panic!("no state line in output:\n{stdout}"));
    line.split("state ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("state hash token")
        .to_string()
}

#[test]
fn every_variant_spelling_is_accepted_and_simd_matches_opt() {
    let opt = state_hash(&["--variant", "opt"]);
    for v in ["basic", "simd", "auto"] {
        let h = state_hash(&["--variant", v]);
        if v == "simd" {
            assert_eq!(h, opt, "--variant simd diverged from opt");
        }
        assert_eq!(h.len(), 16, "--variant {v}: malformed state hash {h}");
    }
}

#[test]
fn unknown_variant_fails_with_usage_listing_all_tiers() {
    // never-shipped and removed tiers alike
    for v in ["avx512", "batched", "unroll", "spec"] {
        let out = run_bin(&["--variant", v]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("basic|opt|simd|auto"),
            "usage does not list every variant:\n{err}"
        );
    }
}

#[test]
fn help_lists_simd_and_auto() {
    let out = Command::new(env!("CARGO_BIN_EXE_cmt-bone"))
        .arg("--help")
        .output()
        .expect("spawn cmt-bone");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("simd"), "help misses simd:\n{err}");
    assert!(err.contains("auto"), "help misses auto:\n{err}");
}
