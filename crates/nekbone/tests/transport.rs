//! Cross-backend identity for the Nekbone driver: socket and in-process
//! transports must produce bitwise-identical CG results.
//!
//! Drives the installed `nekbone` binary because the socket launcher
//! re-execs the current executable to spawn rank children. The checker
//! (`--verify`) runs in-process only; with the socket transport it is
//! refused before any rank starts.

use std::process::{Command, Output};

const BASE: &[&str] = &[
    "--ranks", "4", "--n", "5", "--elems", "8", "--iters", "10", "--method", "pairwise", "--quiet",
];

/// Run the nekbone binary with the base config plus `extra` args.
fn run_bin(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nekbone"))
        .args(BASE)
        .args(extra)
        .output()
        .expect("spawn nekbone")
}

/// Run the nekbone binary with the base config plus `extra` args, and
/// return its standard output and the `state {hex}` fingerprint in it.
fn quiet_run(extra: &[&str]) -> (String, String) {
    let out = run_bin(extra);
    assert!(
        out.status.success(),
        "nekbone {extra:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    let line = stdout
        .lines()
        .find(|l| l.contains("state "))
        .unwrap_or_else(|| panic!("no state line in output:\n{stdout}"));
    let hash = line
        .split("state ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("malformed state line: {line}"));
    assert_eq!(hash.len(), 16, "state hash should be 16 hex digits: {line}");
    let hash = hash.to_string();
    (stdout, hash)
}

/// The `state {hex}` fingerprint of a run with `extra` args.
fn state_hash(extra: &[&str]) -> String {
    quiet_run(extra).1
}

#[test]
fn socket_matches_inproc() {
    let inproc = state_hash(&[]);
    let socket = state_hash(&["--transport", "socket"]);
    assert_eq!(inproc, socket, "socket backend diverged from inproc");
}

/// The checker runs in-process only: with the socket transport it exits
/// 2 before any rank runs. In-process at the same arguments it is clean
/// and leaves the state bits alone.
#[test]
fn verify_is_refused_over_sockets_and_clean_inproc() {
    let out = run_bin(&["--transport", "socket", "--verify"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("runs in-process only"), "{err}");
    assert!(out.stdout.is_empty(), "a refused run printed a result");

    let (verified, hash) = quiet_run(&["--verify"]);
    assert!(verified.contains("cmt-verify: clean"), "{verified}");
    assert_eq!(hash, state_hash(&[]));
}
