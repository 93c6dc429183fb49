//! Cross-backend identity: the socket transport must reproduce the
//! in-process run bit for bit.
//!
//! These tests drive the installed `cmt-bone` binary (not the library)
//! because the socket launcher re-execs the current executable to spawn
//! rank children — the full process path only exists for real binaries.
//! Each scenario runs the paper's Fig. 4 configuration once per backend
//! and compares the `state` fingerprint printed by `--quiet`. The
//! checker (`--verify`) runs in-process only; with the socket transport
//! it is refused before any rank starts.

use std::process::{Command, Output};

const FIG4: &[&str] = &[
    "--ranks", "4", "--n", "5", "--elems", "8", "--steps", "8", "--fields", "2", "--method",
    "pairwise",
];

/// Run the cmt-bone binary with the Fig. 4 config plus `extra` args.
fn run_bin(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmt-bone"))
        .args(FIG4)
        .args(extra)
        .output()
        .expect("spawn cmt-bone")
}

/// Run the cmt-bone binary with the Fig. 4 config plus `extra` args and
/// return its standard output.
fn cmt_bone(extra: &[&str]) -> String {
    let out = run_bin(extra);
    assert!(
        out.status.success(),
        "cmt-bone {extra:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// The first whitespace-delimited token after `key` in `stdout`.
fn token_after<'a>(stdout: &'a str, key: &str) -> &'a str {
    stdout
        .split_once(key)
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no {key:?} in output:\n{stdout}"))
}

/// The 16-hex-digit state fingerprint after `key` in `stdout`.
fn hash_after(stdout: &str, key: &str) -> String {
    let hash = token_after(stdout, key);
    assert_eq!(hash.len(), 16, "state hash should be 16 hex digits: {hash}");
    hash.to_string()
}

/// The `state {hex}` fingerprint of a `--quiet` run with `extra` args.
fn state_hash(extra: &[&str]) -> String {
    hash_after(&cmt_bone(&[&["--quiet"], extra].concat()), "state ")
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
    let out = run_bin(&["--quiet", "--transport", "socket", "--verify"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("runs in-process only"), "{err}");
    assert!(out.stdout.is_empty(), "a refused run printed a result");

    let verified = cmt_bone(&["--quiet", "--verify"]);
    assert!(verified.contains("cmt-verify: clean"), "{verified}");
    assert_eq!(hash_after(&verified, "state "), state_hash(&[]));
}

#[test]
fn socket_matches_inproc_and_static_run_under_load_balancing() {
    // clustered particle cloud + a straggler on rank 1 at an aggressive
    // threshold: the setup decision balances the cloud, the straggler
    // makes rebalances fire in the run, and the partition-independent
    // state hash must not move — across the balancer on/off axis AND
    // the transport axis.
    let particles = &["--particles-per-elem", "6", "--particle-cluster", "0.25"];
    let lb = &[
        "--lb-every",
        "2",
        "--lb-threshold",
        "1.05",
        "--fault-plan",
        "delay:prob=1.0,us=500,rank=1;seed=9",
    ];
    let static_inproc = hash_after(&cmt_bone(particles), "state hash: ");
    let lb_report = |transport: &[&str]| {
        let out = cmt_bone(&[transport, particles, lb].concat());
        let rebalances: u64 = token_after(&out, "load balancing: ")
            .parse()
            .expect("rebalance count");
        assert!(rebalances >= 1, "no rebalance fired {transport:?}:\n{out}");
        hash_after(&out, "state hash: ")
    };
    let lb_inproc = lb_report(&[]);
    let lb_socket = lb_report(&["--transport", "socket"]);
    assert_eq!(
        static_inproc, lb_inproc,
        "load balancing changed the physics"
    );
    assert_eq!(lb_inproc, lb_socket, "socket LB run diverged from inproc");
}

#[test]
fn socket_matches_inproc_through_kill_and_rollback() {
    let fault = &[
        "--checkpoint-every",
        "2",
        "--fault-plan",
        "kill:rank=2,step=5",
    ];
    let inproc = state_hash(fault);
    let socket = {
        let mut args = vec!["--transport", "socket"];
        args.extend_from_slice(fault);
        state_hash(&args)
    };
    assert_eq!(
        inproc, socket,
        "socket kill+rollback recovery diverged from inproc"
    );
}
