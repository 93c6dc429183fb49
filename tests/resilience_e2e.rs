//! End-to-end resilience: injected rank kills plus rollback recovery
//! must leave both mini-apps bitwise identical to uninterrupted runs,
//! and the on-disk checkpoint mirror must support cross-run restart.

use simmpi::FaultPlan;

fn bone_cfg() -> cmt_bone::Config {
    cmt_bone::Config {
        n: 5,
        elems_per_rank: 8,
        ranks: 4,
        steps: 8,
        fields: 2,
        cfl_interval: 2,
        checkpoint_every: 2,
        method: Some(cmt_gs::GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

fn nek_cfg() -> nekbone::Config {
    nekbone::Config {
        n: 5,
        elems_per_rank: 8,
        ranks: 4,
        cg_iters: 12,
        tol: 0.0,
        checkpoint_every: 3,
        method: Some(cmt_gs::GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

/// A fresh scratch directory under the system temp dir (unique per test
/// so parallel tests never collide).
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cmt_rz_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `run` expecting a panic, and return its message.
fn refusal(tag: &str, run: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).expect_err(tag);
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn cmt_bone_kill_and_restart_is_bitwise_identical() {
    let base = bone_cfg();
    let clean = cmt_bone::run(&base);
    let faulty = cmt_bone::run(&cmt_bone::Config {
        fault_plan: Some(FaultPlan::parse("kill:rank=2,step=5").unwrap()),
        ..base.clone()
    });
    assert_eq!(clean.checksum, faulty.checksum);
    assert_eq!(
        clean.state_hash, faulty.state_hash,
        "CMT-bone recovered run diverged from the uninterrupted run"
    );
}

#[test]
fn cmt_bone_survives_multiple_kills() {
    let base = bone_cfg();
    let clean = cmt_bone::run(&base);
    // two separate kills, including the same rank dying twice
    let faulty = cmt_bone::run(&cmt_bone::Config {
        fault_plan: Some(FaultPlan::parse("kill:rank=1,step=3;kill:rank=1,step=6").unwrap()),
        ..base.clone()
    });
    assert_eq!(clean.state_hash, faulty.state_hash);
}

#[test]
fn nekbone_kill_and_restart_is_bitwise_identical() {
    let base = nek_cfg();
    let clean = nekbone::run(&base);
    let faulty = nekbone::run(&nekbone::Config {
        fault_plan: Some(FaultPlan::parse("kill:rank=3,step=8").unwrap()),
        ..base.clone()
    });
    assert_eq!(clean.checksum, faulty.checksum);
    assert_eq!(
        clean.state_hash, faulty.state_hash,
        "Nekbone recovered run diverged from the uninterrupted run"
    );
    assert_eq!(clean.cg.res_history, faulty.cg.res_history);
}

#[test]
fn cmt_bone_disk_restart_resumes_to_identical_state() {
    let dir = scratch("bone");
    let base = bone_cfg();
    // uninterrupted reference
    let full = cmt_bone::run(&base);
    // same run mirroring checkpoints to disk (the cadence traffic itself
    // must not change the physics)
    let mirrored = cmt_bone::run(&cmt_bone::Config {
        checkpoint_dir: Some(dir.clone()),
        ..base.clone()
    });
    assert_eq!(full.state_hash, mirrored.state_hash);
    // restart from the last on-disk checkpoint (step 6 of 8) and run the
    // remaining steps: the final state must match the full run bitwise
    let resumed = cmt_bone::run(&cmt_bone::Config {
        restart_from: Some(dir.clone()),
        checkpoint_dir: None,
        ..base.clone()
    });
    assert_eq!(
        full.state_hash, resumed.state_hash,
        "disk restart diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn nekbone_disk_restart_resumes_to_identical_state() {
    let dir = scratch("nek");
    let base = nek_cfg();
    let full = nekbone::run(&base);
    let mirrored = nekbone::run(&nekbone::Config {
        checkpoint_dir: Some(dir.clone()),
        ..base.clone()
    });
    assert_eq!(full.state_hash, mirrored.state_hash);
    let resumed = nekbone::run(&nekbone::Config {
        restart_from: Some(dir.clone()),
        checkpoint_dir: None,
        ..base.clone()
    });
    assert_eq!(
        full.state_hash, resumed.state_hash,
        "disk restart diverged from the uninterrupted run"
    );
    assert_eq!(full.cg.res_history, resumed.cg.res_history);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn message_hazards_with_kills_still_converge_identically() {
    // The hard case: message delays are live while a rank dies. The
    // checkpoint captures the fault-RNG state, so the injected schedule
    // replays identically after rollback and the run still lands bitwise
    // on the uninterrupted result (whose plan has the same delays but no
    // kill — kill-only events never draw from the hazard RNG).
    let base = bone_cfg();
    let hazards = "delay:prob=0.1,us=40;seed=23";
    let clean = cmt_bone::run(&cmt_bone::Config {
        fault_plan: Some(FaultPlan::parse(hazards).unwrap()),
        ..base.clone()
    });
    let killed = cmt_bone::run(&cmt_bone::Config {
        fault_plan: Some(FaultPlan::parse(&format!("{hazards};kill:rank=2,step=5")).unwrap()),
        ..base.clone()
    });
    assert_eq!(clean.state_hash, killed.state_hash);
}

/// A restart directory is input from outside the run: checkpoints written
/// under the other physics (Euler carries its adapted `dt` as the last
/// scalar, the load balancer the element-owner vector before it) are
/// refused with a clear message instead of being misread as a partition
/// or a timestep.
#[test]
fn cmt_bone_restart_across_physics_is_refused() {
    let proxy = cmt_bone::Config {
        fields: 5,
        ..bone_cfg()
    };
    let euler = cmt_bone::Config {
        euler: true,
        cfl: 0.2,
        ..proxy.clone()
    };
    let balanced = |c: &cmt_bone::Config| cmt_bone::Config {
        particles_per_elem: 2,
        lb_every: 2,
        ..c.clone()
    };
    for (tag, written, restarted) in [
        ("euler_to_proxy", euler.clone(), proxy.clone()),
        ("euler_lb_to_proxy_lb", balanced(&euler), balanced(&proxy)),
        ("proxy_lb_to_euler_lb", balanced(&proxy), balanced(&euler)),
    ] {
        let dir = scratch(tag);
        cmt_bone::run(&cmt_bone::Config {
            checkpoint_dir: Some(dir.clone()),
            ..written
        });
        let msg = refusal(tag, || {
            cmt_bone::run(&cmt_bone::Config {
                restart_from: Some(dir.clone()),
                ..restarted
            });
        });
        assert!(
            msg.contains("checkpoint does not match this configuration"),
            "{tag}: {msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A directory written at another polynomial order holds fields of
/// another length: refused in words, not by a bare assert.
#[test]
fn cmt_bone_restart_at_another_n_is_refused() {
    let dir = scratch("bone_other_n");
    cmt_bone::run(&cmt_bone::Config {
        checkpoint_dir: Some(dir.clone()),
        ..bone_cfg()
    });
    let msg = refusal("n = 6", || {
        cmt_bone::run(&cmt_bone::Config {
            n: 6,
            restart_from: Some(dir.clone()),
            ..bone_cfg()
        });
    });
    assert!(
        msg.contains("checkpoint does not match this configuration: field 0 holds"),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Nekbone handed a cmt-bone directory: the app tag at the head of the
/// scalars names the other mini-app.
#[test]
fn nekbone_restart_from_a_cmt_bone_directory_is_refused() {
    let dir = scratch("nek_from_bone");
    cmt_bone::run(&cmt_bone::Config {
        checkpoint_dir: Some(dir.clone()),
        ..bone_cfg()
    });
    let msg = refusal("nekbone", || {
        nekbone::run(&nekbone::Config {
            restart_from: Some(dir.clone()),
            ..nek_cfg()
        });
    });
    assert!(
        msg.contains(
            "checkpoint does not match this configuration: written by cmt-bone, this run is nekbone"
        ),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The refusal of a directory written at 4 ranks and restarted at 2 with
/// the same elements per rank: every field has the length the run
/// expects, so only the world size at the head of the scalars tells the
/// meshes apart.
const OTHER_WORLD_SIZE: &str =
    "checkpoint does not match this configuration: written at 4 ranks, this run has 2";

#[test]
fn cmt_bone_restart_at_another_world_size_is_refused() {
    let dir = scratch("bone_other_ranks");
    let cfg = cmt_bone::Config {
        steps: 6,
        ..bone_cfg()
    };
    cmt_bone::run(&cmt_bone::Config {
        checkpoint_dir: Some(dir.clone()),
        ..cfg.clone()
    });
    let msg = refusal("cmt-bone at 2 ranks", || {
        cmt_bone::run(&cmt_bone::Config {
            ranks: 2,
            restart_from: Some(dir.clone()),
            ..cfg
        });
    });
    assert!(msg.contains(OTHER_WORLD_SIZE), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn nekbone_restart_at_another_world_size_is_refused() {
    let dir = scratch("nek_other_ranks");
    nekbone::run(&nekbone::Config {
        checkpoint_dir: Some(dir.clone()),
        ..nek_cfg()
    });
    let msg = refusal("nekbone at 2 ranks", || {
        nekbone::run(&nekbone::Config {
            ranks: 2,
            restart_from: Some(dir.clone()),
            ..nek_cfg()
        });
    });
    assert!(msg.contains(OTHER_WORLD_SIZE), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint file that does not decode is refused naming the file,
/// whichever rank reads it: the world re-raises the failed rank's own
/// panic, not a peer's secondary abort, so rank 1's corrupt file is
/// named as well as rank 0's.
#[test]
fn corrupt_restart_file_is_refused_by_name() {
    for r in [0, 1] {
        let dir = scratch(&format!("corrupt{r}"));
        cmt_bone::run(&cmt_bone::Config {
            checkpoint_dir: Some(dir.clone()),
            ..bone_cfg()
        });
        let name = format!("ckpt_rank{r}.cmtr");
        let path = dir.join(&name);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let msg = refusal("corrupt", || {
            cmt_bone::run(&cmt_bone::Config {
                restart_from: Some(dir.clone()),
                ..bone_cfg()
            });
        });
        assert!(
            msg.contains(&name) && msg.contains("checksum mismatch"),
            "rank {r}: {msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Kill and rollback where every rank's checkpoint spans several
/// replica chunks and no two ranks' checkpoints are the same size: a
/// clustered particle cloud under the balancer puts different particle
/// counts and element counts on each rank. The recovered run, whose
/// killed rank re-fetches its checkpoint chunk by chunk, must end bitwise
/// identical to the uninterrupted one.
#[test]
fn cmt_bone_kill_with_multi_chunk_checkpoints_of_unequal_size() {
    let dir = scratch("chunks");
    let base = cmt_bone::Config {
        ranks: 3,
        n: 5,
        elems_per_rank: 27,
        fields: 5,
        steps: 8,
        particles_per_elem: 200,
        particle_cluster: Some(0.22),
        lb_every: 2,
        checkpoint_every: 2,
        method: Some(cmt_gs::GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let clean = cmt_bone::run(&base);
    let faulty = cmt_bone::run(&cmt_bone::Config {
        fault_plan: Some(FaultPlan::parse("kill:rank=1,step=5").unwrap()),
        checkpoint_dir: Some(dir.clone()),
        ..base.clone()
    });
    let mut sizes: Vec<u64> = (0..base.ranks)
        .map(|r| {
            let path = dir.join(format!("ckpt_rank{r}.cmtr"));
            std::fs::metadata(path).unwrap().len()
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    let chunk = cmt_resilience::CHUNK as u64;
    assert!(sizes.iter().all(|&s| s > 2 * chunk), "sizes {sizes:?}");
    sizes.sort_unstable();
    sizes.dedup();
    assert_eq!(sizes.len(), base.ranks, "per-rank sizes must differ");
    assert_eq!(
        clean.state_hash, faulty.state_hash,
        "recovery through chunked replicas diverged from the uninterrupted run"
    );
}
