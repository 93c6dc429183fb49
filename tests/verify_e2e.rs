//! End-to-end `cmt-verify` runs of both mini-apps: clean 8-rank
//! executions must report zero findings, with and without a delay fault
//! plan perturbing the message schedule, and the checked run must stay
//! bitwise identical to the unchecked one.

use cmt_gs::GsMethod;
use simmpi::FaultPlan;

/// A delay-only fault plan: a seeded quarter of all sends held for
/// 150 us. It reorders message arrivals and changes no result.
fn delay_plan(seed: u64) -> Option<FaultPlan> {
    Some(FaultPlan::parse(&format!("delay:prob=0.25,us=150;seed={seed}")).unwrap())
}

fn bone_cfg() -> cmt_bone::Config {
    cmt_bone::Config {
        n: 5,
        elems_per_rank: 8,
        ranks: 8,
        steps: 4,
        fields: 3,
        cfl_interval: 2,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

fn nek_cfg() -> nekbone::Config {
    nekbone::Config {
        n: 5,
        elems_per_rank: 8,
        ranks: 8,
        cg_iters: 10,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

#[test]
fn cmt_bone_8_ranks_verifies_clean() {
    let plain = cmt_bone::run(&bone_cfg());
    assert!(plain.verify.is_none(), "verification must default to off");
    let checked = cmt_bone::run(&cmt_bone::Config {
        verify: true,
        ..bone_cfg()
    });
    let findings = checked.verify.as_deref().expect("verification ran");
    assert!(
        findings.is_empty(),
        "{}",
        cmt_verify::render_findings(findings)
    );
    // Observation never perturbs the physics.
    assert_eq!(plain.checksum, checked.checksum);
    assert_eq!(plain.state_hash, checked.state_hash);
    // The report surfaces the clean bill and the finalize-sweep region.
    assert!(checked.render().contains("cmt-verify: clean (0 findings)"));
    assert!(checked
        .profile
        .flat
        .iter()
        .any(|(n, _)| n == cmt_perf::regions::VERIFY));
}

#[test]
fn cmt_bone_autotuned_run_verifies_clean() {
    // Autotune exercises all three exchange methods (its warm-up probes
    // are where unmatched traffic would hide) plus the timing collectives.
    let checked = cmt_bone::run(&cmt_bone::Config {
        method: None,
        verify: true,
        ..bone_cfg()
    });
    let findings = checked.verify.as_deref().expect("verification ran");
    assert!(
        findings.is_empty(),
        "{}",
        cmt_verify::render_findings(findings)
    );
}

#[test]
fn cmt_bone_delay_plan_is_deterministic_and_clean() {
    let reference = cmt_bone::run(&bone_cfg());
    for seed in [3u64, 77] {
        let perturbed = cmt_bone::run(&cmt_bone::Config {
            verify: true,
            fault_plan: delay_plan(seed),
            ..bone_cfg()
        });
        assert_eq!(
            reference.state_hash, perturbed.state_hash,
            "delay seed {seed} changed the final state"
        );
        assert_eq!(reference.checksum, perturbed.checksum);
        let findings = perturbed.verify.as_deref().expect("verification ran");
        assert!(
            findings.is_empty(),
            "seed {seed}: {}",
            cmt_verify::render_findings(findings)
        );
    }
}

#[test]
fn cmt_bone_pooled_buffers_are_not_message_leaks() {
    // Buffer pooling parks payload buffers on each rank between
    // timesteps; the finalize leak sweep must distinguish those from
    // genuinely undelivered messages, under every exchange method and
    // with the scheduler perturbed. The verified run must also stay
    // bitwise identical to the plain run.
    for method in GsMethod::ALL {
        let plain = cmt_bone::Config {
            method: Some(method),
            ..bone_cfg()
        };
        let checked = cmt_bone::run(&cmt_bone::Config {
            verify: true,
            fault_plan: delay_plan(11),
            ..plain.clone()
        });
        let findings = checked.verify.as_deref().expect("verification ran");
        assert!(
            findings.is_empty(),
            "{method:?}: {}",
            cmt_verify::render_findings(findings)
        );
        let plain = cmt_bone::run(&plain);
        assert_eq!(
            checked.state_hash, plain.state_hash,
            "{method:?}: the checker changed the final state"
        );
        assert_eq!(checked.checksum, plain.checksum);
    }
}

#[test]
fn nekbone_8_ranks_verifies_clean() {
    let plain = nekbone::run(&nek_cfg());
    assert!(plain.verify.is_none(), "verification must default to off");
    let checked = nekbone::run(&nekbone::Config {
        verify: true,
        ..nek_cfg()
    });
    let findings = checked.verify.as_deref().expect("verification ran");
    assert!(
        findings.is_empty(),
        "{}",
        cmt_verify::render_findings(findings)
    );
    assert_eq!(plain.checksum, checked.checksum);
    assert_eq!(plain.state_hash, checked.state_hash);
    assert!(checked.render().contains("cmt-verify: clean (0 findings)"));
}

#[test]
fn nekbone_delay_plan_is_deterministic_and_clean() {
    let reference = nekbone::run(&nek_cfg());
    let perturbed = nekbone::run(&nekbone::Config {
        verify: true,
        fault_plan: delay_plan(42),
        ..nek_cfg()
    });
    assert_eq!(reference.state_hash, perturbed.state_hash);
    let findings = perturbed.verify.as_deref().expect("verification ran");
    assert!(
        findings.is_empty(),
        "{}",
        cmt_verify::render_findings(findings)
    );
}
