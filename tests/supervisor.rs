//! Fault-injection tests for the flow supervisor: stage failures planted
//! by name against the stage graph must be absorbed by retry, escalated
//! through the degradation ladder, or reported as a typed `Failed`
//! disposition — never a panic.

use std::time::Duration;

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::{
    Disposition, FaultPlan, FlowConfig, FlowError, FlowStage, FlowSupervisor, Relaxation,
    StageDeadlines, SupervisorPolicy,
};

fn cfg() -> FlowConfig {
    FlowConfig::new(NodeId::N45).scale(BenchScale::Small)
}

fn supervisor() -> FlowSupervisor {
    FlowSupervisor::new(Benchmark::Aes, DesignStyle::TwoD, cfg())
}

#[test]
fn transient_fault_is_retried_and_the_run_still_closes() {
    let report = supervisor()
        .with_faults(FaultPlan::new().fail_stage("postroute", 1))
        .run();

    assert!(report.closed(), "disposition: {:?}", report.disposition);
    assert_eq!(
        report.disposition,
        Disposition::Closed,
        "retry is not degradation"
    );
    let result = report.result.as_ref().expect("closed runs carry a result");
    assert!(result.total_power_mw() > 0.0);

    // The injected failure and the retry are both on the record...
    let post: Vec<_> = report
        .attempts
        .iter()
        .filter(|a| a.stage == FlowStage::PostRouteOpt)
        .collect();
    assert!(
        matches!(post[0].error, Some(FlowError::Injected { .. })),
        "first post-route attempt carries the injected error: {:?}",
        post[0]
    );
    assert_eq!(post[1].attempt, 2);
    assert!(post[1].error.is_none(), "second attempt succeeds");

    // ...while the stages before the fault ran exactly once: the retry
    // resumed from the checkpoint instead of restarting the flow.
    assert_eq!(report.stage_attempts("synth"), 1);
}

#[test]
fn persistent_fault_without_degradation_fails_naming_the_stage() {
    let report = supervisor()
        .policy(SupervisorPolicy {
            allow_degradation: false,
            ..SupervisorPolicy::default()
        })
        .with_faults(FaultPlan::new().always_stage("route"))
        .run();

    assert!(!report.closed());
    match &report.disposition {
        Disposition::Failed { stage, error } => {
            assert_eq!(*stage, FlowStage::Routing);
            assert!(matches!(error, FlowError::Injected { .. }), "got {error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // The retry budget was spent before giving up.
    assert_eq!(
        report.stage_attempts("route"),
        SupervisorPolicy::default().max_stage_attempts
    );
    assert!(report.result.is_none());
}

#[test]
fn repeated_faults_walk_the_degradation_ladder_to_a_degraded_close() {
    // One attempt per stage, three planted post-route failures: rung 0
    // fails as configured, the ladder then adds passes (resuming from the
    // routing checkpoint), relaxes utilization, and finally backs the
    // clock off before the fourth invocation closes.
    let baseline = supervisor().run();
    assert!(
        baseline.closed(),
        "baseline must close: {:?}",
        baseline.disposition
    );

    let report = supervisor()
        .policy(SupervisorPolicy {
            max_stage_attempts: 1,
            ..SupervisorPolicy::default()
        })
        .with_faults(
            FaultPlan::new()
                .fail_stage("postroute", 1)
                .fail_stage("postroute", 2)
                .fail_stage("postroute", 3),
        )
        .run();

    assert!(report.closed(), "disposition: {:?}", report.disposition);
    let relaxations = match &report.disposition {
        Disposition::ClosedDegraded { relaxations } => relaxations,
        other => panic!("expected ClosedDegraded, got {other:?}"),
    };
    assert!(
        matches!(relaxations[0], Relaxation::ExtraOptPasses { .. }),
        "first rung adds passes: {relaxations:?}"
    );
    assert!(
        relaxations
            .iter()
            .any(|r| matches!(r, Relaxation::RelaxedUtilization { .. })),
        "ladder reached the utilization rung: {relaxations:?}"
    );
    assert!(
        relaxations
            .iter()
            .any(|r| matches!(r, Relaxation::ClockBackoff { .. })),
        "ladder reached the clock rung: {relaxations:?}"
    );
    // The relaxed knobs show up in the effective operating point.
    assert!(report.utilization < baseline.utilization);
    assert!(report.clock_ps > baseline.clock_ps);
    assert!(report.degraded());
    assert!(report.result.is_some());
}

#[test]
fn extra_passes_rung_resumes_from_the_routing_checkpoint() {
    // With exactly one planted post-route failure and no retry budget,
    // rung 1 must re-enter at post-route: synthesis through routing run
    // once in total.
    let report = supervisor()
        .policy(SupervisorPolicy {
            max_stage_attempts: 1,
            ..SupervisorPolicy::default()
        })
        .with_faults(FaultPlan::new().fail_stage("postroute", 1))
        .run();

    assert!(report.closed(), "disposition: {:?}", report.disposition);
    assert_eq!(report.stage_attempts("synth"), 1);
    let routing_rungs: Vec<u32> = report
        .attempts
        .iter()
        .filter(|a| a.stage == FlowStage::Routing)
        .map(|a| a.rung)
        .collect();
    assert!(
        routing_rungs.iter().all(|&r| r == 0),
        "routing never re-ran on a later rung: {routing_rungs:?}"
    );
    let rung1_post = report
        .attempts
        .iter()
        .find(|a| a.stage == FlowStage::PostRouteOpt && a.rung == 1)
        .expect("rung 1 re-attempted post-route optimization");
    assert!(rung1_post.error.is_none());
}

#[test]
fn structural_errors_fail_fast_without_touching_the_ladder() {
    let mut config = cfg();
    config.clock_ps = Some(f64::NAN);
    let report = FlowSupervisor::new(Benchmark::Aes, DesignStyle::TwoD, config).run();

    match &report.disposition {
        Disposition::Failed { stage, error } => {
            assert_eq!(*stage, FlowStage::Library);
            assert!(matches!(error, FlowError::Config(_)), "got {error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // Nothing past preparation ever ran.
    assert!(report
        .attempts
        .iter()
        .all(|a| a.stage == FlowStage::Library));
}

#[test]
fn persistent_fault_exhausts_the_ladder_and_reports_the_final_error() {
    let report = supervisor()
        .policy(SupervisorPolicy {
            max_stage_attempts: 1,
            ..SupervisorPolicy::default()
        })
        .with_faults(FaultPlan::new().always_stage("signoff"))
        .run();

    assert!(!report.closed());
    match &report.disposition {
        Disposition::Failed { stage, error } => {
            assert_eq!(*stage, FlowStage::SignOff);
            assert!(matches!(error, FlowError::Injected { .. }), "got {error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // All four rungs (as configured + three relaxations) were tried.
    let signoff_rungs: Vec<u32> = report
        .attempts
        .iter()
        .filter(|a| a.stage == FlowStage::SignOff)
        .map(|a| a.rung)
        .collect();
    assert_eq!(signoff_rungs, vec![0, 1, 2, 3]);
}

/// The rung's identity, for pinning the ladder order by name.
fn relaxation_kind(r: &Relaxation) -> &'static str {
    match r {
        Relaxation::ExtraOptPasses { .. } => "extra-passes",
        Relaxation::RelaxedUtilization { .. } => "relaxed-utilization",
        Relaxation::ClockBackoff { .. } => "clock-backoff",
    }
}

#[test]
fn degradation_ladder_order_is_pinned() {
    // One planted post-route failure per rung escalation, no retry
    // budget: N failures climb exactly N rungs, in exactly this order.
    let table: &[(u32, &[&str])] = &[
        (0, &[]),
        (1, &["extra-passes"]),
        (2, &["extra-passes", "relaxed-utilization"]),
        (3, &["extra-passes", "relaxed-utilization", "clock-backoff"]),
    ];
    for (failures, expected) in table {
        let mut plan = FaultPlan::new();
        for invocation in 1..=*failures {
            plan = plan.fail_stage("postroute", invocation);
        }
        let report = supervisor()
            .policy(SupervisorPolicy {
                max_stage_attempts: 1,
                ..SupervisorPolicy::default()
            })
            .with_faults(plan)
            .run();

        assert!(
            report.closed(),
            "{failures} failures must still close: {:?}",
            report.disposition
        );
        let recorded: Vec<&str> = match &report.disposition {
            Disposition::Closed => Vec::new(),
            Disposition::ClosedDegraded { relaxations } => {
                relaxations.iter().map(relaxation_kind).collect()
            }
            other => panic!("{failures} failures: unexpected {other:?}"),
        };
        assert_eq!(
            recorded, *expected,
            "{failures} failures pin this exact relaxation order"
        );
    }
}

#[test]
fn planted_panic_is_contained_and_retried() {
    let report = supervisor()
        .with_faults(FaultPlan::new().panic_stage("postroute", 1))
        .run();

    assert_eq!(report.disposition, Disposition::Closed);
    let post: Vec<_> = report
        .attempts
        .iter()
        .filter(|a| a.stage == FlowStage::PostRouteOpt)
        .collect();
    assert!(
        matches!(post[0].error, Some(FlowError::StagePanicked { .. })),
        "the unwound attempt is on the record: {:?}",
        post[0]
    );
    assert!(post[1].error.is_none(), "the retry succeeds");
}

#[test]
fn blown_deadline_is_reported_and_retried() {
    // Plant a cooperative 60 s stall in placement's first invocation
    // under a 1 s placement budget: the budget must stop the stall,
    // record a typed DeadlineExceeded, and the retry (no stall) must
    // close the run. The retry runs real placement under the same
    // budget, so the budget clears it with room to spare: small DES 2D
    // placement measured 38 ms in a debug build and 4.6 ms in release
    // (2-core x86-64 Linux host), 26x and 200x under 1 s.
    let report = FlowSupervisor::new(Benchmark::Des, DesignStyle::TwoD, cfg())
        .policy(SupervisorPolicy {
            deadlines: Some(StageDeadlines::default().with_stage("place", 1_000)),
            ..SupervisorPolicy::default()
        })
        .with_faults(FaultPlan::new().slow_stage("place", 1, Duration::from_secs(60)))
        .run();

    assert_eq!(report.disposition, Disposition::Closed);
    let place: Vec<_> = report
        .attempts
        .iter()
        .filter(|a| a.stage == FlowStage::Placement)
        .collect();
    match &place[0].error {
        Some(FlowError::DeadlineExceeded { stage, budget_ms }) => {
            assert_eq!(*stage, FlowStage::Placement);
            assert_eq!(*budget_ms, 1_000);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(place[1].error.is_none(), "the retry succeeds");
}
