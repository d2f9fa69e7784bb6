//! Fault-injection tests for the flow supervisor: stage failures planted
//! by stage name must end the run with a typed error naming the stage —
//! never a panic, never a retry — and every stage span the run opened
//! must close with the matching outcome.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::{
    ArtifactCache, EventKind, FaultPlan, FlowConfig, FlowError, FlowStage, FlowSupervisor,
    Recorder, StageDeadlines, StageOutcome, VecRecorder,
};

fn cfg() -> FlowConfig {
    FlowConfig::new(NodeId::N45).scale(BenchScale::Small)
}

/// Planted panics that reached the process-wide panic hook — the one
/// that prints the message and backtrace to stderr.
static LEAKED_PANICS: AtomicUsize = AtomicUsize::new(0);

/// Installs a hook that counts planted panics reaching it. It goes in
/// before any supervisor runs in this binary, so the supervisor's
/// silencing hook wraps it and only uncontained panics get through.
fn count_leaked_panics() {
    static INSTALLED: Once = Once::new();
    INSTALLED.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let planted = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("planned Panic fault"));
            if planted {
                LEAKED_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            previous(info);
        }));
    });
}

/// A supervisor over `bench` 2D on a fresh cache tracing into the
/// returned recorder.
fn traced(bench: Benchmark, config: FlowConfig) -> (FlowSupervisor, Arc<VecRecorder>) {
    count_leaked_panics();
    let trace = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&trace) as Arc<dyn Recorder>);
    let sup = FlowSupervisor::new(bench, DesignStyle::TwoD, config).with_cache(cache);
    (sup, trace)
}

/// The outcome of every span of `stage`, in trace order.
fn outcomes(trace: &VecRecorder, stage: FlowStage) -> Vec<StageOutcome> {
    trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StageFinished {
                stage: s, outcome, ..
            } if s == stage => Some(outcome),
            _ => None,
        })
        .collect()
}

/// The stages the run opened a span for, in trace order.
fn started(trace: &VecRecorder) -> Vec<FlowStage> {
    trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StageStarted { stage, .. } => Some(stage),
            _ => None,
        })
        .collect()
}

#[test]
fn persistent_fault_without_degradation_fails_naming_the_stage() {
    let (sup, trace) = traced(Benchmark::Aes, cfg());
    let err = sup
        .with_faults(FaultPlan::new().always_stage("route"))
        .run()
        .expect_err("an always-failing stage cannot close");
    assert!(
        matches!(
            err,
            FlowError::Injected {
                stage: FlowStage::Routing,
                ..
            }
        ),
        "got {err}"
    );
    // One attempt, then the run ends: nothing after routing starts.
    assert_eq!(
        outcomes(&trace, FlowStage::Routing),
        vec![StageOutcome::Failed]
    );
    assert_eq!(started(&trace).last(), Some(&FlowStage::Routing));
}

#[test]
fn structural_errors_fail_fast_at_the_library_stage() {
    let mut config = cfg();
    config.clock_ps = Some(f64::NAN);
    let (sup, trace) = traced(Benchmark::Aes, config);
    let err = sup.run().expect_err("a NaN clock cannot close");
    assert!(matches!(err, FlowError::Config(_)), "got {err}");
    assert_eq!(err.stage(), None, "config errors precede every stage");
    // Nothing past preparation ever ran.
    assert_eq!(started(&trace), vec![FlowStage::Library]);
}

#[test]
fn planted_panic_is_contained_as_a_typed_error() {
    let (sup, trace) = traced(Benchmark::Aes, cfg());
    let err = sup
        .with_faults(FaultPlan::new().panic_stage("postroute", 1))
        .run()
        .expect_err("a panicking stage cannot close");
    match &err {
        FlowError::StagePanicked { stage, payload } => {
            assert_eq!(*stage, FlowStage::PostRouteOpt);
            assert!(payload.contains("planned Panic fault"), "{payload}");
        }
        other => panic!("expected StagePanicked, got {other}"),
    }
    assert_eq!(
        outcomes(&trace, FlowStage::PostRouteOpt),
        vec![StageOutcome::Panicked],
        "the unwound span closes as panicked"
    );
    assert_eq!(
        LEAKED_PANICS.load(Ordering::SeqCst),
        0,
        "a contained panic must not reach the printing hook"
    );
}

#[test]
fn blown_deadline_is_reported_as_a_typed_error() {
    // A cooperative 60 s stall in placement under a 1 s placement
    // budget: the budget must stop the stall promptly and type the
    // failure, naming the stage and the budget.
    let (sup, trace) = traced(Benchmark::Des, cfg());
    let err = sup
        .with_deadlines(StageDeadlines::default().with_stage("place", 1_000))
        .with_faults(FaultPlan::new().slow_stage("place", 1, Duration::from_secs(60)))
        .run()
        .expect_err("the stalled stage overruns its budget");
    assert_eq!(
        err,
        FlowError::DeadlineExceeded {
            stage: FlowStage::Placement,
            budget_ms: 1_000
        }
    );
    assert_eq!(
        outcomes(&trace, FlowStage::Placement),
        vec![StageOutcome::TimedOut]
    );
}
