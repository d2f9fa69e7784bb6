//! Integration tests for the resource governor (DESIGN.md §14):
//! cooperative cancellation, deadline-bounded termination, graceful
//! drain with a persisted remainder, and the governance event stream.
//!
//! The properties pinned here are the governor's whole contract:
//!
//! * **bounded termination** — a governed run whose workers are wedged
//!   by a `StuckStage` fault still returns within the run deadline plus
//!   scheduling slack, with every pending slot carrying a typed
//!   [`PointOutcome`], never a hang or a panic;
//! * **one token tree, inline attempts** — stage attempts run on the
//!   calling thread and stop at their next cooperative check: a
//!   cooperative wedge is cancelled with every span closed, a
//!   non-cooperative one (a plain `Delay` sleeping through its budget)
//!   is typed `DeadlineExceeded` once the sleep returns, and every event
//!   of a supervised run carries the caller's thread ordinal;
//! * **cancellation purity** — cancelling a run at a random epoch and
//!   then re-running to completion over the same memory+disk cache
//!   yields numerics bit-identical to a never-cancelled run, with
//!   nothing quarantined and the store healthy;
//! * **drain round trip** — `drain()` finishes the in-flight point,
//!   persists the unstarted remainder through the checkpoint codec, and
//!   a follow-up run over the loaded remainder completes the plan,
//!   again bit-identically;
//! * **trace hygiene** — the new governance events survive the JSONL
//!   schema validator alongside the classic stage/cache stream.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::govern::load_remainder;
use monolith3d::observe::{validate_jsonl, StageOutcome, TraceError};
use monolith3d::{
    json_raw_field, AdmissionError, AdmissionQueue, ArtifactCache, Backpressure, CancelToken,
    DiskStore, Disposition, EventKind, ExperimentPlan, FaultPlan, FlowConfig, FlowError,
    FlowResult, FlowStage, FlowSupervisor, JsonlRecorder, ParallelExecutor, PointOutcome, Priority,
    Recorder, RunGovernor, StageDeadlines, SupervisorPolicy, Tee, VecRecorder,
};
use proptest::prelude::*;

fn cfg() -> FlowConfig {
    FlowConfig::new(NodeId::N45).scale(BenchScale::Small)
}

/// The four-point matrix every test governs: the DES comparison pair
/// plus two singles — small enough to stay fast, wide enough that a
/// cancelled run genuinely leaves points unstarted.
fn plan() -> ExperimentPlan {
    let mut plan = ExperimentPlan::new();
    plan.push_comparison(Benchmark::Des, &cfg());
    plan.push(Benchmark::Aes, DesignStyle::TwoD, cfg());
    plan.push(Benchmark::Ldpc, DesignStyle::TwoD, cfg());
    plan
}

/// The never-governed reference results for [`plan`], computed once on
/// a private cache. `FlowResult`'s `PartialEq` compares every `f64`
/// exactly, so equality against these is a bit-identity check.
fn reference() -> &'static Vec<FlowResult> {
    static REF: OnceLock<Vec<FlowResult>> = OnceLock::new();
    REF.get_or_init(|| {
        let p = plan();
        let report = ParallelExecutor::new(2)
            .with_cache(Arc::new(ArtifactCache::default()))
            .run(&p);
        report
            .results
            .into_iter()
            .map(|r| r.expect("reference point closes"))
            .collect()
    })
}

fn scratch_dir(label: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let n = SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("m3d-govern-{label}-{}-{n}", std::process::id()))
}

/// Number of purity cases: `GOVERN_CASES` (CI raises it), default 6.
fn govern_cases() -> u32 {
    std::env::var("GOVERN_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// An in-memory `Write` target for `JsonlRecorder`, shareable between
/// the recorder (which owns a boxed clone) and the test.
#[derive(Clone, Default, Debug)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf-8 trace")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The acceptance property: a run deadline bounds wall-clock even when
/// every worker is wedged by a stuck stage, and the pending slots come
/// back as typed `DeadlineExceeded` outcomes — not errors, not hangs.
#[test]
fn run_deadline_bounds_a_wedged_run() {
    let deadline = Duration::from_millis(300);
    let gov = RunGovernor::new()
        .with_run_deadline(deadline)
        .with_faults(FaultPlan::new().stuck_stage("synth", 1));
    let exec = ParallelExecutor::new(2).with_cache(Arc::new(ArtifactCache::default()));
    let p = plan();
    let t = Instant::now();
    let report = exec.run_governed(&p, &gov);
    let elapsed = t.elapsed();
    // Budget + one wake slice, with generous CI slack — the point is
    // "milliseconds, not forever".
    assert!(
        elapsed < deadline + Duration::from_secs(5),
        "wedged governed run must terminate promptly, took {elapsed:?}"
    );
    assert_eq!(report.outcomes.len(), p.len(), "every slot typed");
    assert_eq!(report.done_count(), 0, "every point was wedged");
    assert_eq!(
        report.count("deadline_exceeded"),
        p.len(),
        "a blown run deadline types every pending slot: {:?}",
        report.outcomes
    );
    assert!(report.is_partial());
    assert!(
        report.first_error().is_none(),
        "governor interventions are outcomes, not errors"
    );
}

/// A run deadline of zero — the server's "request arrived already
/// expired" shape — types every point `deadline_exceeded` before any
/// stage work starts: no library characterizes and no wake slice is
/// waited for a doomed attempt.
#[test]
fn zero_run_deadline_rejects_points_before_any_work() {
    let cache = Arc::new(ArtifactCache::default());
    let gov = RunGovernor::new().with_run_deadline(Duration::ZERO);
    let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
    let p = plan();
    let t = Instant::now();
    let report = exec.run_governed(&p, &gov);
    let elapsed = t.elapsed();
    assert_eq!(report.done_count(), 0);
    assert_eq!(
        report.count("deadline_exceeded"),
        p.len(),
        "outcomes: {:?}",
        report.outcomes
    );
    assert_eq!(
        cache.stats().library_builds,
        0,
        "an expired deadline must not start characterization"
    );
    // Generous CI slack; the real bound (no sliced waits on the
    // rejection path) is pinned at unit level in `govern::tests`.
    assert!(
        elapsed < Duration::from_secs(2),
        "instant rejection took {elapsed:?}"
    );
}

/// A cooperative wedge (`StuckStage` parks on the cancel token) is won
/// by cancellation: the run returns every slot typed `cancelled`, and
/// every stage span it opened is closed — no attempt is left running
/// behind the report. Explicit cancel, not deadline, so the reason
/// string is pinned too.
#[test]
fn stuck_stage_cancels_cleanly_without_abandoning_a_thread() {
    let recorder = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let gov = RunGovernor::new().with_faults(FaultPlan::new().stuck_stage("synth", 1));
    let exec = ParallelExecutor::new(2).with_cache(cache);
    let p = plan();
    let report = thread::scope(|s| {
        let h = s.spawn(|| exec.run_governed(&p, &gov));
        thread::sleep(Duration::from_millis(80));
        gov.cancel();
        h.join().expect("governed run returns")
    });
    assert_eq!(report.done_count(), 0);
    assert_eq!(report.count("cancelled"), p.len());
    let events = recorder.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CancelRequested { reason: "explicit" })),
        "explicit cancel must be announced"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PointCancelled { .. })),
        "never-started slots must be reported"
    );
    let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count();
    assert_eq!(
        count("stage_started"),
        count("stage_finished"),
        "every opened stage span is closed when the run returns"
    );
}

/// A non-cooperative wedge — a plain `Delay` sleeping through its
/// 40 ms route budget, blind to the token — cannot be stopped between
/// checks, and no thread is detached to hide it: the governed point
/// waits the sleep out, then fails with the typed overrun of the route
/// budget. The budget stops the attempt, not the point, and the trace
/// schema knows no `stage_abandoned` kind.
#[test]
fn non_cooperative_delay_is_typed_deadline_exceeded_when_it_returns() {
    let recorder = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let point = CancelToken::new();
    let delay = Duration::from_millis(400);
    let t = Instant::now();
    let report = FlowSupervisor::new(Benchmark::Des, DesignStyle::TwoD, cfg())
        .policy(SupervisorPolicy {
            deadlines: Some(StageDeadlines::uniform(5_000).with_stage("route", 40)),
            ..SupervisorPolicy::strict()
        })
        .with_cache(cache)
        .with_cancel(point.clone())
        .with_faults(FaultPlan::new().delay_stage("route", 1, delay))
        .run();
    assert!(t.elapsed() >= delay, "the blind sleep runs to the end");
    match &report.disposition {
        Disposition::Failed { stage, error } => {
            assert_eq!(*stage, FlowStage::Routing);
            assert_eq!(
                *error,
                FlowError::DeadlineExceeded {
                    stage: FlowStage::Routing,
                    budget_ms: 40
                }
            );
        }
        other => panic!("expected a failed point, got {other:?}"),
    }
    assert!(
        !point.is_cancelled(),
        "a stage budget stops the attempt only"
    );
    let route_outcomes: Vec<_> = recorder
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StageFinished {
                stage: FlowStage::Routing,
                outcome,
                ..
            } => Some(outcome),
            _ => None,
        })
        .collect();
    assert_eq!(route_outcomes, vec![StageOutcome::TimedOut]);
    let legacy = "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"stage_abandoned\",\
                  \"bench\":\"DES\",\"style\":\"2D\",\"stage\":\"route\",\"budget_ms\":40}\n";
    assert!(matches!(
        validate_jsonl(legacy),
        Err(TraceError::UnknownKind { .. })
    ));
}

/// Stage attempts run inline: every event of a supervised run — the
/// stage spans and the library stage's cache traffic alike — is
/// recorded on the thread that called `run()`, so the JSONL `thread`
/// ordinal is one value across the whole trace.
#[test]
fn supervised_run_records_every_event_on_the_calling_thread() {
    let buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlRecorder::new(Box::new(buf.clone())));
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&jsonl) as Arc<dyn Recorder>);
    // A flow-cache lookup from this thread stamps the caller's ordinal.
    assert!(cache
        .lookup_result(Benchmark::Des, DesignStyle::TwoD, &cfg())
        .is_none());
    let report = FlowSupervisor::new(Benchmark::Des, DesignStyle::TwoD, cfg())
        .with_cache(Arc::clone(&cache))
        .with_cancel(CancelToken::new())
        .run();
    assert!(report.closed(), "disposition: {:?}", report.disposition);
    jsonl.flush().expect("trace flushes");
    let trace = buf.contents();
    validate_jsonl(&trace).expect("trace validates");
    let lines: Vec<&str> = trace.lines().collect();
    assert!(lines[0].contains("\"kind\":\"cache_miss\",\"cache\":\"flow\""));
    let caller = json_raw_field(lines[0], "thread").expect("stamped");
    for kind in [
        "\"kind\":\"stage_started\"",
        "\"kind\":\"stage_finished\"",
        "\"kind\":\"cache_miss\",\"cache\":\"library\"",
    ] {
        assert!(trace.contains(kind), "trace must carry {kind}");
    }
    for line in &lines {
        assert_eq!(
            json_raw_field(line, "thread"),
            Some(caller),
            "recorded off the calling thread: {line}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: govern_cases(),
        .. ProptestConfig::default()
    })]

    /// Cancellation purity: cancel a governed run at a random epoch,
    /// then run the same plan ungoverned over the same memory+disk
    /// cache. The follow-up must be bit-identical to the never-cancelled
    /// reference, the store must stay healthy, and whatever the governed
    /// run *did* complete must already agree with the reference.
    #[test]
    fn cancelled_runs_leave_a_pure_cache(delay_ms in 0u64..140) {
        let dir = scratch_dir("purity");
        let cache = Arc::new(ArtifactCache::default());
        cache.attach_disk(DiskStore::open(&dir));
        let gov = RunGovernor::new();
        let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
        let p = plan();
        let governed = thread::scope(|s| {
            let h = s.spawn(|| exec.run_governed(&p, &gov));
            thread::sleep(Duration::from_millis(delay_ms));
            gov.cancel();
            h.join().expect("governed run returns")
        });
        // Whatever completed before the cancel is already canonical.
        for (i, outcome) in governed.outcomes.iter().enumerate() {
            if let PointOutcome::Done(r) = outcome {
                prop_assert_eq!(r.as_ref(), &reference()[i]);
            }
        }
        // The follow-up run over the same cache closes everything,
        // bit-identically to a run that was never cancelled.
        let rerun = exec.run(&p);
        prop_assert_eq!(rerun.ok_count(), p.len());
        for (i, r) in rerun.results.iter().enumerate() {
            let r = r.as_ref().expect("rerun point closes");
            prop_assert_eq!(r, &reference()[i]);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.disk_quarantined, 0);
        prop_assert_eq!(stats.store_degraded, 0);
        cache.detach_disk();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drain round trip: `drain()` lets the in-flight point finish, types
/// the rest `Drained`, persists the remainder through the checkpoint
/// codec, and a second process (here: a second executor call) loads the
/// remainder and completes the plan bit-identically.
#[test]
fn drain_persists_a_remainder_a_follow_up_run_completes() {
    let dir = scratch_dir("drain");
    std::fs::create_dir_all(&dir).expect("drain dir");
    let cache = Arc::new(ArtifactCache::default());
    let gov = RunGovernor::new()
        .with_drain_dir(&dir)
        .with_faults(FaultPlan::new().slow_stage("synth", 1, Duration::from_millis(300)));
    let exec = ParallelExecutor::new(1).with_cache(Arc::clone(&cache));
    let p = plan();
    let report = thread::scope(|s| {
        let h = s.spawn(|| exec.run_governed(&p, &gov));
        thread::sleep(Duration::from_millis(60));
        gov.drain();
        h.join().expect("governed run returns")
    });
    // One worker, first point stalled 300 ms, drain at 60 ms: at most
    // the in-flight point completed, everything else drained cleanly.
    assert!(
        report.count("drained") >= p.len() - 1,
        "expected a mostly-drained run, got {:?}",
        report.outcomes
    );
    assert_eq!(
        report.done_count() + report.count("drained"),
        p.len(),
        "a clean drain has only done and drained slots: {:?}",
        report.outcomes
    );
    assert_eq!(report.remainder.len(), report.count("drained"));
    let path = report
        .remainder_path
        .as_ref()
        .expect("clean drain with a drain dir persists the remainder");
    let resumed = load_remainder(path).expect("remainder loads back");
    assert_eq!(
        resumed.points(),
        &report.remainder[..],
        "codec round trip preserves the remainder in order"
    );
    // "Later process" leg: complete the remainder over the same cache
    // and check the union against the never-drained reference.
    let follow_up = exec.run(&resumed);
    assert_eq!(follow_up.ok_count(), resumed.len());
    for (i, point) in p.points().iter().enumerate() {
        let expected = &reference()[i];
        match &report.outcomes[i] {
            PointOutcome::Done(r) => assert_eq!(r.as_ref(), expected, "pre-drain slot {i}"),
            PointOutcome::Drained => {
                let j = resumed
                    .points()
                    .iter()
                    .position(|q| q == point)
                    .expect("drained point is in the remainder");
                let r = follow_up.results[j].as_ref().expect("resumed point closes");
                assert_eq!(r, expected, "resumed slot {i}");
            }
            other => panic!("unexpected outcome for slot {i}: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The governance events ride the same JSONL pipeline as everything
/// else: a trace containing cancels, drains and per-point outcomes
/// passes the schema validator end to end.
#[test]
fn governed_traces_pass_the_schema_validator() {
    let buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlRecorder::new(Box::new(buf.clone())));
    let vec = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::new(Tee::new(
        Arc::clone(&jsonl) as Arc<dyn Recorder>,
        Arc::clone(&vec) as Arc<dyn Recorder>,
    )));
    let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
    let p = plan();

    // Leg 1: a deadline-cancelled run (stuck workers).
    let gov = RunGovernor::new()
        .with_run_deadline(Duration::from_millis(150))
        .with_faults(FaultPlan::new().stuck_stage("synth", 1));
    let report = exec.run_governed(&p, &gov);
    assert_eq!(report.done_count(), 0);

    // Leg 2: a drained run over the same recorder.
    let gov2 = RunGovernor::new();
    gov2.drain();
    let drained = exec.run_governed(&p, &gov2);
    assert_eq!(drained.count("drained"), p.len());

    jsonl.flush().expect("trace flushes");
    let trace = buf.contents();
    let summary = validate_jsonl(&trace).expect("governed trace validates");
    assert_eq!(summary.events, vec.events().len(), "one line per event");
    for kind in [
        "cancel_requested",
        "point_cancelled",
        "drain_started",
        "drain_finished",
    ] {
        assert!(
            trace.contains(&format!("\"kind\":\"{kind}\"")),
            "trace must carry a {kind} event"
        );
    }
}

/// Admission decisions trace through the recorder with typed reasons:
/// quota exhaustion, a full queue under `Reject`, and a draining queue.
#[test]
fn admission_queue_emits_typed_rejection_events() {
    let recorder = Arc::new(VecRecorder::new());
    let queue = AdmissionQueue::new(1, Backpressure::Reject)
        .with_quota(1)
        .with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let point = || plan().points().first().expect("plan has points").clone();
    queue
        .submit(7, Priority::Normal, point())
        .expect("first submission admits");
    assert_eq!(
        queue.submit(7, Priority::Normal, point()),
        Err(AdmissionError::QuotaExhausted {
            client: 7,
            quota: 1
        })
    );
    assert_eq!(
        queue.submit(8, Priority::High, point()),
        Err(AdmissionError::QueueFull { capacity: 1 })
    );
    let rest = queue.drain();
    assert_eq!(rest.len(), 1, "drain hands back the queued point");
    assert_eq!(
        queue.submit(9, Priority::Low, point()),
        Err(AdmissionError::Draining)
    );
    let kinds: Vec<_> = recorder.events().iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        kinds,
        vec![
            "quota_exhausted",
            "admission_rejected",
            "admission_rejected"
        ],
        "each rejection traces exactly once"
    );
    let reasons: Vec<_> = recorder
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::AdmissionRejected { client, reason } => Some((client, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(reasons, vec![(8, "queue_full"), (9, "draining")]);
}
