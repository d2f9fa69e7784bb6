//! Integration tests for governance (DESIGN.md §14): a fan-out runs
//! under one `CancelToken` its caller owns, and cancelling it or letting
//! a deadline armed on it pass gives typed partial results and a
//! well-formed event stream.
//!
//! The properties pinned here are the whole contract:
//!
//! * **bounded termination** — a run whose workers are wedged by a
//!   `StuckStage` fault still returns within the run token's deadline
//!   plus scheduling slack, with every pending slot carrying a typed
//!   [`PointOutcome`], never a hang or a panic;
//! * **one token tree, inline stages** — stages run on the calling
//!   thread and stop at their next cooperative check: a
//!   cooperative wedge is cancelled with every span closed, a
//!   non-cooperative one (a plain `Delay` sleeping through its budget)
//!   is typed `DeadlineExceeded` once the sleep returns, and every event
//!   of a supervised run carries the caller's thread ordinal;
//! * **cancellation purity** — cancelling a run at a random epoch and
//!   then re-running to completion over the same memory+disk cache
//!   yields numerics bit-identical to a never-cancelled run, with
//!   nothing quarantined and the store healthy;
//! * **trace hygiene** — the governance events survive the JSONL
//!   schema validator alongside the classic stage/cache stream, and
//!   retired kinds are rejected.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::observe::{validate_jsonl, write_event_json, StageOutcome, TraceError};
use monolith3d::{
    json_raw_field, ArtifactCache, CancelToken, DiskStore, EventKind, ExperimentPlan, FaultPlan,
    Flow, FlowConfig, FlowError, FlowResult, FlowStage, FlowSupervisor, JsonlRecorder,
    ParallelExecutor, PointOutcome, Recorder, StageDeadlines, VecRecorder,
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
            .outcomes
            .into_iter()
            .map(|o| match o {
                PointOutcome::Done(r) => *r,
                other => panic!("reference point closes, got {other:?}"),
            })
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
    let exec = ParallelExecutor::new(2)
        .with_cache(Arc::new(ArtifactCache::default()))
        .with_faults(FaultPlan::new().stuck_stage("synth", 1));
    let p = plan();
    let t = Instant::now();
    let tok = CancelToken::new();
    tok.arm_deadline_in(deadline);
    let report = exec.run_governed(&p, &tok);
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
        "stops by the run token are outcomes, not errors"
    );
}

/// A run deadline of zero — the server's "request arrived already
/// expired" shape — types every point `deadline_exceeded` before any
/// stage work starts: no library characterizes and no wake slice is
/// waited for a doomed attempt.
#[test]
fn zero_run_deadline_rejects_points_before_any_work() {
    let cache = Arc::new(ArtifactCache::default());
    let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
    let p = plan();
    let t = Instant::now();
    let tok = CancelToken::new();
    tok.arm_deadline_in(Duration::ZERO);
    let report = exec.run_governed(&p, &tok);
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
/// every stage span it opened is closed — no stage is left running
/// behind the report. Explicit cancel, not deadline, so the reason
/// string is pinned too.
#[test]
fn stuck_stage_cancels_cleanly_without_abandoning_a_thread() {
    let recorder = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let exec = ParallelExecutor::new(2)
        .with_cache(cache)
        .with_faults(FaultPlan::new().stuck_stage("synth", 1));
    let p = plan();
    let tok = CancelToken::new();
    let report = thread::scope(|s| {
        let h = s.spawn(|| exec.run_governed(&p, &tok));
        thread::sleep(Duration::from_millis(80));
        tok.cancel();
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
    assert_eq!(count("cancel_requested"), 1, "the stop is announced once");
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
/// budget. The budget stops the stage, not the point, and the trace
/// schema knows neither `stage_abandoned` nor the retired retry,
/// degradation, checkpoint, work-stealing and drain kinds.
#[test]
fn non_cooperative_delay_is_typed_deadline_exceeded_when_it_returns() {
    let recorder = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let point = CancelToken::new();
    let delay = Duration::from_millis(400);
    let t = Instant::now();
    let result = FlowSupervisor::new(Benchmark::Des, DesignStyle::TwoD, cfg())
        .with_deadlines(StageDeadlines::uniform(5_000).with_stage("route", 40))
        .with_cache(cache)
        .with_cancel(point.clone())
        .with_faults(FaultPlan::new().delay_stage("route", 1, delay))
        .run();
    assert!(t.elapsed() >= delay, "the blind sleep runs to the end");
    assert_eq!(
        result,
        Err(FlowError::DeadlineExceeded {
            stage: FlowStage::Routing,
            budget_ms: 40
        })
    );
    assert!(!point.is_cancelled(), "a stage budget stops the stage only");
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
    for legacy in [
        "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"stage_abandoned\",\
         \"bench\":\"DES\",\"style\":\"2D\",\"stage\":\"route\",\"budget_ms\":40}\n",
        "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"retry_scheduled\",\
         \"bench\":\"DES\",\"style\":\"2D\",\"stage\":\"route\",\"next_attempt\":2}\n",
        "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"degradation_rung_entered\",\
         \"bench\":\"DES\",\"style\":\"2D\",\"rung\":1}\n",
        "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"checkpoint_written\",\
         \"bench\":\"DES\",\"style\":\"2D\",\"cursor\":\"route\",\"bytes\":4096}\n",
        "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"checkpoint_resumed\",\
         \"bench\":\"DES\",\"style\":\"2D\",\"cursor\":\"route\"}\n",
        "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"worker_stolen\",\
         \"worker\":1,\"victim\":0,\"point\":3}\n",
        "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"drain_started\"}\n",
        "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"drain_finished\",\"pending\":3}\n",
    ] {
        assert!(
            matches!(validate_jsonl(legacy), Err(TraceError::UnknownKind { .. })),
            "a retired kind must be rejected: {legacy}"
        );
    }
}

/// Stages run inline: every event of a supervised run — the
/// stage spans and the library stage's cache traffic alike — is
/// recorded on the thread that called `run()`, so the JSONL `thread`
/// ordinal is one value across the whole trace.
#[test]
fn supervised_run_records_every_event_on_the_calling_thread() {
    let buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlRecorder::new(Box::new(buf.clone())));
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&jsonl) as Arc<dyn Recorder>);
    // The flow memo's miss on this thread stamps the caller's ordinal,
    // and the supervised run it starts follows inline.
    Flow::new(Benchmark::Des, DesignStyle::TwoD, cfg())
        .try_run_with_cache(&cache)
        .expect("the supervised run closes");
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

/// A request waiting on another's in-flight run of the same key stops
/// at its own deadline, typed, while the run it waited on closes and is
/// cached once.
#[test]
fn a_waiter_behind_an_inflight_flow_stops_at_its_own_deadline() {
    let cache = Arc::new(ArtifactCache::default());
    let p = plan();
    let point = &p.points()[0];
    // The builder's synthesis stalls: nothing cancels it, so its run is
    // still in flight when the waiter's deadline passes.
    let builder = ParallelExecutor::new(1)
        .with_cache(Arc::clone(&cache))
        .with_faults(FaultPlan::new().slow_stage("synth", 1, Duration::from_secs(2)));
    let waiter = ParallelExecutor::new(1).with_cache(Arc::clone(&cache));
    thread::scope(|s| {
        let built = s.spawn(|| builder.run_point(point, &CancelToken::new()));
        // The builder counts its miss as it claims the key.
        let t0 = Instant::now();
        while cache.stats().flow_misses == 0 {
            assert!(t0.elapsed() < Duration::from_secs(60), "the key is claimed");
            thread::sleep(Duration::from_millis(1));
        }
        let tok = CancelToken::new();
        tok.arm_deadline_in(Duration::from_millis(60));
        let t0 = Instant::now();
        let outcome = waiter.run_point(point, &tok);
        let waited = t0.elapsed();
        assert!(
            matches!(outcome, PointOutcome::DeadlineExceeded),
            "{outcome:?}"
        );
        assert!(waited < Duration::from_secs(1), "stopped after {waited:?}");
        let done = built.join().expect("the builder returns");
        assert_eq!(done.result(), Some(&reference()[0]));
    });
    let s = cache.stats();
    assert_eq!((s.flow_misses, s.flow_stores, s.flow_hits), (1, 1, 0));
    // The builder's result is what the next request is served.
    let again = waiter.run_point(point, &CancelToken::new());
    assert_eq!(again.result(), Some(&reference()[0]));
    assert_eq!(cache.stats().flow_hits, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(govern_cases()))]

    /// Cancellation purity: cancel a run's token at a random epoch,
    /// then run the same plan under a fresh token over the same
    /// memory+disk cache. The follow-up must be bit-identical to the never-cancelled
    /// reference, the store must stay healthy, and whatever the governed
    /// run *did* complete must already agree with the reference.
    #[test]
    fn cancelled_runs_leave_a_pure_cache(delay_ms in 0u64..140) {
        let dir = scratch_dir("purity");
        let cache = Arc::new(ArtifactCache::default());
        cache.attach_disk(DiskStore::open(&dir));
        let tok = CancelToken::new();
        let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
        let p = plan();
        let governed = thread::scope(|s| {
            let h = s.spawn(|| exec.run_governed(&p, &tok));
            thread::sleep(Duration::from_millis(delay_ms));
            tok.cancel();
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
        prop_assert_eq!(rerun.done_count(), p.len());
        for (i, o) in rerun.outcomes.iter().enumerate() {
            let r = o.result().expect("rerun point closes");
            prop_assert_eq!(r, &reference()[i]);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.disk_quarantined, 0);
        prop_assert_eq!(stats.store_degraded, 0);
        cache.detach_disk();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The governance events ride the same JSONL pipeline as everything
/// else: a trace containing a deadline stop and per-point outcomes
/// passes the schema validator end to end.
#[test]
fn governed_traces_pass_the_schema_validator() {
    let vec = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&vec) as Arc<dyn Recorder>);
    let exec = ParallelExecutor::new(2)
        .with_cache(Arc::clone(&cache))
        .with_faults(FaultPlan::new().stuck_stage("synth", 1));
    let p = plan();

    // A deadline-cancelled run (stuck workers).
    let tok = CancelToken::new();
    tok.arm_deadline_in(Duration::from_millis(150));
    let report = exec.run_governed(&p, &tok);
    assert_eq!(report.done_count(), 0);

    let events = vec.events();
    let mut trace = String::new();
    for ev in &events {
        write_event_json(&mut trace, ev);
        trace.push('\n');
    }
    let summary = validate_jsonl(&trace).expect("governed trace validates");
    assert_eq!(summary.events, events.len(), "one line per event");
    for kind in ["cancel_requested", "point_cancelled"] {
        assert!(
            trace.contains(&format!("\"kind\":\"{kind}\"")),
            "trace must carry a {kind} event"
        );
    }
}
