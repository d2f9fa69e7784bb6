//! Work-stealing parallel execution of the paper's experiment matrix.
//!
//! The result tables are an embarrassingly parallel matrix — five
//! benchmarks × two styles × two nodes × the sensitivity sweeps — whose
//! points are independent given the shared cell library. An
//! [`ExperimentPlan`] enumerates the matrix (deduplicated by
//! [`FlowKey`], so "table 4" and the scorecard don't schedule the same
//! point twice); a [`ParallelExecutor`] fans the points out across N
//! workers that share one [`ArtifactCache`], whose per-key coalescing
//! guarantees each distinct library is still characterized exactly once
//! no matter how many workers want it at the same instant.
//!
//! **Determinism.** Execution order is whatever the work-stealing
//! schedule produces, but it cannot leak into the results: every flow
//! is a deterministic pure function of its configuration, and the
//! report collects results *by plan index*, so
//! [`ExecutorReport::results`] is always in plan order and every value
//! is bit-identical to a serial run of the same plan. The drivers that
//! format the paper's tables then run serially against the warmed cache
//! and emit byte-identical output (`tests/parallel.rs` and the CI
//! `parallel-determinism` job both pin this).
//!
//! The pool is hand-rolled over [`std::thread::scope`] — no external
//! runtime: each worker owns a deque seeded round-robin, pops from its
//! own front, and steals from the back of a victim's deque when empty.
//! Stealing matters here because flow points are far from uniform (an
//! LDPC sign-off costs ~10× a DES one at paper scale); a static
//! partition would leave workers idle behind the slowest stripe.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use m3d_netlist::Benchmark;
use m3d_tech::DesignStyle;

use crate::cache::{ArtifactCache, FlowKey};
use crate::error::FlowError;
use crate::faultinject::FaultPlan;
use crate::flow::{run_cached, FlowConfig, FlowResult};
use crate::govern::{CancelCause, CancelToken, PointOutcome, RunGovernor};
use crate::observe::EventKind;

/// One point of the experiment matrix: a full flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPoint {
    /// Benchmark circuit.
    pub bench: Benchmark,
    /// 2D or T-MI.
    pub style: DesignStyle,
    /// The full knob set.
    pub config: FlowConfig,
}

/// An ordered, deduplicated enumeration of flow points.
///
/// Points deduplicate by [`FlowKey`] — the projection onto the knobs a
/// flow actually consumes — so two drivers sweeping overlapping
/// configurations contribute each shared point once, and the executor
/// never races two workers on the same key.
#[derive(Debug, Default)]
pub struct ExperimentPlan {
    points: Vec<PlanPoint>,
    seen: HashSet<FlowKey>,
}

impl ExperimentPlan {
    /// An empty plan.
    pub fn new() -> Self {
        ExperimentPlan::default()
    }

    /// Appends one flow point unless an equivalent one (same
    /// [`FlowKey`]) is already planned. Returns whether it was added.
    pub fn push(&mut self, bench: Benchmark, style: DesignStyle, config: FlowConfig) -> bool {
        if self.seen.insert(FlowKey::of(bench, style, &config)) {
            self.points.push(PlanPoint {
                bench,
                style,
                config,
            });
            true
        } else {
            false
        }
    }

    /// Appends the iso-performance pair (2D + T-MI) a
    /// [`crate::Comparison`] runs.
    pub fn push_comparison(&mut self, bench: Benchmark, config: &FlowConfig) {
        self.push(bench, DesignStyle::TwoD, config.clone());
        self.push(bench, DesignStyle::Tmi, config.clone());
    }

    /// Appends every point of `other` (dedup still applies).
    pub fn merge(&mut self, other: ExperimentPlan) {
        for p in other.points {
            self.push(p.bench, p.style, p.config);
        }
    }

    /// The planned points, in plan order.
    pub fn points(&self) -> &[PlanPoint] {
        &self.points
    }

    /// Number of planned points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing is planned.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Per-worker execution accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerReport {
    /// Flow points this worker executed.
    pub items: usize,
    /// Of those, how many were stolen from another worker's deque.
    pub steals: usize,
    /// Wall-clock seconds spent inside flow runs (vs idle/queue time).
    pub busy_s: f64,
}

/// The outcome of one [`ParallelExecutor::run`].
#[derive(Debug)]
pub struct ExecutorReport {
    /// One result per plan point, **in plan order** regardless of the
    /// schedule that produced them.
    pub results: Vec<Result<FlowResult, FlowError>>,
    /// Wall-clock seconds for the whole fan-out.
    pub wall_s: f64,
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerReport>,
}

impl ExecutorReport {
    /// Per-worker utilization: busy seconds over the run's wall clock,
    /// in `[0, 1]` per worker. The mean approaches 1 when stealing
    /// keeps every worker fed.
    pub fn utilization(&self) -> Vec<f64> {
        utilization(&self.workers, self.wall_s)
    }

    /// Points that completed without a flow error.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// The first error, if any point failed.
    pub fn first_error(&self) -> Option<&FlowError> {
        self.results.iter().find_map(|r| r.as_ref().err())
    }
}

fn utilization(workers: &[WorkerReport], wall_s: f64) -> Vec<f64> {
    workers
        .iter()
        .map(|w| {
            if wall_s > 0.0 {
                (w.busy_s / wall_s).min(1.0)
            } else {
                0.0
            }
        })
        .collect()
}

/// What [`ParallelExecutor::run_governed`] returns: *partial results*.
/// Completed slots carry their [`FlowResult`] intact; slots the
/// governor stopped carry a typed [`PointOutcome`] — never a panic,
/// never a hang.
#[derive(Debug)]
pub struct GovernedReport {
    /// One outcome per plan point, **in plan order**.
    pub outcomes: Vec<PointOutcome>,
    /// Wall-clock seconds for the whole governed fan-out.
    pub wall_s: f64,
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerReport>,
    /// Plan points never started because of a drain, in plan order
    /// (empty unless the run drained): what a later run still has to do.
    pub remainder: Vec<PlanPoint>,
}

impl GovernedReport {
    /// Per-worker utilization, as [`ExecutorReport::utilization`].
    pub fn utilization(&self) -> Vec<f64> {
        utilization(&self.workers, self.wall_s)
    }

    /// Points that closed with a result.
    pub fn done_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_done()).count()
    }

    /// Outcomes matching a terminal key (`"cancelled"`, …).
    pub fn count(&self, key: &str) -> usize {
        self.outcomes.iter().filter(|o| o.key() == key).count()
    }

    /// The first genuine flow error (governor interventions are not
    /// errors and don't show up here).
    pub fn first_error(&self) -> Option<&FlowError> {
        self.outcomes.iter().find_map(|o| match o {
            PointOutcome::Failed(e) => Some(e),
            _ => None,
        })
    }

    /// True when the governor stopped at least one point.
    pub fn is_partial(&self) -> bool {
        self.outcomes.iter().any(|o| {
            matches!(
                o,
                PointOutcome::Cancelled | PointOutcome::DeadlineExceeded | PointOutcome::Drained
            )
        })
    }
}

/// Fans an [`ExperimentPlan`] out across a scoped work-stealing pool.
#[derive(Debug)]
pub struct ParallelExecutor {
    workers: usize,
    cache: Arc<ArtifactCache>,
}

impl ParallelExecutor {
    /// An executor with `workers` threads (clamped to at least 1)
    /// sharing the process-wide [`ArtifactCache::global`].
    pub fn new(workers: usize) -> Self {
        ParallelExecutor {
            workers: workers.max(1),
            cache: ArtifactCache::global(),
        }
    }

    /// Substitutes an explicit cache — a fresh one isolates cold
    /// measurements and tests from the process-wide memo.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The host's available parallelism — the `--jobs` default.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Runs every planned point, returning results in plan order: the
    /// [`ParallelExecutor::run_governed`] schedule under an inert
    /// [`RunGovernor::new`], which arms no deadline, never stops a point
    /// and emits no governance events. A failing point records its
    /// [`FlowError`] in its slot and the fan-out continues — error
    /// reporting is the caller's call.
    pub fn run(&self, plan: &ExperimentPlan) -> ExecutorReport {
        let report = self.run_governed(plan, &RunGovernor::new());
        ExecutorReport {
            results: report
                .outcomes
                .into_iter()
                .map(|o| match o {
                    PointOutcome::Done(r) => Ok(*r),
                    PointOutcome::Failed(e) => Err(e),
                    stopped => unreachable!("an inert governor stopped a point: {}", stopped.key()),
                })
                .collect(),
            wall_s: report.wall_s,
            workers: report.workers,
        }
    }

    /// Runs every planned point under a [`RunGovernor`], returning
    /// outcomes in plan order: cooperative cancellation, run/point
    /// deadlines and graceful drain over the one work-stealing schedule.
    ///
    /// Worker `w` starts from its own stripe (points `w`, `w + N`,
    /// `w + 2N`, …) and steals from the back of other deques once its
    /// own drains. Since the plan is finite and nothing enqueues new
    /// work, "every deque empty" is a safe termination condition. A
    /// point that completes warms the cache exactly as
    /// [`crate::Flow::try_run`] would, whatever the governor does to
    /// other points.
    ///
    /// Workers check the governor between points: on cancel or deadline
    /// they stop popping and the in-flight point stops at its stage's
    /// next [`crate::govern::check`]; on
    /// [`RunGovernor::drain`] they finish their in-flight point and
    /// stop. Slots never started get a typed [`PointOutcome`], and a
    /// clean drain lists them in [`GovernedReport::remainder`].
    pub fn run_governed(&self, plan: &ExperimentPlan, gov: &RunGovernor) -> GovernedReport {
        let n = plan.len();
        if n == 0 {
            return GovernedReport {
                outcomes: Vec::new(),
                wall_s: 0.0,
                workers: Vec::new(),
                remainder: Vec::new(),
            };
        }
        gov.arm();
        let workers = self.workers.min(n);
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new(((w..n).step_by(workers)).collect()))
            .collect();
        let slots: Vec<Mutex<Option<PointOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let t0 = Instant::now();
        // The fan-out inherits the cache's event sink: flows executed
        // here emit their stage and cache events through it already, so
        // the executor only adds its own scheduling events.
        let recorder = self.cache.recorder();
        // First-observer flags: cancel and drain are each announced
        // exactly once per run, by whichever thread notices first.
        let cancel_announced = AtomicBool::new(false);
        let drain_announced = AtomicBool::new(false);
        let announce_stop = |cause: Option<CancelCause>, draining: bool| {
            if let Some(c) = cause {
                if !cancel_announced.swap(true, Ordering::AcqRel) && recorder.enabled() {
                    recorder.record(EventKind::CancelRequested {
                        reason: match c {
                            CancelCause::Cancelled => "explicit",
                            CancelCause::DeadlineExceeded => "deadline",
                        },
                    });
                }
            }
            if draining && !drain_announced.swap(true, Ordering::AcqRel) && recorder.enabled() {
                recorder.record(EventKind::DrainStarted);
            }
        };
        let stopped = || {
            let cause = gov.cause();
            let draining = gov.is_draining();
            announce_stop(cause, draining);
            cause.is_some() || draining
        };

        let reports: Vec<WorkerReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let slots = &slots;
                    let stopped = &stopped;
                    let recorder = &recorder;
                    let this = &*self;
                    s.spawn(move || {
                        let mut rep = WorkerReport::default();
                        loop {
                            if stopped() {
                                break;
                            }
                            // Own work first (front), then steal from a
                            // victim's back — opposite ends, so a busy
                            // owner and its thief rarely want the same
                            // index.
                            let mut stolen_from = None;
                            let mut next = queues[w].lock().expect("queue lock").pop_front();
                            if next.is_none() {
                                for v in 1..workers {
                                    let victim = (w + v) % workers;
                                    next = queues[victim].lock().expect("queue lock").pop_back();
                                    if next.is_some() {
                                        stolen_from = Some(victim);
                                        break;
                                    }
                                }
                            }
                            let Some(i) = next else { break };
                            // A stop may have landed while we were
                            // popping; put the point back untouched so
                            // it counts as never started.
                            if stopped() {
                                queues[w].lock().expect("queue lock").push_front(i);
                                break;
                            }
                            if let Some(victim) = stolen_from {
                                if recorder.enabled() {
                                    recorder.record(EventKind::WorkerStolen {
                                        worker: w,
                                        victim,
                                        point: i,
                                    });
                                }
                            }
                            let p = &plan.points()[i];
                            let t = Instant::now();
                            let outcome = this.run_point_inner(p, &gov.point_token(), gov.faults());
                            rep.busy_s += t.elapsed().as_secs_f64();
                            rep.items += 1;
                            rep.steals += usize::from(stolen_from.is_some());
                            *slots[i].lock().expect("slot lock") = Some(outcome);
                        }
                        rep
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor worker panicked"))
                .collect()
        });

        // Collection: completed slots keep their outcome; never-started
        // slots get a typed one from the run's terminal state. A drain
        // that raced a cancel counts as cancelled — the remainder is
        // only meaningful for a clean drain.
        let cause = gov.cause();
        let draining = gov.is_draining();
        announce_stop(cause, draining);
        let clean_drain = draining && cause.is_none();
        let mut outcomes = Vec::with_capacity(n);
        let mut remainder: Vec<PlanPoint> = Vec::new();
        for (i, m) in slots.into_iter().enumerate() {
            match m.into_inner().expect("slot lock") {
                Some(o) => outcomes.push(o),
                None => {
                    let p = &plan.points()[i];
                    let o = if clean_drain {
                        remainder.push(p.clone());
                        PointOutcome::Drained
                    } else {
                        match cause {
                            Some(CancelCause::DeadlineExceeded) => PointOutcome::DeadlineExceeded,
                            _ => PointOutcome::Cancelled,
                        }
                    };
                    if recorder.enabled() {
                        recorder.record(EventKind::PointCancelled {
                            bench: p.bench,
                            style: p.style,
                            outcome: o.key(),
                        });
                    }
                    outcomes.push(o);
                }
            }
        }
        if draining && recorder.enabled() {
            recorder.record(EventKind::DrainFinished {
                pending: remainder.len() as u64,
            });
        }

        GovernedReport {
            outcomes,
            wall_s: t0.elapsed().as_secs_f64(),
            workers: reports,
            remainder,
        }
    }

    /// Runs one plan point under `tok` on this executor's cache —
    /// the single-request entry `m3d-serve` dispatches on: the same
    /// cached-run contract as a batch point, so concurrent identical
    /// requests from different connections coalesce on the cache's
    /// per-key build cell and characterize exactly once. Cancel `tok` (or arm a
    /// deadline on it) to get a typed [`PointOutcome::Cancelled`] /
    /// [`PointOutcome::DeadlineExceeded`] back.
    pub fn run_point(&self, p: &PlanPoint, tok: &CancelToken) -> PointOutcome {
        self.run_point_inner(p, tok, &FaultPlan::new())
    }

    /// One plan point through the shared cached-run contract
    /// ([`crate::Flow::try_run_with_cache`]'s), with `tok` and `faults`
    /// threaded into the supervisor. Governor interventions map to
    /// typed outcomes via the token's cause; a rejected config and
    /// everything else is a plain `Failed`.
    fn run_point_inner(
        &self,
        p: &PlanPoint,
        tok: &CancelToken,
        faults: &FaultPlan,
    ) -> PointOutcome {
        match run_cached(p.bench, p.style, &p.config, &self.cache, Some(tok), faults) {
            Ok(result) => PointOutcome::Done(Box::new(result)),
            Err(e @ FlowError::Config(_)) => PointOutcome::Failed(e),
            Err(e) => match tok.cause() {
                Some(CancelCause::Cancelled) => PointOutcome::Cancelled,
                Some(CancelCause::DeadlineExceeded) => PointOutcome::DeadlineExceeded,
                None => PointOutcome::Failed(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::BenchScale;
    use m3d_tech::NodeId;

    fn small_cfg() -> FlowConfig {
        FlowConfig::new(NodeId::N45).scale(BenchScale::Small)
    }

    #[test]
    fn plan_dedups_by_flow_key() {
        let mut plan = ExperimentPlan::new();
        assert!(plan.push(Benchmark::Des, DesignStyle::TwoD, small_cfg()));
        assert!(
            !plan.push(Benchmark::Des, DesignStyle::TwoD, small_cfg()),
            "identical point must dedup"
        );
        // An unconsumed-knob change maps to the same FlowKey and dedups.
        let mut flipped = small_cfg();
        flipped.tmi_wlm = false;
        assert!(!plan.push(Benchmark::Des, DesignStyle::TwoD, flipped));
        // A consumed-knob change is a new point.
        let mut scaled = small_cfg();
        scaled.pin_cap_scale = 0.6;
        assert!(plan.push(Benchmark::Des, DesignStyle::TwoD, scaled));
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn comparison_pushes_both_styles() {
        let mut plan = ExperimentPlan::new();
        plan.push_comparison(Benchmark::Aes, &small_cfg());
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.points()[0].style, DesignStyle::TwoD);
        assert_eq!(plan.points()[1].style, DesignStyle::Tmi);
    }

    #[test]
    fn merge_applies_dedup_across_plans() {
        let mut a = ExperimentPlan::new();
        a.push_comparison(Benchmark::Aes, &small_cfg());
        let mut b = ExperimentPlan::new();
        b.push_comparison(Benchmark::Aes, &small_cfg());
        b.push(Benchmark::Ldpc, DesignStyle::TwoD, small_cfg());
        a.merge(b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn empty_plan_runs_to_an_empty_report() {
        let report = ParallelExecutor::new(4)
            .with_cache(Arc::new(ArtifactCache::default()))
            .run(&ExperimentPlan::new());
        assert!(report.results.is_empty());
        assert!(report.workers.is_empty());
    }

    #[test]
    fn executor_collects_in_plan_order_with_more_workers_than_points() {
        let mut plan = ExperimentPlan::new();
        plan.push(Benchmark::Des, DesignStyle::TwoD, small_cfg());
        plan.push(Benchmark::Des, DesignStyle::Tmi, small_cfg());
        let report = ParallelExecutor::new(8)
            .with_cache(Arc::new(ArtifactCache::default()))
            .run(&plan);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.ok_count(), 2);
        // Workers clamp to the point count.
        assert_eq!(report.workers.len(), 2);
        let executed: usize = report.workers.iter().map(|w| w.items).sum();
        assert_eq!(executed, 2);
        // Plan order, not completion order.
        let first = report.results[0].as_ref().expect("2D point closed");
        let second = report.results[1].as_ref().expect("T-MI point closed");
        assert_eq!(first.style, DesignStyle::TwoD);
        assert_eq!(second.style, DesignStyle::Tmi);
    }

    #[test]
    fn a_failing_point_does_not_poison_the_fanout() {
        let mut plan = ExperimentPlan::new();
        let mut bad = small_cfg();
        bad.pin_cap_scale = -1.0; // rejected by FlowConfig::validate
        plan.push(Benchmark::Des, DesignStyle::TwoD, bad);
        plan.push(Benchmark::Des, DesignStyle::TwoD, small_cfg());
        let report = ParallelExecutor::new(2)
            .with_cache(Arc::new(ArtifactCache::default()))
            .run(&plan);
        assert_eq!(report.ok_count(), 1);
        assert!(report.results[0].is_err());
        assert!(report.results[1].is_ok());
        assert!(report.first_error().is_some());
    }

    #[test]
    fn utilization_is_bounded_per_worker() {
        let mut plan = ExperimentPlan::new();
        plan.push_comparison(Benchmark::Des, &small_cfg());
        let report = ParallelExecutor::new(2)
            .with_cache(Arc::new(ArtifactCache::default()))
            .run(&plan);
        for u in report.utilization() {
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
    }
}
