//! Parallel execution of the paper's experiment matrix.
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
//! **Determinism.** Execution order is whatever the schedule produces,
//! but it cannot leak into the results: every flow is a deterministic
//! pure function of its configuration, and the report collects outcomes
//! *by plan index*, so [`ExecutorReport::outcomes`] is always in plan
//! order and every value is bit-identical to a serial run of the same
//! plan. The drivers that format the paper's tables then run serially
//! against the warmed cache and emit byte-identical output
//! (`tests/parallel.rs` and the CI `parallel-determinism` job both pin
//! this).
//!
//! The pool is hand-rolled over [`std::thread::scope`] — no external
//! runtime. Workers claim plan indices from one shared atomic cursor:
//! a greedy list schedule, so a worker idles only when no unstarted
//! point is left. That matters because flow points are far from uniform
//! (an LDPC sign-off costs ~10× a DES one at paper scale); a static
//! partition would leave workers idle behind the slowest stripe. The
//! one stop control is the caller's [`CancelToken`] (DESIGN.md §14).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use m3d_netlist::Benchmark;
use m3d_tech::DesignStyle;

use crate::cache::{ArtifactCache, FlowKey};
use crate::error::FlowError;
use crate::faultinject::FaultPlan;
use crate::flow::{run_cached, FlowConfig};
use crate::govern::{CancelCause, CancelToken, PointOutcome};
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
    /// Wall-clock seconds spent inside flow runs (vs idle time).
    pub busy_s: f64,
}

/// What [`ParallelExecutor::run_governed`] returns: *partial results*.
/// Completed slots carry their [`crate::FlowResult`] intact; slots the
/// run token stopped carry a typed [`PointOutcome`] — never a panic,
/// never a hang.
#[derive(Debug)]
pub struct ExecutorReport {
    /// One outcome per plan point, **in plan order** regardless of the
    /// schedule that produced them.
    pub outcomes: Vec<PointOutcome>,
    /// Wall-clock seconds for the whole fan-out.
    pub wall_s: f64,
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerReport>,
}

impl ExecutorReport {
    /// Per-worker utilization: busy seconds over the run's wall clock,
    /// in `[0, 1]` per worker.
    pub fn utilization(&self) -> Vec<f64> {
        self.workers
            .iter()
            .map(|w| {
                if self.wall_s > 0.0 {
                    (w.busy_s / self.wall_s).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Points that closed with a result.
    pub fn done_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_done()).count()
    }

    /// Outcomes matching a terminal key (`"cancelled"`, …).
    pub fn count(&self, key: &str) -> usize {
        self.outcomes.iter().filter(|o| o.key() == key).count()
    }

    /// The first genuine flow error (a stop by the run token is not an
    /// error and doesn't show up here).
    pub fn first_error(&self) -> Option<&FlowError> {
        self.outcomes.iter().find_map(|o| match o {
            PointOutcome::Failed(e) => Some(e),
            _ => None,
        })
    }

    /// True when the run token stopped at least one point.
    pub fn is_partial(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o, PointOutcome::Cancelled | PointOutcome::DeadlineExceeded))
    }
}

/// Fans an [`ExperimentPlan`] out across a scoped worker pool.
#[derive(Debug)]
pub struct ParallelExecutor {
    workers: usize,
    cache: Arc<ArtifactCache>,
    faults: FaultPlan,
}

impl ParallelExecutor {
    /// An executor with `workers` threads (clamped to at least 1)
    /// sharing the process-wide [`ArtifactCache::global`].
    pub fn new(workers: usize) -> Self {
        ParallelExecutor {
            workers: workers.max(1),
            cache: ArtifactCache::global(),
            faults: FaultPlan::new(),
        }
    }

    /// Substitutes an explicit cache — a fresh one isolates cold
    /// measurements and tests from the process-wide memo.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Arms a deterministic fault plan applied to every point this
    /// executor runs (test harness; see [`crate::FaultPlan`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The host's available parallelism — the `--jobs` default.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Runs every planned point under a fresh token that nothing
    /// cancels, so every slot is `Done` or `Failed`. A failing point
    /// records its [`FlowError`] in its slot and the fan-out continues —
    /// error reporting is the caller's call.
    pub fn run(&self, plan: &ExperimentPlan) -> ExecutorReport {
        self.run_governed(plan, &CancelToken::new())
    }

    /// Runs every planned point under the caller's run token, returning
    /// outcomes in plan order.
    ///
    /// Workers claim plan indices from one shared cursor, so a worker
    /// idles only when no unstarted point is left. A worker stops when
    /// the plan is exhausted or `tok` has fired (cancelled, or past a
    /// deadline armed with [`CancelToken::arm_deadline_in`]); an
    /// in-flight point stops at its stage's next
    /// [`crate::govern::check`]. A point that completes warms the cache
    /// exactly as [`crate::Flow::try_run`] would, whatever happens to
    /// other points. Slots never started get a typed [`PointOutcome`]
    /// from the token's cause.
    pub fn run_governed(&self, plan: &ExperimentPlan, tok: &CancelToken) -> ExecutorReport {
        let n = plan.len();
        let workers = self.workers.min(n);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<PointOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let t0 = Instant::now();
        let reports: Vec<WorkerReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut rep = WorkerReport::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n || tok.is_cancelled() {
                                break;
                            }
                            let t = Instant::now();
                            let outcome = self.run_point(&plan.points()[i], tok);
                            rep.busy_s += t.elapsed().as_secs_f64();
                            rep.items += 1;
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
        // slots get a typed one from the token's cause. The flows
        // executed here emitted their stage and cache events through the
        // cache's recorder already; the executor adds only the stop.
        let recorder = self.cache.recorder();
        let cause = tok.cause();
        if recorder.enabled() {
            if let Some(c) = cause {
                recorder.record(EventKind::CancelRequested {
                    reason: match c {
                        CancelCause::Cancelled => "explicit",
                        CancelCause::DeadlineExceeded => "deadline",
                    },
                });
            }
        }
        let outcomes = slots
            .into_iter()
            .zip(plan.points())
            .map(|(m, p)| {
                m.into_inner().expect("slot lock").unwrap_or_else(|| {
                    let o = match cause {
                        Some(CancelCause::DeadlineExceeded) => PointOutcome::DeadlineExceeded,
                        _ => PointOutcome::Cancelled,
                    };
                    if recorder.enabled() {
                        recorder.record(EventKind::PointCancelled {
                            bench: p.bench,
                            style: p.style,
                            outcome: o.key(),
                        });
                    }
                    o
                })
            })
            .collect();

        ExecutorReport {
            outcomes,
            wall_s: t0.elapsed().as_secs_f64(),
            workers: reports,
        }
    }

    /// Runs one plan point under `tok` on this executor's cache and
    /// fault plan — the batch fan-out's unit of work and the
    /// single-request entry `m3d-serve` dispatches on: the same
    /// cached-run contract ([`crate::Flow::try_run_with_cache`]'s), so
    /// concurrent identical requests from different connections
    /// coalesce on the cache's per-key build cell and characterize
    /// exactly once. Cancel `tok` (or arm a deadline on it) to get a
    /// typed [`PointOutcome::Cancelled`] /
    /// [`PointOutcome::DeadlineExceeded`] back; a rejected config and
    /// every other error is a plain `Failed`.
    pub fn run_point(&self, p: &PlanPoint, tok: &CancelToken) -> PointOutcome {
        match run_cached(
            p.bench,
            p.style,
            &p.config,
            &self.cache,
            Some(tok),
            &self.faults,
        ) {
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
        assert!(report.outcomes.is_empty());
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
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.done_count(), 2);
        // Workers clamp to the point count.
        assert_eq!(report.workers.len(), 2);
        let executed: usize = report.workers.iter().map(|w| w.items).sum();
        assert_eq!(executed, 2);
        // Plan order, not completion order.
        let first = report.outcomes[0].result().expect("2D point closed");
        let second = report.outcomes[1].result().expect("T-MI point closed");
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
        assert_eq!(report.done_count(), 1);
        assert!(matches!(report.outcomes[0], PointOutcome::Failed(_)));
        assert!(report.outcomes[1].is_done());
        assert!(report.first_error().is_some());
        assert!(!report.is_partial(), "a failure is not a stop");
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
