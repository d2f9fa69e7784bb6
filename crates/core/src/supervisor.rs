//! The flow supervisor: runs the stage graph once, stage by stage, on
//! the calling thread, and contains every way a stage can fail.
//!
//! The supervisor drives the [`crate::StageGraph`] as straight-line
//! code — library, synthesis, then the floorplan rounds (place,
//! pre-route, route, post-route, decide), then sign-off — and wraps
//! each stage in a containment envelope:
//!
//! * the stage body runs under `catch_unwind`, so a panic becomes
//!   [`FlowError::StagePanicked`] instead of unwinding the driver, and
//!   the process-wide panic hook stays silent for it;
//! * each stage gets its own [`CancelToken`] — a child of the run
//!   token, with the stage's [`StageDeadlines`] budget armed on it —
//!   installed for [`govern::check`]. The stage loops check it between
//!   algorithm calls, so a blown budget stops the stage at its next
//!   check and reports [`FlowError::DeadlineExceeded`]; a cancelled
//!   run reports [`FlowError::Cancelled`]. No work is left running
//!   behind the report.
//!
//! Every stage runs once. The first failure ends the run with its
//! typed error, and nothing of the failed run is published. There is
//! no retry and no degradation ladder: the paper compares designs at
//! iso-performance, each closing at its own target clock, so relaxing
//! the clock or the floorplan to force a close would change the
//! experiment rather than recover it. A killed process recovers
//! through the persistent store instead: completed flows are verified
//! store hits on the next run.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use m3d_netlist::Benchmark;
use m3d_tech::DesignStyle;

use crate::artifacts::{Artifacts, FlowContext};
use crate::cache::ArtifactCache;
use crate::error::{FlowError, FlowStage};
use crate::faultinject::{FaultInjector, FaultKind, FaultPlan, InjectedFault};
use crate::flow::{FlowConfig, FlowResult};
use crate::govern::{self, CancelToken};
use crate::observe::{EventKind, Recorder, StageOutcome};
use crate::stage::{Stage, StageGraph};

/// Per-stage wall-clock budgets, armed on each stage's token.
///
/// The defaults are derived from the repository benchmark's per-stage
/// spans (`stage.*.wall_s` in `BENCHMARK.json`): a cold paper-pipeline
/// run measures ~0.2 s at reduced scale in a release build, with
/// routing and the optimization stages dominating.
/// Paper-scale designs and debug builds cost two to three orders of
/// magnitude more, so each stage gets minutes, proportioned by its
/// measured share — generous enough that only a genuinely wedged stage
/// blows its budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDeadlines {
    budget_ms: [u64; FlowStage::ALL.len()],
}

impl Default for StageDeadlines {
    fn default() -> Self {
        StageDeadlines {
            // library, synth, place, preroute, route, postroute, signoff
            budget_ms: [60_000, 180_000, 180_000, 120_000, 240_000, 240_000, 180_000],
        }
    }
}

impl StageDeadlines {
    /// The same budget for every stage.
    pub fn uniform(budget_ms: u64) -> Self {
        StageDeadlines {
            budget_ms: [budget_ms; FlowStage::ALL.len()],
        }
    }

    /// Overrides one stage's budget, addressed by name (`"route"`, …).
    ///
    /// # Panics
    ///
    /// Panics on a name no stage answers to — a typo in a test, best
    /// caught loudly.
    pub fn with_stage(mut self, stage: &str, budget_ms: u64) -> Self {
        let id = FlowStage::from_name(stage)
            .unwrap_or_else(|| panic!("no flow stage is named '{stage}'"));
        self.budget_ms[id.index()] = budget_ms;
        self
    }

    /// The budget for a stage, milliseconds.
    pub fn budget_ms(&self, stage: FlowStage) -> u64 {
        self.budget_ms[stage.index()]
    }
}

/// Renders a panic payload for [`FlowError::StagePanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Set while a stage runs under `catch_unwind` on this thread: its
    /// unwinds are contained and reported as
    /// [`FlowError::StagePanicked`], so the process-wide panic hook
    /// stays silent for them (the default stderr backtrace would only
    /// be noise).
    static CONTAINED: Cell<bool> = const { Cell::new(false) };
}

fn silence_contained_panics() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CONTAINED.get() {
                previous(info);
            }
        }));
    });
}

/// Drives the [`StageGraph`] once, with per-stage deadlines and
/// optional deterministic fault injection for testing the containment.
///
/// The supervisor always *executes* its stages — it never consults the
/// result cache, so planted faults behave identically whether or not an
/// equivalent flow already completed. Result memoization lives one
/// level up, in [`crate::Flow::try_run_with_cache`]; the cache passed
/// here deduplicates cell-library builds inside the library stage and
/// supplies the event sink ([`ArtifactCache::set_recorder`]).
#[derive(Debug)]
pub struct FlowSupervisor {
    bench: Benchmark,
    style: DesignStyle,
    config: FlowConfig,
    deadlines: StageDeadlines,
    injector: FaultInjector,
    graph: StageGraph,
    cache: Arc<ArtifactCache>,
    /// Cancellation point for this run; `None` runs ungoverned.
    cancel: Option<CancelToken>,
}

impl FlowSupervisor {
    /// A supervisor over the paper pipeline for `bench`/`style`/`config`,
    /// with the default stage deadlines, no faults, and the process-wide
    /// library cache.
    pub fn new(bench: Benchmark, style: DesignStyle, config: FlowConfig) -> Self {
        FlowSupervisor {
            bench,
            style,
            config,
            deadlines: StageDeadlines::default(),
            injector: FaultInjector::new(FaultPlan::new()),
            graph: StageGraph::paper_pipeline(),
            cache: ArtifactCache::global(),
            cancel: None,
        }
    }

    /// Replaces the per-stage budgets (test harness; production runs
    /// always arm [`StageDeadlines::default`]).
    pub fn with_deadlines(mut self, deadlines: StageDeadlines) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Arms a deterministic fault plan (test harness).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.injector = FaultInjector::new(plan);
        self
    }

    /// Threads a cancellation point through the run: the supervisor
    /// checks it before each stage, and each stage installs a child of
    /// it thread-locally, so the stage loops and deep waits (the
    /// cache's coalescing wait included) stop with
    /// [`FlowError::Cancelled`] at their next [`govern::check`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Replaces the artifact cache (library-build sharing and the event
    /// sink; see the type docs).
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Runs the flow to sign-off. Never panics on stage failures —
    /// panics included: the first failure comes back as its typed
    /// error.
    ///
    /// # Errors
    ///
    /// The [`FlowError`] of the first stage that failed, panicked,
    /// overran its budget or was cancelled.
    pub fn run(self) -> Result<FlowResult, FlowError> {
        silence_contained_panics();
        let FlowSupervisor {
            bench,
            style,
            config,
            deadlines,
            injector,
            graph,
            cache,
            cancel,
        } = self;
        let mut engine = Engine {
            deadlines,
            injector,
            graph,
            recorder: cache.recorder(),
            cancel,
        };
        let mut cx = FlowContext::new(bench, style, config, cache);
        engine.flow(&mut cx)
    }
}

/// The running state of one supervised flow.
struct Engine {
    deadlines: StageDeadlines,
    injector: FaultInjector,
    graph: StageGraph,
    /// The cache's event sink, resolved when the run starts (disabled =
    /// null recorder).
    recorder: Arc<dyn Recorder>,
    /// Run-level cancellation point; `None` runs ungoverned.
    cancel: Option<CancelToken>,
}

impl Engine {
    /// Records one event iff the resolved recorder is live — with the
    /// default null recorder this is one virtual call, no event
    /// construction.
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        if self.recorder.enabled() {
            self.recorder.record(kind());
        }
    }

    /// Library through sign-off. Round 1 of the floorplan loop sizes the
    /// design; a second round re-places at the corrected floorplan basis
    /// when the cell area drifted from it, and keeps whichever round
    /// closed better.
    fn flow(&mut self, cx: &mut FlowContext) -> Result<FlowResult, FlowError> {
        self.run_stage(FlowStage::Library, cx)?;
        self.run_stage(FlowStage::Synthesis, cx)?;
        let mut round1 = None;
        loop {
            for id in [
                FlowStage::Placement,
                FlowStage::PreRouteOpt,
                FlowStage::Routing,
                FlowStage::PostRouteOpt,
            ] {
                self.run_stage(id, cx)?;
            }
            match round1.take() {
                Some(first) => {
                    keep_better_round(cx, first);
                    break;
                }
                None if floorplan_holds(cx) => break,
                None => round1 = Some(cx.art.clone()),
            }
        }
        self.run_stage(FlowStage::SignOff, cx)?;
        Ok(cx.result.take().expect("sign-off stage stores a result"))
    }

    /// Runs one stage, contained by [`Engine::attempt`], inside one
    /// trace span. A cancelled run stops before the span opens.
    fn run_stage(&mut self, id: FlowStage, cx: &mut FlowContext) -> Result<(), FlowError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(FlowError::Cancelled { stage: id });
        }
        let fault = self.injector.tick(id);
        let stage = self.graph.stage(id);
        // Injected errors get a span too, so the trace pairs one
        // terminal event with every start.
        self.emit(|| EventKind::StageStarted {
            bench: cx.bench,
            style: cx.style,
            stage: id,
            consumes: stage.consumes(),
        });
        let wall_t0 = Instant::now();
        let (outcome, busy_s) = match &fault {
            Some(f) if f.kind == FaultKind::Error => (Err(f.error()), 0.0),
            _ => self.attempt(stage, cx, fault.as_ref()),
        };
        let wall_s = wall_t0.elapsed().as_secs_f64();
        self.emit(|| EventKind::StageFinished {
            bench: cx.bench,
            style: cx.style,
            stage: id,
            outcome: match &outcome {
                Ok(()) => StageOutcome::Ok,
                Err(e) => StageOutcome::of_error(e),
            },
            wall_s,
            busy_s,
        });
        outcome
    }

    /// One contained stage run, inline on the calling thread.
    ///
    /// The stage gets its own [`CancelToken`]: a child of the run token
    /// (a fresh root when ungoverned) with the stage's budget armed on
    /// it, installed for [`govern::check`]. The stage loops check it
    /// between algorithm calls, so a cancel or a blown budget stops the
    /// stage at its next check, and the body runs under `catch_unwind`,
    /// so a panic becomes [`FlowError::StagePanicked`]. A stage that
    /// ends with its token fired fails with the token's cause, whatever
    /// the body returned: [`FlowError::Cancelled`] when the run (or
    /// point) token fired, [`FlowError::DeadlineExceeded`] when the
    /// stage budget did.
    ///
    /// Planted faults act before the body: `Panic` panics, `Delay`
    /// sleeps blind to the token (so an overrun is typed only once the
    /// sleep returns), `StuckStage` parks on the token until it fires,
    /// and `SlowStage` parks on it for at most its duration.
    ///
    /// The second return value is the stage's *busy* time: seconds
    /// spent in the stage body (0 when the body never ran or panicked).
    /// The caller times the wall clock around the whole call; the
    /// difference is the injected stall plus containment overhead.
    fn attempt(
        &self,
        stage: &dyn Stage,
        cx: &mut FlowContext,
        fault: Option<&InjectedFault>,
    ) -> (Result<(), FlowError>, f64) {
        let id = stage.id();
        let token = self
            .cancel
            .as_ref()
            .map_or_else(CancelToken::new, CancelToken::child);
        let budget_ms = self.deadlines.budget_ms(id);
        token.arm_deadline_in(Duration::from_millis(budget_ms));
        let mut busy_s = 0.0;
        let _installed = govern::install(token.clone());
        let outer = CONTAINED.replace(true);
        let verdict = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = fault {
                match &f.kind {
                    FaultKind::Panic => panic!("{}", f.detail),
                    FaultKind::Delay(d) => std::thread::sleep(*d),
                    FaultKind::StuckStage => token.wait_cancelled(),
                    FaultKind::SlowStage(d) => {
                        token.wait_cancelled_for(*d);
                    }
                    FaultKind::Error => {}
                }
            }
            // A token that already fired — a cancelled run, a zero
            // budget, or a stall that outlived either — runs no body.
            govern::check(id)?;
            let t0 = Instant::now();
            let outcome = stage.run(cx);
            busy_s = t0.elapsed().as_secs_f64();
            outcome
        }));
        CONTAINED.set(outer);
        let run_stopped = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        let outcome = match verdict {
            Err(payload) => Err(FlowError::StagePanicked {
                stage: id,
                payload: panic_message(payload.as_ref()),
            }),
            Ok(outcome) if !token.is_cancelled() => outcome,
            Ok(_) if run_stopped => Err(FlowError::Cancelled { stage: id }),
            Ok(_) => Err(FlowError::DeadlineExceeded {
                stage: id,
                budget_ms,
            }),
        };
        (outcome, busy_s)
    }
}

/// Whether round 1's floorplan holds: the placed cell area over the
/// core footprint stays within 10 % of the utilization target it was
/// built for. Otherwise the design re-places at the corrected basis.
fn floorplan_holds(cx: &FlowContext) -> bool {
    let env = cx.env.as_ref().expect("library stage ran");
    let netlist = cx
        .art
        .netlist
        .as_ref()
        .expect("synthesis stage leaves a netlist");
    let placement = cx
        .art
        .placement
        .as_ref()
        .expect("post-route stage leaves a placement");
    let basis = netlist.total_cell_area(&env.lib) / placement.footprint_um2();
    (basis / env.utilization - 1.0).abs() <= 0.10
}

/// Keeps whichever floorplan round closed better: round 2 can fail on
/// stubborn designs, and then round 1's whole snapshot — its models and
/// route summary included — is what sign-off reports.
fn keep_better_round(cx: &mut FlowContext, round1: Artifacts) {
    if cx.art.wns_after_opt < round1.wns_after_opt.min(0.0) {
        cx.art = round1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::BenchScale;
    use m3d_route::LayerUsage;
    use m3d_sta::NetModel;
    use m3d_tech::NodeId;

    use crate::flow::try_extraction_models;
    use crate::observe::{self, VecRecorder};
    use crate::stage::router;

    /// An engine with the default deadlines, no faults and no cancel
    /// point, tracing into `recorder`.
    fn engine(recorder: Arc<dyn Recorder>) -> Engine {
        Engine {
            deadlines: StageDeadlines::default(),
            injector: FaultInjector::default(),
            graph: StageGraph::paper_pipeline(),
            recorder,
            cancel: None,
        }
    }

    /// Runs a small-scale flow through sign-off, keeping the context it
    /// leaves and the number of floorplan rounds it took (its placement
    /// spans).
    fn close(bench: Benchmark, style: DesignStyle) -> (u32, FlowContext, FlowResult) {
        let config = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
        let mut cx = FlowContext::new(bench, style, config, ArtifactCache::global());
        let trace = Arc::new(VecRecorder::new());
        let result = engine(Arc::clone(&trace) as Arc<dyn Recorder>)
            .flow(&mut cx)
            .expect("small flow closes");
        let rounds = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::StageStarted {
                        stage: FlowStage::Placement,
                        ..
                    }
                )
            })
            .count() as u32;
        (rounds, cx, result)
    }

    fn model_bits(models: &[NetModel]) -> Vec<(u64, u64)> {
        models
            .iter()
            .map(|m| (m.c_wire.to_bits(), m.r_wire.to_bits()))
            .collect()
    }

    fn route_bits(route: &Option<(f64, LayerUsage)>) -> Option<Vec<u64>> {
        route.as_ref().map(|(wirelength_um, u)| {
            let mut bits = vec![
                wirelength_um.to_bits(),
                u.m1_um.to_bits(),
                u.local_um.to_bits(),
                u.intermediate_um.to_bits(),
                u.global_um.to_bits(),
                u.overflow_ratio.to_bits(),
            ];
            bits.extend(u.peak_utilization.iter().map(|v| v.to_bits()));
            bits.extend(u.mean_utilization.iter().map(|v| v.to_bits()));
            bits
        })
    }

    fn assert_same_artifacts(got: &Artifacts, want: &Artifacts) {
        assert_eq!(got.netlist, want.netlist);
        assert_eq!(
            got.wlm.as_ref().map(|w| w.curve().to_vec()),
            want.wlm.as_ref().map(|w| w.curve().to_vec())
        );
        assert_eq!(got.tau_ps.to_bits(), want.tau_ps.to_bits());
        assert_eq!(got.placement, want.placement);
        assert_eq!(model_bits(&got.models), model_bits(&want.models));
        assert_eq!(route_bits(&got.route), route_bits(&want.route));
        assert_eq!(got.wns_after_opt.to_bits(), want.wns_after_opt.to_bits());
    }

    /// Sign-off reports the models and route summary the last route
    /// left: they must equal a fresh route and extraction of the final
    /// netlist and placement, bit for bit. The 2D flows take the second
    /// floorplan round, so their final route is round 2's; the T-MI
    /// flows close in round 1.
    #[test]
    fn signoff_matches_a_reroute_of_the_final_design() {
        for bench in [Benchmark::Aes, Benchmark::Ldpc] {
            for (style, rounds) in [(DesignStyle::TwoD, 2), (DesignStyle::Tmi, 1)] {
                let (taken, cx, result) = close(bench, style);
                assert_eq!(taken, rounds, "{bench:?} {style:?}: floorplan rounds");
                let env = cx.env.as_ref().expect("library stage ran");
                let netlist = cx.art.netlist.as_ref().expect("final netlist");
                let placement = cx.art.placement.as_ref().expect("final placement");
                let routed = router(env, cx.config.mb1_routing)
                    .try_route(netlist, placement, &env.lib)
                    .expect("final design routes");
                let models =
                    try_extraction_models(netlist, &routed, &env.node).expect("extraction");
                let reference = Some((routed.total_wirelength_um(), LayerUsage::of(&routed)));
                assert_eq!(
                    model_bits(&cx.art.models),
                    model_bits(&models),
                    "{bench:?} {style:?}: models"
                );
                assert_eq!(
                    route_bits(&cx.art.route),
                    route_bits(&reference),
                    "{bench:?} {style:?}: route summary"
                );
                assert_eq!(
                    route_bits(&Some((result.wirelength_um, result.layer_usage))),
                    route_bits(&reference),
                    "{bench:?} {style:?}: signed-off route summary"
                );
            }
        }
    }

    /// No small-suite flow reverts to round 1, so the revert is pinned
    /// here: a round 2 that closes worse restores round 1's whole
    /// snapshot, and sign-off reports round 1's route.
    #[test]
    fn decide_reverts_to_the_round_one_snapshot() {
        let (_, mut cx, _) = close(Benchmark::Aes, DesignStyle::TwoD);
        let mut round1 = cx.art.clone();
        round1.wns_after_opt = -1.0;
        let mut round2 = round1.clone();
        round2.wns_after_opt = -5.0;
        for m in &mut round2.models {
            m.c_wire += 1.0;
        }
        if let Some((wirelength_um, _)) = round2.route.as_mut() {
            *wirelength_um *= 2.0;
        }
        if let Some(p) = round2.placement.as_mut() {
            p.utilization *= 0.5;
        }

        cx.art = round2.clone();
        keep_better_round(&mut cx, round1.clone());
        assert_same_artifacts(&cx.art, &round1);
        engine(observe::null())
            .run_stage(FlowStage::SignOff, &mut cx)
            .expect("signs off");
        let result = cx.result.take().expect("sign-off result");
        assert_eq!(
            route_bits(&Some((result.wirelength_um, result.layer_usage))),
            route_bits(&round1.route)
        );

        // A round 2 that closed no worse is kept as it is.
        let mut better = round2;
        better.wns_after_opt = -0.5;
        cx.art = better.clone();
        keep_better_round(&mut cx, round1);
        assert_same_artifacts(&cx.art, &better);
    }
}
