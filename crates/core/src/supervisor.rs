//! The flow supervisor: runs the pipeline once, stage by stage, on the
//! calling thread, and contains every way a stage can fail.
//!
//! The supervisor calls the stage functions of `crate::stage` as
//! straight-line code — library, synthesis, then the floorplan rounds
//! (place, pre-route, route, post-route, decide), then sign-off — and
//! wraps each stage in a containment envelope:
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

use m3d_cells::CellLibrary;
use m3d_netlist::{Benchmark, Netlist};
use m3d_synth::WireLoadModel;
use m3d_tech::DesignStyle;

use crate::cache::ArtifactCache;
use crate::error::{FlowError, FlowStage};
use crate::faultinject::{FaultInjector, FaultKind, FaultPlan, InjectedFault};
use crate::flow::{EditLog, FlowConfig, FlowEnv, FlowResult};
use crate::govern::{self, CancelToken};
use crate::observe::{EventKind, StageOutcome};
use crate::stage::{self, Design};

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

/// Runs the pipeline once, with per-stage deadlines and optional
/// deterministic fault injection for testing the containment.
///
/// The supervisor always *executes* its stages — it never consults the
/// result cache, so planted faults behave identically whether or not an
/// equivalent flow already completed. Result memoization lives one
/// level up, in `flow::run_cached`, which every cached entry point
/// ([`crate::Flow::try_run_with_cache`] among them) calls; the cache passed
/// here deduplicates cell-library builds inside the library stage and
/// supplies the event sink ([`ArtifactCache::set_recorder`]).
#[derive(Debug)]
pub struct FlowSupervisor {
    bench: Benchmark,
    style: DesignStyle,
    config: FlowConfig,
    deadlines: StageDeadlines,
    injector: FaultInjector,
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
    pub fn run(mut self) -> Result<FlowResult, FlowError> {
        silence_contained_panics();
        let (bench, style, config) = (self.bench, self.style, self.config.clone());
        let (env, wlm, design) = self.close(&config)?;
        self.run_stage(FlowStage::SignOff, || {
            stage::signoff(bench, style, &config, &env, &wlm, &design)
        })
    }

    /// Library through the floorplan decision. Round 1 of the floorplan
    /// loop sizes the design; a second round re-places at the corrected
    /// floorplan basis when the cell area drifted from it, and keeps
    /// whichever round closed better. Round 2 edits round 1's netlist in
    /// place on an [`EditLog`] that holds its edits alone, so round 1's
    /// design is kept aside without it.
    fn close(
        &mut self,
        config: &FlowConfig,
    ) -> Result<(FlowEnv, Arc<WireLoadModel>, Design), FlowError> {
        let (bench, style, cache) = (self.bench, self.style, Arc::clone(&self.cache));
        let env = self.run_stage(FlowStage::Library, || {
            stage::library(bench, style, config, &cache)
        })?;
        let (mut netlist, wlm, tau_ps) = self.run_stage(FlowStage::Synthesis, || {
            stage::synthesize(bench, style, config, &cache, &env)
        })?;
        let mut log = EditLog::default();
        let mut round1 = None;
        let design = loop {
            // Only round 2 is undone past the stage that edited it (by
            // the revert), so round 1's records go as each stage ends.
            let forget_round1 = |log: &mut EditLog| {
                if round1.is_none() {
                    log.clear();
                }
            };
            let mut placement = self.run_stage(FlowStage::Placement, || {
                stage::place(&env, config, tau_ps, &mut netlist, &mut log)
            })?;
            forget_round1(&mut log);
            self.run_stage(FlowStage::PreRouteOpt, || {
                stage::preroute(&env, &mut netlist, &mut placement, &mut log)
            })?;
            forget_round1(&mut log);
            let (models, route) = self.run_stage(FlowStage::Routing, || {
                stage::route(&env, config, tau_ps, &mut netlist, &mut placement, &mut log)
            })?;
            forget_round1(&mut log);
            let mut design = Design {
                netlist,
                placement,
                models,
                route,
                wns_after_opt: 0.0,
            };
            self.run_stage(FlowStage::PostRouteOpt, || {
                stage::postroute(&env, config, &mut design, &mut log)
            })?;
            forget_round1(&mut log);
            match round1.take() {
                Some(first) => break decide(design, first, &mut log, &env.lib),
                None if floorplan_holds(&env, &design) => break design,
                None => {
                    netlist = std::mem::replace(&mut design.netlist, Netlist::new(""));
                    round1 = Some(design);
                }
            }
        };
        Ok((env, wlm, design))
    }

    /// Runs one stage body inside one trace span, contained by
    /// [`FlowSupervisor::attempt`]. A cancelled run stops before the
    /// span opens. The span goes to the cache's recorder as it stands
    /// when the stage starts.
    fn run_stage<T>(
        &mut self,
        id: FlowStage,
        body: impl FnOnce() -> Result<T, FlowError>,
    ) -> Result<T, FlowError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(FlowError::Cancelled { stage: id });
        }
        let fault = self.injector.tick(id);
        let recorder = self.cache.recorder();
        // Injected errors get a span too, so the trace pairs one
        // terminal event with every start.
        if recorder.enabled() {
            recorder.record(EventKind::StageStarted {
                bench: self.bench,
                style: self.style,
                stage: id,
                consumes: id.consumes(),
            });
        }
        let wall_t0 = Instant::now();
        let (outcome, busy_s) = match &fault {
            Some(f) if f.kind == FaultKind::Error => (Err(f.error()), 0.0),
            _ => self.attempt(id, body, fault.as_ref()),
        };
        let wall_s = wall_t0.elapsed().as_secs_f64();
        if recorder.enabled() {
            recorder.record(EventKind::StageFinished {
                bench: self.bench,
                style: self.style,
                stage: id,
                outcome: match &outcome {
                    Ok(_) => StageOutcome::Ok,
                    Err(e) => StageOutcome::of_error(e),
                },
                wall_s,
                busy_s,
            });
        }
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
    fn attempt<T>(
        &self,
        id: FlowStage,
        body: impl FnOnce() -> Result<T, FlowError>,
        fault: Option<&InjectedFault>,
    ) -> (Result<T, FlowError>, f64) {
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
            let outcome = body();
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
fn floorplan_holds(env: &FlowEnv, design: &Design) -> bool {
    let basis = design.netlist.total_cell_area(&env.lib) / design.placement.footprint_um2();
    (basis / env.utilization - 1.0).abs() <= 0.10
}

/// Keeps whichever floorplan round closed better. Round 2 can fail on
/// stubborn designs: it is dropped iff its WNS is below round 1's and
/// negative. `round1` is round 1's design with its netlist taken out,
/// since round 2 edited that netlist in place, and `log` holds round
/// 2's edits alone: undoing them gives the netlist back, and round 1's
/// placement, models and route summary are what sign-off reports.
fn decide(round2: Design, mut round1: Design, log: &mut EditLog, lib: &CellLibrary) -> Design {
    let worse = round2.wns_after_opt < round1.wns_after_opt.min(0.0);
    if !worse {
        return round2;
    }
    let Design {
        mut netlist,
        mut placement,
        ..
    } = round2;
    log.undo_to(0, &mut netlist, &mut placement, lib);
    round1.netlist = netlist;
    round1
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, NetId};
    use m3d_route::LayerUsage;
    use m3d_sta::{NetModel, OptMove};
    use m3d_tech::NodeId;

    use crate::flow::{apply_moves, try_extraction_models};
    use crate::observe::{Recorder, VecRecorder};
    use crate::stage::router;

    fn small() -> FlowConfig {
        FlowConfig::new(NodeId::N45).scale(BenchScale::Small)
    }

    /// Runs a small-scale flow through sign-off on a fresh traced cache,
    /// keeping the number of floorplan rounds it took (its placement
    /// spans), its environment and WLM, the design it signed off and
    /// the result.
    fn close(
        bench: Benchmark,
        style: DesignStyle,
    ) -> (u32, FlowEnv, Arc<WireLoadModel>, Design, FlowResult) {
        let config = small();
        let trace = Arc::new(VecRecorder::new());
        let cache = Arc::new(ArtifactCache::default());
        cache.set_recorder(Arc::clone(&trace) as Arc<dyn Recorder>);
        let mut sup = FlowSupervisor::new(bench, style, config.clone()).with_cache(cache);
        let (env, wlm, design) = sup.close(&config).expect("small flow closes");
        let result = sup
            .run_stage(FlowStage::SignOff, || {
                stage::signoff(bench, style, &config, &env, &wlm, &design)
            })
            .expect("small flow signs off");
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
        (rounds, env, wlm, design, result)
    }

    fn model_bits(models: &[NetModel]) -> Vec<(u64, u64)> {
        models
            .iter()
            .map(|m| (m.c_wire.to_bits(), m.r_wire.to_bits()))
            .collect()
    }

    fn route_bits((wirelength_um, u): &(f64, LayerUsage)) -> Vec<u64> {
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
    }

    fn assert_same_design(got: &Design, want: &Design) {
        assert_eq!(got.netlist, want.netlist);
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
                let (taken, env, _, design, result) = close(bench, style);
                assert_eq!(taken, rounds, "{bench:?} {style:?}: floorplan rounds");
                let routed = router(&env, small().mb1_routing)
                    .try_route(&design.netlist, &design.placement, &env.lib)
                    .expect("final design routes");
                let models =
                    try_extraction_models(&design.netlist, &routed, &env.node).expect("extraction");
                let reference = (routed.total_wirelength_um(), LayerUsage::of(&routed));
                assert_eq!(
                    model_bits(&design.models),
                    model_bits(&models),
                    "{bench:?} {style:?}: models"
                );
                assert_eq!(
                    route_bits(&design.route),
                    route_bits(&reference),
                    "{bench:?} {style:?}: route summary"
                );
                assert_eq!(
                    route_bits(&(result.wirelength_um, result.layer_usage)),
                    route_bits(&reference),
                    "{bench:?} {style:?}: signed-off route summary"
                );
            }
        }
    }

    /// Round 2 built the way the floorplan loop builds it: round 1's
    /// netlist edited in place through logged moves (upsizes,
    /// downsizes and repeaters, some on nets of eight sinks or more) on
    /// a cleared log, a placement of its own, and models, route summary
    /// and WNS that differ from round 1's.
    fn round_two(
        mut netlist: Netlist,
        round1: &Design,
        lib: &CellLibrary,
        wns_after_opt: f64,
        log: &mut EditLog,
    ) -> Design {
        let mut placement = round1.placement.clone();
        placement.utilization *= 0.5;
        for p in &mut placement.positions {
            p.x += 1000;
        }
        let mut moves: Vec<OptMove> = netlist.inst_ids().step_by(7).map(OptMove::Upsize).collect();
        moves.extend(netlist.inst_ids().skip(3).step_by(5).map(OptMove::Downsize));
        let fanout = |n: &NetId| netlist.net(*n).sinks.len();
        let wide: Vec<NetId> = netlist.net_ids().filter(|n| fanout(n) >= 8).collect();
        let narrow = netlist.net_ids().filter(|n| (2..8).contains(&fanout(n)));
        moves.extend(
            wide.iter()
                .copied()
                .take(4)
                .chain(narrow.step_by(9))
                .map(|net| OptMove::BufferNet { net, repeaters: 2 }),
        );
        assert!(!wide.is_empty(), "the quadrant split runs");
        let before = netlist.instance_count();
        log.clear();
        apply_moves(&mut netlist, &mut placement, lib, &moves, log);
        assert!(
            netlist.instance_count() > before,
            "round 2 inserts repeaters"
        );
        let mut models = round1.models.clone();
        for m in &mut models {
            m.c_wire += 1.0;
        }
        models.resize(netlist.net_count(), NetModel::default());
        Design {
            netlist,
            placement,
            models,
            route: (round1.route.0 * 2.0, round1.route.1.clone()),
            wns_after_opt,
        }
    }

    /// No small-suite flow reverts to round 1, so the revert is pinned
    /// here on a round 2 edited through the log: a round 2 that closes
    /// worse gives back round 1's netlist, placement, models, route
    /// summary and WNS bit for bit, and sign-off reports round 1's
    /// route. A round 2 that closes no worse is kept as it is.
    #[test]
    fn decide_reverts_to_the_round_one_snapshot() {
        let (_, env, wlm, mut round1, _) = close(Benchmark::Aes, DesignStyle::TwoD);
        let lib = &*env.lib;
        let mut log = EditLog::default();
        round1.wns_after_opt = -1.0;
        let want = round1.clone();

        let netlist = std::mem::replace(&mut round1.netlist, Netlist::new(""));
        let round2 = round_two(netlist, &want, lib, -5.0, &mut log);
        let first = round1;
        let kept = decide(round2, first, &mut log, lib);
        assert_same_design(&kept, &want);
        kept.netlist.check_consistency(lib);
        let result = stage::signoff(
            Benchmark::Aes,
            DesignStyle::TwoD,
            &small(),
            &env,
            &wlm,
            &kept,
        )
        .expect("signs off");
        assert_eq!(
            route_bits(&(result.wirelength_um, result.layer_usage)),
            route_bits(&want.route)
        );

        // A round 2 that closed no worse, at or above min(round 1, 0),
        // is kept as it is.
        for wns in [-0.5, -1.0] {
            let mut first = want.clone();
            let netlist = std::mem::replace(&mut first.netlist, Netlist::new(""));
            let round2 = round_two(netlist, &want, lib, wns, &mut log);
            let expected = round2.clone();
            let kept = decide(round2, first, &mut log, lib);
            assert_same_design(&kept, &expected);
        }
    }
}
