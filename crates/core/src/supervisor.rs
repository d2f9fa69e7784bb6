//! The flow supervisor: crash-only execution of the stage graph, with
//! per-stage retry, panic containment, wall-clock deadlines, durable
//! on-disk checkpoints, and a bounded degradation ladder when the flow
//! cannot close as configured.
//!
//! The supervisor drives the [`crate::StageGraph`] — the same stages
//! `Flow::try_run` executes — but wraps each stage attempt in a
//! containment envelope, on the calling thread:
//!
//! * the stage body runs under `catch_unwind`, so a panic becomes
//!   [`FlowError::StagePanicked`] and feeds the ordinary
//!   retry/degradation ladder instead of unwinding the driver;
//! * each attempt gets its own [`CancelToken`] — a child of the run
//!   token, with the stage's [`StageDeadlines`] budget armed on it —
//!   installed for [`govern::check`]. The stage loops check it between
//!   algorithm calls, so a blown budget stops the attempt at its next
//!   check and reports [`FlowError::DeadlineExceeded`]; a cancelled
//!   run reports [`FlowError::Cancelled`]. Either way the pre-attempt
//!   state is restored and no work is left running behind the report;
//! * with [`FlowSupervisor::with_checkpoints`], every completed stage
//!   writes a durable snapshot ([`crate::checkpoint`]) so a killed
//!   process resumes at the first incomplete stage via
//!   [`FlowSupervisor::resume_from`] — re-running no completed stage
//!   and reproducing the uninterrupted run bit for bit.
//!
//! When a whole run fails or sign-off timing does not close, the
//! supervisor escalates through a ladder of recovery knobs that mirrors
//! what a designer would try by hand:
//!
//! 1. **More optimization passes**, resuming from the routing checkpoint
//!    when one exists (re-closing post-route without re-synthesizing);
//! 2. **Relaxed utilization** (a roomier floorplan routes and closes more
//!    easily), restarting from synthesis since the WLM shifts;
//! 3. **Clock backoff** (the paper's iso-performance pressure released a
//!    step), also restarting from synthesis.
//!
//! The [`FlowReport`] records every attempt — each named by its
//! [`FlowStage`] — and ends in a [`Disposition`]: `Closed`,
//! `ClosedDegraded` with the relaxations that were needed, or `Failed`
//! naming the stage and its typed error.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use m3d_netlist::Benchmark;
use m3d_tech::DesignStyle;

use crate::artifacts::{Artifacts, FlowContext};
use crate::cache::ArtifactCache;
use crate::checkpoint::{CheckpointStore, Cursor, EnvKnobs, PersistedState};
use crate::error::{FlowError, FlowStage};
use crate::faultinject::{FaultInjector, FaultKind, FaultPlan, InjectedFault};
use crate::flow::{FlowConfig, FlowResult};
use crate::govern::{self, CancelToken};
use crate::observe::{EventKind, Recorder, StageOutcome};
use crate::stage::{Stage, StageGraph};

/// Per-stage wall-clock budgets, armed on each attempt's token.
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
    /// Panics on a name no stage answers to — a typo in a policy, best
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

/// Retry and degradation policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorPolicy {
    /// Attempts per stage (per ladder rung) before escalating; >= 1.
    pub max_stage_attempts: u32,
    /// Whether the degradation ladder may run at all.
    pub allow_degradation: bool,
    /// Optimization passes added by the first ladder rung.
    pub extra_opt_passes: usize,
    /// Utilization multiplier of the second rung (< 1 loosens the core).
    pub utilization_relax: f64,
    /// Clock-period multiplier of the third rung (> 1 slows the target).
    pub clock_backoff: f64,
    /// Sign-off closure tolerance: the run counts as closed when
    /// `wns_ps >= -wns_tolerance_frac * clock_ps`. `f64::INFINITY`
    /// disables the gate entirely.
    pub wns_tolerance_frac: f64,
    /// Per-stage wall-clock budgets; `None` arms none (a stage then
    /// stops only when the run token fires).
    pub deadlines: Option<StageDeadlines>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_stage_attempts: 2,
            allow_degradation: true,
            extra_opt_passes: 2,
            utilization_relax: 0.85,
            clock_backoff: 1.25,
            wns_tolerance_frac: 0.05,
            deadlines: Some(StageDeadlines::default()),
        }
    }
}

impl SupervisorPolicy {
    /// One attempt per stage, no degradation, no sign-off gate — the
    /// policy behind [`crate::Flow::try_run`], which must execute
    /// exactly the unsupervised stage sequence.
    pub fn strict() -> Self {
        SupervisorPolicy {
            max_stage_attempts: 1,
            allow_degradation: false,
            wns_tolerance_frac: f64::INFINITY,
            ..SupervisorPolicy::default()
        }
    }
}

/// One recovery knob the ladder applied.
#[derive(Debug, Clone, PartialEq)]
pub enum Relaxation {
    /// Optimization pass budget increased.
    ExtraOptPasses {
        /// Passes added on top of the configured budget.
        added: usize,
    },
    /// Placement utilization loosened.
    RelaxedUtilization {
        /// Utilization before the rung.
        from: f64,
        /// Utilization after the rung.
        to: f64,
    },
    /// Clock target slowed.
    ClockBackoff {
        /// Clock period before the rung, ps.
        from_ps: f64,
        /// Clock period after the rung, ps.
        to_ps: f64,
    },
}

impl std::fmt::Display for Relaxation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Relaxation::ExtraOptPasses { added } => {
                write!(f, "+{added} optimization passes")
            }
            Relaxation::RelaxedUtilization { from, to } => {
                write!(f, "utilization relaxed {from:.2} -> {to:.2}")
            }
            Relaxation::ClockBackoff { from_ps, to_ps } => {
                write!(f, "clock backed off {from_ps:.0} ps -> {to_ps:.0} ps")
            }
        }
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Closed under the configured targets.
    Closed,
    /// Closed, but only after the listed relaxations.
    ClosedDegraded {
        /// Ladder rungs that were needed, in the order applied.
        relaxations: Vec<Relaxation>,
    },
    /// Could not close: the stage that gave out, with its typed error.
    Failed {
        /// Stage of the final failure.
        stage: FlowStage,
        /// The error that exhausted the retry and degradation budget.
        error: FlowError,
    },
}

/// One stage execution attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Stage attempted.
    pub stage: FlowStage,
    /// Degradation rung the attempt ran under (0 = as configured).
    pub rung: u32,
    /// 1-based attempt number within this stage at this rung.
    pub attempt: u32,
    /// `None` on success; the stage error otherwise.
    pub error: Option<FlowError>,
}

/// The supervisor's structured account of a run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Benchmark the run targeted.
    pub bench: Benchmark,
    /// Design style the run targeted.
    pub style: DesignStyle,
    /// Every stage attempt, in execution order. A resumed run carries
    /// the crashed process's records first, restored from the
    /// checkpoint ([`FlowError::Restored`] for failed attempts).
    pub attempts: Vec<AttemptRecord>,
    /// Outcome.
    pub disposition: Disposition,
    /// The sign-off result when the run closed (possibly degraded).
    pub result: Option<FlowResult>,
    /// Effective clock period after any backoff, ps.
    pub clock_ps: f64,
    /// Effective utilization after any relaxation.
    pub utilization: f64,
    /// Checkpoint-layer incidents the run survived: quarantined corrupt
    /// snapshots found during resume, and failed snapshot writes. Each
    /// is a [`FlowError::CorruptCheckpoint`]; none of them fail the run.
    pub checkpoint_incidents: Vec<FlowError>,
}

impl FlowReport {
    /// True when the run produced a sign-off result.
    pub fn closed(&self) -> bool {
        !matches!(self.disposition, Disposition::Failed { .. })
    }

    /// True when closure needed the degradation ladder.
    pub fn degraded(&self) -> bool {
        matches!(self.disposition, Disposition::ClosedDegraded { .. })
    }

    /// Number of attempts recorded for a stage, addressed by name
    /// (`"route"`, `"signoff"`, or a display name like `"sign-off"`),
    /// across all rungs. Unknown names count zero.
    pub fn stage_attempts(&self, stage: &str) -> u32 {
        match FlowStage::from_name(stage) {
            Some(id) => self.attempts.iter().filter(|a| a.stage == id).count() as u32,
            None => 0,
        }
    }

    /// Converts the report into a plain result, discarding the attempt
    /// history: the sign-off result when closed, the final error
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns the error of the final failure for `Failed` dispositions.
    pub fn into_result(self) -> Result<FlowResult, FlowError> {
        match self.disposition {
            Disposition::Failed { error, .. } => Err(error),
            Disposition::Closed | Disposition::ClosedDegraded { .. } => {
                Ok(self.result.expect("closed dispositions carry a result"))
            }
        }
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
    /// Set while a stage attempt runs under `catch_unwind` on this
    /// thread: its unwinds are contained and reported as
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

/// Drives the [`StageGraph`] under a [`SupervisorPolicy`], with optional
/// deterministic fault injection for testing the recovery machinery and
/// optional durable checkpoints for crash recovery.
///
/// The supervisor always *executes* its stages — it never consults the
/// result cache, so planted faults and degradation scenarios behave
/// identically whether or not an equivalent flow already completed.
/// Result memoization lives one level up, in
/// [`crate::Flow::try_run_with_cache`]; the shared cache passed here
/// only deduplicates cell-library builds inside the library stage.
#[derive(Debug)]
pub struct FlowSupervisor {
    bench: Benchmark,
    style: DesignStyle,
    config: FlowConfig,
    policy: SupervisorPolicy,
    injector: FaultInjector,
    graph: StageGraph,
    cache: Arc<ArtifactCache>,
    store: Option<CheckpointStore>,
    resume: Option<PersistedState>,
    incidents: Vec<FlowError>,
    /// Explicit event sink; `None` inherits the cache's recorder at
    /// [`FlowSupervisor::run`] time.
    recorder: Option<Arc<dyn Recorder>>,
    /// Cancellation point for this run; `None` runs ungoverned.
    cancel: Option<CancelToken>,
}

impl FlowSupervisor {
    /// A supervisor over the paper pipeline for `bench`/`style`/`config`,
    /// with the default policy, no faults, no checkpointing, and the
    /// process-wide library cache.
    pub fn new(bench: Benchmark, style: DesignStyle, config: FlowConfig) -> Self {
        FlowSupervisor {
            bench,
            style,
            config,
            policy: SupervisorPolicy::default(),
            injector: FaultInjector::new(FaultPlan::new()),
            graph: StageGraph::paper_pipeline(),
            cache: ArtifactCache::global(),
            store: None,
            resume: None,
            incidents: Vec::new(),
            recorder: None,
            cancel: None,
        }
    }

    /// Replaces the policy.
    pub fn policy(mut self, policy: SupervisorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches an explicit event sink for this run. Without it, the
    /// run inherits whatever recorder is attached to its cache
    /// ([`ArtifactCache::set_recorder`]) — usually the right thing, so
    /// one attachment instruments stage spans and cache traffic
    /// together.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Arms a deterministic fault plan (test harness).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.injector = FaultInjector::new(plan);
        self
    }

    /// Threads a cancellation point through the run: the stage loop
    /// checks it between stages, and each stage attempt installs a
    /// child of it thread-locally, so the stage loops and deep waits
    /// (the cache's coalescing wait included) stop with
    /// [`FlowError::Cancelled`] at their next [`govern::check`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Replaces the artifact cache (library-build sharing only; see the
    /// type docs).
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Enables durable checkpoints in `dir`: every completed stage and
    /// every ladder escalation writes one snapshot, so a killed process
    /// continues via [`FlowSupervisor::resume_from`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::CorruptCheckpoint`] when the directory
    /// cannot be created.
    pub fn with_checkpoints(mut self, dir: impl AsRef<Path>) -> Result<Self, FlowError> {
        self.store = Some(CheckpointStore::open(dir)?);
        Ok(self)
    }

    /// Rebuilds a supervisor from the newest valid snapshot in a
    /// checkpoint directory. The returned supervisor targets the
    /// crashed run's benchmark/style/config and, when run, continues at
    /// the first incomplete stage: completed stages are *not* re-run
    /// (their attempt records come back from the snapshot), and the
    /// resumed run's numerics are bit-identical to an uninterrupted one.
    ///
    /// Snapshots that fail verification are quarantined under
    /// `dir/quarantine/` and surfaced in
    /// [`FlowReport::checkpoint_incidents`]; resume falls back to the
    /// next older snapshot, which re-runs just the affected stage.
    ///
    /// Policy and fault plan reset to defaults — apply
    /// [`FlowSupervisor::policy`] / [`FlowSupervisor::with_faults`]
    /// again if the resumed leg needs them.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::CorruptCheckpoint`] when the directory has
    /// no snapshots at all or none verifies — the caller should start
    /// the run from scratch.
    pub fn resume_from(dir: impl AsRef<Path>) -> Result<Self, FlowError> {
        let store = CheckpointStore::open(&dir)?;
        // load_latest can quarantine corrupt snapshots; trace those
        // into the global cache's sink (run() re-resolves later, so an
        // explicit with_recorder still wins for the run itself).
        store.set_recorder(ArtifactCache::global().recorder());
        let Some((state, incidents)) = store.load_latest()? else {
            return Err(FlowError::CorruptCheckpoint {
                path: dir.as_ref().display().to_string(),
                detail: "no checkpoint snapshots in directory".to_string(),
            });
        };
        Ok(FlowSupervisor {
            bench: state.bench,
            style: state.style,
            config: state.config.clone(),
            policy: SupervisorPolicy::default(),
            injector: FaultInjector::new(FaultPlan::new()),
            graph: StageGraph::paper_pipeline(),
            cache: ArtifactCache::global(),
            store: Some(store),
            resume: Some(state),
            incidents,
            recorder: None,
            cancel: None,
        })
    }

    /// The checkpoint directory, when checkpointing is enabled.
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(CheckpointStore::dir)
    }

    /// Runs the flow to a disposition. Never panics on stage failures —
    /// panics included: every error lands in the report.
    pub fn run(self) -> FlowReport {
        silence_contained_panics();
        let FlowSupervisor {
            bench,
            style,
            config,
            policy,
            injector,
            graph,
            cache,
            store,
            resume,
            incidents,
            recorder,
            cancel,
        } = self;
        // An explicit recorder wins; otherwise inherit the cache's, so
        // attaching a sink to the cache instruments the whole run.
        let recorder = recorder.unwrap_or_else(|| cache.recorder());
        // Checkpoint quarantines trace into the same sink.
        if let Some(s) = &store {
            s.set_recorder(Arc::clone(&recorder));
        }
        let mut cx = FlowContext::new(bench, style, config, cache);
        let mut engine = Engine::new(policy, injector, graph, store, incidents, recorder, cancel);

        match resume {
            Some(state) => {
                // Trace the resume before any live stage runs, so a
                // resumed run's trace always opens with it.
                engine.emit(|| EventKind::CheckpointResumed {
                    bench,
                    style,
                    cursor: state.cursor.key(),
                });
                // The cell library is a pure, memoized function of the
                // config; rebuild the environment through the library
                // stage directly — deterministic, so it earns no new
                // attempt record — then restore the effective knobs the
                // ladder had applied.
                if let Err(e) = engine.graph.stage(FlowStage::Library).run(&mut cx) {
                    return engine.fail_report(&cx, FlowStage::Library, e);
                }
                if let (Some(env), Some(knobs)) = (cx.env.as_mut(), state.env) {
                    env.clock_ps = knobs.clock_ps;
                    env.utilization = knobs.utilization;
                    env.opt_passes = knobs.opt_passes;
                }
                cx.art = state.art;
                engine.seq = state.seq;
                engine.records = state.records;
                engine.relaxations = state.relaxations;
                engine.rung = state.rung;
                engine.round = state.round;
                engine.resumed_rung = state.resumed_rung;
                engine.cursor = state.cursor;
                engine.round1_best = state.round1_best;
                engine.routing_ckpt = state.routing_ckpt;
            }
            None => {
                // Library preparation, retried like any stage.
                if let Err(e) = engine.run_stage(FlowStage::Library, &mut cx) {
                    return engine.fail_report(&cx, FlowStage::Library, e);
                }
                engine.save(&cx);
            }
        }
        engine.drive(cx)
    }
}

/// The running state of one supervised flow: everything `run` threads
/// through the rung loop, the cursor machine, and the checkpoint saves.
struct Engine {
    policy: SupervisorPolicy,
    injector: FaultInjector,
    graph: StageGraph,
    store: Option<CheckpointStore>,
    incidents: Vec<FlowError>,
    /// Resolved event sink (never `None`; disabled = null recorder).
    recorder: Arc<dyn Recorder>,
    /// Monotonic snapshot counter (continues across resume).
    seq: u64,
    records: Vec<AttemptRecord>,
    relaxations: Vec<Relaxation>,
    rung: u32,
    /// Floorplan round within the current rung (counts completed
    /// post-route passes).
    round: u32,
    /// Whether the current rung resumed from the routing checkpoint
    /// (ladder rung 1): it re-closes post-route work only.
    resumed_rung: bool,
    /// The next step of the cursor machine.
    cursor: Cursor,
    /// The round-1 artifacts, kept across the floorplan rounds.
    round1_best: Option<Artifacts>,
    /// Artifacts snapshot taken after routing — what ladder rung 1
    /// resumes from.
    routing_ckpt: Option<Artifacts>,
    /// Armed by a `CorruptCheckpoint` fault: the next snapshot write is
    /// bit-flipped after landing on disk.
    corrupt_next_save: bool,
    /// Run-level cancellation point; `None` runs ungoverned.
    cancel: Option<CancelToken>,
}

impl Engine {
    /// An engine about to enter rung 0 at synthesis.
    fn new(
        policy: SupervisorPolicy,
        injector: FaultInjector,
        graph: StageGraph,
        store: Option<CheckpointStore>,
        incidents: Vec<FlowError>,
        recorder: Arc<dyn Recorder>,
        cancel: Option<CancelToken>,
    ) -> Self {
        Engine {
            policy,
            injector,
            graph,
            store,
            incidents,
            recorder,
            seq: 0,
            records: Vec::new(),
            relaxations: Vec::new(),
            rung: 0,
            round: 0,
            resumed_rung: false,
            cursor: Cursor::Synth,
            round1_best: None,
            routing_ckpt: None,
            corrupt_next_save: false,
            cancel,
        }
    }

    /// Records one event iff the resolved recorder is live — with the
    /// default null recorder this is one virtual call, no event
    /// construction.
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        if self.recorder.enabled() {
            self.recorder.record(kind());
        }
    }

    /// The rung loop: execute the cursor machine to a result or walk the
    /// degradation ladder.
    fn drive(mut self, mut cx: FlowContext) -> FlowReport {
        loop {
            match self.execute_rung(&mut cx) {
                Ok(result) => {
                    let disposition = if self.relaxations.is_empty() {
                        Disposition::Closed
                    } else {
                        Disposition::ClosedDegraded {
                            relaxations: self.relaxations.clone(),
                        }
                    };
                    let env = cx.env.as_ref().expect("library stage ran");
                    return FlowReport {
                        bench: cx.bench,
                        style: cx.style,
                        attempts: self.records,
                        disposition,
                        result: Some(result),
                        clock_ps: env.clock_ps,
                        utilization: env.utilization,
                        checkpoint_incidents: self.incidents,
                    };
                }
                Err((stage, error)) => {
                    // A kill is not a failure to recover from in-process:
                    // the run stops dead, leaving the checkpoint
                    // directory exactly as a SIGKILL would. A cancel
                    // likewise: the governor asked the run to stop, so
                    // the ladder must not outlive it.
                    let killed = matches!(
                        error,
                        FlowError::Interrupted { .. } | FlowError::Cancelled { .. }
                    );
                    // Config/library errors are structural: no physical
                    // knob fixes them, so fail fast. Otherwise walk the
                    // ladder until it runs out.
                    let structural = matches!(error, FlowError::Config(_) | FlowError::Library(_));
                    if killed || !self.policy.allow_degradation || structural || self.rung >= 3 {
                        return self.fail_report(&cx, stage, error);
                    }
                    let env = cx.env.as_mut().expect("library stage ran");
                    match self.rung {
                        0 => {
                            env.opt_passes += self.policy.extra_opt_passes;
                            self.relaxations.push(Relaxation::ExtraOptPasses {
                                added: self.policy.extra_opt_passes,
                            });
                            // More passes only change post-route work, so
                            // resume from the routing checkpoint when the
                            // failed rung got that far.
                            match self.routing_ckpt.clone() {
                                Some(art) => {
                                    cx.art = art;
                                    self.cursor = Cursor::Postroute;
                                    self.resumed_rung = true;
                                    self.round = 0;
                                }
                                None => self.reset_for_fresh_rung(),
                            }
                        }
                        1 => {
                            let from = env.utilization;
                            env.utilization *= self.policy.utilization_relax;
                            self.relaxations.push(Relaxation::RelaxedUtilization {
                                from,
                                to: env.utilization,
                            });
                            self.reset_for_fresh_rung();
                        }
                        _ => {
                            let from = env.clock_ps;
                            env.clock_ps *= self.policy.clock_backoff;
                            self.relaxations.push(Relaxation::ClockBackoff {
                                from_ps: from,
                                to_ps: env.clock_ps,
                            });
                            self.reset_for_fresh_rung();
                        }
                    }
                    self.rung += 1;
                    self.emit(|| EventKind::DegradationRungEntered {
                        bench: cx.bench,
                        style: cx.style,
                        rung: self.rung,
                    });
                    self.save(&cx);
                }
            }
        }
    }

    /// A ladder escalation that restarts the pipeline from synthesis.
    fn reset_for_fresh_rung(&mut self) {
        self.cursor = Cursor::Synth;
        self.resumed_rung = false;
        self.round = 0;
        self.round1_best = None;
        self.routing_ckpt = None;
    }

    /// Executes the cursor machine until sign-off or a stage gives out.
    /// Every completed stage advances the cursor and writes a snapshot;
    /// `Decide` is pure and replays deterministically on resume.
    fn execute_rung(&mut self, cx: &mut FlowContext) -> Result<FlowResult, (FlowStage, FlowError)> {
        loop {
            // Cooperative cancellation point between stages: a governed
            // run stops at the next stage boundary without opening a
            // new span, attributed to the stage it was about to enter.
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                let stage = self.cursor_stage();
                return Err((stage, FlowError::Cancelled { stage }));
            }
            match self.cursor {
                Cursor::Synth => {
                    self.run_stage(FlowStage::Synthesis, cx)
                        .map_err(|e| (FlowStage::Synthesis, e))?;
                    self.round = 0;
                    self.round1_best = None;
                    self.cursor = Cursor::Place;
                    self.save(cx);
                }
                Cursor::Place => {
                    self.run_stage(FlowStage::Placement, cx)
                        .map_err(|e| (FlowStage::Placement, e))?;
                    self.cursor = Cursor::Preroute;
                    self.save(cx);
                }
                Cursor::Preroute => {
                    self.run_stage(FlowStage::PreRouteOpt, cx)
                        .map_err(|e| (FlowStage::PreRouteOpt, e))?;
                    self.cursor = Cursor::Route;
                    self.save(cx);
                }
                Cursor::Route => {
                    self.run_stage(FlowStage::Routing, cx)
                        .map_err(|e| (FlowStage::Routing, e))?;
                    self.routing_ckpt = Some(cx.art.clone());
                    self.cursor = Cursor::Postroute;
                    self.save(cx);
                }
                Cursor::Postroute => {
                    self.run_stage(FlowStage::PostRouteOpt, cx)
                        .map_err(|e| (FlowStage::PostRouteOpt, e))?;
                    self.round += 1;
                    self.cursor = Cursor::Decide;
                    self.save(cx);
                }
                Cursor::Decide => {
                    // The two-round floorplan loop of the unsupervised
                    // flow: round 1 sizes the design; a second round
                    // re-builds the core when the cell area drifted from
                    // the floorplan basis. A degraded resume re-closes
                    // post-route work only. Pure decision over
                    // checkpointed values — resume replays it exactly.
                    self.cursor = self.decide(cx);
                }
                Cursor::Signoff => {
                    self.run_stage(FlowStage::SignOff, cx)
                        .map_err(|e| (FlowStage::SignOff, e))?;
                    let result = cx.result.take().expect("sign-off stage stores a result");
                    let clock_ps = cx.env.as_ref().expect("library stage ran").clock_ps;
                    if result.wns_ps < -self.policy.wns_tolerance_frac * clock_ps {
                        let error = FlowError::TimingNotClosed {
                            wns_ps: result.wns_ps,
                            clock_ps,
                        };
                        self.records.push(AttemptRecord {
                            stage: FlowStage::SignOff,
                            rung: self.rung,
                            attempt: 0,
                            error: Some(error.clone()),
                        });
                        return Err((FlowStage::SignOff, error));
                    }
                    return Ok(result);
                }
            }
        }
    }

    /// The stage the cursor machine would enter next — what a
    /// between-stage cancellation is attributed to.
    fn cursor_stage(&self) -> FlowStage {
        match self.cursor {
            Cursor::Synth => FlowStage::Synthesis,
            Cursor::Place => FlowStage::Placement,
            Cursor::Preroute => FlowStage::PreRouteOpt,
            Cursor::Route => FlowStage::Routing,
            Cursor::Postroute => FlowStage::PostRouteOpt,
            Cursor::Decide | Cursor::Signoff => FlowStage::SignOff,
        }
    }

    /// The floorplan-round decision: sign off, or re-place at the
    /// corrected floorplan basis.
    fn decide(&mut self, cx: &mut FlowContext) -> Cursor {
        if self.resumed_rung {
            return Cursor::Signoff;
        }
        let wns_now = cx.art.wns_after_opt;
        if self.round >= 2 {
            // Keep whichever round closed better (round 2 can fail on
            // stubborn designs; fall back to the round-1 result, whose
            // models and route summary sign-off then reports).
            if let Some(round1) = self.round1_best.take() {
                if wns_now < round1.wns_after_opt.min(0.0) {
                    cx.art = round1;
                }
            }
            return Cursor::Signoff;
        }
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
        let area_now: f64 = netlist.total_cell_area(&env.lib);
        let basis = area_now / placement.footprint_um2();
        if (basis / env.utilization - 1.0).abs() <= 0.10 {
            return Cursor::Signoff;
        }
        self.round1_best = Some(cx.art.clone());
        Cursor::Place
    }

    /// Runs one stage under the retry budget, each attempt contained by
    /// [`Engine::attempt`]. The environment and artifact store are
    /// checkpointed before the first attempt; every failed attempt —
    /// typed error, panic, deadline overrun or cancel — is recorded and
    /// the checkpoint restored, so a retry re-enters the stage from the
    /// last good state. A planted `Kill` fault stops the run dead with
    /// [`FlowError::Interrupted`]: no record, no snapshot.
    fn run_stage(&mut self, id: FlowStage, cx: &mut FlowContext) -> Result<(), FlowError> {
        let stage = self.graph.stage(id);
        let env_checkpoint = cx.env.clone();
        let checkpoint = cx.art.clone();
        let max_attempts = self.policy.max_stage_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let fault = self.injector.tick(id);
            if let Some(f) = &fault {
                match &f.kind {
                    // A kill models SIGKILL at stage entry: it returns
                    // before the span opens, so traces stay balanced —
                    // a killed process records nothing.
                    FaultKind::Kill => return Err(FlowError::Interrupted { stage: id }),
                    FaultKind::CorruptCheckpoint => self.corrupt_next_save = true,
                    _ => {}
                }
            }
            // Every attempt gets a span — injected errors included, so
            // the trace pairs one terminal event with every start and
            // mirrors the attempt records exactly.
            self.emit(|| EventKind::StageStarted {
                bench: cx.bench,
                style: cx.style,
                stage: id,
                rung: self.rung,
                attempt,
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
                rung: self.rung,
                attempt,
                outcome: match &outcome {
                    Ok(()) => StageOutcome::Ok,
                    Err(e) => StageOutcome::of_error(e),
                },
                wall_s,
                busy_s,
            });
            match outcome {
                Ok(()) => {
                    self.records.push(AttemptRecord {
                        stage: id,
                        rung: self.rung,
                        attempt,
                        error: None,
                    });
                    return Ok(());
                }
                Err(e) => {
                    self.records.push(AttemptRecord {
                        stage: id,
                        rung: self.rung,
                        attempt,
                        error: Some(e.clone()),
                    });
                    // A failed attempt — a panic included — may leave
                    // the context half-written: rebuild it.
                    cx.env = env_checkpoint.clone();
                    cx.art = checkpoint.clone();
                    cx.result = None;
                    // A cancelled attempt is never retried: the
                    // governor asked the run to stop, so unwind now.
                    if matches!(e, FlowError::Cancelled { .. }) || attempt >= max_attempts {
                        return Err(e);
                    }
                    self.emit(|| EventKind::RetryScheduled {
                        bench: cx.bench,
                        style: cx.style,
                        stage: id,
                        next_attempt: attempt + 1,
                    });
                }
            }
        }
    }

    /// One contained stage attempt, inline on the calling thread.
    ///
    /// The attempt gets its own [`CancelToken`]: a child of the run
    /// token (a fresh root when ungoverned) with the stage's budget
    /// armed on it, installed for [`govern::check`]. The stage loops
    /// check it between algorithm calls, so a cancel or a blown budget
    /// stops the attempt at its next check, and the body runs under
    /// `catch_unwind`, so a panic becomes [`FlowError::StagePanicked`].
    /// An attempt that ends with its token fired fails with the token's
    /// cause, whatever the body returned: [`FlowError::Cancelled`] when
    /// the run (or point) token fired, [`FlowError::DeadlineExceeded`]
    /// when the stage budget did. The caller restores the pre-attempt
    /// state after every failure.
    ///
    /// Planted faults act before the body: `Panic` panics, `Delay`
    /// sleeps blind to the token (so an overrun is typed only once the
    /// sleep returns), `StuckStage` parks on the token until it fires,
    /// and `SlowStage` parks on it for at most its duration.
    ///
    /// The second return value is the attempt's *busy* time: seconds
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
        let budget_ms = self.policy.deadlines.as_ref().map(|d| d.budget_ms(id));
        if let Some(b) = budget_ms {
            token.arm_deadline_in(Duration::from_millis(b));
        }
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
                    _ => {}
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
            Ok(_) => match budget_ms {
                Some(budget_ms) if !run_stopped => Err(FlowError::DeadlineExceeded {
                    stage: id,
                    budget_ms,
                }),
                _ => Err(FlowError::Cancelled { stage: id }),
            },
        };
        (outcome, busy_s)
    }

    /// Writes one durable snapshot of the current supervisor state, when
    /// checkpointing is enabled. Write failures are surfaced in
    /// [`FlowReport::checkpoint_incidents`], never fail the run. A
    /// planted `CorruptCheckpoint` fault flips a byte of the file after
    /// it lands.
    fn save(&mut self, cx: &FlowContext) {
        let corrupt = std::mem::take(&mut self.corrupt_next_save);
        let Some(store) = &self.store else {
            return;
        };
        self.seq += 1;
        let state = PersistedState {
            seq: self.seq,
            bench: cx.bench,
            style: cx.style,
            config: cx.config.clone(),
            rung: self.rung,
            round: self.round,
            resumed_rung: self.resumed_rung,
            cursor: self.cursor,
            env: cx.env.as_ref().map(|e| EnvKnobs {
                clock_ps: e.clock_ps,
                utilization: e.utilization,
                opt_passes: e.opt_passes,
            }),
            relaxations: self.relaxations.clone(),
            records: self.records.clone(),
            art: cx.art.clone(),
            round1_best: self.round1_best.clone(),
            routing_ckpt: self.routing_ckpt.clone(),
        };
        match store.save(&state) {
            Ok((_, bytes)) => {
                if corrupt {
                    store.corrupt_newest();
                }
                self.emit(|| EventKind::CheckpointWritten {
                    bench: cx.bench,
                    style: cx.style,
                    cursor: state.cursor.key(),
                    bytes,
                });
            }
            Err(e) => self.incidents.push(e),
        }
    }

    /// Assembles a `Failed` report.
    fn fail_report(self, cx: &FlowContext, stage: FlowStage, error: FlowError) -> FlowReport {
        let (clock_ps, utilization) = cx
            .env
            .as_ref()
            .map(|e| (e.clock_ps, e.utilization))
            .unwrap_or((0.0, 0.0));
        FlowReport {
            bench: cx.bench,
            style: cx.style,
            attempts: self.records,
            disposition: Disposition::Failed { stage, error },
            result: None,
            clock_ps,
            utilization,
            checkpoint_incidents: self.incidents,
        }
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
    use crate::observe;
    use crate::stage::router;

    /// A strict engine with no faults, checkpoints or recorder.
    fn engine() -> Engine {
        Engine::new(
            SupervisorPolicy::strict(),
            FaultInjector::default(),
            StageGraph::paper_pipeline(),
            None,
            Vec::new(),
            observe::null(),
            None,
        )
    }

    /// Runs a small-scale flow through sign-off, keeping the engine and
    /// the context it leaves.
    fn close(bench: Benchmark, style: DesignStyle) -> (Engine, FlowContext, FlowResult) {
        let config = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
        let mut cx = FlowContext::new(bench, style, config, ArtifactCache::global());
        let mut engine = engine();
        engine
            .run_stage(FlowStage::Library, &mut cx)
            .expect("library builds");
        let result = engine.execute_rung(&mut cx).expect("small flow closes");
        (engine, cx, result)
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
                let (engine, cx, result) = close(bench, style);
                assert_eq!(
                    engine.round, rounds,
                    "{bench:?} {style:?}: floorplan rounds"
                );
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

        let mut engine = engine();
        engine.round = 2;
        engine.round1_best = Some(round1.clone());
        cx.art = round2.clone();
        assert_eq!(engine.decide(&mut cx), Cursor::Signoff);
        assert!(engine.round1_best.is_none());
        assert_same_artifacts(&cx.art, &round1);
        engine
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
        engine.round1_best = Some(round1);
        cx.art = better.clone();
        assert_eq!(engine.decide(&mut cx), Cursor::Signoff);
        assert_same_artifacts(&cx.art, &better);
    }
}
