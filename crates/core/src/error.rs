//! The workspace-wide error taxonomy for the sign-off flow.
//!
//! Every stage entry point ([`m3d_synth::try_synthesize`],
//! [`m3d_place::Placer::try_place`], [`m3d_route::Router::try_route`],
//! [`m3d_sta::try_analyze`], [`m3d_power::try_analyze_power`],
//! [`m3d_extract::try_extract_net`], the SPICE transient and library
//! construction) reports a typed, stage-specific error; [`FlowError`]
//! unifies them so `Flow::try_run` and the supervisor can report *which*
//! stage failed and *why* without a panic.

use m3d_cells::LibraryError;
use m3d_extract::ExtractError;
use m3d_place::PlaceError;
use m3d_power::PowerError;
use m3d_route::RouteError;
use m3d_spice::SpiceError;
use m3d_sta::StaError;
use m3d_synth::SynthError;

/// The stages of the sign-off pipeline, in execution order (paper Fig. 1).
///
/// Used to attribute failures, to key fault injection, and to label the
/// supervisor's trace spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStage {
    /// Library characterization and preparation.
    Library,
    /// WLM-guided synthesis (including the preliminary WLM placement).
    Synthesis,
    /// Global placement plus placed load-based sizing.
    Placement,
    /// Pre-route accept/reject optimization passes.
    PreRouteOpt,
    /// Global routing plus extracted load-based sizing.
    Routing,
    /// Post-route optimization and power recovery.
    PostRouteOpt,
    /// Final route, extraction, timing and power sign-off.
    SignOff,
}

impl FlowStage {
    /// All stages in pipeline order.
    pub const ALL: [FlowStage; 7] = [
        FlowStage::Library,
        FlowStage::Synthesis,
        FlowStage::Placement,
        FlowStage::PreRouteOpt,
        FlowStage::Routing,
        FlowStage::PostRouteOpt,
        FlowStage::SignOff,
    ];

    /// Dense index (fault-injection counters, deadline tables).
    pub fn index(self) -> usize {
        match self {
            FlowStage::Library => 0,
            FlowStage::Synthesis => 1,
            FlowStage::Placement => 2,
            FlowStage::PreRouteOpt => 3,
            FlowStage::Routing => 4,
            FlowStage::PostRouteOpt => 5,
            FlowStage::SignOff => 6,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Library => "library",
            FlowStage::Synthesis => "synthesis",
            FlowStage::Placement => "placement",
            FlowStage::PreRouteOpt => "pre-route optimization",
            FlowStage::Routing => "routing",
            FlowStage::PostRouteOpt => "post-route optimization",
            FlowStage::SignOff => "sign-off",
        }
    }

    /// Stable short key — the name fault plans, deadline tables and
    /// trace spans address a stage by (`"route"`, `"signoff"`, …).
    pub fn key(self) -> &'static str {
        match self {
            FlowStage::Library => "library",
            FlowStage::Synthesis => "synth",
            FlowStage::Placement => "place",
            FlowStage::PreRouteOpt => "preroute",
            FlowStage::Routing => "route",
            FlowStage::PostRouteOpt => "postroute",
            FlowStage::SignOff => "signoff",
        }
    }

    /// Resolves a stage from its short key or display name.
    pub fn from_name(name: &str) -> Option<FlowStage> {
        FlowStage::ALL
            .iter()
            .copied()
            .find(|s| s.key() == name || s.name() == name)
    }

    /// The [`crate::FlowConfig`] field names this stage reads, directly
    /// or via the environment it builds; each stage span carries them.
    /// The union over [`FlowStage::ALL`] is the [`crate::ArtifactCache`]
    /// flow-key contract.
    pub fn consumes(self) -> &'static [&'static str] {
        match self {
            FlowStage::Library => &[
                "node_id",
                "stack_kind",
                "clock_ps",
                "pin_cap_scale",
                "lower_metal_rho",
            ],
            FlowStage::Synthesis => &["bench_scale", "tmi_wlm", "node_id", "lower_metal_rho"],
            FlowStage::Placement => &["place_iterations"],
            FlowStage::PreRouteOpt => &[],
            FlowStage::Routing | FlowStage::PostRouteOpt => &["mb1_routing"],
            FlowStage::SignOff => &["alpha_ff", "node_id"],
        }
    }
}

impl std::fmt::Display for FlowStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A rejected [`crate::FlowConfig`] knob.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `clock_ps` override non-finite or non-positive.
    BadClock(f64),
    /// `pin_cap_scale` non-finite or non-positive.
    BadPinCapScale(f64),
    /// `alpha_ff` outside `[0, 1]`.
    BadAlphaFf(f64),
    /// `place_iterations == 0` — the placer would emit garbage positions.
    ZeroPlaceIterations,
    /// `node_id` names no PDK in the registry, so no stage could build
    /// a library or resolve design rules for it.
    UnknownNode {
        /// The unresolvable node name.
        node: String,
        /// Names of the registered PDKs.
        known: Vec<String>,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadClock(c) => {
                write!(f, "clock_ps must be a positive finite period, got {c}")
            }
            ConfigError::BadPinCapScale(s) => {
                write!(f, "pin_cap_scale must be positive, got {s}")
            }
            ConfigError::BadAlphaFf(a) => {
                write!(f, "alpha_ff must be in [0, 1], got {a}")
            }
            ConfigError::ZeroPlaceIterations => {
                write!(f, "place_iterations must be at least 1")
            }
            ConfigError::UnknownNode { node, known } => write!(
                f,
                "node '{node}' names no registered PDK (registered: {})",
                known.join(", ")
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Unified failure type for the full flow: which stage failed, and the
/// stage's own typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Rejected configuration (pre-flight, before any stage runs).
    Config(ConfigError),
    /// Library characterization failure.
    Library(LibraryError),
    /// Synthesis failure.
    Synth(SynthError),
    /// Placement failure.
    Place(PlaceError),
    /// Routing failure.
    Route(RouteError),
    /// Timing-analysis failure.
    Sta(StaError),
    /// Power-analysis failure.
    Power(PowerError),
    /// Parasitic-extraction failure.
    Extract(ExtractError),
    /// SPICE characterization failure.
    Spice(SpiceError),
    /// A deterministic fault injected by the test harness.
    Injected {
        /// Stage the fault was planted in.
        stage: FlowStage,
        /// Human-readable fault description.
        detail: String,
    },
    /// A stage body panicked; the supervisor caught the unwind and ends
    /// the run with this error instead.
    StagePanicked {
        /// Stage whose body unwound.
        stage: FlowStage,
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// A stage overran its wall-clock budget: the attempt stopped at its
    /// next cooperative check and its partial work was discarded.
    DeadlineExceeded {
        /// Stage that overran.
        stage: FlowStage,
        /// The budget that was exceeded, milliseconds.
        budget_ms: u64,
    },
    /// The run was cancelled cooperatively (an explicit cancel, or a
    /// run deadline observed through the [`crate::CancelToken`]
    /// chain). The supervisor unwinds immediately and the executor maps
    /// it to a typed [`crate::PointOutcome`].
    Cancelled {
        /// The stage the cancellation was observed in (or at entry to).
        stage: FlowStage,
    },
}

impl FlowError {
    /// The stage this error is attributed to, when unambiguous from the
    /// error itself. `Config` pre-dates all stages and returns `None`.
    pub fn stage(&self) -> Option<FlowStage> {
        match self {
            FlowError::Config(_) => None,
            FlowError::Library(_) => Some(FlowStage::Library),
            FlowError::Synth(_) => Some(FlowStage::Synthesis),
            FlowError::Place(_) => Some(FlowStage::Placement),
            FlowError::Route(_) => Some(FlowStage::Routing),
            // STA/power/extraction/SPICE run inside several stages; the
            // supervisor's trace spans carry the precise stage.
            FlowError::Sta(_)
            | FlowError::Power(_)
            | FlowError::Extract(_)
            | FlowError::Spice(_) => None,
            FlowError::Injected { stage, .. } => Some(*stage),
            FlowError::StagePanicked { stage, .. } => Some(*stage),
            FlowError::DeadlineExceeded { stage, .. } => Some(*stage),
            FlowError::Cancelled { stage } => Some(*stage),
        }
    }
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Config(e) => write!(f, "invalid flow config: {e}"),
            FlowError::Library(e) => write!(f, "library stage: {e}"),
            FlowError::Synth(e) => write!(f, "synthesis stage: {e}"),
            FlowError::Place(e) => write!(f, "placement stage: {e}"),
            FlowError::Route(e) => write!(f, "routing stage: {e}"),
            FlowError::Sta(e) => write!(f, "timing analysis: {e}"),
            FlowError::Power(e) => write!(f, "power analysis: {e}"),
            FlowError::Extract(e) => write!(f, "parasitic extraction: {e}"),
            FlowError::Spice(e) => write!(f, "spice characterization: {e}"),
            FlowError::Injected { stage, detail } => {
                write!(f, "injected fault in {stage}: {detail}")
            }
            FlowError::StagePanicked { stage, payload } => {
                write!(f, "stage {stage} panicked: {payload}")
            }
            FlowError::DeadlineExceeded { stage, budget_ms } => {
                write!(f, "stage {stage} exceeded its {budget_ms} ms deadline")
            }
            FlowError::Cancelled { stage } => {
                write!(f, "run cancelled at stage {stage}")
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Config(e) => Some(e),
            FlowError::Library(e) => Some(e),
            FlowError::Synth(e) => Some(e),
            FlowError::Place(e) => Some(e),
            FlowError::Route(e) => Some(e),
            FlowError::Sta(e) => Some(e),
            FlowError::Power(e) => Some(e),
            FlowError::Extract(e) => Some(e),
            FlowError::Spice(e) => Some(e),
            FlowError::Injected { .. }
            | FlowError::StagePanicked { .. }
            | FlowError::DeadlineExceeded { .. }
            | FlowError::Cancelled { .. } => None,
        }
    }
}

macro_rules! from_stage_error {
    ($($src:ty => $variant:ident),* $(,)?) => {
        $(impl From<$src> for FlowError {
            fn from(e: $src) -> Self {
                FlowError::$variant(e)
            }
        })*
    };
}

from_stage_error!(
    ConfigError => Config,
    LibraryError => Library,
    SynthError => Synth,
    PlaceError => Place,
    RouteError => Route,
    StaError => Sta,
    PowerError => Power,
    ExtractError => Extract,
    SpiceError => Spice,
);

/// Why the persistent artifact store degraded to its in-memory tier.
///
/// Store failures are deliberately *not* [`FlowError`]s: the store's
/// contract is that no disk-tier failure ever fails a flow — any I/O
/// error flips the store into in-memory-only operation instead
/// (`crate::store`). This type classifies the failure once, pairing a
/// stable low-cardinality `reason` key (the `store_degraded` trace
/// event's payload) with the full detail for diagnostics on stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFailure {
    /// Stable failure class: `"permission_denied"`, `"read_only"`,
    /// `"storage_full"`, `"injected"` or `"io_error"`.
    pub reason: &'static str,
    /// Free-form rendering of the underlying failure.
    pub detail: String,
}

impl StoreFailure {
    /// Classifies an I/O error from store operation `op`.
    pub fn io(op: &'static str, err: &std::io::Error) -> Self {
        let reason = match err.kind() {
            std::io::ErrorKind::PermissionDenied => "permission_denied",
            std::io::ErrorKind::ReadOnlyFilesystem => "read_only",
            std::io::ErrorKind::StorageFull | std::io::ErrorKind::QuotaExceeded => "storage_full",
            _ => "io_error",
        };
        StoreFailure {
            reason,
            detail: format!("{op}: {err}"),
        }
    }

    /// A fault planted by the chaos harness
    /// (`crate::faultinject::StoreFaultKind::StoreDirUnwritable`).
    pub fn injected(detail: impl Into<String>) -> Self {
        StoreFailure {
            reason: "injected",
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for StoreFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store degraded ({}): {}", self.reason, self.detail)
    }
}

impl std::error::Error for StoreFailure {}
