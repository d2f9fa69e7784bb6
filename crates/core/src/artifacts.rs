//! The typed artifact store the stage graph reads and writes.
//!
//! A [`FlowContext`] carries one flow run: the immutable run request
//! (benchmark, style, config, cache handle) plus every artifact the
//! stages produce — the resolved environment, the working design state
//! (`Artifacts`) and the sign-off [`crate::FlowResult`]. Stages
//! communicate *only* through the context; a stage that asks for an
//! artifact no earlier stage produced gets a typed
//! [`FlowError::MissingArtifact`](crate::FlowError), not a panic.
//!
//! `Artifacts` is also the floorplan loop's snapshot unit: round 1's
//! copy is what sign-off reports when a second round closes worse.

use std::sync::Arc;

use m3d_netlist::{Benchmark, Netlist};
use m3d_place::Placement;
use m3d_route::LayerUsage;
use m3d_sta::NetModel;
use m3d_synth::WireLoadModel;
use m3d_tech::DesignStyle;

use crate::cache::ArtifactCache;
use crate::flow::{FlowConfig, FlowEnv, FlowResult};

/// The working design state: everything a stage produces that later
/// stages consume.
#[derive(Debug, Clone, Default)]
pub(crate) struct Artifacts {
    /// Synthesized (and later sized) netlist.
    pub(crate) netlist: Option<Netlist>,
    /// The wire-load model synthesis ran against (Fig. 6 data).
    pub(crate) wlm: Option<WireLoadModel>,
    /// Per-stage delay target for load-based sizing, ps.
    pub(crate) tau_ps: f64,
    /// Current placement.
    pub(crate) placement: Option<Placement>,
    /// Extracted per-net RC models.
    pub(crate) models: Vec<NetModel>,
    /// Wirelength (µm) and layer usage of the route `models` was
    /// extracted from. Resizing changes no route, so sign-off reports
    /// this summary instead of routing the final netlist again.
    pub(crate) route: Option<(f64, LayerUsage)>,
    /// WNS measured at the end of post-route optimization, ps — the
    /// floorplan-round accept/revert signal.
    pub(crate) wns_after_opt: f64,
}

/// Everything one flow run reads and writes: the run request, the
/// shared [`ArtifactCache`], and the artifacts the stages produce.
#[derive(Debug)]
pub struct FlowContext {
    /// Benchmark the run targets.
    pub(crate) bench: Benchmark,
    /// Design style the run targets.
    pub(crate) style: DesignStyle,
    /// The run's configuration knobs.
    pub(crate) config: FlowConfig,
    /// Shared memo layer for cell libraries (and, at the `Flow` level,
    /// completed results).
    pub(crate) cache: Arc<ArtifactCache>,
    /// Resolved run environment, produced by the library stage.
    pub(crate) env: Option<FlowEnv>,
    /// The working design state.
    pub(crate) art: Artifacts,
    /// The sign-off result, produced by the sign-off stage.
    pub(crate) result: Option<FlowResult>,
}

impl FlowContext {
    /// A fresh context for one run: no artifacts yet.
    pub fn new(
        bench: Benchmark,
        style: DesignStyle,
        config: FlowConfig,
        cache: Arc<ArtifactCache>,
    ) -> Self {
        FlowContext {
            bench,
            style,
            config,
            cache,
            env: None,
            art: Artifacts::default(),
            result: None,
        }
    }
}
