//! The stage graph: one [`Stage`] per paper pipeline step (Fig. 1),
//! each reading and writing the typed [`FlowContext`] artifact store.
//!
//! The graph replaces the old monolithic `Flow::try_run`: stage bodies
//! are addressable by [`FlowStage`] id or by short name (`"route"`,
//! `"signoff"`, …), so the supervisor's trace spans, deadlines and the
//! fault-injection harness all target *named* stages instead of
//! positions in a hard-coded call sequence. Each stage also declares
//! which [`crate::FlowConfig`] knobs it consumes — the contract behind
//! the [`crate::ArtifactCache`] key: a knob no stage consumes must not
//! split a cache entry (`tests` below tie the two together).

use m3d_cells::CellLibrary;
use m3d_netlist::Netlist;
use m3d_place::Placer;
use m3d_power::{try_analyze_power, PowerConfig};
use m3d_route::{LayerUsage, RoutedDesign, Router};
use m3d_sta::{
    plan_load_sizing, plan_power_recovery, plan_timing_moves, try_analyze, OptMove, StaError,
    TimingGraph,
};
use m3d_synth::{try_synthesize, SynthConfig, WireLoadModel};
use m3d_tech::{DesignStyle, MetalStack};

use crate::artifacts::FlowContext;
use crate::error::{FlowError, FlowStage};
use crate::flow::{apply_moves, estimate_models, try_extraction_models, FlowEnv, FlowResult};
use crate::govern::check;

/// One step of the sign-off pipeline, operating on the shared
/// [`FlowContext`].
///
/// Stages are stateless: all inputs come from the context (artifacts of
/// earlier stages, the run config, the shared cache) and all outputs go
/// back into it, which is what lets the supervisor contain and time them
/// generically.
pub trait Stage: std::fmt::Debug + Send + Sync {
    /// The pipeline position this stage implements.
    fn id(&self) -> FlowStage;

    /// Stable short name (`"route"`, `"signoff"`, …) — how fault plans
    /// and deadline tables address the stage.
    fn name(&self) -> &'static str {
        self.id().key()
    }

    /// The [`crate::FlowConfig`] field names this stage reads, directly
    /// or via the environment it builds. The union across the graph is
    /// the [`crate::ArtifactCache`] flow-key contract.
    fn consumes(&self) -> &'static [&'static str];

    /// Runs the stage against the context.
    ///
    /// # Errors
    ///
    /// Returns the stage's typed [`FlowError`]; a
    /// [`FlowError::MissingArtifact`] indicates a sequencing bug in the
    /// driver, not bad data.
    fn run(&self, cx: &mut FlowContext) -> Result<(), FlowError>;
}

/// Borrows the resolved environment, or reports which stage ran too
/// early.
fn need_env(env: &Option<FlowEnv>, stage: FlowStage) -> Result<&FlowEnv, FlowError> {
    env.as_ref().ok_or(FlowError::missing("environment", stage))
}

/// The router configured for this flow, borrowing the environment.
pub(crate) fn router(env: &FlowEnv, mb1_routing: bool) -> Router<'_> {
    let r = Router::new(&env.node, &env.stack);
    if mb1_routing {
        r
    } else {
        r.without_mb1()
    }
}

/// The route summary sign-off reports: total wirelength (µm) and layer
/// usage.
fn route_summary(routed: &RoutedDesign) -> (f64, LayerUsage) {
    (routed.total_wirelength_um(), LayerUsage::of(routed))
}

/// Rebuilds `graph` when `moves` changed the netlist's topology
/// (repeater insertion) and returns the graph it replaced, so a
/// rollback can restore it. Resizes keep the topology and the graph.
fn refresh_graph(
    graph: &mut TimingGraph,
    netlist: &Netlist,
    lib: &CellLibrary,
    moves: &[OptMove],
) -> Result<Option<TimingGraph>, StaError> {
    if !moves.iter().any(|m| matches!(m, OptMove::BufferNet { .. })) {
        return Ok(None);
    }
    let fresh = TimingGraph::build(netlist, lib)?;
    Ok(Some(std::mem::replace(graph, fresh)))
}

/// Library preparation: validated config, characterized (cached)
/// library, metal stack, and the effective clock / utilization /
/// pass-budget targets.
#[derive(Debug)]
pub struct LibraryStage;

impl Stage for LibraryStage {
    fn id(&self) -> FlowStage {
        FlowStage::Library
    }

    fn consumes(&self) -> &'static [&'static str] {
        &[
            "node_id",
            "stack_kind",
            "clock_ps",
            "clock_scale",
            "utilization",
            "opt_passes",
            "pin_cap_scale",
            "lower_metal_rho",
        ]
    }

    fn run(&self, cx: &mut FlowContext) -> Result<(), FlowError> {
        let cfg = &cx.config;
        cfg.validate()?;
        let node = cfg.tech_node();
        let stack_kind = cfg.stack_kind.unwrap_or(cx.style.default_stack());
        let stack = MetalStack::new(&node, stack_kind);
        let lib = cx.cache.library(
            cfg.node_id,
            cx.style,
            cfg.lower_metal_rho,
            cfg.pin_cap_scale,
        )?;
        let clock_ps = cfg
            .clock_ps
            .unwrap_or_else(|| cx.bench.target_clock_ps(cfg.node_id))
            * cfg.effective_clock_scale(cx.bench);
        let utilization = cfg
            .utilization
            .unwrap_or_else(|| cx.bench.target_utilization());
        cx.env = Some(FlowEnv {
            node,
            stack,
            lib,
            clock_ps,
            utilization,
            opt_passes: cfg.opt_passes,
        });
        Ok(())
    }
}

/// Synthesis: wire-load model measured on a preliminary placement,
/// WLM-guided synthesis, and the per-stage delay target derived from
/// the synthesized logic depth.
#[derive(Debug)]
pub struct SynthesisStage;

impl Stage for SynthesisStage {
    fn id(&self) -> FlowStage {
        FlowStage::Synthesis
    }

    fn consumes(&self) -> &'static [&'static str] {
        &["bench_scale", "tmi_wlm", "node_id", "lower_metal_rho"]
    }

    fn run(&self, cx: &mut FlowContext) -> Result<(), FlowError> {
        let FlowContext {
            bench,
            style,
            config: cfg,
            cache,
            env,
            art,
            ..
        } = cx;
        let env = need_env(env, FlowStage::Synthesis)?;
        let raw = bench.generate(&env.lib, cfg.bench_scale);
        let wlm = if cfg.tmi_wlm || *style == DesignStyle::TwoD {
            let prelim = Placer::new(&env.lib)
                .utilization(env.utilization)
                .iterations(16)
                .try_place(&raw)?;
            WireLoadModel::from_placement(&raw, &prelim)
        } else {
            // Table 15 "-n": synthesize the T-MI design against the WLM
            // measured on the *2D* implementation.
            let lib2d = cache.library(cfg.node_id, DesignStyle::TwoD, cfg.lower_metal_rho, 1.0)?;
            let raw2d = bench.generate(&lib2d, cfg.bench_scale);
            let prelim = Placer::new(&lib2d)
                .utilization(env.utilization)
                .iterations(16)
                .try_place(&raw2d)?;
            WireLoadModel::from_placement(&raw2d, &prelim)
        };
        check(FlowStage::Synthesis)?;
        let netlist = try_synthesize(raw, &env.lib, &wlm, &SynthConfig::new(env.clock_ps))?;

        // Per-stage delay target for load-based sizing: a share of the
        // clock budget divided by the design's logic depth.
        let tau_ps = {
            let (levels, _) = m3d_netlist::levelize(&netlist, &env.lib).map_err(|cycle| {
                StaError::CombinationalCycle {
                    involved: cycle.len(),
                }
            })?;
            let depth = levels.iter().copied().max().unwrap_or(1) as f64 + 3.0;
            (0.55 * env.clock_ps / depth).clamp(20.0, 200.0)
        };
        art.netlist = Some(netlist);
        art.wlm = Some(wlm);
        art.tau_ps = tau_ps;
        art.placement = None;
        art.models = Vec::new();
        art.route = None;
        art.wns_after_opt = 0.0;
        Ok(())
    }
}

/// Placement: global placement, then load-based sizing gated on need —
/// drivers are mapped to their placed loads only while the design
/// misses its clock (iterated because sizing moves the loads).
#[derive(Debug)]
pub struct PlacementStage;

impl Stage for PlacementStage {
    fn id(&self) -> FlowStage {
        FlowStage::Placement
    }

    fn consumes(&self) -> &'static [&'static str] {
        &["place_iterations"]
    }

    fn run(&self, cx: &mut FlowContext) -> Result<(), FlowError> {
        let FlowContext {
            config: cfg,
            env,
            art,
            ..
        } = cx;
        let env = need_env(env, FlowStage::Placement)?;
        let timing = env.timing();
        let tau_ps = art.tau_ps;
        let netlist = art
            .netlist
            .as_mut()
            .ok_or(FlowError::missing("netlist", FlowStage::Placement))?;
        let mut placement = Placer::new(&env.lib)
            .utilization(env.utilization)
            .iterations(cfg.place_iterations)
            .try_place(netlist)?;
        let mut graph = TimingGraph::build(netlist, &env.lib)?;
        for _ in 0..3 {
            check(FlowStage::Placement)?;
            let est = estimate_models(netlist, &placement, &env.node, &env.stack);
            let report = graph.analyze(netlist, &env.lib, &est, &timing)?;
            if report.met() {
                break;
            }
            let moves = plan_load_sizing(netlist, &env.lib, &est, tau_ps);
            if moves.is_empty() {
                break;
            }
            apply_moves(netlist, &mut placement, &env.lib, &moves);
            refresh_graph(&mut graph, netlist, &env.lib, &moves)?;
        }
        art.placement = Some(placement);
        Ok(())
    }
}

/// Pre-route optimization on placement-based estimates. Passes are
/// accept/reject: a pass that does not improve WNS is rolled back and
/// the loop stops. An accepted pass's estimates and report carry into
/// the next pass, which would only recompute them.
#[derive(Debug)]
pub struct PreRouteOptStage;

impl Stage for PreRouteOptStage {
    fn id(&self) -> FlowStage {
        FlowStage::PreRouteOpt
    }

    fn consumes(&self) -> &'static [&'static str] {
        &[]
    }

    fn run(&self, cx: &mut FlowContext) -> Result<(), FlowError> {
        let FlowContext { env, art, .. } = cx;
        let env = need_env(env, FlowStage::PreRouteOpt)?;
        let timing = env.timing();
        let netlist = art
            .netlist
            .as_mut()
            .ok_or(FlowError::missing("netlist", FlowStage::PreRouteOpt))?;
        let mut placement = art
            .placement
            .take()
            .ok_or(FlowError::missing("placement", FlowStage::PreRouteOpt))?;
        let mut graph = TimingGraph::build(netlist, &env.lib)?;
        let mut est = estimate_models(netlist, &placement, &env.node, &env.stack);
        let mut report = graph.analyze(netlist, &env.lib, &est, &timing)?;
        let mut last_wns = f64::NEG_INFINITY;
        for pass in 0..env.opt_passes {
            check(FlowStage::PreRouteOpt)?;
            if report.met() {
                break;
            }
            if pass > 0 && report.wns <= last_wns {
                break;
            }
            last_wns = report.wns;
            let limit = 3000.max(netlist.net_count() / 4);
            let moves = plan_timing_moves(netlist, &env.lib, &est, &report, limit);
            if moves.is_empty() {
                break;
            }
            let saved = (netlist.clone(), placement.clone());
            apply_moves(netlist, &mut placement, &env.lib, &moves);
            // A rejected pass ends the stage, so the graph it replaced
            // is never needed again.
            refresh_graph(&mut graph, netlist, &env.lib, &moves)?;
            check(FlowStage::PreRouteOpt)?;
            let est2 = estimate_models(netlist, &placement, &env.node, &env.stack);
            let report2 = graph.analyze(netlist, &env.lib, &est2, &timing)?;
            if report2.wns < report.wns {
                *netlist = saved.0;
                placement = saved.1;
                break;
            }
            est = est2;
            report = report2;
        }
        art.placement = Some(placement);
        Ok(())
    }
}

/// Routing: global route and extraction, then up to two load-sizing
/// rounds against the extracted loads.
///
/// Load sizing only resizes cells in place, and routing depends on
/// connectivity and positions alone, so the route and its extraction
/// stay valid for the resized netlist: there is no re-route here. The
/// routed design itself is dropped once extracted; only its models and
/// summary (wirelength, layer usage) become artifacts.
#[derive(Debug)]
pub struct RoutingStage;

impl Stage for RoutingStage {
    fn id(&self) -> FlowStage {
        FlowStage::Routing
    }

    fn consumes(&self) -> &'static [&'static str] {
        &["mb1_routing"]
    }

    fn run(&self, cx: &mut FlowContext) -> Result<(), FlowError> {
        let FlowContext {
            config: cfg,
            env,
            art,
            ..
        } = cx;
        let env = need_env(env, FlowStage::Routing)?;
        let timing = env.timing();
        let router = router(env, cfg.mb1_routing);
        let netlist = art
            .netlist
            .as_mut()
            .ok_or(FlowError::missing("netlist", FlowStage::Routing))?;
        let mut placement = art
            .placement
            .take()
            .ok_or(FlowError::missing("placement", FlowStage::Routing))?;
        let (models, route) = {
            let routed = router.try_route(netlist, &placement, &env.lib)?;
            check(FlowStage::Routing)?;
            let models = try_extraction_models(netlist, &routed, &env.node)?;
            (models, route_summary(&routed))
        };
        let mut graph = TimingGraph::build(netlist, &env.lib)?;
        for _ in 0..2 {
            check(FlowStage::Routing)?;
            let report = graph.analyze(netlist, &env.lib, &models, &timing)?;
            if report.met() {
                break;
            }
            let moves = plan_load_sizing(netlist, &env.lib, &models, art.tau_ps);
            if moves.is_empty() {
                break;
            }
            apply_moves(netlist, &mut placement, &env.lib, &moves);
            refresh_graph(&mut graph, netlist, &env.lib, &moves)?;
        }
        art.placement = Some(placement);
        art.models = models;
        art.route = Some(route);
        Ok(())
    }
}

/// Post-route optimization (accept/reject passes) followed by
/// iso-performance power recovery: cells with slack are repeatedly
/// downsized until nothing more fits ("with a better timing, cells are
/// downsized", Section 4.1), verified per round.
///
/// The current state is timed once up front; every accepted pass and
/// verified round then carries its report forward, since the next step
/// would only time the same netlist against the same models again. An
/// accepted pass also replaces the route summary. Recovery only
/// resizes, so the last accepted route still holds at sign-off.
#[derive(Debug)]
pub struct PostRouteOptStage;

impl Stage for PostRouteOptStage {
    fn id(&self) -> FlowStage {
        FlowStage::PostRouteOpt
    }

    fn consumes(&self) -> &'static [&'static str] {
        &["mb1_routing"]
    }

    fn run(&self, cx: &mut FlowContext) -> Result<(), FlowError> {
        let FlowContext {
            config: cfg,
            env,
            art,
            ..
        } = cx;
        let env = need_env(env, FlowStage::PostRouteOpt)?;
        let timing = env.timing();
        let router = router(env, cfg.mb1_routing);
        let netlist = art
            .netlist
            .as_mut()
            .ok_or(FlowError::missing("netlist", FlowStage::PostRouteOpt))?;
        let mut placement = art
            .placement
            .take()
            .ok_or(FlowError::missing("placement", FlowStage::PostRouteOpt))?;
        let mut graph = TimingGraph::build(netlist, &env.lib)?;
        let mut report = graph.analyze(netlist, &env.lib, &art.models, &timing)?;
        for _ in 0..env.opt_passes {
            check(FlowStage::PostRouteOpt)?;
            if report.met() {
                break;
            }
            let limit = 2000.max(netlist.net_count() / 4);
            let moves = plan_timing_moves(netlist, &env.lib, &art.models, &report, limit);
            if moves.is_empty() {
                break;
            }
            let saved = (netlist.clone(), placement.clone());
            apply_moves(netlist, &mut placement, &env.lib, &moves);
            let saved_graph = refresh_graph(&mut graph, netlist, &env.lib, &moves)?;
            check(FlowStage::PostRouteOpt)?;
            let (new_models, new_route) = {
                let routed = router.try_route(netlist, &placement, &env.lib)?;
                check(FlowStage::PostRouteOpt)?;
                let models = try_extraction_models(netlist, &routed, &env.node)?;
                (models, route_summary(&routed))
            };
            check(FlowStage::PostRouteOpt)?;
            let report2 = graph.analyze(netlist, &env.lib, &new_models, &timing)?;
            if report2.wns < report.wns {
                *netlist = saved.0;
                placement = saved.1;
                if let Some(g) = saved_graph {
                    graph = g;
                }
                break;
            }
            art.models = new_models;
            art.route = Some(new_route);
            report = report2;
        }

        let recovery_batch = 500.max(netlist.instance_count() / 6);
        for _ in 0..20 {
            check(FlowStage::PostRouteOpt)?;
            if !report.met() {
                break;
            }
            let margin = 0.02 * env.clock_ps;
            let moves = plan_power_recovery(netlist, &env.lib, &report, margin, recovery_batch);
            if moves.is_empty() {
                break;
            }
            let saved = netlist.clone();
            apply_moves(netlist, &mut placement, &env.lib, &moves);
            check(FlowStage::PostRouteOpt)?;
            let verified = graph.analyze(netlist, &env.lib, &art.models, &timing)?;
            if !verified.met() {
                *netlist = saved;
                break;
            }
            report = verified;
        }
        art.wns_after_opt = report.wns;
        art.placement = Some(placement);
        Ok(())
    }
}

/// Sign-off: timing and power analysis of the final netlist against
/// the models of its last route, and result assembly into the context.
///
/// Sign-off does not route: the routing stage, or the last accepted
/// post-route pass, left the models and route summary of the final
/// placement, and power recovery only resized cells since, which
/// changes no route. A floorplan revert restores round 1's models and
/// summary along with its netlist.
#[derive(Debug)]
pub struct SignOffStage;

impl Stage for SignOffStage {
    fn id(&self) -> FlowStage {
        FlowStage::SignOff
    }

    fn consumes(&self) -> &'static [&'static str] {
        &["alpha_ff", "node_id"]
    }

    fn run(&self, cx: &mut FlowContext) -> Result<(), FlowError> {
        let FlowContext {
            bench,
            style,
            config: cfg,
            env,
            art,
            result,
            ..
        } = cx;
        let env = need_env(env, FlowStage::SignOff)?;
        let timing = env.timing();
        let netlist = art
            .netlist
            .as_ref()
            .ok_or(FlowError::missing("netlist", FlowStage::SignOff))?;
        let wlm = art
            .wlm
            .as_ref()
            .ok_or(FlowError::missing("wire-load model", FlowStage::SignOff))?;
        let placement = art
            .placement
            .as_ref()
            .ok_or(FlowError::missing("placement", FlowStage::SignOff))?;
        let (wirelength_um, layer_usage) = art
            .route
            .clone()
            .ok_or(FlowError::missing("route summary", FlowStage::SignOff))?;
        let report = try_analyze(netlist, &env.lib, &art.models, &timing)?;
        check(FlowStage::SignOff)?;
        let power = try_analyze_power(
            netlist,
            &env.lib,
            &art.models,
            &PowerConfig::new(env.clock_ps).with_alpha_ff(cfg.alpha_ff),
        )?;
        let stats = netlist.stats(&env.lib);
        let res = FlowResult {
            bench: *bench,
            style: *style,
            node_id: cfg.node_id,
            clock_ps: env.clock_ps,
            hold_wns_ps: report.hold_wns,
            footprint_um2: placement.footprint_um2(),
            core_um: (
                placement.core.width() as f64 * 1e-3,
                placement.core.height() as f64 * 1e-3,
            ),
            cell_count: stats.cell_count,
            buffer_count: stats.buffer_count,
            utilization: placement.utilization,
            wirelength_um,
            wns_ps: report.wns,
            power,
            layer_usage,
            wlm_curve: wlm.curve().to_vec(),
        };
        *result = Some(res);
        Ok(())
    }
}

/// The paper's pipeline as an ordered, name-addressable stage graph.
#[derive(Debug)]
pub struct StageGraph {
    stages: Vec<Box<dyn Stage>>,
}

impl StageGraph {
    /// The seven-stage pipeline of paper Fig. 1, in execution order.
    pub fn paper_pipeline() -> Self {
        StageGraph {
            stages: vec![
                Box::new(LibraryStage),
                Box::new(SynthesisStage),
                Box::new(PlacementStage),
                Box::new(PreRouteOptStage),
                Box::new(RoutingStage),
                Box::new(PostRouteOptStage),
                Box::new(SignOffStage),
            ],
        }
    }

    /// The stage implementing a pipeline position.
    ///
    /// # Panics
    ///
    /// Panics when the graph is missing the stage — impossible for
    /// [`StageGraph::paper_pipeline`], which carries all of
    /// [`FlowStage::ALL`].
    pub fn stage(&self, id: FlowStage) -> &dyn Stage {
        self.stages
            .iter()
            .map(|s| &**s)
            .find(|s| s.id() == id)
            .unwrap_or_else(|| panic!("stage graph is missing stage '{}'", id.key()))
    }

    /// Resolves a stage by short name or display name.
    pub fn by_name(&self, name: &str) -> Option<&dyn Stage> {
        FlowStage::from_name(name).map(|id| self.stage(id))
    }

    /// The stages in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Stage> {
        self.stages.iter().map(|s| &**s)
    }

    /// The stage short names in execution order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.iter().map(|s| s.name())
    }

    /// The stage a fault-free flow enters at.
    pub fn entry_stage(&self) -> FlowStage {
        FlowStage::Library
    }

    /// The stage a closed flow exits from.
    pub fn exit_stage(&self) -> FlowStage {
        FlowStage::SignOff
    }

    /// Whether `from -> to` is a legal transition between *successful*
    /// stage completions of one flow: the pipeline's forward edges,
    /// plus the floorplan back edge — post-route optimization may
    /// return to placement when the cell area drifted from the
    /// floorplan basis (the two-round loop of paper Fig. 1). The
    /// golden-trace suite (`tests/observe.rs`) replays recorded event
    /// streams against exactly this relation.
    pub fn legal_transition(&self, from: FlowStage, to: FlowStage) -> bool {
        use FlowStage::*;
        matches!(
            (from, to),
            (Library, Synthesis)
                | (Synthesis, Placement)
                | (Placement, PreRouteOpt)
                | (PreRouteOpt, Routing)
                | (Routing, PostRouteOpt)
                | (PostRouteOpt, SignOff)
                | (PostRouteOpt, Placement)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_covers_all_stages_in_order() {
        let graph = StageGraph::paper_pipeline();
        let ids: Vec<FlowStage> = graph.iter().map(|s| s.id()).collect();
        assert_eq!(ids, FlowStage::ALL.to_vec());
        let names: Vec<&str> = graph.names().collect();
        assert_eq!(
            names,
            [
                "library",
                "synth",
                "place",
                "preroute",
                "route",
                "postroute",
                "signoff"
            ]
        );
    }

    #[test]
    fn stages_resolve_by_short_and_display_name() {
        let graph = StageGraph::paper_pipeline();
        assert_eq!(
            graph.by_name("route").map(|s| s.id()),
            Some(FlowStage::Routing)
        );
        assert_eq!(
            graph.by_name("post-route optimization").map(|s| s.id()),
            Some(FlowStage::PostRouteOpt)
        );
        assert!(graph.by_name("no-such-stage").is_none());
    }

    #[test]
    fn legal_transitions_are_the_pipeline_plus_floorplan_back_edge() {
        let graph = StageGraph::paper_pipeline();
        assert_eq!(graph.entry_stage(), FlowStage::Library);
        assert_eq!(graph.exit_stage(), FlowStage::SignOff);
        // Every adjacent pipeline pair is legal…
        for pair in FlowStage::ALL.windows(2) {
            assert!(
                graph.legal_transition(pair[0], pair[1]),
                "{} -> {} must be legal",
                pair[0].key(),
                pair[1].key()
            );
        }
        // …plus exactly one back edge (the floorplan round).
        assert!(graph.legal_transition(FlowStage::PostRouteOpt, FlowStage::Placement));
        let mut legal = 0;
        for from in FlowStage::ALL {
            for to in FlowStage::ALL {
                legal += usize::from(graph.legal_transition(from, to));
            }
        }
        assert_eq!(legal, 7, "6 forward edges + 1 back edge, nothing else");
        assert!(!graph.legal_transition(FlowStage::SignOff, FlowStage::Library));
        assert!(!graph.legal_transition(FlowStage::Library, FlowStage::Placement));
    }

    #[test]
    fn consumed_knobs_cover_every_flow_config_field() {
        // The cache-key contract: every FlowConfig field must be
        // consumed by some stage (else the flow key over-splits), and
        // nothing a stage consumes may be missing from the config.
        let all_fields = [
            "node_id",
            "bench_scale",
            "stack_kind",
            "clock_ps",
            "utilization",
            "tmi_wlm",
            "pin_cap_scale",
            "lower_metal_rho",
            "alpha_ff",
            "mb1_routing",
            "opt_passes",
            "place_iterations",
            "clock_scale",
        ];
        let graph = StageGraph::paper_pipeline();
        let consumed: std::collections::BTreeSet<&str> = graph
            .iter()
            .flat_map(|s| s.consumes().iter().copied())
            .collect();
        for field in all_fields {
            assert!(consumed.contains(field), "no stage consumes '{field}'");
        }
        for knob in &consumed {
            assert!(
                all_fields.contains(knob),
                "stage consumes unknown knob '{knob}'"
            );
        }
    }
}
