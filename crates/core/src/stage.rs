//! The paper's pipeline steps (Fig. 1) as plain functions with typed
//! inputs and outputs.
//!
//! [`crate::FlowSupervisor`] calls them in their one fixed order, each
//! inside its traced, contained stage span: [`library`] builds the
//! [`FlowEnv`], [`synthesize`] returns the netlist, its wire-load model
//! and the sizing target τ, [`place`] returns a [`Placement`],
//! [`preroute`], [`route`] and [`postroute`] work on the design state in
//! place, and [`signoff`] returns the [`FlowResult`]. G-MI
//! ([`crate::gmi::run_gmi`]) shares the library and synthesis steps.
//! What each stage reads of the [`crate::FlowConfig`] is
//! [`FlowStage::consumes`], the contract behind the
//! [`crate::ArtifactCache`] key (`tests` below tie the two together).

use std::sync::Arc;

use m3d_cells::CellLibrary;
use m3d_netlist::{Benchmark, Netlist};
use m3d_place::{Placement, Placer};
use m3d_power::{try_analyze_power, PowerConfig};
use m3d_route::{LayerUsage, RoutedDesign, Router};
use m3d_sta::{
    plan_load_sizing, plan_power_recovery, plan_timing_moves, try_analyze, NetModel, OptMove,
    StaError, TimingGraph,
};
use m3d_synth::{try_synthesize, SynthConfig, WireLoadModel};
use m3d_tech::{DesignStyle, MetalStack};

use crate::cache::{ArtifactCache, Request, WlmKey};
use crate::error::{FlowError, FlowStage};
use crate::flow::{
    apply_moves, default_clock_scale_at, estimate_models, try_extraction_models, EditLog,
    FlowConfig, FlowEnv, FlowResult,
};
use crate::govern::check;

/// The accept/reject pass budget of pre- and post-route optimization.
pub(crate) const OPT_PASSES: usize = 4;

/// The routed design state: what post-route optimization works on and
/// what sign-off reports. The floorplan loop keeps round 1's design but
/// its netlist when it runs a second round, and gets that netlist back
/// by undoing round 2's logged edits. Only tests clone it.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Design {
    /// The synthesized, sized and buffered netlist.
    pub(crate) netlist: Netlist,
    /// Its placement.
    pub(crate) placement: Placement,
    /// Extracted per-net RC models.
    pub(crate) models: Vec<NetModel>,
    /// Wirelength (µm) and layer usage of the route `models` was
    /// extracted from. Resizing changes no route, so sign-off reports
    /// this summary instead of routing the final netlist again.
    pub(crate) route: (f64, LayerUsage),
    /// WNS measured at the end of post-route optimization, ps — the
    /// floorplan-round accept/revert signal.
    pub(crate) wns_after_opt: f64,
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
/// (repeater insertion) and returns the graph it replaced, so an undo
/// can restore it. Resizes keep the topology and the graph.
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
/// library, metal stack, and the effective clock and utilization
/// targets.
pub(crate) fn library(
    bench: Benchmark,
    style: DesignStyle,
    cfg: &FlowConfig,
    cache: &ArtifactCache,
) -> Result<FlowEnv, FlowError> {
    cfg.validate()?;
    let node = cfg.tech_node();
    let stack_kind = cfg.stack_kind.unwrap_or(style.default_stack());
    let stack = MetalStack::new(&node, stack_kind);
    let lib = cache.library(cfg.node_id, style, cfg.lower_metal_rho, cfg.pin_cap_scale)?;
    let clock_ps = cfg
        .clock_ps
        .unwrap_or_else(|| bench.target_clock_ps(cfg.node_id))
        * default_clock_scale_at(bench, cfg.node_id);
    Ok(FlowEnv {
        node,
        stack,
        lib,
        clock_ps,
        utilization: bench.target_utilization(),
    })
}

/// The wire-load model under `key` (paper Fig. 6, §3.2), memoized: a
/// miss places the generated netlist for 16 iterations and bins its net
/// lengths by fanout. `held` is the library and the netlist generated on
/// it that the caller already holds for `key`, so a miss generates no
/// second netlist; without it a miss fetches the library and generates.
pub(crate) fn wire_load_model(
    cache: &ArtifactCache,
    key: &WlmKey,
    held: Option<(&CellLibrary, &Netlist)>,
) -> Result<Arc<WireLoadModel>, FlowError> {
    cache.wlm(key, || {
        let fetched;
        let (lib, raw) = match held {
            Some(held) => held,
            None => {
                let lib = cache.library_for(&key.netlist.lib, Request::Caller)?;
                let raw = key.netlist.bench.generate(&lib, key.netlist.bench_scale);
                fetched = (lib, raw);
                (&*fetched.0, &fetched.1)
            }
        };
        let prelim = Placer::new(lib)
            .utilization(key.netlist.bench.target_utilization())
            .iterations(16)
            .try_place(raw)?;
        Ok(WireLoadModel::from_placement(raw, &prelim))
    })
}

/// Synthesis: wire-load model measured on a preliminary placement,
/// WLM-guided synthesis, and the per-stage delay target τ (ps) derived
/// from the synthesized logic depth. Returns the netlist, its WLM and
/// τ.
pub(crate) fn synthesize(
    bench: Benchmark,
    style: DesignStyle,
    cfg: &FlowConfig,
    cache: &ArtifactCache,
    env: &FlowEnv,
) -> Result<(Netlist, Arc<WireLoadModel>, f64), FlowError> {
    let raw = bench.generate(&env.lib, cfg.bench_scale);
    // The WLM is measured on this flow's own library, except under
    // Table 15 "-n": the T-MI design is synthesized against the WLM
    // measured on the *2D* implementation.
    let key = WlmKey::of(bench, style, cfg);
    let held = (key.netlist.lib.style == style).then_some((&*env.lib, &raw));
    let wlm = wire_load_model(cache, &key, held)?;
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
    Ok((netlist, wlm, tau_ps))
}

/// Placement: global placement, then load-based sizing gated on need —
/// drivers are mapped to their placed loads only while the design
/// misses its clock (iterated because sizing moves the loads). Every
/// edit goes to `log`, as in the stages after it.
pub(crate) fn place(
    env: &FlowEnv,
    cfg: &FlowConfig,
    tau_ps: f64,
    netlist: &mut Netlist,
    log: &mut EditLog,
) -> Result<Placement, FlowError> {
    let timing = env.timing();
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
        apply_moves(netlist, &mut placement, &env.lib, &moves, log);
        refresh_graph(&mut graph, netlist, &env.lib, &moves)?;
    }
    Ok(placement)
}

/// Pre-route optimization on placement-based estimates. Passes are
/// accept/reject: a pass that makes WNS worse is undone from `log`
/// back to the mark taken before it, and the loop stops. An accepted
/// pass's estimates and report carry into the next pass, which would
/// only recompute them.
pub(crate) fn preroute(
    env: &FlowEnv,
    netlist: &mut Netlist,
    placement: &mut Placement,
    log: &mut EditLog,
) -> Result<(), FlowError> {
    let timing = env.timing();
    let mut graph = TimingGraph::build(netlist, &env.lib)?;
    let mut est = estimate_models(netlist, placement, &env.node, &env.stack);
    let mut report = graph.analyze(netlist, &env.lib, &est, &timing)?;
    let mut last_wns = f64::NEG_INFINITY;
    for pass in 0..OPT_PASSES {
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
        let mark = log.mark();
        apply_moves(netlist, placement, &env.lib, &moves, log);
        // A rejected pass ends the stage, so the graph it replaced
        // is never needed again.
        refresh_graph(&mut graph, netlist, &env.lib, &moves)?;
        check(FlowStage::PreRouteOpt)?;
        let est2 = estimate_models(netlist, placement, &env.node, &env.stack);
        let report2 = graph.analyze(netlist, &env.lib, &est2, &timing)?;
        if report2.wns < report.wns {
            log.undo_to(mark, netlist, placement, &env.lib);
            break;
        }
        est = est2;
        report = report2;
    }
    Ok(())
}

/// Routing: global route and extraction, then up to two load-sizing
/// rounds against the extracted loads. Returns the extracted models
/// and the route summary (wirelength, layer usage).
///
/// Load sizing only resizes cells in place, and routing depends on
/// connectivity and positions alone, so the route and its extraction
/// stay valid for the resized netlist: there is no re-route here. The
/// routed design itself is dropped once extracted.
pub(crate) fn route(
    env: &FlowEnv,
    cfg: &FlowConfig,
    tau_ps: f64,
    netlist: &mut Netlist,
    placement: &mut Placement,
    log: &mut EditLog,
) -> Result<(Vec<NetModel>, (f64, LayerUsage)), FlowError> {
    let timing = env.timing();
    let (models, route) = {
        let routed = router(env, cfg.mb1_routing).try_route(netlist, placement, &env.lib)?;
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
        let moves = plan_load_sizing(netlist, &env.lib, &models, tau_ps);
        if moves.is_empty() {
            break;
        }
        apply_moves(netlist, placement, &env.lib, &moves, log);
        refresh_graph(&mut graph, netlist, &env.lib, &moves)?;
    }
    Ok((models, route))
}

/// Post-route optimization (accept/reject passes) followed by
/// iso-performance power recovery: cells with slack are repeatedly
/// downsized until nothing more fits ("with a better timing, cells are
/// downsized", Section 4.1), verified per round. Leaves the final WNS
/// in [`Design::wns_after_opt`]. A rejected pass or a failed recovery
/// round is undone from `log` back to the mark taken before it.
///
/// The current state is timed once up front; every accepted pass and
/// verified round then carries its report forward, since the next step
/// would only time the same netlist against the same models again. An
/// accepted pass also replaces the route summary. Recovery only
/// resizes, so the last accepted route still holds at sign-off.
pub(crate) fn postroute(
    env: &FlowEnv,
    cfg: &FlowConfig,
    design: &mut Design,
    log: &mut EditLog,
) -> Result<(), FlowError> {
    let timing = env.timing();
    let router = router(env, cfg.mb1_routing);
    let Design {
        netlist,
        placement,
        models,
        route,
        wns_after_opt,
    } = design;
    let mut graph = TimingGraph::build(netlist, &env.lib)?;
    let mut report = graph.analyze(netlist, &env.lib, models, &timing)?;
    for _ in 0..OPT_PASSES {
        check(FlowStage::PostRouteOpt)?;
        if report.met() {
            break;
        }
        let limit = 2000.max(netlist.net_count() / 4);
        let moves = plan_timing_moves(netlist, &env.lib, models, &report, limit);
        if moves.is_empty() {
            break;
        }
        let mark = log.mark();
        apply_moves(netlist, placement, &env.lib, &moves, log);
        let saved_graph = refresh_graph(&mut graph, netlist, &env.lib, &moves)?;
        check(FlowStage::PostRouteOpt)?;
        let (new_models, new_route) = {
            let routed = router.try_route(netlist, placement, &env.lib)?;
            check(FlowStage::PostRouteOpt)?;
            let models = try_extraction_models(netlist, &routed, &env.node)?;
            (models, route_summary(&routed))
        };
        check(FlowStage::PostRouteOpt)?;
        let report2 = graph.analyze(netlist, &env.lib, &new_models, &timing)?;
        if report2.wns < report.wns {
            log.undo_to(mark, netlist, placement, &env.lib);
            if let Some(g) = saved_graph {
                graph = g;
            }
            break;
        }
        *models = new_models;
        *route = new_route;
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
        let mark = log.mark();
        apply_moves(netlist, placement, &env.lib, &moves, log);
        check(FlowStage::PostRouteOpt)?;
        let verified = graph.analyze(netlist, &env.lib, models, &timing)?;
        if !verified.met() {
            log.undo_to(mark, netlist, placement, &env.lib);
            break;
        }
        report = verified;
    }
    *wns_after_opt = report.wns;
    Ok(())
}

/// Sign-off: timing and power analysis of the final netlist against
/// the models of its last route, and result assembly.
///
/// Sign-off does not route: the routing stage, or the last accepted
/// post-route pass, left the models and route summary of the final
/// placement, and power recovery only resized cells since, which
/// changes no route. A floorplan revert restores round 1's models and
/// summary along with its placement, and undoes round 2's edits back to
/// round 1's netlist.
pub(crate) fn signoff(
    bench: Benchmark,
    style: DesignStyle,
    cfg: &FlowConfig,
    env: &FlowEnv,
    wlm: &WireLoadModel,
    design: &Design,
) -> Result<FlowResult, FlowError> {
    let Design {
        netlist,
        placement,
        models,
        route: (wirelength_um, layer_usage),
        ..
    } = design;
    let report = try_analyze(netlist, &env.lib, models, &env.timing())?;
    check(FlowStage::SignOff)?;
    let power = try_analyze_power(
        netlist,
        &env.lib,
        models,
        &PowerConfig::new(env.clock_ps).with_alpha_ff(cfg.alpha_ff),
    )?;
    let stats = netlist.stats(&env.lib);
    Ok(FlowResult {
        bench,
        style,
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
        wirelength_um: *wirelength_um,
        wns_ps: report.wns,
        power,
        layer_usage: layer_usage.clone(),
        wlm_curve: wlm.curve().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::BenchScale;
    use m3d_tech::{NodeId, TechNode};

    /// The bits of a WLM: its curve, then its slope.
    fn wlm_bits(w: &WireLoadModel) -> Vec<u64> {
        let mut bits: Vec<u64> = w.curve().iter().map(|v| v.to_bits()).collect();
        bits.push(w.slope_um().to_bits());
        bits
    }

    /// The memoized WLM, built from the caller's netlist or generated
    /// on a fetched library, and served again as a hit, is bit-identical
    /// to a fresh measurement on a from-scratch library.
    #[test]
    fn memoized_wlms_equal_a_fresh_measurement() {
        let cache = ArtifactCache::default();
        let held_cache = ArtifactCache::default();
        for (bench, style, tmi_wlm) in [
            (Benchmark::Aes, DesignStyle::TwoD, true),
            (Benchmark::Fpu, DesignStyle::Tmi, true),
            (Benchmark::Des, DesignStyle::Tmi, false),
        ] {
            let mut cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
            cfg.tmi_wlm = tmi_wlm;
            let key = WlmKey::of(bench, style, &cfg);
            let lib_style = if tmi_wlm { style } else { DesignStyle::TwoD };
            let lib = CellLibrary::try_build(&TechNode::n45(), lib_style).expect("library builds");
            let raw = bench.generate(&lib, BenchScale::Small);
            let prelim = Placer::new(&lib)
                .utilization(bench.target_utilization())
                .iterations(16)
                .try_place(&raw)
                .expect("preliminary placement");
            let fresh = wlm_bits(&WireLoadModel::from_placement(&raw, &prelim));

            let generated = wire_load_model(&cache, &key, None).expect("WLM builds");
            let hit = wire_load_model(&cache, &key, None).expect("WLM hits");
            assert!(Arc::ptr_eq(&generated, &hit), "second request is a hit");
            let held = wire_load_model(&held_cache, &key, Some((&lib, &raw))).expect("WLM builds");
            for w in [&generated, &held] {
                assert_eq!(wlm_bits(w), fresh, "{bench:?} {style:?} tmi_wlm={tmi_wlm}");
            }
        }
        let s = cache.stats();
        assert_eq!((s.wlm_builds, s.wlm_hits), (3, 3));
    }

    #[test]
    fn stages_resolve_by_short_and_display_name() {
        let keys: Vec<&str> = FlowStage::ALL.iter().map(|s| s.key()).collect();
        assert_eq!(
            keys,
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
        for stage in FlowStage::ALL {
            assert_eq!(FlowStage::from_name(stage.key()), Some(stage));
            assert_eq!(FlowStage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(FlowStage::from_name("route"), Some(FlowStage::Routing));
        assert_eq!(
            FlowStage::from_name("post-route optimization"),
            Some(FlowStage::PostRouteOpt)
        );
        assert!(FlowStage::from_name("no-such-stage").is_none());
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
            "tmi_wlm",
            "pin_cap_scale",
            "lower_metal_rho",
            "alpha_ff",
            "mb1_routing",
            "place_iterations",
        ];
        let consumed: std::collections::BTreeSet<&str> = FlowStage::ALL
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
