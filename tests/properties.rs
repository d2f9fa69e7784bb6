//! Property-based integration tests over randomly generated netlists:
//! placement containment, activity bounds, edit consistency and undo.

use std::sync::OnceLock;

use m3d_cells::{layout::generate_layout, CellFunction, CellLibrary, Topology};
use m3d_extract::{extract_cell, TopSiliconModel};
use m3d_geom::{LayerShape, Point, Rect};
use m3d_netlist::{BenchScale, Benchmark, NetDriver, NetId, Netlist, NetlistBuilder, PinRef};
use m3d_place::{Placement, Placer};
use m3d_power::propagate_activity;
use m3d_route::{RoutedDesign, Router};
use m3d_sta::{
    plan_load_sizing, plan_power_recovery, try_analyze, NetModel, OptMove, StaError, TimingConfig,
    TimingGraph, TimingReport,
};
use m3d_tech::{CellLayer, DesignStyle, MetalStack, NodeId, StackKind, TechNode};
use monolith3d::gmi::{fm_bipartition, Bipartition};
use monolith3d::{apply_moves, try_extraction_models, EditLog, Flow, FlowConfig, FlowError};
use proptest::prelude::*;

fn lib() -> &'static CellLibrary {
    static LIB: OnceLock<CellLibrary> = OnceLock::new();
    LIB.get_or_init(|| CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD))
}

/// Builds a random layered DAG netlist from a seed.
fn random_netlist(seed: u64, gates: usize) -> Netlist {
    let lib = lib();
    let mut b = NetlistBuilder::new(lib, "random");
    let mut pool: Vec<NetId> = (0..8).map(|_| b.input()).collect();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let funcs = [
        CellFunction::Inv,
        CellFunction::Nand2,
        CellFunction::Nor2,
        CellFunction::Xor2,
        CellFunction::And2,
        CellFunction::Mux2,
        CellFunction::FullAdder,
    ];
    for _ in 0..gates {
        let f = funcs[(rnd() % funcs.len() as u64) as usize];
        let inputs: Vec<NetId> = (0..f.input_count())
            .map(|_| pool[(rnd() % pool.len() as u64) as usize])
            .collect();
        let outs = b.gate_outputs(f, &inputs);
        pool.extend(outs);
        // Occasionally register a signal.
        if rnd() % 7 == 0 {
            let d = pool[(rnd() % pool.len() as u64) as usize];
            let q = b.dff(d);
            pool.push(q);
        }
    }
    let out = *pool.last().expect("non-empty");
    b.output(out);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_netlists_are_consistent_and_acyclic(seed in 0u64..1000) {
        let n = random_netlist(seed, 150);
        n.check_consistency(lib());
        m3d_netlist::levelize(&n, lib()).expect("builder DAGs are acyclic");
    }

    #[test]
    fn placement_contains_every_cell(seed in 0u64..400) {
        let n = random_netlist(seed, 120);
        let p = Placer::new(lib()).iterations(12).try_place(&n).expect("placement succeeds");
        for id in n.inst_ids() {
            prop_assert!(p.core.contains(p.pos(id)), "cell escaped the core");
        }
        prop_assert!(p.total_hpwl_um(&n) >= 0.0);
    }

    #[test]
    fn routing_covers_every_multi_pin_net(seed in 0u64..200) {
        let node = TechNode::n45();
        let stack = MetalStack::new(&node, StackKind::TwoD);
        let n = random_netlist(seed, 100);
        let p = Placer::new(lib()).iterations(12).try_place(&n).expect("placement succeeds");
        let r = Router::new(&node, &stack).try_route(&n, &p, lib()).expect("routing succeeds");
        for id in n.net_ids() {
            let net = n.net(id);
            if !net.sinks.is_empty() {
                prop_assert!(
                    r.net(id).wirelength_um > 0.0,
                    "driven net routed to nothing"
                );
            }
        }
    }

    #[test]
    fn activities_stay_in_bounds(seed in 0u64..400) {
        let n = random_netlist(seed, 150);
        let act = propagate_activity(&n, lib(), 0.3, 0.1);
        for a in &act {
            prop_assert!((0.0..=1.0).contains(&a.p_one), "probability {}", a.p_one);
            prop_assert!((0.0..=2.0).contains(&a.alpha), "activity {}", a.alpha);
        }
    }

    #[test]
    fn adding_a_shape_never_decreases_extracted_capacitance(
        x in 0i64..2000, y in 0i64..1400, w in 50i64..800, h in 50i64..200,
    ) {
        let node = TechNode::n45();
        let topo = Topology::for_function(CellFunction::Nand2);
        let base = generate_layout(&node, &topo, DesignStyle::Tmi, 1);
        let c0 = extract_cell(&node, &base.shapes, TopSiliconModel::Dielectric).total_c();
        let mut bigger = base.shapes.clone();
        bigger.push(LayerShape::new(
            CellLayer::Metal1.index(),
            Rect::from_size(Point::new(x, y), w, h),
            m3d_cells::Signal::Output(0).node_id(),
        ));
        let c1 = extract_cell(&node, &bigger, TopSiliconModel::Dielectric).total_c();
        prop_assert!(c1 >= c0, "capacitance dropped: {c0} -> {c1}");
    }

    #[test]
    fn fm_partition_is_always_balanced(seed in 0u64..60) {
        let l = lib();
        let n = random_netlist(seed, 160);
        let p = monolith3d::gmi::fm_bipartition(&n, l, 2, 0.1);
        prop_assert!((0.38..=0.62).contains(&p.balance), "balance {}", p.balance);
        prop_assert_eq!(p.assignment.len(), n.instance_count());
        // Cut count is consistent with the assignment.
        let mut cut = 0usize;
        for id in n.net_ids() {
            if Some(id) == n.clock { continue; }
            let net = n.net(id);
            let mut tiers: Vec<u8> = net
                .sinks
                .iter()
                .map(|s| p.assignment[s.inst.0 as usize])
                .collect();
            if let m3d_netlist::NetDriver::Cell { inst, .. } = net.driver {
                tiers.push(p.assignment[inst.0 as usize]);
            }
            if tiers.windows(2).any(|w| w[0] != w[1]) {
                cut += 1;
            }
        }
        prop_assert_eq!(cut, p.cut_nets);
    }

    #[test]
    fn clock_tree_covers_all_sinks_within_fanout(seed in 0u64..50, max_fanout in 4usize..32) {
        let l = lib();
        let n = random_netlist(seed, 160);
        let p = Placer::new(l).iterations(8).try_place(&n).expect("placement succeeds");
        let t = m3d_route::cts::build_clock_tree(
            &n,
            &p,
            &m3d_route::cts::CtsConfig { max_fanout },
        );
        if let Some(clock) = n.clock {
            prop_assert_eq!(t.sink_count, n.net(clock).sinks.len());
            // Leaves never exceed the fanout bound.
            for b in &t.buffers {
                if b.sinks_below <= max_fanout {
                    prop_assert!(b.sinks_below >= 1);
                }
            }
        }
    }

    #[test]
    fn repeater_insertion_preserves_consistency(seed in 0u64..200, moves in 1usize..6) {
        let l = lib();
        let mut n = random_netlist(seed, 120);
        let buf = l.smallest(CellFunction::Buf);
        for k in 0..moves {
            // Pick some driven net with at least 2 sinks.
            let candidate = n
                .net_ids()
                .filter(|&id| n.net(id).sinks.len() >= 2 && Some(id) != n.clock)
                .nth(k);
            if let Some(net) = candidate {
                let take: Vec<usize> = (0..n.net(net).sinks.len() / 2).collect();
                if !take.is_empty() {
                    n.insert_repeater(net, &take, buf, l);
                }
            }
        }
        n.check_consistency(l);
        m3d_netlist::levelize(&n, l).expect("repeaters keep the DAG acyclic");
    }
}

/// The partitioner as it was before gain buckets, kept verbatim as the
/// reference [`monolith3d::gmi::fm_bipartition`] must match bit for
/// bit: each move rescans every unmoved cell and recomputes its gain
/// from all of its pins.
fn rescanning_fm_bipartition(
    netlist: &Netlist,
    lib: &CellLibrary,
    passes: usize,
    balance_tolerance: f64,
) -> Bipartition {
    let n = netlist.instance_count();
    let areas: Vec<f64> = netlist
        .inst_ids()
        .map(|i| lib.cell(netlist.inst(i).cell).area_um2())
        .collect();
    let total_area: f64 = areas.iter().sum();
    let mut side: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
    let mut area0: f64 = areas
        .iter()
        .enumerate()
        .filter(|(i, _)| side[*i] == 0)
        .map(|(_, a)| a)
        .sum();

    let mut net_pins: Vec<Vec<u32>> = vec![Vec::new(); netlist.net_count()];
    for id in netlist.net_ids() {
        if Some(id) == netlist.clock {
            continue;
        }
        let net = netlist.net(id);
        if let NetDriver::Cell { inst, .. } = net.driver {
            net_pins[id.0 as usize].push(inst.0);
        }
        for s in &net.sinks {
            net_pins[id.0 as usize].push(s.inst.0);
        }
    }
    let mut inst_nets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (nid, pins) in net_pins.iter().enumerate() {
        for &i in pins {
            inst_nets[i as usize].push(nid as u32);
        }
    }
    for v in &mut inst_nets {
        v.sort_unstable();
        v.dedup();
    }

    let cut_count = |side: &[u8]| -> usize {
        net_pins
            .iter()
            .filter(|pins| {
                pins.len() > 1 && {
                    let first = side[pins[0] as usize];
                    pins.iter().any(|&p| side[p as usize] != first)
                }
            })
            .count()
    };

    let lo = total_area * (0.5 - balance_tolerance);
    let hi = total_area * (0.5 + balance_tolerance);
    for _pass in 0..passes {
        let mut moved = vec![false; n];
        let mut best_cut = cut_count(&side);
        let mut best_prefix = 0usize;
        let mut trail: Vec<u32> = Vec::new();
        let mut cur_cut = best_cut;
        for _step in 0..n.min(4000) {
            let mut best: Option<(i64, u32)> = None;
            for i in 0..n {
                if moved[i] {
                    continue;
                }
                let from = side[i];
                let new_area0 = if from == 0 {
                    area0 - areas[i]
                } else {
                    area0 + areas[i]
                };
                if new_area0 < lo || new_area0 > hi {
                    continue;
                }
                let mut gain = 0i64;
                for &nid in &inst_nets[i] {
                    let pins = &net_pins[nid as usize];
                    if pins.len() < 2 {
                        continue;
                    }
                    let mine = pins.iter().filter(|&&p| p as usize == i).count();
                    let same = pins.iter().filter(|&&p| side[p as usize] == from).count();
                    let other = pins.len() - same;
                    if other == 0 {
                        gain -= 1;
                    } else if same == mine {
                        gain += 1;
                    }
                }
                if best.map(|(g, _)| gain > g).unwrap_or(true) {
                    best = Some((gain, i as u32));
                }
            }
            let Some((gain, i)) = best else { break };
            let i_us = i as usize;
            moved[i_us] = true;
            if side[i_us] == 0 {
                area0 -= areas[i_us];
                side[i_us] = 1;
            } else {
                area0 += areas[i_us];
                side[i_us] = 0;
            }
            trail.push(i);
            cur_cut = (cur_cut as i64 - gain) as usize;
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = trail.len();
            }
            if gain <= 0 && trail.len() > best_prefix + 64 {
                break;
            }
        }
        for &i in trail[best_prefix..].iter() {
            let i = i as usize;
            if side[i] == 0 {
                area0 -= areas[i];
                side[i] = 1;
            } else {
                area0 += areas[i];
                side[i] = 0;
            }
        }
        if best_prefix == 0 {
            break;
        }
    }

    Bipartition {
        cut_nets: cut_count(&side),
        balance: area0 / total_area,
        assignment: side,
    }
}

/// Balance tolerances from infeasible (0.0: no single move fits) and
/// tight, where most moves break the balance, to loose.
const FM_TOLERANCES: [f64; 4] = [0.0, 0.02, 0.1, 0.3];

/// The gain-bucket partitioner returns exactly the reference partition.
fn fm_matches_the_rescanning_pass(
    n: &Netlist,
    passes: usize,
    tolerance: f64,
) -> Result<(), TestCaseError> {
    let fast = fm_bipartition(n, lib(), passes, tolerance);
    let slow = rescanning_fm_bipartition(n, lib(), passes, tolerance);
    prop_assert!(
        fast.assignment == slow.assignment,
        "{}: assignments differ (passes {}, tolerance {})",
        n.name,
        passes,
        tolerance
    );
    prop_assert_eq!(fast.cut_nets, slow.cut_nets);
    prop_assert_eq!(fast.balance.to_bits(), slow.balance.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fm_gain_buckets_match_the_rescanning_pass(
        seed in 0u64..1000,
        gates in 8usize..400,
        passes in 1usize..5,
    ) {
        let n = random_netlist(seed, gates);
        for tolerance in FM_TOLERANCES {
            fm_matches_the_rescanning_pass(&n, passes, tolerance)?;
        }
    }
}

/// A netlist with the cases the gain function has to get right: one
/// primary input fanning out to 150 gates, single-pin nets (inputs read
/// once, outputs nobody reads), a gate reading one net on both inputs,
/// a clocked register bank, and NAND2s that sink their own output (some
/// of those outputs feed other gates too).
fn fm_edge_case_netlist() -> Netlist {
    let mut b = NetlistBuilder::new(lib(), "fm-edge-cases");
    let fanout = b.input();
    let mut pool = b.inputs(12);
    for k in 0..150 {
        let other = pool[(k * 7) % pool.len()];
        let out = b.gate(CellFunction::Nand2, &[fanout, other]);
        if k % 3 == 0 {
            pool.push(out); // the others stay single-pin nets
        }
    }
    let twice = b.gate(CellFunction::Nand2, &[pool[3], pool[3]]);
    pool.push(twice);
    for k in 0..24 {
        let q = b.dff(pool[(k * 5) % pool.len()]);
        pool.push(q);
    }
    let loops: Vec<NetId> = (0..6)
        .map(|k| b.gate(CellFunction::Nand2, &[pool[k], pool[k + 20]]))
        .collect();
    for k in 0..3 {
        let out = b.gate(CellFunction::And2, &[loops[k], pool[k + 40]]);
        b.output(out);
    }
    let n = b.finish();
    let mut instances = n.instances().to_vec();
    let mut nets = n.nets().to_vec();
    for &out in &loops {
        let NetDriver::Cell { inst, .. } = nets[out.0 as usize].driver else {
            unreachable!("gate outputs are cell-driven")
        };
        let old = instances[inst.0 as usize].pins[1];
        nets[old.0 as usize]
            .sinks
            .retain(|s| !(s.inst == inst && s.pin == 1));
        nets[out.0 as usize].sinks.push(PinRef { inst, pin: 1 });
        instances[inst.0 as usize].pins[1] = out;
    }
    Netlist::from_parts(
        n.name.clone(),
        instances,
        nets,
        n.primary_inputs.clone(),
        n.primary_outputs.clone(),
        n.clock,
    )
}

#[test]
fn fm_gain_buckets_match_the_rescanning_pass_on_edge_cases() -> Result<(), TestCaseError> {
    let n = fm_edge_case_netlist();
    assert!(n.clock.is_some(), "the register bank creates the clock");
    for passes in 1..=4 {
        for tolerance in FM_TOLERANCES {
            fm_matches_the_rescanning_pass(&n, passes, tolerance)?;
        }
    }
    Ok(())
}

#[test]
fn fm_gain_buckets_match_the_rescanning_pass_on_small_benchmarks() -> Result<(), TestCaseError> {
    for bench in [Benchmark::Aes, Benchmark::Ldpc] {
        let n = bench.generate(lib(), BenchScale::Small);
        for tolerance in FM_TOLERANCES {
            fm_matches_the_rescanning_pass(&n, 4, tolerance)?;
        }
    }
    Ok(())
}

/// Plants one degenerate knob in an otherwise valid configuration.
fn corrupt_knob(cfg: &mut FlowConfig, knob: usize, flavor: u64) {
    let odd = flavor % 2 == 1;
    match knob {
        0 => cfg.clock_ps = Some(if odd { f64::NAN } else { -500.0 }),
        1 => cfg.utilization = Some(if odd { 1.5 } else { 0.0 }),
        2 => cfg.pin_cap_scale = if odd { -0.4 } else { f64::INFINITY },
        3 => cfg.alpha_ff = if odd { 7.0 } else { -0.1 },
        4 => cfg.place_iterations = 0,
        _ => cfg.clock_scale = if odd { f64::NEG_INFINITY } else { f64::NAN },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degenerate_configs_yield_typed_errors_not_panics(
        knob in 0usize..6, flavor in 0u64..4,
    ) {
        let mut cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
        corrupt_knob(&mut cfg, knob, flavor);
        let outcome = Flow::new(Benchmark::Aes, DesignStyle::TwoD, cfg).try_run();
        prop_assert!(
            matches!(outcome, Err(FlowError::Config(_))),
            "knob {knob}/{flavor} must be rejected pre-flight: {outcome:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // A handful of full runs: randomized-but-sane knobs must reach
    // sign-off without panicking or erroring.
    #[test]
    fn try_run_closes_across_sane_knob_variations(
        util_pct in 55u32..85, alpha_m in 1u32..4,
    ) {
        let mut cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
        cfg.utilization = Some(util_pct as f64 / 100.0);
        cfg.alpha_ff = alpha_m as f64 * 0.1;
        let r = Flow::new(Benchmark::Des, DesignStyle::TwoD, cfg)
            .try_run()
            .expect("sane configs close");
        prop_assert!(r.total_power_mw() > 0.0);
    }
}

/// Every [`FlowError`] variant renders an actionable message.
mod flow_error_display {
    use monolith3d::{ConfigError, FlowError, FlowStage};

    fn shows(e: FlowError, needles: &[&str]) {
        let text = e.to_string();
        for needle in needles {
            assert!(text.contains(needle), "{text:?} should mention {needle:?}");
        }
    }

    #[test]
    fn config() {
        shows(
            FlowError::Config(ConfigError::BadClock(-500.0)),
            &["invalid flow config", "clock_ps", "-500"],
        );
        shows(
            FlowError::Config(ConfigError::BadUtilization(1.5)),
            &["utilization", "(0, 1]", "1.5"],
        );
        shows(
            FlowError::Config(ConfigError::BadPinCapScale(0.0)),
            &["pin_cap_scale", "positive"],
        );
        shows(
            FlowError::Config(ConfigError::BadAlphaFf(7.0)),
            &["alpha_ff", "[0, 1]", "7"],
        );
        shows(
            FlowError::Config(ConfigError::ZeroPlaceIterations),
            &["place_iterations", "at least 1"],
        );
        shows(
            FlowError::Config(ConfigError::BadClockScale(f64::NAN)),
            &["clock_scale", "NaN"],
        );
    }

    #[test]
    fn library() {
        shows(
            FlowError::Library(m3d_cells::LibraryError::DegenerateGeometry {
                cell: "INV_X1".into(),
                width_nm: 0,
                height_nm: 1400,
            }),
            &["library stage", "INV_X1", "0 x 1400"],
        );
    }

    #[test]
    fn synthesis() {
        shows(
            FlowError::Synth(m3d_synth::SynthError::InvalidClock(f64::NAN)),
            &["synthesis stage", "clock", "NaN"],
        );
    }

    #[test]
    fn placement() {
        shows(
            FlowError::Place(m3d_place::PlaceError::InvalidUtilization(2.0)),
            &["placement stage", "utilization", "2"],
        );
        shows(
            FlowError::Place(m3d_place::PlaceError::EmptyNetlist),
            &["placement stage", "empty netlist"],
        );
    }

    #[test]
    fn routing() {
        shows(
            FlowError::Route(m3d_route::RouteError::MissingLayer { layer: "M1" }),
            &["routing stage", "M1"],
        );
    }

    #[test]
    fn timing() {
        shows(
            FlowError::Sta(m3d_sta::StaError::ModelCountMismatch {
                nets: 10,
                models: 3,
            }),
            &["timing analysis", "10", "3"],
        );
        shows(
            FlowError::Sta(m3d_sta::StaError::CombinationalCycle { involved: 4 }),
            &["timing analysis", "cycle", "4"],
        );
    }

    #[test]
    fn power() {
        shows(
            FlowError::Power(m3d_power::PowerError::InvalidClockPeriod(-1.0)),
            &["power analysis", "clock", "-1"],
        );
    }

    #[test]
    fn extraction() {
        shows(
            FlowError::Extract(m3d_extract::ExtractError::LayerOutOfRange {
                layer: 9,
                stack_len: 6,
            }),
            &["parasitic extraction", "9", "6"],
        );
    }

    #[test]
    fn spice() {
        shows(
            FlowError::Spice(m3d_spice::ConvergenceError { at_time_ps: 42 }),
            &["spice characterization", "converge", "42"],
        );
    }

    #[test]
    fn injected() {
        shows(
            FlowError::Injected {
                stage: FlowStage::Routing,
                detail: "planted".into(),
            },
            &["injected fault", "routing", "planted"],
        );
    }
}

/// Resizing cells changes neither connectivity nor positions, and the
/// router does not read the library, so routing and extracting again
/// after load sizing and power recovery reproduces the first route and
/// extraction bit for bit. The routing stage relies on this to route
/// once.
#[test]
fn resizing_leaves_route_and_extraction_bitwise_unchanged() {
    let node = TechNode::n45();
    for style in [DesignStyle::TwoD, DesignStyle::Tmi] {
        let lib = CellLibrary::build(&node, style);
        let stack = MetalStack::new(&node, style.default_stack());
        let router = Router::new(&node, &stack);
        let mut n = Benchmark::Aes.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib).try_place(&n).expect("placement succeeds");
        let routed = router.try_route(&n, &p, &lib).expect("routing succeeds");
        let models = try_extraction_models(&n, &routed, &node).expect("extraction succeeds");

        let report = try_analyze(&n, &lib, &models, &TimingConfig::new(10_000.0))
            .expect("timing analysis succeeds");
        let mut moves = plan_load_sizing(&n, &lib, &models, 30.0);
        moves.extend(plan_power_recovery(&n, &lib, &report, 0.0, usize::MAX));
        let cells_before: Vec<_> = n.inst_ids().map(|i| n.inst(i).cell).collect();
        for m in moves {
            let resized = match m {
                OptMove::Upsize(i) => lib.upsize(n.inst(i).cell).map(|(c, _)| (i, c)),
                OptMove::Downsize(i) => lib.downsize(n.inst(i).cell).map(|(c, _)| (i, c)),
                OptMove::BufferNet { .. } => panic!("sizing plans only resize: {m:?}"),
            };
            if let Some((i, c)) = resized {
                n.resize(i, c, &lib);
            }
        }
        let cells_after: Vec<_> = n.inst_ids().map(|i| n.inst(i).cell).collect();
        assert_ne!(cells_before, cells_after, "{style:?}: nothing resized");

        let rerouted = router.try_route(&n, &p, &lib).expect("routing succeeds");
        let remodels = try_extraction_models(&n, &rerouted, &node).expect("extraction succeeds");
        let net_bits = |r: &RoutedDesign| -> Vec<_> {
            n.net_ids()
                .map(|id| {
                    let rn = r.net(id);
                    let segs: Vec<_> = r.segments(id).map(|(l, len)| (l, len.to_bits())).collect();
                    (
                        segs,
                        rn.via_count,
                        rn.wirelength_um.to_bits(),
                        rn.trunk_class,
                    )
                })
                .collect()
        };
        let model_bits = |ms: &[NetModel]| -> Vec<_> {
            ms.iter()
                .map(|m| (m.c_wire.to_bits(), m.r_wire.to_bits()))
                .collect()
        };
        assert_eq!(
            net_bits(&routed),
            net_bits(&rerouted),
            "{style:?}: routes differ"
        );
        assert_eq!(
            model_bits(&models),
            model_bits(&remodels),
            "{style:?}: models differ"
        );
    }
}

fn tmi_lib() -> &'static CellLibrary {
    static LIB: OnceLock<CellLibrary> = OnceLock::new();
    LIB.get_or_init(|| CellLibrary::build(&TechNode::n45(), DesignStyle::Tmi))
}

/// Deterministic RC models for every net, nonzero on most, so both wire
/// terms of the delay model take part.
fn synthetic_models(n: &Netlist) -> Vec<NetModel> {
    (0..n.net_count())
        .map(|i| NetModel {
            c_wire: (i % 17) as f64 * 0.4,
            r_wire: (i % 5) as f64 * 0.03,
        })
        .collect()
}

type ReportBits = (Vec<u64>, Vec<u64>, Vec<u64>, [u64; 4], Option<NetId>);

fn report_bits(r: &TimingReport) -> ReportBits {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        bits(&r.arrival),
        bits(&r.slew),
        bits(&r.slack),
        [
            r.wns.to_bits(),
            r.tns.to_bits(),
            r.hold_wns.to_bits(),
            r.clock_period_ps.to_bits(),
        ],
        r.worst_endpoint,
    )
}

/// Resizes `count` random instances one step up or down.
fn random_resizes(n: &mut Netlist, lib: &CellLibrary, rnd: &mut impl FnMut() -> u64, count: usize) {
    for _ in 0..count {
        let inst = m3d_netlist::InstId((rnd() % n.instance_count() as u64) as u32);
        let cell = n.inst(inst).cell;
        let to = if rnd().is_multiple_of(2) {
            lib.upsize(cell)
        } else {
            lib.downsize(cell)
        };
        if let Some((c, _)) = to {
            n.resize(inst, c, lib);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One timing graph serves any number of resizes: its analysis of
    /// the resized netlist equals a full `try_analyze` (which levelizes
    /// afresh) bit for bit. A repeater changes the topology: the old
    /// graph then refuses the netlist with a typed error, and a rebuilt
    /// graph matches the full analysis again, across further resizes.
    #[test]
    fn timing_graph_matches_full_analysis_across_resizes(
        seed in 0u64..1000,
        resizes in 1usize..300,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for bench in [Benchmark::Aes, Benchmark::Des] {
            for (style, l) in [(DesignStyle::TwoD, lib()), (DesignStyle::Tmi, tmi_lib())] {
                let mut n = bench.generate(l, BenchScale::Small);
                let cfg = TimingConfig::new(bench.target_clock_ps(NodeId::N45));
                let mut graph = TimingGraph::build(&n, l).expect("benchmarks are acyclic");
                for round in 0..4 {
                    if round == 2 {
                        let built = (n.instance_count(), n.net_count());
                        let candidates: Vec<NetId> = n
                            .net_ids()
                            .filter(|&id| n.net(id).sinks.len() >= 2 && Some(id) != n.clock)
                            .collect();
                        let net = candidates[(rnd() % candidates.len() as u64) as usize];
                        let take: Vec<usize> = (0..n.net(net).sinks.len() / 2).collect();
                        n.insert_repeater(net, &take, l.smallest(CellFunction::Buf), l);
                        let stale = graph.analyze(&n, l, &synthetic_models(&n), &cfg);
                        let want = StaError::StaleGraph {
                            built,
                            found: (n.instance_count(), n.net_count()),
                        };
                        prop_assert!(
                            stale.as_ref().err() == Some(&want),
                            "{:?} {:?}: a stale graph must be refused, got {:?}",
                            bench,
                            style,
                            stale.err()
                        );
                        graph = TimingGraph::build(&n, l).expect("repeaters keep the DAG acyclic");
                    }
                    random_resizes(&mut n, l, &mut rnd, resizes);
                    let models = synthetic_models(&n);
                    let fast = graph.analyze(&n, l, &models, &cfg).expect("graph matches");
                    let full = try_analyze(&n, l, &models, &cfg).expect("full analysis");
                    prop_assert!(
                        report_bits(&fast) == report_bits(&full),
                        "{:?} {:?} round {}: graph analysis differs from full analysis",
                        bench,
                        style,
                        round
                    );
                }
            }
        }
    }
}

/// AES and DES at small scale, in 2D and T-MI, each generated and placed
/// once: the designs the edit-log property edits.
fn placed_designs() -> &'static [(CellLibrary, Netlist, Placement)] {
    static DESIGNS: OnceLock<Vec<(CellLibrary, Netlist, Placement)>> = OnceLock::new();
    DESIGNS.get_or_init(|| {
        let mut designs = Vec::new();
        for bench in [Benchmark::Aes, Benchmark::Des] {
            for style in [DesignStyle::TwoD, DesignStyle::Tmi] {
                let l = CellLibrary::build(&TechNode::n45(), style);
                let n = bench.generate(&l, BenchScale::Small);
                let p = Placer::new(&l)
                    .utilization(bench.target_utilization())
                    .iterations(4)
                    .try_place(&n)
                    .expect("small benchmarks place");
                designs.push((l, n, p));
            }
        }
        designs
    })
}

/// A random list of `len` moves on `n`: upsizes, downsizes and repeater
/// chains of 1–3 stages. The first move and a third of the other chains
/// go on nets of eight sinks or more, so that `apply_moves`' quadrant
/// split runs.
fn random_moves(n: &Netlist, rnd: &mut impl FnMut() -> u64, len: usize) -> Vec<OptMove> {
    let wide: Vec<NetId> = n
        .net_ids()
        .filter(|&id| n.net(id).sinks.len() >= 8)
        .collect();
    (0..len)
        .map(|k| {
            let inst = m3d_netlist::InstId((rnd() % n.instance_count() as u64) as u32);
            let repeaters = 1 + (rnd() % 3) as u32;
            match if k == 0 { 3 } else { rnd() % 6 } {
                0 | 1 => OptMove::Upsize(inst),
                2 => OptMove::Downsize(inst),
                3 if !wide.is_empty() => OptMove::BufferNet {
                    net: wide[(rnd() % wide.len() as u64) as usize],
                    repeaters,
                },
                _ => OptMove::BufferNet {
                    net: NetId((rnd() % n.net_count() as u64) as u32),
                    repeaters,
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Undoing the edit log back to a mark restores the netlist and the
    /// placement exactly as they were at the mark, across nested marks:
    /// each level applies a random move list under its own mark, and the
    /// levels are undone innermost first.
    #[test]
    fn undo_restores_netlist_and_placement_bitwise(
        seed in 0u64..1000,
        levels in 2usize..4,
        len in 1usize..120,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (l, original, placed) in placed_designs() {
            let (mut n, mut p) = (original.clone(), placed.clone());
            let mut log = EditLog::default();
            let mut saved = Vec::new();
            for _ in 0..levels {
                saved.push((log.mark(), n.clone(), p.clone()));
                let moves = random_moves(&n, &mut rnd, len);
                apply_moves(&mut n, &mut p, l, &moves, &mut log);
                n.check_consistency(l);
                prop_assert_eq!(p.positions.len(), n.instance_count());
            }
            prop_assert!(n.instance_count() > original.instance_count());
            while let Some((mark, want_n, want_p)) = saved.pop() {
                log.undo_to(mark, &mut n, &mut p, l);
                prop_assert!(n == want_n, "{}: netlist differs at mark {}", n.name, mark);
                prop_assert!(p == want_p, "{}: placement differs at mark {}", n.name, mark);
                n.check_consistency(l);
            }
            prop_assert_eq!(log.mark(), 0);
        }
    }
}
