//! The paper's qualitative claims, asserted as executable facts.

use m3d_cells::{layout::generate_layout, CellFunction, CellLibrary, Signal, Topology};
use m3d_extract::{extract_cell, TopSiliconModel};
use m3d_netlist::{BenchScale, Benchmark};
use m3d_place::Placer;
use m3d_synth::WireLoadModel;
use m3d_tech::{DesignStyle, MetalClass, MetalStack, StackKind, TechNode};

fn signal_r(node: &TechNode, f: CellFunction, style: DesignStyle) -> f64 {
    let topo = Topology::for_function(f);
    let g = generate_layout(node, &topo, style, 1);
    let e = extract_cell(node, &g.shapes, TopSiliconModel::Dielectric);
    e.node_r
        .iter()
        .filter(|(&n, _)| n != Signal::Vdd.node_id() && n != Signal::Vss.node_id())
        .map(|(_, v)| v)
        .sum()
}

/// Section 1: "monolithic inter-tier vias are very small ... with almost
/// negligible parasitic RC".
#[test]
fn claim_mivs_are_negligible() {
    let node = TechNode::n45();
    // An MIV versus 10 um of local wire.
    let stack = MetalStack::new(&node, StackKind::Tmi);
    let m2 = stack.by_name("M2").expect("M2");
    let wire = m3d_tech::WireRc::for_layer(&node, m2);
    assert!(node.miv.resistance < 0.2 * wire.resistance(10.0));
    assert!(node.miv.capacitance < 0.2 * wire.capacitance(10.0));
}

/// Section 3.2: folding cuts the cell footprint by 40 % (not 50 %,
/// because of P/N mismatch and MIV keep-out).
#[test]
fn claim_cell_footprint_reduces_40_percent() {
    let node = TechNode::n45();
    for f in [CellFunction::Inv, CellFunction::Xor2, CellFunction::Dff] {
        let topo = Topology::for_function(f);
        let a2 = generate_layout(&node, &topo, DesignStyle::TwoD, 1).area_um2();
        let a3 = generate_layout(&node, &topo, DesignStyle::Tmi, 1).area_um2();
        let reduction = 1.0 - a3 / a2;
        assert!((reduction - 0.40).abs() < 1e-9, "{f:?}: {reduction}");
    }
}

/// Table 1: simple cells get *better* internal R in 3D; the DFF gets
/// worse.
#[test]
fn claim_table1_rc_directions() {
    let node = TechNode::n45();
    for f in [CellFunction::Inv, CellFunction::Nand2, CellFunction::Mux2] {
        assert!(
            signal_r(&node, f, DesignStyle::Tmi) < signal_r(&node, f, DesignStyle::TwoD),
            "{f:?} should improve in 3D"
        );
    }
    assert!(
        signal_r(&node, CellFunction::Dff, DesignStyle::Tmi)
            > signal_r(&node, CellFunction::Dff, DesignStyle::TwoD),
        "the DFF should get worse in 3D"
    );
}

/// Section 3.2: the top-silicon models bracket the coupling — conductor
/// underestimates, dielectric overestimates.
#[test]
fn claim_top_silicon_bracketing() {
    let node = TechNode::n45();
    for f in [CellFunction::Inv, CellFunction::Nand2, CellFunction::Dff] {
        let topo = Topology::for_function(f);
        let g = generate_layout(&node, &topo, DesignStyle::Tmi, 1);
        let die = extract_cell(&node, &g.shapes, TopSiliconModel::Dielectric);
        let con = extract_cell(&node, &g.shapes, TopSiliconModel::Conductor);
        assert!(die.total_c() > con.total_c(), "{f:?}");
    }
}

/// Section 3.4: T-MI wire load models are 20-30 % shorter than 2D ones.
#[test]
fn claim_tmi_wlm_is_shorter() {
    let node = TechNode::n45();
    let lib2 = CellLibrary::build(&node, DesignStyle::TwoD);
    let lib3 = CellLibrary::build(&node, DesignStyle::Tmi);
    let n2 = Benchmark::Aes.generate(&lib2, BenchScale::Small);
    let n3 = Benchmark::Aes.generate(&lib3, BenchScale::Small);
    let w2 = WireLoadModel::from_placement(
        &n2,
        &Placer::new(&lib2)
            .iterations(16)
            .try_place(&n2)
            .expect("placement succeeds"),
    );
    let w3 = WireLoadModel::from_placement(
        &n3,
        &Placer::new(&lib3)
            .iterations(16)
            .try_place(&n3)
            .expect("placement succeeds"),
    );
    let ratio = w3.estimate_um(2) / w2.estimate_um(2);
    assert!(
        (0.6..0.95).contains(&ratio),
        "T-MI/2D WLM ratio {ratio} (paper: wires 20-30% shorter)"
    );
}

/// Section 3.3: the T-MI stack's extra capacity is local-only; the
/// intermediate/global track count is unchanged.
#[test]
fn claim_stack_capacity_shape() {
    let node = TechNode::n45();
    let s2 = MetalStack::new(&node, StackKind::TwoD);
    let s3 = MetalStack::new(&node, StackKind::Tmi);
    assert!(
        s3.track_supply_per_um(MetalClass::Local) > 2.0 * s2.track_supply_per_um(MetalClass::Local)
    );
    assert_eq!(
        s3.track_supply_per_um(MetalClass::Global),
        s2.track_supply_per_um(MetalClass::Global)
    );
}

/// Section 5: at 7 nm the local layers become very resistive while the
/// global layers degrade far less (the ITRS size-effect story).
#[test]
fn claim_7nm_local_resistance_blowup() {
    let n45 = TechNode::n45();
    let n7 = TechNode::n7();
    let r = |node: &TechNode, name: &str| {
        let stack = MetalStack::new(node, StackKind::TwoD);
        let l = stack.by_name(name).expect("layer");
        m3d_tech::WireRc::for_layer(node, l).r_per_um
    };
    let local_growth = r(&n7, "M2") / r(&n45, "M2");
    let global_growth = r(&n7, "M8") / r(&n45, "M8");
    assert!(local_growth > 100.0, "local growth {local_growth}");
    assert!(global_growth < 30.0, "global growth {global_growth}");
}

/// Section 4.3: LDPC's wiring is wire-cap dominated while DES's is
/// pin-cap dominated — visible already in the placed netlists.
#[test]
fn claim_ldpc_wire_dominated_des_pin_dominated() {
    let node = TechNode::n45();
    let lib = CellLibrary::build(&node, DesignStyle::TwoD);
    let avg_net = |bench: Benchmark| {
        let n = bench.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib)
            .utilization(bench.target_utilization())
            .iterations(40)
            .try_place(&n)
            .expect("placement succeeds");
        p.total_hpwl_um(&n) / n.net_count() as f64
    };
    let ldpc = avg_net(Benchmark::Ldpc);
    let des = avg_net(Benchmark::Des);
    // At reduced test scale the contrast is ~1.8x; at paper scale ~7x.
    assert!(
        ldpc > 1.5 * des,
        "LDPC avg net {ldpc:.1} um should dwarf DES {des:.1} um"
    );
}
