//! Cross-crate integration tests: the full design flow driven end to end
//! on reduced-scale benchmarks.

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::{Comparison, Flow, FlowConfig, FlowResult};

fn cfg(node: NodeId) -> FlowConfig {
    FlowConfig::new(node).scale(BenchScale::Small)
}

fn run(bench: Benchmark, style: DesignStyle, cfg: FlowConfig) -> FlowResult {
    Flow::new(bench, style, cfg).try_run().expect("flow closes")
}

#[test]
fn every_benchmark_completes_the_45nm_flow() {
    for bench in Benchmark::ALL {
        let r = run(bench, DesignStyle::TwoD, cfg(NodeId::N45));
        assert!(r.footprint_um2 > 0.0, "{bench}: no core");
        assert!(r.wirelength_um > 0.0, "{bench}: no routing");
        assert!(r.total_power_mw() > 0.0, "{bench}: no power");
        assert!(
            r.wns_ps > -0.25 * r.clock_ps,
            "{bench}: timing hopeless ({} ps)",
            r.wns_ps
        );
    }
}

#[test]
fn tmi_always_shrinks_footprint_and_wirelength() {
    for bench in [Benchmark::Aes, Benchmark::Des, Benchmark::Ldpc] {
        let cmp = Comparison::try_run(bench, &cfg(NodeId::N45)).expect("both flows close");
        assert!(
            cmp.footprint_pct() < -20.0,
            "{bench}: footprint {:+.1}%",
            cmp.footprint_pct()
        );
        assert!(
            cmp.wirelength_pct() < -5.0,
            "{bench}: wirelength {:+.1}%",
            cmp.wirelength_pct()
        );
    }
}

#[test]
fn tmi_reduces_power_at_iso_performance() {
    let cmp = Comparison::try_run(Benchmark::Aes, &cfg(NodeId::N45)).expect("both flows close");
    assert_eq!(cmp.two_d.clock_ps, cmp.tmi.clock_ps, "iso-performance");
    assert!(
        cmp.total_power_pct() < 0.0,
        "power {:+.1}%",
        cmp.total_power_pct()
    );
}

#[test]
fn the_7nm_flow_runs_and_scales_down() {
    let r45 = run(Benchmark::Aes, DesignStyle::TwoD, cfg(NodeId::N45));
    let r7 = run(Benchmark::Aes, DesignStyle::TwoD, cfg(NodeId::N7));
    // Footprint scales roughly with the square of the dimension shrink.
    assert!(
        r7.footprint_um2 < 0.2 * r45.footprint_um2,
        "7 nm footprint {} vs 45 nm {}",
        r7.footprint_um2,
        r45.footprint_um2
    );
    // Dynamic power per design drops with the node too.
    assert!(r7.total_power_mw() < r45.total_power_mw());
}

#[test]
fn hold_time_is_met_everywhere() {
    // The shortest flop-to-flop path includes a full CK->Q delay, far
    // beyond the 2 ps hold requirement; the sign-off must agree.
    for bench in [Benchmark::Aes, Benchmark::Des] {
        let r = run(bench, DesignStyle::Tmi, cfg(NodeId::N45));
        assert!(r.hold_wns_ps > 0.0, "{bench}: hold {}", r.hold_wns_ps);
    }
}

#[test]
fn flows_are_deterministic() {
    let a = run(Benchmark::Des, DesignStyle::Tmi, cfg(NodeId::N45));
    let b = run(Benchmark::Des, DesignStyle::Tmi, cfg(NodeId::N45));
    assert_eq!(a.cell_count, b.cell_count);
    assert_eq!(a.wirelength_um, b.wirelength_um);
    assert_eq!(a.total_power_mw(), b.total_power_mw());
}

#[test]
fn clock_override_and_knobs_apply() {
    let base = run(Benchmark::Des, DesignStyle::Tmi, cfg(NodeId::N45));
    let mut k = cfg(NodeId::N45);
    k.pin_cap_scale = 0.5;
    let scaled = run(Benchmark::Des, DesignStyle::Tmi, k);
    assert!(scaled.power.pin_mw < base.power.pin_mw);

    let slow = run(
        Benchmark::Des,
        DesignStyle::Tmi,
        cfg(NodeId::N45).clock(5000.0),
    );
    assert!(slow.clock_ps > base.clock_ps);
}
