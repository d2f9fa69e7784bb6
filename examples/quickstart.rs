//! Quickstart: build the T-MI and 2D cell libraries, run one
//! iso-performance comparison on the AES benchmark, and print the paper's
//! headline numbers (footprint / wirelength / power deltas).
//!
//! ```text
//! cargo run --release --example quickstart            # reduced scale, seconds
//! cargo run --release --example quickstart -- --paper # paper scale
//! ```

use m3d_cells::CellLibrary;
use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId, TechNode};
use monolith3d::{Comparison, FlowConfig};

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let scale = if paper {
        BenchScale::Paper
    } else {
        BenchScale::Small
    };

    // 1. The cell libraries: fold every Nangate-class cell into two tiers.
    let node = TechNode::n45();
    let lib2d = CellLibrary::build(&node, DesignStyle::TwoD);
    let lib3d = CellLibrary::build(&node, DesignStyle::Tmi);
    let inv2d = lib2d.cell_named("INV_X1").expect("INV_X1");
    let inv3d = lib3d.cell_named("INV_X1").expect("INV_X1");
    println!(
        "INV_X1: 2D {}x{} nm -> T-MI {}x{} nm ({} MIVs, {:.0}% footprint)",
        inv2d.width_nm,
        inv2d.height_nm,
        inv3d.width_nm,
        inv3d.height_nm,
        inv3d.miv_count,
        100.0 * inv3d.area_um2() / inv2d.area_um2()
    );

    // 2. One full iso-performance comparison: synthesis -> placement ->
    //    routing -> timing closure -> sign-off power, in both styles.
    let cfg = FlowConfig::new(NodeId::N45).scale(scale);
    let cmp = Comparison::try_run(Benchmark::Aes, &cfg).expect("both flows close");
    println!(
        "\nAES @ 45 nm, clock {:.2} ns (timing met: 2D {}, T-MI {})",
        cmp.two_d.clock_ps * 1e-3,
        cmp.two_d.wns_ps >= 0.0,
        cmp.tmi.wns_ps >= 0.0
    );
    println!(
        "footprint {:+6.1}%   wirelength {:+6.1}%   total power {:+6.1}%",
        cmp.footprint_pct(),
        cmp.wirelength_pct(),
        cmp.total_power_pct()
    );
    println!(
        "power breakdown (2D -> T-MI, mW): cell {:.2} -> {:.2}, net {:.2} -> {:.2}, leakage {:.3} -> {:.3}",
        cmp.two_d.power.cell_mw,
        cmp.tmi.power.cell_mw,
        cmp.two_d.power.net_mw(),
        cmp.tmi.power.net_mw(),
        cmp.two_d.power.leakage_mw,
        cmp.tmi.power.leakage_mw
    );
    println!("\npaper (Table 4, AES): footprint -42.4%, wirelength -23.6%, power -10.9%");
}
