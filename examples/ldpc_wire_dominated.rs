//! The paper's best case: a wire-dominated LDPC decoder.
//!
//! The IEEE 802.3an LDPC decoder's bipartite check/variable graph has no
//! spatial locality, so its nets stay long no matter how well it is
//! placed — the circuit class where T-MI shines (paper Section 4.3,
//! −32 % total power at 45 nm). This example walks the whole story:
//! wire/pin capacitance split, buffer counts, and the final power table.
//!
//! ```text
//! cargo run --release --example ldpc_wire_dominated [-- --paper]
//! ```

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::{Flow, FlowConfig};

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let scale = if paper {
        BenchScale::Paper
    } else {
        BenchScale::Small
    };
    let cfg = FlowConfig::new(NodeId::N45).scale(scale);

    println!("LDPC (802.3an min-sum decoder) @ 45 nm\n");
    let mut results = Vec::new();
    for style in [DesignStyle::TwoD, DesignStyle::Tmi] {
        let r = Flow::new(Benchmark::Ldpc, style, cfg.clone())
            .try_run()
            .expect("flow closes");
        println!(
            "{}: core {:6.0}x{:6.0} um at {:4.1}% util | WL {:6.3} m | {} buffers | WNS {:+5.0} ps",
            style.label(),
            r.core_um.0,
            r.core_um.1,
            r.utilization * 100.0,
            r.wirelength_m(),
            r.buffer_count,
            r.wns_ps
        );
        println!(
            "    capacitance: wire {:7.1} pF vs pin {:7.1} pF  ({})",
            r.power.wire_cap_pf,
            r.power.pin_cap_pf,
            if r.power.wire_cap_pf > r.power.pin_cap_pf {
                "wire-dominated -> big T-MI upside"
            } else {
                "pin-dominated"
            }
        );
        println!(
            "    power: total {:7.2} mW = cell {:6.2} + wire {:6.2} + pin {:6.2} + leak {:5.3}\n",
            r.total_power_mw(),
            r.power.cell_mw,
            r.power.wire_mw,
            r.power.pin_mw,
            r.power.leakage_mw
        );
        results.push(r);
    }
    let (d2, d3) = (&results[0], &results[1]);
    println!(
        "T-MI deltas: wirelength {:+.1}%, buffers {:+.1}%, total power {:+.1}%",
        (d3.wirelength_um / d2.wirelength_um - 1.0) * 100.0,
        (d3.buffer_count as f64 / d2.buffer_count.max(1) as f64 - 1.0) * 100.0,
        (d3.total_power_mw() / d2.total_power_mw() - 1.0) * 100.0
    );
    println!("paper: wirelength -33.6%, buffers -48.6%, power -32.1%");
}
