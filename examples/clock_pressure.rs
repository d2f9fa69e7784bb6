//! The paper's Fig. 4 in miniature: the T-MI power benefit grows as the
//! target clock tightens, because the 2D design must burn ever more
//! buffers and drive strength to push signals across its longer wires.
//!
//! ```text
//! cargo run --release --example clock_pressure [-- --paper]
//! ```

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::NodeId;
use monolith3d::{Comparison, FlowConfig};

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let scale = if paper {
        BenchScale::Paper
    } else {
        BenchScale::Small
    };

    println!("AES power benefit vs target clock (45 nm)\n");
    println!("clock(ns)  2D power   T-MI power   reduction   2D buffers -> T-MI");
    // The paper sweeps 1.0 / 0.8 / 0.72 ns on AES; the flow rescales these
    // to this toolkit's library speed (see FlowConfig::clock_scale).
    for clock_ps in [1000.0, 800.0, 720.0] {
        let cfg = FlowConfig::new(NodeId::N45).scale(scale).clock(clock_ps);
        let cmp = Comparison::try_run(Benchmark::Aes, &cfg).expect("both flows close");
        println!(
            "{:8.2} {:9.2} {:12.2} {:+10.1}%   {:6} -> {:6}   (wns {:+.0}/{:+.0})",
            clock_ps * 1e-3,
            cmp.two_d.total_power_mw(),
            cmp.tmi.total_power_mw(),
            cmp.total_power_pct(),
            cmp.two_d.buffer_count,
            cmp.tmi.buffer_count,
            cmp.two_d.wns_ps,
            cmp.tmi.wns_ps
        );
    }
    println!("\npaper trend: the reduction rate grows monotonically as the clock tightens");
}
