//! Transistor-level cell folding, step by step: build a NAND2 topology,
//! render it as a planar 2D cell and as a folded T-MI cell, extract both
//! layouts under the two top-silicon models, and SPICE-characterize the
//! results — the paper's Sections 3.1-3.2 on one gate.
//!
//! ```text
//! cargo run --release --example fold_a_cell
//! ```

use m3d_cells::{
    characterize::characterize_spice, layout::generate_layout, CellFunction, Signal, Topology,
};
use m3d_extract::{extract_cell, TopSiliconModel};
use m3d_spice::SpiceError;
use m3d_tech::{CellLayer, DesignStyle, TechNode};

fn main() -> Result<(), SpiceError> {
    let node = TechNode::n45();
    let f = CellFunction::Nand2;
    let topo = Topology::for_function(f);
    println!(
        "NAND2 topology: {} transistors, PDN stack depth {}, PUN depth {}\n",
        topo.device_count(),
        topo.nmos_stack_depth(Signal::Output(0)),
        topo.pmos_stack_depth(Signal::Output(0))
    );

    for style in [DesignStyle::TwoD, DesignStyle::Tmi] {
        let geom = generate_layout(&node, &topo, style, 1);
        println!(
            "{} layout: {} x {} nm ({:.3} um2), {} shapes, {} MIVs",
            style.label(),
            geom.width_nm,
            geom.height_nm,
            geom.area_um2(),
            geom.shapes.len(),
            geom.miv_count
        );
        // Per-layer drawn metal/poly.
        for layer in [
            CellLayer::Poly,
            CellLayer::PolyBottom,
            CellLayer::Metal1,
            CellLayer::MetalB1,
        ] {
            let len = geom.shapes.run_length_on_layer(layer.index());
            if len > 0 {
                println!("    {:12} run length {:5} nm", format!("{layer:?}"), len);
            }
        }
        // Extraction under both top-silicon models (Table 1).
        let die = extract_cell(&node, &geom.shapes, TopSiliconModel::Dielectric);
        let con = extract_cell(&node, &geom.shapes, TopSiliconModel::Conductor);
        println!(
            "    extracted totals: R {:.3} kOhm, C {:.3} fF (dielectric) / {:.3} fF (conductor)",
            die.total_r(),
            die.total_c(),
            con.total_c()
        );
        // SPICE characterization at the paper's fast corner (Table 2).
        let t = characterize_spice(&node, f, 1, &topo, &geom, vec![7.5], vec![0.8])?;
        println!(
            "    SPICE @ (7.5 ps, 0.8 fF): delay {:.1} ps, energy {:.3} fJ\n",
            t.delay.lookup(7.5, 0.8),
            t.energy.lookup(7.5, 0.8)
        );
    }
    println!("paper (Tables 1-2, NAND2): R 0.372 -> 0.237 kOhm; delay 21.2 -> 20.9 ps (98.6%)");
    Ok(())
}
