//! Export every interchange view of a design: the characterized library
//! as Liberty, the cell layouts as binary GDSII, the synthesized netlist
//! as structural Verilog, and the placement as DEF — the file set a
//! downstream tool flow would pick up.
//!
//! ```text
//! cargo run --release --example export_views
//! ```
//!
//! Files land in `target/export/`.

use std::fs;
use std::path::Path;

use m3d_cells::{gds, layout::generate_layout, liberty, CellLibrary, Topology};
use m3d_netlist::{io, BenchScale, Benchmark};
use m3d_place::{def, Placer};
use m3d_tech::{DesignStyle, TechNode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = Path::new("target/export");
    fs::create_dir_all(out_dir)?;

    let node = TechNode::n45();
    let lib = CellLibrary::build(&node, DesignStyle::Tmi);

    // 1. Liberty: the characterized T-MI library.
    let lib_text = liberty::to_liberty(&lib, "tmi45");
    fs::write(out_dir.join("tmi45.lib"), &lib_text)?;
    println!(
        "tmi45.lib        {:7} bytes  ({} cells)",
        lib_text.len(),
        lib.len()
    );

    // 2. GDSII: every folded cell layout in one stream.
    let geoms: Vec<(String, _)> = lib
        .iter()
        .map(|(_, cell)| {
            let topo = Topology::for_function(cell.function);
            (
                cell.name.clone(),
                generate_layout(&node, &topo, DesignStyle::Tmi, cell.drive),
            )
        })
        .collect();
    let named: Vec<(&str, &m3d_geom::ShapeSet)> = geoms
        .iter()
        .map(|(name, g)| (name.as_str(), &g.shapes))
        .collect();
    let gds_bytes = gds::to_gds(&named, "tmi45");
    fs::write(out_dir.join("tmi45.gds"), &gds_bytes)?;
    let structures = gds::boundary_counts(&gds_bytes)?;
    println!(
        "tmi45.gds        {:7} bytes  ({} structures, {} boundaries)",
        gds_bytes.len(),
        structures.len(),
        structures.iter().map(|(_, n)| n).sum::<usize>()
    );

    // 3. Verilog: a synthesized benchmark netlist.
    let netlist = Benchmark::Aes.generate(&lib, BenchScale::Small);
    let verilog = io::to_verilog(&netlist, &lib);
    fs::write(out_dir.join("aes.v"), &verilog)?;
    // Round-trip check before shipping.
    let back = io::from_verilog(&verilog, &lib)?;
    assert_eq!(back.instance_count(), netlist.instance_count());
    println!(
        "aes.v            {:7} bytes  ({} instances, round-trip verified)",
        verilog.len(),
        netlist.instance_count()
    );

    // 4. DEF: the placed design.
    let placement = Placer::new(&lib)
        .iterations(40)
        .try_place(&netlist)
        .expect("placement succeeds");
    let def_text = def::to_def(&netlist, &placement, &lib);
    fs::write(out_dir.join("aes.def"), &def_text)?;
    println!(
        "aes.def          {:7} bytes  (core {:.0} x {:.0} um)",
        def_text.len(),
        placement.core.width() as f64 * 1e-3,
        placement.core.height() as f64 * 1e-3
    );

    println!("\nall views written to target/export/");
    Ok(())
}
