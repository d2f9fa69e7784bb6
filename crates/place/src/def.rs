//! DEF export of a placed design.
//!
//! Emits the DIEAREA / COMPONENTS / PINS sections of a DEF 5.8 file — the
//! placement view every commercial router consumes. Distances use DEF
//! database units (1000 per µm, i.e. nm, matching this toolkit's grid).
//!
//! # Example
//!
//! ```
//! use m3d_cells::CellLibrary;
//! use m3d_netlist::{BenchScale, Benchmark};
//! use m3d_place::{def, Placer};
//! use m3d_tech::{DesignStyle, TechNode};
//!
//! let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
//! let n = Benchmark::Aes.generate(&lib, BenchScale::Small);
//! let p = Placer::new(&lib).iterations(12).try_place(&n).expect("placement succeeds");
//! let text = def::to_def(&n, &p, &lib);
//! assert!(text.contains("DIEAREA"));
//! assert!(text.contains("COMPONENTS"));
//! ```

use std::fmt::Write as _;

use m3d_cells::CellLibrary;
use m3d_netlist::{NetDriver, Netlist};

use crate::Placement;

/// Serializes the placement as DEF text.
pub fn to_def(netlist: &Netlist, placement: &Placement, lib: &CellLibrary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {} ;", netlist.name);
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1000 ;");
    let core = placement.core;
    let _ = writeln!(
        out,
        "DIEAREA ( {} {} ) ( {} {} ) ;",
        core.lo().x,
        core.lo().y,
        core.hi().x,
        core.hi().y
    );

    let _ = writeln!(out, "COMPONENTS {} ;", netlist.instance_count());
    for id in netlist.inst_ids() {
        let inst = netlist.inst(id);
        let cell = lib.cell(inst.cell);
        let pos = placement.pos(id);
        // DEF places the cell origin (lower-left); positions store centres.
        let x = pos.x - cell.width_nm / 2;
        let y = pos.y - cell.height_nm / 2;
        // Alternate row orientation N/FS like a real row structure.
        let row = (y / placement.row_height).max(0);
        let orient = if row % 2 == 0 { "N" } else { "FS" };
        let _ = writeln!(
            out,
            "- {} {} + PLACED ( {} {} ) {} ;",
            netlist.inst_name(id),
            cell.name,
            x,
            y,
            orient
        );
    }
    let _ = writeln!(out, "END COMPONENTS");

    let n_pins = netlist.primary_inputs.len() + netlist.primary_outputs.len();
    let _ = writeln!(out, "PINS {n_pins} ;");
    for (&net, dir) in netlist
        .primary_inputs
        .iter()
        .map(|n| (n, "INPUT"))
        .chain(netlist.primary_outputs.iter().map(|n| (n, "OUTPUT")))
    {
        let pos = match netlist.net(net).driver {
            NetDriver::Port(p) => placement
                .port_positions
                .get(p as usize)
                .copied()
                .unwrap_or(m3d_geom::Point::ORIGIN),
            _ => placement
                .net_points(netlist, net)
                .first()
                .copied()
                .unwrap_or(m3d_geom::Point::ORIGIN),
        };
        let _ = writeln!(
            out,
            "- {} + NET {} + DIRECTION {} + PLACED ( {} {} ) N ;",
            netlist.net_name(net),
            netlist.net_name(net),
            dir,
            pos.x,
            pos.y
        );
    }
    let _ = writeln!(out, "END PINS");
    let _ = writeln!(out, "END DESIGN");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placer;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_tech::{DesignStyle, TechNode};

    fn def_text() -> (Netlist, String) {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let n = Benchmark::Des.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib)
            .iterations(12)
            .try_place(&n)
            .expect("placement succeeds");
        let t = to_def(&n, &p, &lib);
        (n, t)
    }

    #[test]
    fn component_count_matches() {
        let (n, t) = def_text();
        assert!(t.contains(&format!("COMPONENTS {} ;", n.instance_count())));
        assert_eq!(
            t.matches("+ PLACED").count(),
            n.instance_count() + n.primary_inputs.len() + n.primary_outputs.len()
        );
    }

    #[test]
    fn rows_alternate_orientation() {
        let (_, t) = def_text();
        assert!(t.contains(") N ;"));
        assert!(t.contains(") FS ;"));
    }

    #[test]
    fn header_uses_nm_database_units() {
        let (_, t) = def_text();
        assert!(t.contains("UNITS DISTANCE MICRONS 1000 ;"));
        assert!(t.contains("END DESIGN"));
    }
}
