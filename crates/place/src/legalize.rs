//! Row legalization: snap cells to standard-cell rows, rebalance
//! overfull rows, and pack each row left-to-right near the cells' global
//! positions.

use m3d_cells::{Cell, CellLibrary};
use m3d_geom::{Nm, Point};
use m3d_netlist::Netlist;

use crate::Placement;

/// Width a cell occupies in a row: its footprint, plus the node's MIV
/// keep-out-zone margin on each side when the cell contains MIVs. The
/// paper's 45 nm / 7 nm nodes carry a zero margin (their MIVs live
/// inside the cell outline), so this is the plain footprint there; KOZ
/// nodes such as `fdsoi-miv` reserve the clearance during legalization
/// and core sizing.
pub(crate) fn effective_width_nm(lib: &CellLibrary, cell: &Cell) -> Nm {
    let koz = lib.node().rules.miv_koz_nm;
    if cell.miv_count > 0 && koz > 0 {
        cell.width_nm + 2 * koz
    } else {
        cell.width_nm
    }
}

/// Legalizes `placement` in place. With a `tier_filter = (assignment,
/// tier)`, only the instances on that tier are legalized (they share x/y
/// space with other tiers but occupy their own device layer).
pub(crate) fn legalize_rows(
    netlist: &Netlist,
    lib: &CellLibrary,
    placement: &mut Placement,
    tier_filter: Option<(&[u8], u8)>,
) {
    let row_h = placement.row_height;
    let width = placement.core.width();
    let n_rows = ((placement.core.height() / row_h) as usize).max(1);

    let widths: Vec<Nm> = netlist
        .inst_ids()
        .map(|i| effective_width_nm(lib, lib.cell(netlist.inst(i).cell)))
        .collect();

    // Desired row per cell (restricted to the tier when filtering).
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n_rows];
    for (i, p) in placement.positions.iter().enumerate() {
        if let Some((assignment, tier)) = tier_filter {
            if assignment.get(i).copied().unwrap_or(0) != tier {
                continue;
            }
        }
        let r = ((p.y / row_h) as usize).min(n_rows - 1);
        rows[r].push(i as u32);
    }

    // Rebalance: push overflow (cells farthest from the row centre in x)
    // to the neighbouring row with more slack. Two sweeps (up then down).
    let row_load =
        |row: &[u32], widths: &[Nm]| -> Nm { row.iter().map(|&i| widths[i as usize]).sum() };
    for sweep in 0..12 {
        let any_overfull = (0..n_rows).any(|r| row_load(&rows[r], &widths) > width);
        if !any_overfull {
            break;
        }
        let order: Box<dyn Iterator<Item = usize>> = if sweep % 2 == 0 {
            Box::new(0..n_rows)
        } else {
            Box::new((0..n_rows).rev())
        };
        for r in order {
            while row_load(&rows[r], &widths) > width && !rows[r].is_empty() {
                // Move the widest cell to the emptier neighbour.
                let (idx, _) = rows[r]
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &i)| widths[i as usize])
                    .expect("row non-empty");
                let cell = rows[r].swap_remove(idx);
                let up = (r + 1).min(n_rows - 1);
                let down = r.saturating_sub(1);
                let target = if up != r
                    && (down == r || row_load(&rows[up], &widths) <= row_load(&rows[down], &widths))
                {
                    up
                } else if down != r {
                    down
                } else {
                    break;
                };
                rows[target].push(cell);
            }
        }
    }

    // Final fixup: any row still overfull dumps its widest cells into the
    // nearest row with slack (guaranteed to exist while overall
    // utilization < 1).
    for r in 0..n_rows {
        while row_load(&rows[r], &widths) > width && !rows[r].is_empty() {
            let (idx, _) = rows[r]
                .iter()
                .enumerate()
                .max_by_key(|(_, &i)| widths[i as usize])
                .expect("row non-empty");
            let cell = rows[r].swap_remove(idx);
            let w = widths[cell as usize];
            let target = (0..n_rows)
                .filter(|&t| t != r && row_load(&rows[t], &widths) + w <= width)
                .min_by_key(|&t| (t as i64 - r as i64).abs());
            match target {
                Some(t) => rows[t].push(cell),
                None => {
                    rows[r].push(cell);
                    break;
                }
            }
        }
    }

    // Pack each row: sort by desired x, place sequentially with a cursor
    // that starts as close to the desired position as remaining space
    // allows.
    for (r, row) in rows.iter_mut().enumerate() {
        row.sort_by_key(|&i| placement.positions[i as usize].x);
        let total: Nm = row_load(row, &widths);
        let mut cursor: Nm = 0;
        let mut remaining = total;
        for &i in row.iter() {
            let w = widths[i as usize];
            let desired = placement.positions[i as usize].x - w / 2;
            // If the row is overfull despite rebalancing, overflow past
            // the right edge rather than overlapping neighbours.
            let latest_start = (width - remaining).max(0).max(cursor);
            let x = desired.clamp(cursor, latest_start);
            placement.positions[i as usize] = Point::new(x + w / 2, r as Nm * row_h + row_h / 2);
            cursor = x + w;
            remaining -= w;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Placer;
    use m3d_cells::CellLibrary;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_tech::{DesignStyle, TechNode};

    #[test]
    fn legalized_rows_have_no_overlaps() {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let n = Benchmark::Des.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib)
            .utilization(0.7)
            .try_place(&n)
            .expect("placement succeeds");
        // Group by row and check pairwise spacing.
        use std::collections::BTreeMap;
        let mut rows: BTreeMap<i64, Vec<(i64, i64)>> = BTreeMap::new();
        for id in n.inst_ids() {
            let c = lib.cell(n.inst(id).cell);
            let pos = p.pos(id);
            rows.entry(pos.y)
                .or_default()
                .push((pos.x - c.width_nm / 2, pos.x + c.width_nm / 2));
        }
        let mut overlap_nm = 0i64;
        let mut total_cells = 0usize;
        for (_, mut row) in rows {
            row.sort_unstable();
            total_cells += row.len();
            for pair in row.windows(2) {
                overlap_nm += (pair[0].1 - pair[1].0).max(0);
            }
        }
        assert!(total_cells > 0);
        assert_eq!(overlap_nm, 0, "rows contain overlapping cells");
    }

    #[test]
    fn cells_snap_to_row_centres() {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let n = Benchmark::Aes.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib).try_place(&n).expect("placement succeeds");
        let row_h = p.row_height;
        for id in n.inst_ids() {
            let y = p.pos(id).y;
            assert_eq!((y - row_h / 2) % row_h, 0, "cell not on a row centre");
        }
    }
}
