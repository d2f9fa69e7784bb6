//! Density spreading: 1-D cumulative redistribution over a bin grid,
//! applied in x (per bin row) and then in y (per bin column).
//!
//! Each scan computes the cell-area demand per bin and remaps cell
//! coordinates through the monotone map `F_capacity^-1 (F_demand(x))`,
//! which equalizes density while preserving relative order — the same
//! idea as the look-ahead legalization in modern analytical placers, in
//! its simplest 1-D form.

use m3d_cells::CellLibrary;
use m3d_geom::Rect;
use m3d_netlist::Netlist;

/// Number of bins per axis for `n` cells.
fn grid_for(n: usize) -> usize {
    ((n as f64).sqrt() as usize / 2).clamp(4, 96)
}

/// Per-instance area the spreading budgets: effective width (footprint
/// plus any MIV keep-out clearance) times height, nm².
pub(crate) fn cell_areas(netlist: &Netlist, lib: &CellLibrary) -> Vec<f64> {
    netlist
        .inst_ids()
        .map(|i| {
            let c = lib.cell(netlist.inst(i).cell);
            crate::legalize::effective_width_nm(lib, c) as f64 * c.height_nm as f64
        })
        .collect()
}

/// Spreads `(xs, ys)` in place; `areas` comes from [`cell_areas`].
pub(crate) fn spread(areas: &[f64], xs: &mut [f64], ys: &mut [f64], core: Rect, utilization: f64) {
    let n = xs.len();
    if n == 0 {
        return;
    }
    let g = grid_for(n);
    let w = core.width() as f64;
    let h = core.height() as f64;
    // Allow a little headroom over the target utilization so the map
    // doesn't fight the wirelength forces too hard.
    let cap_per_bin_x = (w / g as f64) * h / g as f64 * (utilization * 1.15).min(1.0);

    // X pass: per bin-row.
    axis_pass(xs, ys, areas, g, w, h, cap_per_bin_x);
    // Y pass: per bin-column (swap roles).
    axis_pass(ys, xs, areas, g, h, w, cap_per_bin_x);
}

/// Bin of a coordinate along an axis of `g` bins of width `bin_w`.
fn bin_of(x: f64, bin_w: f64, g: usize) -> usize {
    ((x / bin_w) as usize).min(g - 1)
}

/// Redistributes `primary` coordinates within each band of `secondary`.
fn axis_pass(
    primary: &mut [f64],
    secondary: &[f64],
    areas: &[f64],
    g: usize,
    primary_extent: f64,
    secondary_extent: f64,
    bin_capacity: f64,
) {
    let band_h = secondary_extent / g as f64;
    let bin_w = primary_extent / g as f64;
    // Group cells by band.
    let mut bands: Vec<Vec<u32>> = vec![Vec::new(); g];
    for (i, &s) in secondary.iter().enumerate().take(primary.len()) {
        let b = ((s / band_h) as usize).min(g - 1);
        bands[b].push(i as u32);
    }
    let mut demand = vec![0.0f64; g];
    let mut cell_bin = vec![0u32; primary.len()];
    let mut starts = Vec::with_capacity(g + 1);
    let mut ordered = Vec::new();
    for band in bands {
        if band.is_empty() {
            continue;
        }
        // Demand per bin along the primary axis.
        demand.fill(0.0);
        for &i in &band {
            let b = bin_of(primary[i as usize], bin_w, g);
            cell_bin[i as usize] = b as u32;
            demand[b] += areas[i as usize];
        }
        if demand.iter().all(|&d| d <= bin_capacity) {
            continue;
        }
        // Remap through the cumulative demand/capacity profile. Cells are
        // ordered by coordinate (ties broken by index so coincident cells
        // fan out) and each takes its own slice of cumulative area.
        order_band(&band, primary, &cell_bin, g, &mut starts, &mut ordered);
        let total: f64 = ordered.iter().map(|&k| areas[key_index(k)]).sum();
        let cap_total = bin_capacity * g as f64;
        let scale = if total > cap_total {
            cap_total / total
        } else {
            1.0
        };
        let mut cum = 0.0f64;
        for &k in &ordered {
            let i = key_index(k);
            let a = areas[i];
            let d_here = (cum + 0.5 * a) * scale;
            let new_x = d_here / bin_capacity * bin_w;
            // Blend toward the density-balanced position: full strength
            // only when the cell's own bin is overfull.
            let strength = (demand[cell_bin[i] as usize] / bin_capacity - 1.0).clamp(0.0, 1.0);
            let x0 = primary[i];
            primary[i] = (x0 + strength * (new_x - x0)).clamp(0.0, primary_extent - 1.0);
            cum += a;
        }
    }
}

/// Fills `ordered` with one key per cell of `band`, sorted by
/// `(coordinate, index)`: the coordinate's bits above the index.
///
/// A counting pass groups the keys by each cell's `cell_bin` (its
/// [`bin_of`] along the primary axis), and only each bin's slice is
/// sorted. For finite non-negative `x` the bits order like the values
/// and the bin is monotone in `x`, so this is the order of comparing
/// coordinates and then indices. `-0.0` is folded to `+0.0`, which
/// compares equal to it.
fn order_band(
    band: &[u32],
    primary: &[f64],
    cell_bin: &[u32],
    g: usize,
    starts: &mut Vec<usize>,
    ordered: &mut Vec<u128>,
) {
    starts.clear();
    starts.resize(g + 1, 0);
    for &i in band {
        let x = primary[i as usize];
        assert!(
            x.is_finite() && x >= 0.0,
            "finite, non-negative coordinates"
        );
        starts[cell_bin[i as usize] as usize + 1] += 1;
    }
    for b in 0..g {
        starts[b + 1] += starts[b];
    }
    ordered.clear();
    ordered.resize(band.len(), 0);
    for &i in band {
        let x = primary[i as usize] + 0.0; // -0.0 + 0.0 == +0.0
        let slot = &mut starts[cell_bin[i as usize] as usize];
        ordered[*slot] = (u128::from(x.to_bits()) << 32) | u128::from(i);
        *slot += 1;
    }
    // Each bin's cursor now sits at the start of the next bin.
    let mut lo = 0;
    for &hi in &starts[..g] {
        ordered[lo..hi].sort_unstable();
        lo = hi;
    }
}

/// The cell index packed into the low bits of an [`order_band`] key.
fn key_index(key: u128) -> usize {
    key as u32 as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_cells::{CellFunction, CellLibrary};
    use m3d_geom::Point;
    use m3d_netlist::NetlistBuilder;
    use m3d_tech::{DesignStyle, TechNode};
    use proptest::prelude::*;

    /// The comparator sort `order_band` replaced: by coordinate, then by
    /// index.
    fn comparator_order(band: &[u32], primary: &[f64]) -> Vec<u32> {
        let mut ordered = band.to_vec();
        ordered.sort_by(|&a, &b| {
            primary[a as usize]
                .partial_cmp(&primary[b as usize])
                .expect("finite coordinates")
                .then(a.cmp(&b))
        });
        ordered
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bucketed_order_matches_the_comparator_sort(
            seed in 0u64..1_000_000,
            n in 1usize..600,
            g in 4usize..97,
        ) {
            let extent = 40_000.0;
            let bin_w = extent / g as f64;
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut rnd = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Forced ties, both zeros, the clamp ceiling, the extent
            // itself and bin edges, mixed with uniform draws.
            let tied = [1234.5, 20_000.0, 39_998.25];
            let primary: Vec<f64> = (0..n)
                .map(|_| match rnd() % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => extent - 1.0,
                    3 => extent,
                    4 => tied[(rnd() % 3) as usize],
                    5 => (rnd() % g as u64) as f64 * bin_w,
                    _ => (rnd() >> 11) as f64 / (1u64 << 53) as f64 * extent,
                })
                .collect();
            let band: Vec<u32> = (0..n as u32).filter(|_| rnd() % 4 != 0).collect();
            let cell_bin: Vec<u32> = primary.iter().map(|&x| bin_of(x, bin_w, g) as u32).collect();
            let (mut starts, mut ordered) = (Vec::new(), Vec::new());
            order_band(&band, &primary, &cell_bin, g, &mut starts, &mut ordered);
            let bucketed: Vec<u32> = ordered.iter().map(|&k| key_index(k) as u32).collect();
            prop_assert_eq!(bucketed, comparator_order(&band, &primary));
        }
    }

    #[test]
    fn spreading_reduces_peak_density() {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        for _ in 0..400 {
            b.gate(CellFunction::Inv, &[x]);
        }
        let n = b.finish();
        let core = Rect::from_size(Point::ORIGIN, 40_000, 40_000);
        // Everything piled into one corner.
        let mut xs = vec![100.0; 400];
        let mut ys = vec![100.0; 400];
        spread(&cell_areas(&n, &lib), &mut xs, &mut ys, core, 0.8);
        let spread_x = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread_x > 5_000.0, "x spread only {spread_x} nm");
        for &v in &xs {
            assert!((0.0..40_000.0).contains(&v));
        }
    }

    #[test]
    fn already_uniform_layout_is_untouched() {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        for _ in 0..16 {
            b.gate(CellFunction::Inv, &[x]);
        }
        let n = b.finish();
        let core = Rect::from_size(Point::ORIGIN, 100_000, 100_000);
        let mut xs: Vec<f64> = (0..16).map(|i| 3_000.0 + i as f64 * 6_000.0).collect();
        let mut ys: Vec<f64> = (0..16).map(|i| 3_000.0 + i as f64 * 6_000.0).collect();
        let before = xs.clone();
        spread(&cell_areas(&n, &lib), &mut xs, &mut ys, core, 0.8);
        assert_eq!(xs, before, "uniform density should be a fixed point");
    }
}
