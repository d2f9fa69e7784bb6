use serde::{Deserialize, Serialize};

use m3d_geom::{Point, Rect};
use m3d_tech::{MetalClass, MetalStack};

/// Routing-demand bookkeeping: a G×G bin grid with per-class track demand
/// and capacity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CongestionGrid {
    g: usize,
    core: Rect,
    bin_w: f64,
    bin_h: f64,
    /// `demand[class][bin]` in track·µm units.
    demand: [Vec<f64>; 3],
    /// Per-bin capacity per class, track·µm.
    capacity: [f64; 3],
}

/// The three routable classes above M1 map to slots 0..3.
pub(crate) fn class_slot(class: MetalClass) -> Option<usize> {
    match class {
        MetalClass::M1 => None,
        MetalClass::Local => Some(0),
        MetalClass::Intermediate => Some(1),
        MetalClass::Global => Some(2),
    }
}

pub(crate) fn slot_class(slot: usize) -> MetalClass {
    match slot {
        0 => MetalClass::Local,
        1 => MetalClass::Intermediate,
        _ => MetalClass::Global,
    }
}

impl CongestionGrid {
    /// Creates a grid over `core` with per-class capacities derived from
    /// the stack's track supply.
    pub fn new(core: Rect, stack: &MetalStack) -> Self {
        let longest = core.width().max(core.height()) as f64 * 1e-3; // µm
        let g = ((longest / 25.0) as usize).clamp(8, 128);
        let bin_w = core.width() as f64 / g as f64;
        let bin_h = core.height() as f64 / g as f64;
        let mut capacity = [0.0; 3];
        for (slot, cap) in capacity.iter_mut().enumerate() {
            let supply = stack.track_supply_per_um(slot_class(slot));
            // Tracks crossing a bin (supply/µm x bin width) times the
            // usable length each track offers inside the bin, with a 20 %
            // margin for power/clock pre-routes. Layers already alternate
            // directions, so no further split is needed. Unit: track·µm
            // of demand the bin can absorb.
            *cap = supply * (bin_w * 1e-3) * (bin_h * 1e-3) * 0.8;
        }
        CongestionGrid {
            g,
            core,
            bin_w,
            bin_h,
            demand: [vec![0.0; g * g], vec![0.0; g * g], vec![0.0; g * g]],
            capacity,
        }
    }

    /// Grid dimension.
    pub fn dim(&self) -> usize {
        self.g
    }

    fn bin_of(&self, p: Point) -> (usize, usize) {
        let x = (((p.x - self.core.lo().x) as f64 / self.bin_w) as usize).min(self.g - 1);
        let y = (((p.y - self.core.lo().y) as f64 / self.bin_h) as usize).min(self.g - 1);
        (x, y)
    }

    /// Fills `bins` with the bins along the L-shaped path
    /// `a -> corner -> b`, where the corner is `(b.x, a.y)` when
    /// `horizontal_first` else `(a.x, b.y)`.
    pub(crate) fn l_path_bins(
        &self,
        a: Point,
        b: Point,
        horizontal_first: bool,
        bins: &mut Vec<usize>,
    ) {
        let corner = if horizontal_first {
            Point::new(b.x, a.y)
        } else {
            Point::new(a.x, b.y)
        };
        bins.clear();
        for (p, q) in [(a, corner), (corner, b)] {
            let (x0, y0) = self.bin_of(p);
            let (x1, y1) = self.bin_of(q);
            if y0 == y1 {
                for x in x0.min(x1)..=x0.max(x1) {
                    bins.push(y0 * self.g + x);
                }
            } else {
                for y in y0.min(y1)..=y0.max(y1) {
                    bins.push(y * self.g + x0);
                }
            }
        }
        bins.dedup();
    }

    /// Worst demand/capacity ratio along a bin path for a class slot.
    pub(crate) fn path_congestion(&self, bins: &[usize], slot: usize) -> f64 {
        bins.iter()
            .map(|&b| self.demand[slot][b] / self.capacity[slot])
            .fold(0.0, f64::max)
    }

    /// Adds `track_um` of demand to each bin on the path.
    pub(crate) fn commit(&mut self, bins: &[usize], slot: usize, track_um_per_bin: f64) {
        for &b in bins {
            self.demand[slot][b] += track_um_per_bin;
        }
    }

    /// Maze fallback: cheapest rectilinear bin path from `a` to `b` for a
    /// class slot, where each bin costs `1 + 4·max(0, overflow)`. Returns
    /// the bin path and its length in bins. Used when both L-shapes of an
    /// edge are congested; the detour trades length for track supply.
    pub(crate) fn maze_path(&self, a: Point, b: Point, slot: usize) -> Vec<usize> {
        let (ax, ay) = self.bin_of(a);
        let (bx, by) = self.bin_of(b);
        let g = self.g;
        let idx = |x: usize, y: usize| y * g + x;
        let start = idx(ax, ay);
        let goal = idx(bx, by);
        let mut dist = vec![f64::INFINITY; g * g];
        let mut prev = vec![usize::MAX; g * g];
        // Dijkstra over the small grid (g <= 128 -> 16k nodes).
        let mut heap = std::collections::BinaryHeap::new();
        #[derive(PartialEq)]
        struct Item(f64, usize);
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.partial_cmp(&self.0).expect("finite costs")
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        dist[start] = 0.0;
        heap.push(Item(0.0, start));
        while let Some(Item(d, u)) = heap.pop() {
            if u == goal {
                break;
            }
            if d > dist[u] {
                continue;
            }
            let (ux, uy) = (u % g, u / g);
            let neighbours = [
                (ux.wrapping_sub(1), uy),
                (ux + 1, uy),
                (ux, uy.wrapping_sub(1)),
                (ux, uy + 1),
            ];
            for (nx, ny) in neighbours {
                if nx >= g || ny >= g {
                    continue;
                }
                let v = idx(nx, ny);
                let overflow = (self.demand[slot][v] / self.capacity[slot] - 1.0).max(0.0);
                let cost = d + 1.0 + 4.0 * overflow;
                if cost < dist[v] {
                    dist[v] = cost;
                    prev[v] = u;
                    heap.push(Item(cost, v));
                }
            }
        }
        // Reconstruct.
        let mut path = vec![goal];
        let mut cur = goal;
        while cur != start && prev[cur] != usize::MAX {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Fraction of (class, bin) pairs whose demand exceeds capacity.
    pub fn overflow_ratio(&self) -> f64 {
        let mut over = 0usize;
        let mut used = 0usize;
        for slot in 0..3 {
            for &d in &self.demand[slot] {
                if d > 0.0 {
                    used += 1;
                    if d > self.capacity[slot] {
                        over += 1;
                    }
                }
            }
        }
        if used == 0 {
            0.0
        } else {
            over as f64 / used as f64
        }
    }

    /// Peak demand/capacity ratio for a class.
    pub fn peak_utilization(&self, class: MetalClass) -> f64 {
        let Some(slot) = class_slot(class) else {
            return 0.0;
        };
        self.demand[slot]
            .iter()
            .map(|&d| d / self.capacity[slot])
            .fold(0.0, f64::max)
    }

    /// Mean demand/capacity over non-empty bins for a class.
    pub fn mean_utilization(&self, class: MetalClass) -> f64 {
        let Some(slot) = class_slot(class) else {
            return 0.0;
        };
        let non_empty: Vec<f64> = self.demand[slot]
            .iter()
            .filter(|&&d| d > 0.0)
            .map(|&d| d / self.capacity[slot])
            .collect();
        if non_empty.is_empty() {
            0.0
        } else {
            non_empty.iter().sum::<f64>() / non_empty.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::{StackKind, TechNode};

    fn grid() -> CongestionGrid {
        let node = TechNode::n45();
        let stack = MetalStack::new(&node, StackKind::TwoD);
        CongestionGrid::new(Rect::from_size(Point::ORIGIN, 400_000, 400_000), &stack)
    }

    #[test]
    fn l_paths_cover_both_legs() {
        let g = grid();
        let a = Point::new(10_000, 10_000);
        let b = Point::new(200_000, 300_000);
        let (mut h, mut v) = (Vec::new(), Vec::new());
        g.l_path_bins(a, b, true, &mut h);
        g.l_path_bins(a, b, false, &mut v);
        assert!(h.len() > 2 && v.len() > 2);
        assert_ne!(h, v, "the two L options differ");
    }

    #[test]
    fn commit_raises_congestion() {
        let mut g = grid();
        let a = Point::new(10_000, 10_000);
        let b = Point::new(200_000, 10_000);
        let mut bins = Vec::new();
        g.l_path_bins(a, b, true, &mut bins);
        assert_eq!(g.path_congestion(&bins, 0), 0.0);
        g.commit(&bins, 0, 5.0);
        assert!(g.path_congestion(&bins, 0) > 0.0);
        assert_eq!(g.path_congestion(&bins, 1), 0.0, "other classes untouched");
    }

    #[test]
    fn tmi_stack_has_more_local_capacity() {
        let node = TechNode::n45();
        let core = Rect::from_size(Point::ORIGIN, 400_000, 400_000);
        let g2 = CongestionGrid::new(core, &MetalStack::new(&node, StackKind::TwoD));
        let g3 = CongestionGrid::new(core, &MetalStack::new(&node, StackKind::Tmi));
        assert!(g3.capacity[0] > 2.0 * g2.capacity[0]);
        assert!((g3.capacity[2] - g2.capacity[2]).abs() < 1e-9);
    }

    #[test]
    fn maze_path_connects_and_detours_around_overflow() {
        let mut g = grid();
        let a = Point::new(10_000, 10_000);
        let b = Point::new(390_000, 10_000);
        // Without congestion the maze walks the straight row.
        let clean = g.maze_path(a, b, 0);
        assert!(!clean.is_empty());
        let straight_len = clean.len();
        // Saturate the straight row between the endpoints.
        let mut bins = Vec::new();
        g.l_path_bins(a, b, true, &mut bins);
        g.commit(&bins, 0, g.capacity[0] * 5.0);
        let detour = g.maze_path(a, b, 0);
        assert!(
            detour.len() > straight_len,
            "maze should leave the saturated row ({} !> {})",
            detour.len(),
            straight_len
        );
    }

    #[test]
    fn overflow_ratio_counts_saturated_bins() {
        let mut g = grid();
        let a = Point::new(10_000, 10_000);
        let b = Point::new(30_000, 10_000);
        let mut bins = Vec::new();
        g.l_path_bins(a, b, true, &mut bins);
        g.commit(&bins, 2, g.capacity[2] * 2.0);
        assert!(g.overflow_ratio() > 0.0);
    }
}
