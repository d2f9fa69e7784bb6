//! Clock-tree synthesis: a recursive-bisection H-tree over the placed
//! flops, with a buffer at every branch point.
//!
//! The main flow models the clock net with the classic
//! `1.5·sqrt(A·N)` H-tree length estimate (see
//! [`crate::Router`]); this module *builds* the tree — splitting the sink
//! set by the longer core dimension at its median, wiring parent to child
//! taps, and reporting per-level wirelength, buffer count and skew-ish
//! depth balance — for flows that want an explicit clock network.
//!
//! # Example
//!
//! ```
//! use m3d_cells::CellLibrary;
//! use m3d_netlist::{BenchScale, Benchmark};
//! use m3d_place::Placer;
//! use m3d_route::cts::{build_clock_tree, CtsConfig};
//! use m3d_tech::{DesignStyle, TechNode};
//!
//! let node = TechNode::n45();
//! let lib = CellLibrary::build(&node, DesignStyle::TwoD);
//! let n = Benchmark::Aes.generate(&lib, BenchScale::Small);
//! let p = Placer::new(&lib).iterations(12).try_place(&n).expect("placement succeeds");
//! let tree = build_clock_tree(&n, &p, &CtsConfig::default());
//! assert!(tree.sink_count > 0);
//! assert!(tree.total_wirelength_um > 0.0);
//! ```

use serde::{Deserialize, Serialize};

use m3d_geom::Point;
use m3d_netlist::Netlist;
use m3d_place::Placement;

/// CTS tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CtsConfig {
    /// Maximum sinks a leaf buffer may drive directly.
    pub max_fanout: usize,
}

impl Default for CtsConfig {
    fn default() -> Self {
        CtsConfig { max_fanout: 16 }
    }
}

impl CtsConfig {
    /// `max_fanout` with a floor of 1: a zero fanout would recurse
    /// forever (a one-sink slice could never become a leaf), so the
    /// builder clamps instead of trusting the caller.
    fn effective_fanout(&self) -> usize {
        self.max_fanout.max(1)
    }
}

/// One branch point of the synthesized tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CtsNode {
    /// Tap location.
    pub at: Point,
    /// Tree level (0 = root).
    pub level: u32,
    /// Number of sinks below this node.
    pub sinks_below: usize,
}

/// The synthesized clock tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClockTree {
    /// Branch points (each hosts one clock buffer).
    pub buffers: Vec<CtsNode>,
    /// Total tree wirelength, µm (trunk segments + leaf stubs).
    pub total_wirelength_um: f64,
    /// Number of clocked sinks served.
    pub sink_count: usize,
    /// Deepest level (≈ insertion-delay depth; a balanced tree keeps the
    /// min and max leaf depths within one level of each other).
    pub depth: u32,
}

impl ClockTree {
    /// Buffers on a level.
    pub fn buffers_at(&self, level: u32) -> usize {
        self.buffers.iter().filter(|b| b.level == level).count()
    }
}

fn centroid(points: &[Point]) -> Point {
    let n = points.len().max(1) as i64;
    let (sx, sy) = points
        .iter()
        .fold((0i64, 0i64), |(x, y), p| (x + p.x, y + p.y));
    Point::new(sx / n, sy / n)
}

fn build_recursive(
    sinks: &mut [Point],
    level: u32,
    cfg: &CtsConfig,
    buffers: &mut Vec<CtsNode>,
    wl_nm: &mut i64,
    depth: &mut u32,
) -> Point {
    let here = centroid(sinks);
    buffers.push(CtsNode {
        at: here,
        level,
        sinks_below: sinks.len(),
    });
    *depth = (*depth).max(level);
    if sinks.len() <= cfg.effective_fanout() {
        // Leaf: direct stubs to each sink.
        for s in sinks.iter() {
            *wl_nm += here.manhattan(*s);
        }
        return here;
    }
    // Split by the spread-out dimension at the median. The slice is
    // non-empty here: `build_clock_tree` rejects empty sink sets before
    // recursing, and both median halves keep at least one sink because
    // `len > effective_fanout() >= 1`.
    let bb = m3d_geom::Rect::bounding(sinks.iter().copied())
        .expect("recursion invariant: sink slices are never empty");
    let by_x = bb.width() >= bb.height();
    if by_x {
        sinks.sort_by_key(|p| p.x);
    } else {
        sinks.sort_by_key(|p| p.y);
    }
    let mid = sinks.len() / 2;
    let (lo, hi) = sinks.split_at_mut(mid);
    let a = build_recursive(lo, level + 1, cfg, buffers, wl_nm, depth);
    let b = build_recursive(hi, level + 1, cfg, buffers, wl_nm, depth);
    *wl_nm += here.manhattan(a) + here.manhattan(b);
    here
}

/// Builds the clock tree over every flop's CK pin in the placed design.
///
/// Returns an empty tree for purely combinational designs.
pub fn build_clock_tree(netlist: &Netlist, placement: &Placement, config: &CtsConfig) -> ClockTree {
    let Some(clock) = netlist.clock else {
        return ClockTree {
            buffers: Vec::new(),
            total_wirelength_um: 0.0,
            sink_count: 0,
            depth: 0,
        };
    };
    let mut sinks: Vec<Point> = netlist
        .net(clock)
        .sinks
        .iter()
        .map(|s| placement.pos(s.inst))
        .collect();
    if sinks.is_empty() {
        return ClockTree {
            buffers: Vec::new(),
            total_wirelength_um: 0.0,
            sink_count: 0,
            depth: 0,
        };
    }
    let mut buffers = Vec::new();
    let mut wl_nm = 0i64;
    let mut depth = 0u32;
    let sink_count = sinks.len();
    build_recursive(&mut sinks, 0, config, &mut buffers, &mut wl_nm, &mut depth);
    ClockTree {
        buffers,
        total_wirelength_um: wl_nm as f64 * 1e-3,
        sink_count,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_cells::CellLibrary;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_place::Placer;
    use m3d_tech::{DesignStyle, TechNode};

    fn tree(max_fanout: usize) -> (Netlist, ClockTree) {
        let node = TechNode::n45();
        let lib = CellLibrary::build(&node, DesignStyle::TwoD);
        let n = Benchmark::Des.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib)
            .iterations(12)
            .try_place(&n)
            .expect("placement succeeds");
        let t = build_clock_tree(&n, &p, &CtsConfig { max_fanout });
        (n, t)
    }

    #[test]
    fn tree_serves_every_flop() {
        let (n, t) = tree(16);
        let clock = n.clock.expect("sequential");
        assert_eq!(t.sink_count, n.net(clock).sinks.len());
        assert!(t.buffers_at(0) == 1, "one root");
        assert!(t.depth >= 1);
    }

    #[test]
    fn tighter_fanout_builds_deeper_trees_with_more_buffers() {
        let (_, loose) = tree(64);
        let (_, tight) = tree(8);
        assert!(tight.buffers.len() > loose.buffers.len());
        assert!(tight.depth >= loose.depth);
    }

    #[test]
    fn tree_length_tracks_the_h_tree_estimate() {
        // The closed-form estimate the router uses should be within a
        // small factor of the synthesized tree.
        let node = TechNode::n45();
        let lib = CellLibrary::build(&node, DesignStyle::TwoD);
        let n = Benchmark::Des.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib)
            .iterations(12)
            .try_place(&n)
            .expect("placement succeeds");
        let t = build_clock_tree(&n, &p, &CtsConfig::default());
        let clock = n.clock.expect("sequential");
        let estimate = 1.5 * (p.footprint_um2() * n.net(clock).sinks.len() as f64).sqrt();
        let ratio = t.total_wirelength_um / estimate;
        assert!(
            (0.2..2.5).contains(&ratio),
            "tree {} um vs estimate {} um",
            t.total_wirelength_um,
            estimate
        );
    }

    #[test]
    fn zero_fanout_is_clamped_and_terminates() {
        // max_fanout == 0 would otherwise never satisfy the leaf check
        // for a single-sink slice and recurse forever.
        let (n, t) = tree(0);
        let clock = n.clock.expect("sequential");
        assert_eq!(t.sink_count, n.net(clock).sinks.len());
        let (_, one) = tree(1);
        assert_eq!(t.buffers.len(), one.buffers.len());
    }

    #[test]
    fn combinational_designs_get_an_empty_tree() {
        let node = TechNode::n45();
        let lib = CellLibrary::build(&node, DesignStyle::TwoD);
        let mut b = m3d_netlist::NetlistBuilder::new(&lib, "comb");
        let x = b.input();
        let y = b.gate(m3d_cells::CellFunction::Inv, &[x]);
        b.output(y);
        let n = b.finish();
        let p = Placer::new(&lib)
            .iterations(4)
            .try_place(&n)
            .expect("placement succeeds");
        let t = build_clock_tree(&n, &p, &CtsConfig::default());
        assert_eq!(t.sink_count, 0);
        assert!(t.buffers.is_empty());
    }
}
