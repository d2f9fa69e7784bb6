use std::ops::Range;

use serde::{Deserialize, Serialize};

use m3d_cells::CellLibrary;
use m3d_geom::{nm_to_um, Point};
use m3d_netlist::{NetId, Netlist};
use m3d_place::Placement;
use m3d_tech::{MetalClass, MetalStack, TechNode};

use crate::grid::{slot_class, CongestionGrid};

/// One routed net: its range of the design's segments (see
/// [`RoutedDesign::segments`]) plus via count, the input to
/// `m3d_extract::try_extract_net`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoutedNet {
    /// Indices of this net's segments in the design's segment arrays.
    segments: Range<u32>,
    /// Via cuts.
    pub via_count: u32,
    /// Total routed length, µm.
    pub wirelength_um: f64,
    /// The metal class carrying the trunk.
    pub trunk_class: MetalClass,
}

/// The routing result for a whole design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutedDesign {
    /// Per-net routes, indexed by [`NetId`].
    pub nets: Vec<RoutedNet>,
    /// Every net's segments back to back, in routing order, as two
    /// arrays: the stack layer index and the length in µm.
    segment_layers: Vec<u16>,
    segment_lengths: Vec<f64>,
    /// Final congestion state.
    pub grid: CongestionGrid,
    /// The stack kind that was routed against.
    pub stack: MetalStack,
}

impl RoutedDesign {
    /// Route of one net.
    pub fn net(&self, id: NetId) -> &RoutedNet {
        &self.nets[id.0 as usize]
    }

    /// The `(stack layer index, length µm)` segments of one net.
    pub fn segments(&self, id: NetId) -> impl ExactSizeIterator<Item = (u16, f64)> + '_ {
        self.segments_of(self.net(id))
    }

    fn segments_of(&self, rn: &RoutedNet) -> impl ExactSizeIterator<Item = (u16, f64)> + '_ {
        let r = rn.segments.start as usize..rn.segments.end as usize;
        self.segment_layers[r.clone()]
            .iter()
            .copied()
            .zip(self.segment_lengths[r].iter().copied())
    }

    /// Total wirelength, µm.
    pub fn total_wirelength_um(&self) -> f64 {
        self.nets.iter().map(|n| n.wirelength_um).sum()
    }

    /// Total wirelength on one metal class, µm, summed net by net in id
    /// order.
    pub fn class_wirelength_um(&self, class: MetalClass) -> f64 {
        self.nets
            .iter()
            .flat_map(|n| self.segments_of(n))
            .filter(|(layer, _)| self.stack.layers()[*layer as usize].class == class)
            .map(|(_, len)| len)
            .sum()
    }
}

/// Routing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// The metal stack lacks a layer the router depends on (M1 today).
    MissingLayer {
        /// Layer name the router looked for.
        layer: &'static str,
    },
    /// A net's half-perimeter wirelength evaluated to a non-finite value,
    /// so nets cannot be ordered for routing.
    NonFiniteNetLength {
        /// Offending net id.
        net: u32,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::MissingLayer { layer } => {
                write!(f, "metal stack has no {layer} layer")
            }
            RouteError::NonFiniteNetLength { net } => {
                write!(f, "net {net} has a non-finite wirelength estimate")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The global router. See the crate docs for the algorithm.
#[derive(Debug, Clone)]
pub struct Router<'a> {
    node: &'a TechNode,
    stack: &'a MetalStack,
    /// Length thresholds (µm) separating local / intermediate / global
    /// trunks, scaled with the node dimension.
    thresholds: (f64, f64),
    /// Base routing detour over the MST length.
    detour: f64,
    /// Allow routing escapes on MB1 / through cell-embedded MIVs. The
    /// paper's S5 study disables these to measure whether the in-cell
    /// MIV/MB1 blockages degrade design quality (they do not).
    mb1_escape: bool,
}

impl<'a> Router<'a> {
    /// Creates a router for a node and stack.
    pub fn new(node: &'a TechNode, stack: &'a MetalStack) -> Self {
        let s = node.dimension_scale();
        Router {
            node,
            stack,
            thresholds: (30.0 * s, 140.0 * s),
            detour: 1.06,
            mb1_escape: true,
        }
    }

    /// Disables MB1/MIV routing escapes (paper S5 ablation).
    pub fn without_mb1(mut self) -> Self {
        self.mb1_escape = false;
        self
    }

    /// Routes every net of the placed design.
    ///
    /// Routes depend only on the netlist's connectivity and the
    /// placement's positions; the library is not consulted, so resizing
    /// cells in place leaves the result unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when the stack is missing M1 or any net's
    /// wirelength estimate is non-finite.
    pub fn try_route(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        _lib: &CellLibrary,
    ) -> Result<RoutedDesign, RouteError> {
        let Some(m1) = self.stack.by_name("M1") else {
            return Err(RouteError::MissingLayer { layer: "M1" });
        };
        let mut cx = NetScratch {
            m1: m1.index,
            mb1: self
                .stack
                .by_name("MB1")
                .filter(|_| self.mb1_escape)
                .map(|l| l.index),
            slot_layers: [0, 1, 2].map(|slot| {
                self.stack
                    .layers_of(slot_class(slot))
                    .map(|l| l.index)
                    .collect()
            }),
            bins_h: Vec::new(),
            bins_v: Vec::new(),
            segments: Vec::new(),
        };
        let mut grid = CongestionGrid::new(placement.core, self.stack);
        let mut nets: Vec<RoutedNet> = vec![RoutedNet::default(); netlist.net_count()];
        let mut segment_layers: Vec<u16> = Vec::new();
        let mut segment_lengths: Vec<f64> = Vec::new();

        // Deterministic order: longest nets first so they grab the upper
        // layers before the grid saturates (routers route critical/global
        // first).
        let mut order: Vec<(NetId, f64)> = netlist
            .net_ids()
            .map(|id| (id, placement.net_hpwl_um(netlist, id)))
            .collect();
        if let Some((id, _)) = order.iter().find(|(_, l)| !l.is_finite()) {
            return Err(RouteError::NonFiniteNetLength { net: id.0 });
        }
        order.sort_by(|a, b| b.1.total_cmp(&a.1));

        for (id, hpwl) in order {
            // Each route writes its segments into `cx.segments`, then
            // they move to the end of the arena.
            cx.segments.clear();
            let rn = if Some(id) == netlist.clock {
                self.route_clock(&mut cx, netlist, placement, id)
            } else {
                let pts = placement.net_points(netlist, id);
                if pts.len() < 2 || hpwl == 0.0 {
                    // Single-pin or zero-length: pin escape only.
                    self.pin_escape_only(&mut cx, pts.len())
                } else {
                    let sinks = netlist.net(id).sinks.len();
                    self.route_net(&mut cx, &pts, &mut grid, sinks, id.0 as usize)
                }
            };
            let start = segment_layers.len() as u32;
            segment_layers.extend(cx.segments.iter().map(|&(layer, _)| layer));
            segment_lengths.extend(cx.segments.iter().map(|&(_, len)| len));
            nets[id.0 as usize] = RoutedNet {
                segments: start..segment_layers.len() as u32,
                ..rn
            };
        }
        Ok(RoutedDesign {
            nets,
            segment_layers,
            segment_lengths,
            grid,
            stack: self.stack.clone(),
        })
    }

    fn pin_escape_only(&self, cx: &mut NetScratch, pins: usize) -> RoutedNet {
        let escape = 0.5 * self.node.dimension_scale();
        let len = escape * pins as f64;
        if pins > 0 {
            cx.segments.push((cx.m1, len));
        }
        RoutedNet {
            via_count: pins as u32,
            wirelength_um: len,
            trunk_class: MetalClass::M1,
            ..RoutedNet::default()
        }
    }

    fn route_net(
        &self,
        cx: &mut NetScratch,
        pts: &[Point],
        grid: &mut CongestionGrid,
        sinks: usize,
        salt: usize,
    ) -> RoutedNet {
        // MST decomposition (star fallback for very high fanout).
        let edges = mst_edges(pts);
        let mut total_len = 0.0;
        let mut worst_congestion: f64 = 0.0;
        let mut chosen_slot_hist = [0usize; 3];

        for &(a, b) in &edges {
            let pa = pts[a];
            let pb = pts[b];
            let len = nm_to_um(pa.manhattan(pb));
            if len == 0.0 {
                continue;
            }
            // Preferred class by length.
            let preferred = if len <= self.thresholds.0 {
                0
            } else if len <= self.thresholds.1 {
                1
            } else {
                2
            };
            // Candidate (slot, l-shape) choices: preferred first. Long
            // nets may spill one class down under congestion (the paper's
            // 7 nm LDPC mechanism) but a global-length net never lands on
            // the local layers -- at 7 nm that would be electrically
            // unusable (638 Ohm/um), and no router would do it.
            let spill: [usize; 3] = match preferred {
                0 => [0, 1, 2],
                1 => [1, 2, 0],
                _ => [2, 1, 1],
            };
            grid.l_path_bins(pa, pb, true, &mut cx.bins_h);
            grid.l_path_bins(pa, pb, false, &mut cx.bins_v);
            let (bins_h, bins_v) = (&cx.bins_h, &cx.bins_v);
            let mut best = (preferred, bins_h, f64::INFINITY);
            'search: for &slot in &spill {
                for bins in [bins_h, bins_v] {
                    let c = grid.path_congestion(bins, slot);
                    if c < best.2 {
                        best = (slot, bins, c);
                    }
                    if slot == preferred && c < 0.7 {
                        // Preferred class has room: stop looking.
                        break 'search;
                    }
                }
            }
            let (slot, bins, congestion) = best;
            // Both L-shapes saturated in every class: fall back to a
            // congestion-aware maze route in the preferred class. The
            // detour costs wirelength but relieves the hot bins.
            let bins_owned;
            let (bins, len) = if congestion > 1.0 {
                bins_owned = grid.maze_path(pa, pb, preferred);
                let direct = bins_h.len().max(1) as f64;
                let detoured = len * (bins_owned.len() as f64 / direct).max(1.0);
                (&bins_owned, detoured)
            } else {
                (bins, len)
            };
            let slot = if congestion > 1.0 { preferred } else { slot };
            let track_um = len / bins.len().max(1) as f64;
            grid.commit(bins, slot, track_um);
            worst_congestion = worst_congestion.max(congestion);
            chosen_slot_hist[slot] += 1;
            total_len += len;
        }

        // Dominant slot carries the trunk; build segments per slot from
        // the histogram-weighted split of the detoured length.
        let detour = self.detour + 0.25 * worst_congestion.max(1.0).ln().max(0.0);
        let routed_len = total_len * detour;
        let total_edges: usize = chosen_slot_hist.iter().sum();
        let mut trunk_class = MetalClass::Local;
        let mut best_edges = 0;
        for (slot, &slot_edges) in chosen_slot_hist.iter().enumerate() {
            if slot_edges == 0 {
                continue;
            }
            let share = slot_edges as f64 / total_edges.max(1) as f64;
            let (h, v) = cx.layer_pair(slot, salt);
            let len = routed_len * share;
            cx.segments.push((h, len * 0.5));
            if v != h {
                cx.segments.push((v, len * 0.5));
            } else {
                // Single layer in class: merge.
                let last = cx.segments.len() - 1;
                cx.segments[last].1 += len * 0.5;
            }
            if slot_edges > best_edges {
                best_edges = slot_edges;
                trunk_class = slot_class(slot);
            }
        }
        // Pin escapes on M1 (plus MB1 for folded cells: the paper measures
        // ~0.3 % of wirelength on MB1, Section 3.3).
        let pins = pts.len();
        let escape = 0.4 * self.node.dimension_scale();
        cx.segments.push((cx.m1, escape * pins as f64));
        if let Some(mb1) = cx.mb1 {
            cx.segments.push((mb1, 0.03 * escape * pins as f64));
        }
        let wirelength_um = cx.segments.iter().map(|(_, l)| l).sum();

        RoutedNet {
            via_count: 2 * edges.len() as u32 + 2 * sinks as u32,
            wirelength_um,
            trunk_class,
            ..RoutedNet::default()
        }
    }

    /// Clock distribution: an H-tree estimate (total length ~
    /// 1.5·sqrt(A·N)) on the intermediate layers plus per-sink stubs. The
    /// real flow would run CTS; the estimate preserves the clock's power
    /// contribution without a full tree synthesis.
    fn route_clock(
        &self,
        cx: &mut NetScratch,
        netlist: &Netlist,
        placement: &Placement,
        id: NetId,
    ) -> RoutedNet {
        let sinks = netlist.net(id).sinks.len();
        if sinks == 0 {
            return RoutedNet::default();
        }
        let area_um2 = placement.footprint_um2();
        let tree_len = 1.5 * (area_um2 * sinks as f64).sqrt();
        let stub = 1.0 * self.node.dimension_scale();
        // Slot 1 holds the intermediate layers.
        let (h, v) = cx.layer_pair(1, 7);
        cx.segments.extend([
            (h, tree_len * 0.5),
            (v, tree_len * 0.5),
            (cx.m1, stub * sinks as f64),
        ]);
        RoutedNet {
            wirelength_um: cx.segments.iter().map(|(_, l)| l).sum(),
            via_count: 2 * sinks as u32,
            trunk_class: MetalClass::Intermediate,
            ..RoutedNet::default()
        }
    }
}

/// Stack lookups every net of one [`Router::try_route`] call shares,
/// plus the buffers each net reuses: its edges' L-path bins and its
/// segments on their way to the arena.
struct NetScratch {
    m1: u16,
    /// MB1, when the stack has it and escapes onto it are allowed.
    mb1: Option<u16>,
    /// Layer indices of each routable class slot, in stack order.
    slot_layers: [Vec<u16>; 3],
    bins_h: Vec<usize>,
    bins_v: Vec<usize>,
    segments: Vec<(u16, f64)>,
}

impl NetScratch {
    /// Picks a concrete layer pair (H, V) within a class slot, spreading
    /// usage round-robin by a hash of the net id.
    fn layer_pair(&self, slot: usize, salt: usize) -> (u16, u16) {
        let layers = &self.slot_layers[slot];
        debug_assert!(!layers.is_empty());
        if layers.len() == 1 {
            return (layers[0], layers[0]);
        }
        let h = layers[salt % layers.len()];
        let v = layers[(salt + 1) % layers.len()];
        (h, v)
    }
}

/// Prim MST over the points (O(p²), capped by a star topology for very
/// high fanout).
fn mst_edges(pts: &[Point]) -> Vec<(usize, usize)> {
    let n = pts.len();
    if n <= 1 {
        return Vec::new();
    }
    if n > 96 {
        return (1..n).map(|i| (0, i)).collect();
    }
    let mut in_tree = vec![false; n];
    let mut dist = vec![i64::MAX; n];
    let mut parent = vec![0usize; n];
    in_tree[0] = true;
    for i in 1..n {
        dist[i] = pts[0].manhattan(pts[i]);
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let (next, _) = dist
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_tree[*i])
            .min_by_key(|(_, &d)| d)
            .expect("vertices remain");
        in_tree[next] = true;
        edges.push((parent[next], next));
        for i in 0..n {
            if !in_tree[i] {
                let d = pts[next].manhattan(pts[i]);
                if d < dist[i] {
                    dist[i] = d;
                    parent[i] = next;
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_place::Placer;
    use m3d_tech::DesignStyle;

    fn routed(style: DesignStyle) -> (TechNode, CellLibrary, Netlist, RoutedDesign) {
        let node = TechNode::n45();
        let lib = CellLibrary::build(&node, style);
        let n = Benchmark::Aes.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib).try_place(&n).expect("placement succeeds");
        let stack = MetalStack::new(&node, style.default_stack());
        let r = Router::new(&node, &stack)
            .try_route(&n, &p, &lib)
            .expect("routing succeeds");
        (node, lib, n, r)
    }

    #[test]
    fn mst_spans_all_points() {
        let pts = vec![
            Point::new(0, 0),
            Point::new(100, 0),
            Point::new(0, 100),
            Point::new(300, 300),
        ];
        let edges = mst_edges(&pts);
        assert_eq!(edges.len(), 3);
        let total: i64 = edges.iter().map(|&(a, b)| pts[a].manhattan(pts[b])).sum();
        // MST here: 100 + 100 + 500.
        assert_eq!(total, 700);
    }

    #[test]
    fn routed_wirelength_exceeds_hpwl_slightly() {
        let (_, _, n, r) = routed(DesignStyle::TwoD);
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let p = Placer::new(&lib).try_place(&n).expect("placement succeeds");
        let hpwl = p.total_hpwl_um(&n);
        let wl = r.total_wirelength_um();
        assert!(wl > hpwl, "routed {wl} vs hpwl {hpwl}");
        assert!(wl < 2.5 * hpwl, "routed {wl} vs hpwl {hpwl}");
    }

    #[test]
    fn short_nets_stay_local_long_nets_go_up() {
        let (_, _, n, r) = routed(DesignStyle::TwoD);
        let mut local_len = 0.0;
        let mut seen_global = false;
        for id in n.net_ids() {
            let rn = r.net(id);
            match rn.trunk_class {
                MetalClass::Local => local_len += rn.wirelength_um,
                MetalClass::Global => seen_global = true,
                _ => {}
            }
        }
        assert!(local_len > 0.0);
        // The clock H-tree uses intermediate layers at minimum.
        assert!(
            seen_global || r.class_wirelength_um(MetalClass::Intermediate) > 0.0,
            "no upper-layer usage at all"
        );
    }

    #[test]
    fn mb1_carries_a_tiny_share_in_tmi() {
        let (_, _, n, r) = routed(DesignStyle::Tmi);
        let mb1 = &r.stack.by_name("MB1").expect("MB1 exists");
        let mb1_len: f64 = n
            .net_ids()
            .flat_map(|id| r.segments(id))
            .filter(|(l, _)| *l == mb1.index)
            .map(|(_, len)| len)
            .sum();
        let total = r.total_wirelength_um();
        let share = mb1_len / total;
        // Paper Section 3.3: ~0.3 % of total wirelength on MB1.
        assert!(share > 0.0 && share < 0.01, "MB1 share {share}");
    }

    #[test]
    fn clock_route_scales_with_sink_count() {
        let (_, _, n, r) = routed(DesignStyle::TwoD);
        let clock = n.clock.expect("sequential design");
        let sinks = n.net(clock).sinks.len();
        assert!(sinks > 10);
        assert!(r.net(clock).wirelength_um > 0.0);
    }

    /// FNV-1a over 64-bit words.
    fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Fingerprints of every net's segments, vias, length and trunk
    /// class, and of the design totals and [`crate::LayerUsage`], bit
    /// for bit.
    fn route_fingerprints(n: &Netlist, r: &RoutedDesign) -> (u64, u64) {
        let nets = fingerprint(n.net_ids().flat_map(|id| {
            let rn = r.net(id);
            let segs: Vec<(u16, f64)> = r.segments(id).collect();
            let head = [
                segs.len() as u64,
                rn.via_count as u64,
                rn.wirelength_um.to_bits(),
                rn.trunk_class as u64,
            ];
            head.into_iter().chain(
                segs.into_iter()
                    .flat_map(|(l, len)| [l as u64, len.to_bits()]),
            )
        }));
        let u = crate::LayerUsage::of(r);
        let totals = fingerprint(
            [r.total_wirelength_um()]
                .into_iter()
                .chain(MetalClass::ALL.map(|c| r.class_wirelength_um(c)))
                .chain([u.m1_um, u.local_um, u.intermediate_um, u.global_um])
                .chain(u.peak_utilization)
                .chain(u.mean_utilization)
                .chain([u.overflow_ratio])
                .map(f64::to_bits),
        );
        (nets, totals)
    }

    /// The arena holds exactly the per-net segment lists each net kept
    /// in its own `Vec` before: the fingerprints were taken from that
    /// code, for a 2D router, a T-MI router and an MB1-off T-MI router
    /// over small AES.
    #[test]
    fn segments_and_totals_match_the_per_net_lists_bit_for_bit() {
        let node = TechNode::n45();
        for (style, mb1, expected) in [
            (
                DesignStyle::TwoD,
                true,
                (14610421178106934915, 11200598942584615668),
            ),
            (
                DesignStyle::Tmi,
                true,
                (17450004353417182532, 13334611242206014379),
            ),
            (
                DesignStyle::Tmi,
                false,
                (14148383479411320257, 4180488572160336679),
            ),
        ] {
            let lib = CellLibrary::build(&node, style);
            let n = Benchmark::Aes.generate(&lib, BenchScale::Small);
            let p = Placer::new(&lib).try_place(&n).expect("placement succeeds");
            let stack = MetalStack::new(&node, style.default_stack());
            let router = Router::new(&node, &stack);
            let router = if mb1 { router } else { router.without_mb1() };
            let r = router.try_route(&n, &p, &lib).expect("routing succeeds");
            assert_eq!(
                route_fingerprints(&n, &r),
                expected,
                "{style:?}, MB1 escapes {mb1}"
            );
        }
    }
}
