use m3d_cells::CellLibrary;
use m3d_geom::{Nm, Point, Rect};
use m3d_netlist::{NetDriver, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::legalize::legalize_rows;
use crate::spread::{cell_areas, spread};
use crate::Placement;

/// Placement failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// Target utilization outside `(0, 1]`.
    InvalidUtilization(f64),
    /// The netlist has no instances to place.
    EmptyNetlist,
    /// An instance's cell footprint was non-finite or non-positive, so
    /// no core area can be derived.
    BadCellArea {
        /// Offending cell name.
        cell: String,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::InvalidUtilization(u) => {
                write!(f, "utilization must be in (0, 1], got {u}")
            }
            PlaceError::EmptyNetlist => write!(f, "cannot place an empty netlist"),
            PlaceError::BadCellArea { cell } => {
                write!(f, "cell {cell} has a degenerate footprint")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Placement engine with tunable knobs.
///
/// See the crate docs for the algorithm outline.
#[derive(Debug, Clone)]
pub struct Placer<'l> {
    lib: &'l CellLibrary,
    utilization: f64,
    iterations: usize,
    seed: u64,
    skip_legalize: bool,
    /// Optional tier assignment (gate-level monolithic 3D): instances
    /// with different tiers overlap in x/y but occupy separate device
    /// layers, so the core shrinks by the tier count and legalization
    /// runs per tier.
    tiers: Option<(Vec<u8>, usize)>,
}

impl<'l> Placer<'l> {
    /// Creates a placer over `lib` with the defaults (80 % utilization,
    /// 120 global iterations — enough for the largest benchmark to reach
    /// within ~10 % of the paper's wirelength).
    pub fn new(lib: &'l CellLibrary) -> Self {
        Placer {
            lib,
            utilization: 0.8,
            iterations: 120,
            seed: 0xCE115,
            skip_legalize: false,
            tiers: None,
        }
    }

    /// Stacks the placement on `n_tiers` device tiers with the given
    /// per-instance tier assignment (gate-level monolithic 3D, "G-MI").
    ///
    /// # Panics
    ///
    /// Panics if `n_tiers` is 0 or an assignment exceeds it.
    pub fn tiers(mut self, assignment: Vec<u8>, n_tiers: usize) -> Self {
        assert!(n_tiers >= 1, "need at least one tier");
        assert!(
            assignment.iter().all(|&t| (t as usize) < n_tiers),
            "tier assignment out of range"
        );
        self.tiers = Some((assignment, n_tiers));
        self
    }

    /// Sets target utilization (paper S6: 0.8 default, 0.33 for LDPC,
    /// 0.68 for M256).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < u <= 1`.
    pub fn utilization(mut self, u: f64) -> Self {
        assert!(u > 0.0 && u <= 1.0, "utilization must be in (0, 1]");
        self.utilization = u;
        self
    }

    /// Sets the number of global-placement iterations.
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Sets the RNG seed for the initial scatter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the full placement.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] when the netlist is empty, a cell footprint
    /// is degenerate, or the configured utilization is out of range.
    pub fn try_place(&self, netlist: &Netlist) -> Result<Placement, PlaceError> {
        if !(self.utilization > 0.0 && self.utilization <= 1.0) {
            return Err(PlaceError::InvalidUtilization(self.utilization));
        }
        if netlist.instance_count() == 0 {
            return Err(PlaceError::EmptyNetlist);
        }
        for i in netlist.inst_ids() {
            let c = self.lib.cell(netlist.inst(i).cell);
            let area = c.width_nm as f64 * c.height_nm as f64;
            if !area.is_finite() || area <= 0.0 {
                return Err(PlaceError::BadCellArea {
                    cell: c.name.clone(),
                });
            }
        }
        Ok(self.place_validated(netlist, &Adjacency::new(netlist)))
    }

    /// The placement proper over `netlist`'s adjacency `adj`; inputs
    /// validated by [`Placer::try_place`].
    fn place_validated(&self, netlist: &Netlist, adj: &Adjacency) -> Placement {
        let lib = self.lib;
        let n_inst = netlist.instance_count();
        // Core sizing budgets each cell's *effective* width — footprint
        // plus any MIV keep-out-zone clearance the node's design rules
        // demand — so KOZ nodes get rows the legalizer can actually pack.
        let areas = cell_areas(netlist, lib);
        let cell_area_nm2: f64 = areas.iter().sum();
        let row_height = lib.node().cell_height(lib.style());
        let n_tiers = self.tiers.as_ref().map(|(_, n)| *n).unwrap_or(1);
        let core_area = cell_area_nm2 / self.utilization / n_tiers as f64;
        // Near-square, rounded to whole rows.
        let mut height = core_area.sqrt() as Nm;
        height = (height / row_height).max(1) * row_height;
        let width = (core_area / height as f64).ceil() as Nm;
        let core = Rect::from_size(Point::ORIGIN, width, height);

        // Port ring: distribute primary ports around the periphery.
        let n_ports = netlist
            .net_ids()
            .filter_map(|n| match netlist.net(n).driver {
                NetDriver::Port(p) => Some(p),
                _ => None,
            })
            .max()
            .map(|p| p as usize + 1)
            .unwrap_or(0)
            .max(netlist.primary_outputs.len());
        let perimeter_slots = n_ports.max(1);
        let port_positions: Vec<Point> = (0..perimeter_slots)
            .map(|i| {
                let f = i as f64 / perimeter_slots as f64;
                let perim = 2.0 * (width + height) as f64;
                let d = (f * perim) as Nm;
                if d < width {
                    Point::new(d, 0)
                } else if d < width + height {
                    Point::new(width, d - width)
                } else if d < 2 * width + height {
                    Point::new(2 * width + height - d, height)
                } else {
                    Point::new(0, 2 * (width + height) - d)
                }
            })
            .collect();

        // Initial placement: a serpentine walk in instance-creation order
        // with a little jitter. Generators emit logically-adjacent gates
        // with adjacent ids, so this seeds the global placement with the
        // same structural locality a real flow inherits from synthesis;
        // the centroid iterations then refine it. Circuits without
        // spatial structure (LDPC's random bipartite graph) gain nothing
        // from this, exactly as in the paper.
        let mut rng = StdRng::seed_from_u64(self.seed ^ n_inst as u64);
        let cols = (n_inst as f64).sqrt().ceil().max(1.0) as usize;
        let rows_n = n_inst.div_ceil(cols);
        let mut xs: Vec<f64> = Vec::with_capacity(n_inst);
        let mut ys: Vec<f64> = Vec::with_capacity(n_inst);
        for i in 0..n_inst {
            let r = i / cols;
            let c0 = i % cols;
            let c = if r.is_multiple_of(2) {
                c0
            } else {
                cols - 1 - c0
            };
            let jitter_x: f64 = rng.gen_range(-0.3..0.3);
            let jitter_y: f64 = rng.gen_range(-0.3..0.3);
            xs.push(
                ((c as f64 + 0.5 + jitter_x) / cols as f64 * width as f64)
                    .clamp(0.0, width as f64 - 1.0),
            );
            ys.push(
                ((r as f64 + 0.5 + jitter_y) / rows_n as f64 * height as f64)
                    .clamp(0.0, height as f64 - 1.0),
            );
        }

        // Gauss-Seidel toward net centroids with periodic spreading.
        let mut cx: Vec<f64> = vec![0.0; netlist.net_count()];
        let mut cy: Vec<f64> = vec![0.0; netlist.net_count()];
        for iter in 0..self.iterations {
            // Net centroids.
            for nid in 0..netlist.net_count() {
                let pins = adj.pins(nid);
                if pins.is_empty() && adj.net_port[nid].is_none() {
                    continue;
                }
                let mut sx = 0.0;
                let mut sy = 0.0;
                let mut k = 0.0;
                for &i in pins {
                    sx += xs[i as usize];
                    sy += ys[i as usize];
                    k += 1.0;
                }
                if let Some(p) = adj.net_port[nid] {
                    if let Some(pp) = port_positions.get(p as usize) {
                        // Ports anchor with double weight so designs stay
                        // attached to their pads.
                        sx += 2.0 * pp.x as f64;
                        sy += 2.0 * pp.y as f64;
                        k += 2.0;
                    }
                }
                if k > 0.0 {
                    cx[nid] = sx / k;
                    cy[nid] = sy / k;
                }
            }
            // Move cells toward the mean of their nets' centroids.
            for i in 0..n_inst {
                let nets = adj.nets(i);
                if nets.is_empty() {
                    continue;
                }
                let mut sx = 0.0;
                let mut sy = 0.0;
                for &nid in nets {
                    sx += cx[nid as usize];
                    sy += cy[nid as usize];
                }
                let k = nets.len() as f64;
                // Damped update keeps early iterations from collapsing.
                let alpha = 0.8;
                xs[i] = (1.0 - alpha) * xs[i] + alpha * sx / k;
                ys[i] = (1.0 - alpha) * ys[i] + alpha * sy / k;
            }
            // Spread every few iterations and at the end.
            if iter % 4 == 3 || iter + 1 == self.iterations {
                spread(&areas, &mut xs, &mut ys, core, self.utilization);
            }
        }

        let mut placement = Placement {
            core,
            positions: xs
                .iter()
                .zip(&ys)
                .map(|(&x, &y)| Point::new((x as Nm).clamp(0, width), (y as Nm).clamp(0, height)))
                .collect(),
            port_positions,
            row_height,
            utilization: cell_area_nm2 / core.area() as f64,
        };
        if !self.skip_legalize {
            match &self.tiers {
                None => legalize_rows(netlist, self.lib, &mut placement, None),
                Some((assignment, n)) => {
                    for tier in 0..*n {
                        legalize_rows(
                            netlist,
                            self.lib,
                            &mut placement,
                            Some((assignment.as_slice(), tier as u8)),
                        );
                    }
                }
            }
        }
        placement
    }
}

/// The net/instance membership the centroid iterations read, in CSR
/// (compressed sparse row) form: per direction, one offset array and one
/// flat id array instead of one `Vec` per net and per instance. The
/// clock and nets of fanout above 64 carry no placement force, so they
/// have no pins here.
#[derive(Debug, PartialEq)]
struct Adjacency {
    /// Net `n`'s instances are `pin_ids[pin_start[n]..pin_start[n + 1]]`:
    /// the driver, then the sinks in sink order (a cell on the net twice
    /// appears twice).
    pin_start: Vec<u32>,
    pin_ids: Vec<u32>,
    /// The primary input driving each net, if any.
    net_port: Vec<Option<u32>>,
    /// Instance `i`'s nets are `net_ids[net_start[i]..net_start[i + 1]]`,
    /// ascending and each once.
    net_start: Vec<u32>,
    net_ids: Vec<u32>,
}

impl Adjacency {
    fn new(netlist: &Netlist) -> Self {
        let n_nets = netlist.net_count();
        let n_inst = netlist.instance_count();
        let forced = |nid: NetId| {
            let net = netlist.net(nid);
            (Some(nid) != netlist.clock && net.sinks.len() <= 64).then_some(net)
        };
        let pin_count: usize = netlist
            .net_ids()
            .filter_map(forced)
            .map(|net| net.sinks.len() + usize::from(matches!(net.driver, NetDriver::Cell { .. })))
            .sum();
        let mut pin_start = Vec::with_capacity(n_nets + 1);
        let mut pin_ids = Vec::with_capacity(pin_count);
        let mut net_port = vec![None; n_nets];
        pin_start.push(0);
        for nid in netlist.net_ids() {
            if let Some(net) = forced(nid) {
                match net.driver {
                    NetDriver::Cell { inst, .. } => pin_ids.push(inst.0),
                    NetDriver::Port(p) => net_port[nid.0 as usize] = Some(p),
                    NetDriver::None => {}
                }
                pin_ids.extend(net.sinks.iter().map(|s| s.inst.0));
            }
            pin_start.push(pin_ids.len() as u32);
        }

        // Nets are visited in id order, so each instance's list comes out
        // ascending and a repeat can only follow its own first entry.
        // Count, then fill.
        let each_member = |f: &mut dyn FnMut(usize, u32)| {
            let mut last = vec![u32::MAX; n_inst];
            for n in 0..n_nets {
                for &i in &pin_ids[pin_start[n] as usize..pin_start[n + 1] as usize] {
                    if last[i as usize] != n as u32 {
                        last[i as usize] = n as u32;
                        f(i as usize, n as u32);
                    }
                }
            }
        };
        let mut net_start = vec![0u32; n_inst + 1];
        each_member(&mut |i, _| net_start[i + 1] += 1);
        for i in 0..n_inst {
            net_start[i + 1] += net_start[i];
        }
        let mut net_ids = vec![0u32; net_start[n_inst] as usize];
        let mut fill = net_start[..n_inst].to_vec();
        each_member(&mut |i, n| {
            net_ids[fill[i] as usize] = n;
            fill[i] += 1;
        });
        Adjacency {
            pin_start,
            pin_ids,
            net_port,
            net_start,
            net_ids,
        }
    }

    /// Net `net`'s instances.
    fn pins(&self, net: usize) -> &[u32] {
        &self.pin_ids[self.pin_start[net] as usize..self.pin_start[net + 1] as usize]
    }

    /// Instance `inst`'s nets.
    fn nets(&self, inst: usize) -> &[u32] {
        &self.net_ids[self.net_start[inst] as usize..self.net_start[inst + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_cells::CellFunction;
    use m3d_netlist::{BenchScale, Benchmark, NetlistBuilder};
    use m3d_tech::{DesignStyle, TechNode};
    use proptest::prelude::*;

    fn ctx() -> (CellLibrary, Netlist) {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let n = Benchmark::Aes.generate(&lib, BenchScale::Small);
        (lib, n)
    }

    /// The per-net and per-instance `Vec` build the CSR adjacency
    /// replaced, kept verbatim as its bit-exact reference and flattened
    /// list by list.
    fn reference_adjacency(netlist: &Netlist) -> Adjacency {
        let n_inst = netlist.instance_count();
        let clock = netlist.clock;
        let mut inst_nets: Vec<Vec<u32>> = vec![Vec::new(); n_inst];
        let mut net_pins: Vec<Vec<u32>> = vec![Vec::new(); netlist.net_count()];
        let mut net_port: Vec<Option<u32>> = vec![None; netlist.net_count()];
        for nid in netlist.net_ids() {
            if Some(nid) == clock {
                continue;
            }
            let net = netlist.net(nid);
            if net.sinks.len() > 64 {
                continue; // huge fanout nets carry no placement force
            }
            match net.driver {
                NetDriver::Cell { inst, .. } => net_pins[nid.0 as usize].push(inst.0),
                NetDriver::Port(p) => net_port[nid.0 as usize] = Some(p),
                NetDriver::None => {}
            }
            for s in &net.sinks {
                net_pins[nid.0 as usize].push(s.inst.0);
            }
            for &i in &net_pins[nid.0 as usize] {
                inst_nets[i as usize].push(nid.0);
            }
        }
        // Deduplicate membership (a cell can appear twice on one net).
        for v in &mut inst_nets {
            v.sort_unstable();
            v.dedup();
        }
        let flatten = |lists: &[Vec<u32>]| {
            let mut start = vec![0u32];
            let mut ids = Vec::new();
            for l in lists {
                ids.extend_from_slice(l);
                start.push(ids.len() as u32);
            }
            (start, ids)
        };
        let (pin_start, pin_ids) = flatten(&net_pins);
        let (net_start, net_ids) = flatten(&inst_nets);
        Adjacency {
            pin_start,
            pin_ids,
            net_port,
            net_start,
            net_ids,
        }
    }

    /// Checks the CSR adjacency, and the placement over it, against the
    /// reference build.
    fn assert_matches_reference(lib: &CellLibrary, n: &Netlist, iterations: usize) {
        let adj = Adjacency::new(n);
        let reference = reference_adjacency(n);
        assert_eq!(adj, reference);
        let placer = Placer::new(lib).iterations(iterations);
        assert_eq!(
            placer.place_validated(n, &adj),
            placer.place_validated(n, &reference)
        );
    }

    #[test]
    fn benchmark_adjacency_and_placement_match_the_reference() {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        for bench in Benchmark::ALL {
            let n = bench.generate(&lib, BenchScale::Small);
            assert_matches_reference(&lib, &n, 8);
        }
    }

    /// A random netlist with a cell on one net twice, flip-flops on the
    /// clock, a net of fanout `fanout` (above 64 drops it from the
    /// adjacency) and port-driven nets.
    fn random_netlist(lib: &CellLibrary, seed: u64, gates: usize, fanout: usize) -> Netlist {
        let mut state = seed | 1;
        let mut rnd = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut b = NetlistBuilder::new(lib, "random");
        let mut nets: Vec<NetId> = b.inputs(1 + rnd(6));
        let twice = b.gate(CellFunction::Nand2, &[nets[0], nets[0]]);
        nets.push(twice);
        for _ in 0..gates {
            let function = CellFunction::ALL[rnd(CellFunction::ALL.len())];
            if function.is_sequential() {
                let d = nets[rnd(nets.len())];
                nets.push(b.dff(d));
                continue;
            }
            let ins: Vec<NetId> = (0..function.input_count())
                .map(|_| nets[rnd(nets.len())])
                .collect();
            nets.extend(b.gate_outputs(function, &ins));
        }
        let wide = nets[rnd(nets.len())];
        for _ in 0..fanout {
            b.gate(CellFunction::Inv, &[wide]);
        }
        let last = *nets.last().expect("at least one net");
        b.output(last);
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn random_adjacency_and_placement_match_the_reference(
            seed in 0u64..u64::MAX,
            gates in 1usize..120,
            fanout in 0usize..80,
        ) {
            static LIB: std::sync::OnceLock<CellLibrary> = std::sync::OnceLock::new();
            let lib = LIB.get_or_init(|| CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD));
            let n = random_netlist(lib, seed, gates, fanout);
            assert_matches_reference(lib, &n, 8);
        }
    }

    #[test]
    fn placement_is_inside_core_and_deterministic() {
        let (lib, n) = ctx();
        let p1 = Placer::new(&lib).try_place(&n).expect("placement succeeds");
        let p2 = Placer::new(&lib).try_place(&n).expect("placement succeeds");
        assert_eq!(p1, p2, "same seed gives same placement");
        for id in n.inst_ids() {
            assert!(p1.core.contains(p1.pos(id)), "cell outside core");
        }
    }

    #[test]
    fn placement_beats_random_scatter() {
        let (lib, n) = ctx();
        let placed = Placer::new(&lib).try_place(&n).expect("placement succeeds");
        let random = Placer::new(&lib)
            .iterations(0)
            .try_place(&n)
            .expect("placement succeeds");
        let w_placed = placed.total_hpwl_um(&n);
        let w_random = random.total_hpwl_um(&n);
        assert!(
            w_placed < 0.7 * w_random,
            "placed {w_placed} vs random {w_random}"
        );
    }

    #[test]
    fn utilization_controls_core_area() {
        let (lib, n) = ctx();
        let tight = Placer::new(&lib)
            .utilization(0.9)
            .try_place(&n)
            .expect("placement succeeds");
        let loose = Placer::new(&lib)
            .utilization(0.3)
            .try_place(&n)
            .expect("placement succeeds");
        assert!(loose.footprint_um2() > 2.0 * tight.footprint_um2());
    }

    #[test]
    fn tmi_library_shrinks_footprint_about_40_percent() {
        let lib2 = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let lib3 = CellLibrary::build(&TechNode::n45(), DesignStyle::Tmi);
        let n2 = Benchmark::Aes.generate(&lib2, BenchScale::Small);
        let n3 = Benchmark::Aes.generate(&lib3, BenchScale::Small);
        let p2 = Placer::new(&lib2)
            .try_place(&n2)
            .expect("placement succeeds");
        let p3 = Placer::new(&lib3)
            .try_place(&n3)
            .expect("placement succeeds");
        let ratio = p3.footprint_um2() / p2.footprint_um2();
        assert!(
            (0.55..0.65).contains(&ratio),
            "footprint ratio {ratio} (expect ~0.6)"
        );
        // Wirelength shrinks roughly with the linear dimension (~0.78x).
        let wl_ratio = p3.total_hpwl_um(&n3) / p2.total_hpwl_um(&n2);
        assert!(
            (0.6..0.95).contains(&wl_ratio),
            "wirelength ratio {wl_ratio}"
        );
    }
}
