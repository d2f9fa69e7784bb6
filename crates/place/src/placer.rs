use m3d_cells::CellLibrary;
use m3d_geom::{Nm, Point, Rect};
use m3d_netlist::{NetDriver, Netlist};
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
        Ok(self.place_validated(netlist))
    }

    /// The placement proper; inputs validated by [`Placer::try_place`].
    fn place_validated(&self, netlist: &Netlist) -> Placement {
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

        // Precompute per-instance net membership, skipping the clock and
        // other degenerate nets.
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

        // Gauss-Seidel toward net centroids with periodic spreading.
        let mut cx: Vec<f64> = vec![0.0; netlist.net_count()];
        let mut cy: Vec<f64> = vec![0.0; netlist.net_count()];
        for iter in 0..self.iterations {
            // Net centroids.
            for nid in 0..netlist.net_count() {
                let pins = &net_pins[nid];
                if pins.is_empty() && net_port[nid].is_none() {
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
                if let Some(p) = net_port[nid] {
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
                let nets = &inst_nets[i];
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

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_tech::{DesignStyle, TechNode};

    fn ctx() -> (CellLibrary, Netlist) {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let n = Benchmark::Aes.generate(&lib, BenchScale::Small);
        (lib, n)
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
