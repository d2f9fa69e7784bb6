use serde::{Deserialize, Serialize};

use m3d_geom::{nm_to_um, Nm, Point, Rect};
use m3d_netlist::{NetDriver, NetId, Netlist};

/// The result of placement: a core outline, per-instance cell positions
/// (cell centres, nm) and fixed port positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Core area outline, nm.
    pub core: Rect,
    /// Cell-centre position per instance.
    pub positions: Vec<Point>,
    /// Fixed position per primary port (indexed by port number).
    pub port_positions: Vec<Point>,
    /// Standard-cell row height, nm.
    pub row_height: Nm,
    /// Final placement utilization (cell area / core area).
    pub utilization: f64,
}

impl Placement {
    /// Position of an instance's centre.
    pub fn pos(&self, inst: m3d_netlist::InstId) -> Point {
        self.positions[inst.0 as usize]
    }

    /// Core footprint, µm².
    pub fn footprint_um2(&self) -> f64 {
        self.core.area() as f64 * 1e-6
    }

    /// All pin locations of a net: driver (cell or port) plus sinks.
    pub fn net_points(&self, netlist: &Netlist, net: NetId) -> Vec<Point> {
        let n = netlist.net(net);
        let mut pts = Vec::with_capacity(n.sinks.len() + 1);
        match n.driver {
            NetDriver::Cell { inst, .. } => pts.push(self.pos(inst)),
            NetDriver::Port(p) => {
                if let Some(&pp) = self.port_positions.get(p as usize) {
                    pts.push(pp);
                }
            }
            NetDriver::None => {}
        }
        for s in &n.sinks {
            pts.push(self.pos(s.inst));
        }
        pts
    }

    /// Half-perimeter wirelength of one net, µm.
    pub fn net_hpwl_um(&self, netlist: &Netlist, net: NetId) -> f64 {
        let pts = self.net_points(netlist, net);
        match Rect::bounding(pts) {
            Some(bb) => nm_to_um(bb.half_perimeter()),
            None => 0.0,
        }
    }

    /// Total HPWL over all nets, µm.
    pub fn total_hpwl_um(&self, netlist: &Netlist) -> f64 {
        netlist
            .net_ids()
            .map(|n| self.net_hpwl_um(netlist, n))
            .sum()
    }

    /// Appends a position for a newly created instance.
    pub fn push_pos(&mut self, p: Point) {
        self.positions.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_matches_core() {
        let p = Placement {
            core: Rect::from_size(Point::ORIGIN, 10_000, 20_000),
            positions: vec![],
            port_positions: vec![],
            row_height: 1400,
            utilization: 0.8,
        };
        assert!((p.footprint_um2() - 200.0).abs() < 1e-9);
    }
}
