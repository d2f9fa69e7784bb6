use serde::{Deserialize, Serialize};

use m3d_cells::{CellId, CellLibrary};

/// Instance handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstId(pub u32);

/// Net handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

/// A cell input pin reference: instance plus input-pin index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PinRef {
    /// The instance.
    pub inst: InstId,
    /// Input pin index in [`m3d_cells::CellFunction::input_names`] order.
    pub pin: u8,
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetDriver {
    /// Primary input number `n`.
    Port(u32),
    /// Output pin `pin` of `inst` (output index, usually 0).
    Cell {
        /// Driving instance.
        inst: InstId,
        /// Output pin index.
        pin: u8,
    },
    /// Undriven (only during construction).
    None,
}

/// One placed-netlist instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Library cell.
    pub cell: CellId,
    /// Net connected to each input pin (input order), then each output pin.
    pub pins: Vec<NetId>,
    /// Set for buffers/inverters inserted by optimization — the population
    /// the paper's "#buffers" column counts.
    pub is_repeater: bool,
}

/// One net.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// Driver.
    pub driver: NetDriver,
    /// Fanout: every input pin the net feeds.
    pub sinks: Vec<PinRef>,
    /// `true` when this net also feeds a primary output.
    pub is_output: bool,
}

/// A flat mapped gate-level netlist over a [`CellLibrary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    pub(crate) instances: Vec<Instance>,
    pub(crate) nets: Vec<Net>,
    /// Nets driven by primary inputs.
    pub primary_inputs: Vec<NetId>,
    /// Nets observed at primary outputs.
    pub primary_outputs: Vec<NetId>,
    /// The single clock net, when the design is sequential.
    pub clock: Option<NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_string(),
            instances: Vec::new(),
            nets: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            clock: None,
        }
    }

    /// Reassembles a netlist from the parts [`Netlist::instances`] /
    /// [`Netlist::nets`] expose, e.g. after editing them directly.
    /// The parts are trusted as-is; callers that construct them by hand
    /// (rather than round-tripping a real netlist) should follow up with
    /// [`Netlist::check_consistency`].
    pub fn from_parts(
        name: String,
        instances: Vec<Instance>,
        nets: Vec<Net>,
        primary_inputs: Vec<NetId>,
        primary_outputs: Vec<NetId>,
        clock: Option<NetId>,
    ) -> Self {
        Netlist {
            name,
            instances,
            nets,
            primary_inputs,
            primary_outputs,
            clock,
        }
    }

    /// All instances in id order.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// All nets in id order.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Instance by id.
    pub fn inst(&self, id: InstId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    /// Net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Iterates instance ids.
    pub fn inst_ids(&self) -> impl Iterator<Item = InstId> {
        (0..self.instances.len() as u32).map(InstId)
    }

    /// Iterates net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Generated instance name.
    pub fn inst_name(&self, id: InstId) -> String {
        format!("u{}", id.0)
    }

    /// Generated net name.
    pub fn net_name(&self, id: NetId) -> String {
        format!("n{}", id.0)
    }

    /// The net driven by output pin 0 of `inst`, if any.
    pub fn output_net(&self, inst: InstId, lib: &CellLibrary) -> Option<NetId> {
        let i = self.inst(inst);
        let n_in = lib.cell(i.cell).input_count();
        i.pins.get(n_in).copied()
    }

    /// The net on input pin `pin` of `inst`.
    pub fn input_net(&self, inst: InstId, pin: u8) -> NetId {
        self.inst(inst).pins[pin as usize]
    }

    /// Total cell area, µm².
    pub fn total_cell_area(&self, lib: &CellLibrary) -> f64 {
        self.instances
            .iter()
            .map(|i| lib.cell(i.cell).area_um2())
            .sum()
    }

    /// Total input pin capacitance hanging on a net, fF.
    pub fn net_pin_cap(&self, id: NetId, lib: &CellLibrary) -> f64 {
        self.net(id)
            .sinks
            .iter()
            .map(|p| lib.cell(self.inst(p.inst).cell).input_cap(p.pin as usize))
            .sum()
    }

    /// Validates cross-reference consistency (every sink's instance pin
    /// points back at the net, every cell driver owns its net).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first inconsistency; used by tests
    /// and debug assertions after netlist edits.
    pub fn check_consistency(&self, lib: &CellLibrary) {
        for (ni, net) in self.nets.iter().enumerate() {
            for s in &net.sinks {
                let inst = self.inst(s.inst);
                assert_eq!(
                    inst.pins[s.pin as usize],
                    NetId(ni as u32),
                    "sink {:?} of net {} points elsewhere",
                    s,
                    ni
                );
            }
            if let NetDriver::Cell { inst, pin } = net.driver {
                let i = self.inst(inst);
                let n_in = lib.cell(i.cell).input_count();
                assert_eq!(
                    i.pins[n_in + pin as usize],
                    NetId(ni as u32),
                    "driver of net {ni} does not own it"
                );
            }
        }
        for (ii, inst) in self.instances.iter().enumerate() {
            let cell = lib.cell(inst.cell);
            assert_eq!(
                inst.pins.len(),
                cell.input_count() + cell.function.output_count(),
                "instance {ii} pin arity"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;
    use m3d_cells::CellFunction;
    use m3d_tech::{DesignStyle, TechNode};

    fn lib() -> CellLibrary {
        CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD)
    }

    #[test]
    fn builder_produces_consistent_netlist() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let y = b.input();
        let z = b.gate(CellFunction::Xor2, &[x, y]);
        let q = b.dff(z);
        b.output(q);
        let n = b.finish();
        n.check_consistency(&lib);
        assert_eq!(n.instance_count(), 2);
        // x, y, plus the auto-created clock port.
        assert_eq!(n.primary_inputs.len(), 3);
        assert_eq!(n.primary_outputs.len(), 1);
        assert!(n.clock.is_some());
    }

    #[test]
    fn net_pin_cap_sums_sink_pins() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let a = b.gate(CellFunction::Inv, &[x]);
        let _f1 = b.gate(CellFunction::Inv, &[a]);
        let _f2 = b.gate(CellFunction::Nand2, &[a, x]);
        let n = b.finish();
        let inv = lib.cell_named("INV_X1").expect("inv");
        let nand = lib.cell_named("NAND2_X1").expect("nand");
        let expect = inv.input_cap(0) + nand.input_cap(0);
        assert!((n.net_pin_cap(a, &lib) - expect).abs() < 1e-12);
    }

    #[test]
    fn output_net_is_after_inputs() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let z = b.gate(CellFunction::Inv, &[x]);
        let n = b.finish();
        assert_eq!(n.output_net(InstId(0), &lib), Some(z));
        assert_eq!(n.input_net(InstId(0), 0), x);
    }
}
