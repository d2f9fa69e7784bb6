use m3d_cells::{CellFunction, CellLibrary};

use crate::{InstId, Instance, Net, NetDriver, NetId, Netlist, PinRef, Pins};

/// Incremental netlist constructor used by the benchmark generators.
///
/// Gates are instantiated at the weakest drive (X1); sizing is the
/// synthesizer's job (`m3d-synth`).
#[derive(Debug)]
pub struct NetlistBuilder<'l> {
    lib: &'l CellLibrary,
    n: Netlist,
}

impl<'l> NetlistBuilder<'l> {
    /// Starts a new design.
    pub fn new(lib: &'l CellLibrary, name: &str) -> Self {
        NetlistBuilder {
            lib,
            n: Netlist::new(name),
        }
    }

    /// The library being targeted.
    pub fn library(&self) -> &'l CellLibrary {
        self.lib
    }

    fn fresh_net(&mut self, driver: NetDriver) -> NetId {
        let id = NetId(self.n.nets.len() as u32);
        self.n.nets.push(Net {
            driver,
            sinks: Vec::new(),
            is_output: false,
        });
        id
    }

    /// Creates a primary-input net.
    pub fn input(&mut self) -> NetId {
        let port = self.n.primary_inputs.len() as u32;
        let id = self.fresh_net(NetDriver::Port(port));
        self.n.primary_inputs.push(id);
        id
    }

    /// Creates `count` primary inputs.
    pub fn inputs(&mut self, count: usize) -> Vec<NetId> {
        (0..count).map(|_| self.input()).collect()
    }

    /// Marks a net as a primary output.
    pub fn output(&mut self, net: NetId) {
        self.n.nets[net.0 as usize].is_output = true;
        self.n.primary_outputs.push(net);
    }

    /// Instantiates the X1 variant of `function` over `inputs`, returning
    /// the (first) output net.
    ///
    /// # Panics
    ///
    /// Panics when the arity does not match the function.
    pub fn gate(&mut self, function: CellFunction, inputs: &[NetId]) -> NetId {
        self.gate_outputs(function, inputs)[0]
    }

    /// Like [`NetlistBuilder::gate`] but returns all output nets
    /// (half/full adders have two).
    pub fn gate_outputs(&mut self, function: CellFunction, inputs: &[NetId]) -> Vec<NetId> {
        assert_eq!(
            inputs.len(),
            function.input_count(),
            "{function:?} expects {} inputs",
            function.input_count()
        );
        assert!(
            !function.is_sequential(),
            "use NetlistBuilder::dff for flip-flops"
        );
        let cell = self.lib.smallest(function);
        let inst = InstId(self.n.instances.len() as u32);
        let outs: Vec<NetId> = (0..function.output_count())
            .map(|o| self.fresh_net(NetDriver::Cell { inst, pin: o as u8 }))
            .collect();
        let pins = Pins::from_slice(&[inputs, &outs].concat());
        for (p, &net) in inputs.iter().enumerate() {
            self.n.nets[net.0 as usize]
                .sinks
                .push(PinRef { inst, pin: p as u8 });
        }
        self.n.instances.push(Instance {
            cell,
            pins,
            is_repeater: false,
        });
        outs
    }

    /// Instantiates a DFF clocked by the design clock (created on first
    /// use), returning the Q net.
    pub fn dff(&mut self, d: NetId) -> NetId {
        let clock = match self.n.clock {
            Some(c) => c,
            None => {
                let port = self.n.primary_inputs.len() as u32;
                let c = self.fresh_net(NetDriver::Port(port));
                self.n.primary_inputs.push(c);
                self.n.clock = Some(c);
                c
            }
        };
        let cell = self.lib.smallest(CellFunction::Dff);
        let inst = InstId(self.n.instances.len() as u32);
        let q = self.fresh_net(NetDriver::Cell { inst, pin: 0 });
        // DFF pins: D, CK, Q.
        self.n.nets[d.0 as usize]
            .sinks
            .push(PinRef { inst, pin: 0 });
        self.n.nets[clock.0 as usize]
            .sinks
            .push(PinRef { inst, pin: 1 });
        self.n.instances.push(Instance {
            cell,
            pins: Pins::from_slice(&[d, clock, q]),
            is_repeater: false,
        });
        q
    }

    /// Registers a whole bus, returning the Q nets.
    pub fn dff_bus(&mut self, d: &[NetId]) -> Vec<NetId> {
        d.iter().map(|&n| self.dff(n)).collect()
    }

    /// Balanced XOR reduction of `nets` (parity tree).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn xor_tree(&mut self, nets: &[NetId]) -> NetId {
        assert!(!nets.is_empty(), "xor tree of nothing");
        let mut level: Vec<NetId> = nets.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.gate(CellFunction::Xor2, &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// Balanced AND/OR reduction.
    pub fn reduce(&mut self, function: CellFunction, nets: &[NetId]) -> NetId {
        assert!(!nets.is_empty(), "reduction of nothing");
        let mut level: Vec<NetId> = nets.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.gate(function, &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// Ripple carry-save adder row: adds three equal-width buses, returning
    /// (sum, carry-out shifted left by the caller).
    pub fn csa_row(&mut self, a: &[NetId], b: &[NetId], c: &[NetId]) -> (Vec<NetId>, Vec<NetId>) {
        assert!(
            a.len() == b.len() && b.len() == c.len(),
            "bus widths differ"
        );
        let mut sums = Vec::with_capacity(a.len());
        let mut carries = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let outs = self.gate_outputs(CellFunction::FullAdder, &[a[i], b[i], c[i]]);
            sums.push(outs[0]);
            carries.push(outs[1]);
        }
        (sums, carries)
    }

    /// Kogge-Stone-style prefix adder over two buses; returns the sum bus
    /// (carry-out dropped).
    pub fn prefix_adder(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "bus widths differ");
        let w = a.len();
        // Generate/propagate.
        let mut g: Vec<NetId> = (0..w)
            .map(|i| self.gate(CellFunction::And2, &[a[i], b[i]]))
            .collect();
        let mut p: Vec<NetId> = (0..w)
            .map(|i| self.gate(CellFunction::Xor2, &[a[i], b[i]]))
            .collect();
        let p0 = p.clone();
        // Prefix network.
        let mut dist = 1;
        while dist < w {
            let mut g2 = g.clone();
            let mut p2 = p.clone();
            for i in dist..w {
                // g' = g | (p & g_prev); p' = p & p_prev.
                let t = self.gate(CellFunction::And2, &[p[i], g[i - dist]]);
                g2[i] = self.gate(CellFunction::Or2, &[g[i], t]);
                p2[i] = self.gate(CellFunction::And2, &[p[i], p[i - dist]]);
            }
            g = g2;
            p = p2;
            dist *= 2;
        }
        // Sum: p0[i] ^ carry_in(i) where carry_in(i) = g[i-1].
        let mut sum = Vec::with_capacity(w);
        sum.push(p0[0]);
        for i in 1..w {
            sum.push(self.gate(CellFunction::Xor2, &[p0[i], g[i - 1]]));
        }
        sum
    }

    /// Finalizes the netlist.
    pub fn finish(self) -> Netlist {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::{DesignStyle, TechNode};

    fn lib() -> CellLibrary {
        CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD)
    }

    #[test]
    fn xor_tree_gate_count_is_n_minus_1() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let ins = b.inputs(32);
        b.xor_tree(&ins);
        assert_eq!(b.finish().instance_count(), 31);
    }

    #[test]
    fn prefix_adder_has_log_depth_structure() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let a = b.inputs(16);
        let c = b.inputs(16);
        let sum = b.prefix_adder(&a, &c);
        assert_eq!(sum.len(), 16);
        let n = b.finish();
        // 2w (g/p) + prefix levels ~ 3w log w / something + sums; just
        // bound it loosely but meaningfully.
        assert!(n.instance_count() > 70 && n.instance_count() < 250);
        n.check_consistency(&lib);
    }

    #[test]
    fn csa_row_emits_full_adders() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.inputs(8);
        let y = b.inputs(8);
        let z = b.inputs(8);
        let (s, c) = b.csa_row(&x, &y, &z);
        assert_eq!(s.len(), 8);
        assert_eq!(c.len(), 8);
        assert_eq!(b.finish().instance_count(), 8);
    }

    #[test]
    fn clock_net_is_shared() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let q1 = b.dff(x);
        let _q2 = b.dff(q1);
        let n = b.finish();
        let clock = n.clock.expect("clock exists");
        assert_eq!(n.net(clock).sinks.len(), 2);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn arity_is_checked() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        b.gate(CellFunction::Nand2, &[x]);
    }
}
