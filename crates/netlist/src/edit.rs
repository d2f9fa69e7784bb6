//! In-place netlist edits used by the timing/power optimizers: gate
//! resizing and repeater (buffer) insertion/removal.

use m3d_cells::{CellFunction, CellId, CellLibrary};

use crate::{InstId, Instance, Net, NetDriver, NetId, Netlist, PinRef};

impl Netlist {
    /// Swaps the library cell of `inst` to another drive variant of the
    /// same function (gate sizing).
    ///
    /// # Panics
    ///
    /// Panics if the new cell's function differs from the old one.
    pub fn resize(&mut self, inst: InstId, new_cell: CellId, lib: &CellLibrary) {
        let old = self.instances[inst.0 as usize].cell;
        assert_eq!(
            lib.cell(old).function,
            lib.cell(new_cell).function,
            "resize must preserve function"
        );
        self.instances[inst.0 as usize].cell = new_cell;
    }

    /// Inserts a repeater (BUF) of cell `buf` driving the given subset of
    /// `net`'s sinks. Sinks are identified by index into the net's current
    /// sink list; the rest stay on the original net.
    ///
    /// Returns the new instance and its output net.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a single-input cell or a sink index is out
    /// of range.
    pub fn insert_repeater(
        &mut self,
        net: NetId,
        sink_indices: &[usize],
        buf: CellId,
        lib: &CellLibrary,
    ) -> (InstId, NetId) {
        let cell = lib.cell(buf);
        assert_eq!(cell.input_count(), 1, "repeater must be single-input");
        let inst = InstId(self.instances.len() as u32);
        let new_net = NetId(self.nets.len() as u32);

        // Move chosen sinks to the new net.
        let mut chosen: Vec<PinRef> = Vec::with_capacity(sink_indices.len());
        {
            let old = &mut self.nets[net.0 as usize];
            let mut keep = Vec::with_capacity(old.sinks.len());
            let to_move: std::collections::BTreeSet<usize> = sink_indices.iter().copied().collect();
            for (i, s) in old.sinks.iter().enumerate() {
                if to_move.contains(&i) {
                    chosen.push(*s);
                } else {
                    keep.push(*s);
                }
            }
            assert_eq!(chosen.len(), sink_indices.len(), "sink index out of range");
            old.sinks = keep;
            old.sinks.push(PinRef { inst, pin: 0 });
        }
        for s in &chosen {
            self.instances[s.inst.0 as usize].pins[s.pin as usize] = new_net;
        }
        self.nets.push(Net {
            driver: NetDriver::Cell { inst, pin: 0 },
            sinks: chosen,
            is_output: false,
        });
        self.instances.push(Instance {
            cell: buf,
            pins: vec![net, new_net],
            is_repeater: true,
        });
        (inst, new_net)
    }

    /// Undoes the newest [`Netlist::insert_repeater`], which split `net`
    /// whose sink list was `old_sinks` before the split: pops the
    /// repeater and its output net, rewires the moved sinks back to
    /// `net` and restores `net`'s sink list. Undoing repeaters newest
    /// first restores the netlist exactly.
    ///
    /// # Panics
    ///
    /// Panics if the newest instance is not a repeater whose input is
    /// `net` and whose output is the newest net.
    pub fn undo_repeater(&mut self, net: NetId, old_sinks: Vec<PinRef>) {
        let inst = self.instances.pop().expect("a repeater to undo");
        let moved = self.nets.pop().expect("the repeater's output net");
        assert!(
            inst.is_repeater && inst.pins == [net, NetId(self.nets.len() as u32)],
            "newest instance is not the repeater on net {}",
            net.0
        );
        for s in &moved.sinks {
            self.instances[s.inst.0 as usize].pins[s.pin as usize] = net;
        }
        self.nets[net.0 as usize].sinks = old_sinks;
    }

    /// Counts repeaters plus standalone inverters/buffers — the population
    /// the paper's "#buffers" column reports.
    pub fn repeater_count(&self, lib: &CellLibrary) -> usize {
        self.instances
            .iter()
            .filter(|i| i.is_repeater || matches!(lib.cell(i.cell).function, CellFunction::Buf))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;
    use m3d_tech::{DesignStyle, TechNode};

    fn lib() -> CellLibrary {
        CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD)
    }

    #[test]
    fn resize_changes_cell_only() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        b.gate(CellFunction::Inv, &[x]);
        let mut n = b.finish();
        let (x4, _) = lib.id_named("INV_X4").expect("INV_X4");
        n.resize(InstId(0), x4, &lib);
        assert_eq!(lib.cell(n.inst(InstId(0)).cell).drive, 4);
        n.check_consistency(&lib);
    }

    #[test]
    #[should_panic(expected = "preserve function")]
    fn resize_rejects_function_change() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        b.gate(CellFunction::Inv, &[x]);
        let mut n = b.finish();
        let (nand, _) = lib.id_named("NAND2_X1").expect("NAND2_X1");
        n.resize(InstId(0), nand, &lib);
    }

    #[test]
    fn repeater_splits_fanout() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let a = b.gate(CellFunction::Inv, &[x]);
        for _ in 0..6 {
            b.gate(CellFunction::Inv, &[a]);
        }
        let mut n = b.finish();
        let (buf, _) = lib.id_named("BUF_X2").expect("BUF_X2");
        let before = n.net(a).sinks.len();
        assert_eq!(before, 6);
        let (_inst, new_net) = n.insert_repeater(a, &[0, 1, 2], buf, &lib);
        assert_eq!(n.net(a).sinks.len(), 4); // 3 kept + the buffer input
        assert_eq!(n.net(new_net).sinks.len(), 3);
        assert_eq!(n.repeater_count(&lib), 1);
        n.check_consistency(&lib);
    }

    #[test]
    fn undo_repeater_restores_one_and_two_chained_insertions() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let a = b.gate(CellFunction::Inv, &[x]);
        for _ in 0..6 {
            b.gate(CellFunction::Inv, &[a]);
        }
        let original = b.finish();
        let (buf, _) = lib.id_named("BUF_X2").expect("BUF_X2");

        let mut n = original.clone();
        let sinks = n.net(a).sinks.clone();
        n.insert_repeater(a, &[1, 3, 4], buf, &lib);
        n.undo_repeater(a, sinks);
        assert_eq!(n, original);
        n.check_consistency(&lib);

        // A chain: the second repeater drives all of the first one's
        // sinks. Undone newest first.
        let first_sinks = n.net(a).sinks.clone();
        let (_, mid) = n.insert_repeater(a, &[0, 2, 5], buf, &lib);
        let second_sinks = n.net(mid).sinks.clone();
        n.insert_repeater(mid, &[0, 1, 2], buf, &lib);
        n.check_consistency(&lib);
        n.undo_repeater(mid, second_sinks);
        n.undo_repeater(a, first_sinks);
        assert_eq!(n, original);
        n.check_consistency(&lib);
    }
}
