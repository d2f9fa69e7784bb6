use serde::{Deserialize, Serialize};

/// Logic function of a library cell.
///
/// The set mirrors the slice of the Nangate 45 nm library the benchmark
/// circuits need, plus the arithmetic cells (half/full adder) that the
/// multiplier and FPU generators instantiate heavily.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CellFunction {
    /// Inverter.
    Inv,
    /// Non-inverting buffer (two cascaded inverters).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND (NAND + inverter).
    And2,
    /// 2-input OR (NOR + inverter).
    Or2,
    /// 2-input XOR (static CMOS, 12T).
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer, output = S ? B : A.
    Mux2,
    /// AND-OR-invert: `!(A&B | C)`.
    Aoi21,
    /// OR-AND-invert: `!((A|B) & C)`.
    Oai21,
    /// AND-OR-invert: `!(A&B | C&D)`.
    Aoi22,
    /// OR-AND-invert: `!((A|B) & (C|D))`.
    Oai22,
    /// Half adder: S = A^B, CO = A&B.
    HalfAdder,
    /// Full adder (28T mirror adder): S = A^B^CI, CO = majority.
    FullAdder,
    /// Rising-edge master-slave D flip-flop (transmission-gate, 24T).
    Dff,
}

impl CellFunction {
    /// All functions in the library.
    pub const ALL: [CellFunction; 18] = [
        CellFunction::Inv,
        CellFunction::Buf,
        CellFunction::Nand2,
        CellFunction::Nand3,
        CellFunction::Nor2,
        CellFunction::Nor3,
        CellFunction::And2,
        CellFunction::Or2,
        CellFunction::Xor2,
        CellFunction::Xnor2,
        CellFunction::Mux2,
        CellFunction::Aoi21,
        CellFunction::Oai21,
        CellFunction::Aoi22,
        CellFunction::Oai22,
        CellFunction::HalfAdder,
        CellFunction::FullAdder,
        CellFunction::Dff,
    ];

    /// Library base name (drive suffix is added by the library builder).
    pub fn base_name(self) -> &'static str {
        match self {
            CellFunction::Inv => "INV",
            CellFunction::Buf => "BUF",
            CellFunction::Nand2 => "NAND2",
            CellFunction::Nand3 => "NAND3",
            CellFunction::Nor2 => "NOR2",
            CellFunction::Nor3 => "NOR3",
            CellFunction::And2 => "AND2",
            CellFunction::Or2 => "OR2",
            CellFunction::Xor2 => "XOR2",
            CellFunction::Xnor2 => "XNOR2",
            CellFunction::Mux2 => "MUX2",
            CellFunction::Aoi21 => "AOI21",
            CellFunction::Oai21 => "OAI21",
            CellFunction::Aoi22 => "AOI22",
            CellFunction::Oai22 => "OAI22",
            CellFunction::HalfAdder => "HA",
            CellFunction::FullAdder => "FA",
            CellFunction::Dff => "DFF",
        }
    }

    /// Input pin names. For the DFF these are `D` then `CK`.
    pub fn input_names(self) -> &'static [&'static str] {
        match self {
            CellFunction::Inv | CellFunction::Buf => &["A"],
            CellFunction::Nand2
            | CellFunction::Nor2
            | CellFunction::And2
            | CellFunction::Or2
            | CellFunction::Xor2
            | CellFunction::Xnor2
            | CellFunction::HalfAdder => &["A", "B"],
            CellFunction::Nand3 | CellFunction::Nor3 => &["A", "B", "C"],
            CellFunction::Mux2 => &["A", "B", "S"],
            CellFunction::Aoi21 | CellFunction::Oai21 => &["A", "B", "C"],
            CellFunction::Aoi22 | CellFunction::Oai22 => &["A", "B", "C", "D"],
            CellFunction::FullAdder => &["A", "B", "CI"],
            CellFunction::Dff => &["D", "CK"],
        }
    }

    /// Output pin names.
    pub fn output_names(self) -> &'static [&'static str] {
        match self {
            CellFunction::HalfAdder => &["S", "CO"],
            CellFunction::FullAdder => &["S", "CO"],
            CellFunction::Dff => &["Q"],
            CellFunction::Inv | CellFunction::Nand2 | CellFunction::Nand3 => &["ZN"],
            CellFunction::Nor2
            | CellFunction::Nor3
            | CellFunction::Xnor2
            | CellFunction::Aoi21
            | CellFunction::Oai21
            | CellFunction::Aoi22
            | CellFunction::Oai22 => &["ZN"],
            _ => &["Z"],
        }
    }

    /// Number of inputs.
    pub fn input_count(self) -> usize {
        self.input_names().len()
    }

    /// Number of outputs.
    pub fn output_count(self) -> usize {
        self.output_names().len()
    }

    /// `true` for the flip-flop.
    pub fn is_sequential(self) -> bool {
        matches!(self, CellFunction::Dff)
    }

    /// Evaluates the combinational function.
    ///
    /// # Panics
    ///
    /// Panics for [`CellFunction::Dff`] (stateful) or when `inputs` has the
    /// wrong arity.
    pub fn eval(self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "{self:?} expects {} inputs",
            self.input_count()
        );
        let i = inputs;
        match self {
            CellFunction::Inv => vec![!i[0]],
            CellFunction::Buf => vec![i[0]],
            CellFunction::Nand2 => vec![!(i[0] && i[1])],
            CellFunction::Nand3 => vec![!(i[0] && i[1] && i[2])],
            CellFunction::Nor2 => vec![!(i[0] || i[1])],
            CellFunction::Nor3 => vec![!(i[0] || i[1] || i[2])],
            CellFunction::And2 => vec![i[0] && i[1]],
            CellFunction::Or2 => vec![i[0] || i[1]],
            CellFunction::Xor2 => vec![i[0] ^ i[1]],
            CellFunction::Xnor2 => vec![!(i[0] ^ i[1])],
            CellFunction::Mux2 => vec![if i[2] { i[1] } else { i[0] }],
            CellFunction::Aoi21 => vec![!((i[0] && i[1]) || i[2])],
            CellFunction::Oai21 => vec![!((i[0] || i[1]) && i[2])],
            CellFunction::Aoi22 => vec![!((i[0] && i[1]) || (i[2] && i[3]))],
            CellFunction::Oai22 => vec![!((i[0] || i[1]) && (i[2] || i[3]))],
            CellFunction::HalfAdder => vec![i[0] ^ i[1], i[0] && i[1]],
            CellFunction::FullAdder => {
                let s = i[0] ^ i[1] ^ i[2];
                let co = (i[0] && i[1]) || (i[2] && (i[0] ^ i[1]));
                vec![s, co]
            }
            CellFunction::Dff => panic!("DFF is sequential; eval() is undefined"),
        }
    }

    /// Logic stages from input to output (for the characterizer's
    /// intrinsic-delay model).
    pub fn stage_count(self) -> usize {
        match self {
            CellFunction::Inv
            | CellFunction::Nand2
            | CellFunction::Nand3
            | CellFunction::Nor2
            | CellFunction::Nor3
            | CellFunction::Aoi21
            | CellFunction::Oai21
            | CellFunction::Aoi22
            | CellFunction::Oai22 => 1,
            CellFunction::Buf | CellFunction::And2 | CellFunction::Or2 => 2,
            CellFunction::Xor2 | CellFunction::Xnor2 | CellFunction::HalfAdder => 2,
            CellFunction::Mux2 => 3,
            CellFunction::FullAdder => 3,
            CellFunction::Dff => 3,
        }
    }
}

impl std::fmt::Display for CellFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.base_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_adder_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                for ci in [false, true] {
                    let out = CellFunction::FullAdder.eval(&[a, b, ci]);
                    let sum = (a as u8) + (b as u8) + (ci as u8);
                    assert_eq!(out[0], sum & 1 == 1, "sum for {a}{b}{ci}");
                    assert_eq!(out[1], sum >= 2, "carry for {a}{b}{ci}");
                }
            }
        }
    }

    #[test]
    fn aoi_oai_are_complementary_structures() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let aoi = CellFunction::Aoi21.eval(&[a, b, c])[0];
                    assert_eq!(aoi, !((a && b) || c));
                    let oai = CellFunction::Oai21.eval(&[a, b, c])[0];
                    assert_eq!(oai, !((a || b) && c));
                }
            }
        }
    }

    #[test]
    fn mux_selects() {
        assert_eq!(CellFunction::Mux2.eval(&[true, false, false]), vec![true]);
        assert_eq!(CellFunction::Mux2.eval(&[true, false, true]), vec![false]);
    }

    #[test]
    fn arity_matches_pin_lists() {
        for f in CellFunction::ALL {
            assert_eq!(f.input_count(), f.input_names().len());
            assert_eq!(f.output_count(), f.output_names().len());
            if !f.is_sequential() {
                let out = f.eval(&vec![false; f.input_count()]);
                assert_eq!(out.len(), f.output_count(), "{f:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn dff_eval_panics() {
        CellFunction::Dff.eval(&[false, false]);
    }

    #[test]
    fn base_names_are_unique() {
        let mut names: Vec<_> = CellFunction::ALL.iter().map(|f| f.base_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CellFunction::ALL.len());
    }
}
