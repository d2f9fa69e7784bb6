use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use m3d_geom::Nm;
use m3d_tech::{DesignStyle, LibraryRecipe, Pdk, PdkRegistry, ScaleFactors, TechNode};

use crate::characterize::{characterize_analytic, CellTables};
use crate::layout::generate_layout;
use crate::{CellFunction, Nldm, Topology};

/// Pin direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinDir {
    /// Cell input.
    Input,
    /// Cell output.
    Output,
}

/// One pin of a library cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pin {
    /// Pin name ("A", "ZN", "CK", ...).
    pub name: String,
    /// Direction.
    pub dir: PinDir,
    /// Input capacitance, fF (0 for outputs).
    pub cap_ff: f64,
}

/// Sequential-cell constraints and clocking data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeqSpec {
    /// Setup time at the D pin, ps.
    pub setup_ps: f64,
    /// Hold time, ps.
    pub hold_ps: f64,
    /// Internal energy dissipated per clock cycle even without output
    /// activity (clock buffers, transmission gates), fJ.
    pub clk_energy_fj: f64,
}

/// A characterized library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Library name, e.g. `"NAND2_X2"`.
    pub name: String,
    /// Logic function.
    pub function: CellFunction,
    /// Drive strength (1, 2, 4, 8).
    pub drive: u8,
    /// Placement width, nm.
    pub width_nm: Nm,
    /// Row height, nm.
    pub height_nm: Nm,
    /// Pins: inputs in [`CellFunction::input_names`] order, then outputs.
    pub pins: Vec<Pin>,
    /// Worst-arc propagation delay, ps over (input slew, load fF).
    pub delay: Nldm,
    /// Output slew, ps.
    pub out_slew: Nldm,
    /// Internal energy per output transition, fJ.
    pub energy: Nldm,
    /// Leakage power, mW.
    pub leakage_mw: f64,
    /// Sequential data for flip-flops.
    pub seq: Option<SeqSpec>,
    /// MIVs inside the cell (0 in 2D libraries).
    pub miv_count: u32,
    /// Effective drive resistance, kΩ (sizing/buffering heuristics).
    pub r_drive: f64,
}

impl Cell {
    /// Footprint area, µm².
    pub fn area_um2(&self) -> f64 {
        self.width_nm as f64 * self.height_nm as f64 * 1e-6
    }

    /// Looks up a pin by name.
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Capacitance of input pin `idx` (input ordering), fF.
    pub fn input_cap(&self, idx: usize) -> f64 {
        self.pins[idx].cap_ff
    }

    /// Largest input pin cap, fF.
    pub fn max_input_cap(&self) -> f64 {
        self.pins
            .iter()
            .filter(|p| p.dir == PinDir::Input)
            .map(|p| p.cap_ff)
            .fold(0.0, f64::max)
    }

    /// Number of input pins.
    pub fn input_count(&self) -> usize {
        self.function.input_count()
    }
}

/// Index of a cell inside a [`CellLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

/// Library construction or validation failure.
///
/// Produced by [`CellLibrary::try_build`] and
/// [`CellLibrary::try_with_pin_cap_scaled`]; a malformed library must
/// surface here instead of poisoning synthesis and sign-off downstream.
#[derive(Debug, Clone, PartialEq)]
pub enum LibraryError {
    /// A characterized electrical table produced a non-finite or
    /// out-of-range value.
    BadCharacterization {
        /// Offending cell name.
        cell: String,
        /// What was wrong (table and value).
        detail: String,
    },
    /// A generated layout had a non-positive footprint.
    DegenerateGeometry {
        /// Offending cell name.
        cell: String,
        /// Generated width, nm.
        width_nm: i64,
        /// Generated height, nm.
        height_nm: i64,
    },
    /// A pin-capacitance scale factor was non-positive or non-finite
    /// (the paper's Table 8 study uses 0.8 / 0.6 / 0.4).
    InvalidPinCapScale(f64),
    /// A logic function ended up with no drive variants.
    MissingVariants {
        /// The function missing from the library.
        function: String,
    },
    /// The node (or the base node its recipe scales from) names no
    /// registered PDK, so no library recipe exists for it.
    UnregisteredNode {
        /// The unresolvable node name.
        node: String,
    },
}

impl std::fmt::Display for LibraryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LibraryError::BadCharacterization { cell, detail } => {
                write!(f, "cell {cell}: bad characterization: {detail}")
            }
            LibraryError::DegenerateGeometry {
                cell,
                width_nm,
                height_nm,
            } => write!(
                f,
                "cell {cell}: degenerate layout {width_nm} x {height_nm} nm"
            ),
            LibraryError::InvalidPinCapScale(s) => {
                write!(f, "pin-cap scale must be finite and > 0, got {s}")
            }
            LibraryError::MissingVariants { function } => {
                write!(f, "function {function} has no drive variants")
            }
            LibraryError::UnregisteredNode { node } => {
                write!(f, "node {node} names no registered PDK")
            }
        }
    }
}

impl std::error::Error for LibraryError {}

/// A complete characterized library for one (node, design-style) pair.
///
/// # Example
///
/// ```
/// use m3d_cells::CellLibrary;
/// use m3d_tech::{DesignStyle, TechNode};
///
/// let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
/// assert!(lib.len() >= 50); // comparable to the paper's 66-cell library
/// let (id, nand) = lib.id_named("NAND2_X1").expect("NAND2_X1 exists");
/// assert_eq!(lib.upsize(id).map(|(_, c)| c.drive), Some(2));
/// assert!(nand.delay.lookup(7.5, 0.8) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CellLibrary {
    node: TechNode,
    style: DesignStyle,
    cells: Vec<Cell>,
    by_name: HashMap<String, CellId>,
}

/// The registered PDK of `node`.
fn pdk_of(node: &TechNode) -> Result<Arc<dyn Pdk>, LibraryError> {
    PdkRegistry::global()
        .get(node.id)
        .ok_or_else(|| LibraryError::UnregisteredNode {
            node: node.id.label().to_string(),
        })
}

/// Drive strengths built per function.
fn drives_for(function: CellFunction) -> &'static [u8] {
    match function {
        CellFunction::Inv | CellFunction::Buf => &[1, 2, 4, 8, 16],
        CellFunction::Dff => &[1, 2, 4],
        _ => &[1, 2, 4, 8],
    }
}

impl CellLibrary {
    /// Builds the library for `node` and `style`, generating every cell's
    /// layout, extracting its parasitics and characterizing it.
    ///
    /// How a node's library is constructed is data owned by its PDK: a
    /// [`LibraryRecipe::Native`] node is characterized directly from its
    /// own parameters, while a [`LibraryRecipe::ScaledFrom`] node derives
    /// its electrical tables from the base node's characterization
    /// through the PDK's scaling factors — exactly as the paper
    /// constructs its 7 nm Liberty library from the 45 nm one (Section 5
    /// / S3). Physical dimensions always come from layouts regenerated
    /// at the target node's geometry.
    /// # Panics
    ///
    /// Panics when the generated library fails validation — see
    /// [`CellLibrary::try_build`] for the fallible form used by the
    /// supervised flow.
    pub fn build(node: &TechNode, style: DesignStyle) -> Self {
        match Self::try_build(node, style) {
            Ok(lib) => lib,
            Err(e) => panic!("library construction failed: {e}"),
        }
    }

    /// Builds the library and validates every cell: finite, in-range
    /// electrical tables, positive footprints, and a full drive ladder
    /// per function.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError`] naming the first offending cell.
    pub fn try_build(node: &TechNode, style: DesignStyle) -> Result<Self, LibraryError> {
        match pdk_of(node)?.library_recipe() {
            LibraryRecipe::Native => {
                let lib = Self::build_native(node, style);
                lib.validate()?;
                Ok(lib)
            }
            LibraryRecipe::ScaledFrom { base } => {
                let base_node =
                    TechNode::try_for_id(base).ok_or_else(|| LibraryError::UnregisteredNode {
                        node: base.label().to_string(),
                    })?;
                Self::scaled(Self::build_native(&base_node, style), node)
            }
        }
    }

    /// The library of a [`LibraryRecipe::ScaledFrom`] node derived from
    /// an already built `base` library (the recipe's base node, in the
    /// target style) — the cheap step of [`CellLibrary::try_build`]
    /// without characterizing the base again. Layouts are regenerated at
    /// `node`'s geometry and the electrical tables scaled by its PDK's
    /// factors, then validated; the result is identical to
    /// `try_build(node, base.style())`.
    ///
    /// # Errors
    ///
    /// [`LibraryError::UnregisteredNode`] when `node` names no
    /// registered PDK, or the first offending cell of the derived
    /// library.
    pub fn try_scaled_from(base: &CellLibrary, node: &TechNode) -> Result<Self, LibraryError> {
        Self::scaled(base.clone(), node)
    }

    /// Scales `base` onto `node` through its PDK's factors and
    /// validates the result.
    fn scaled(base: CellLibrary, node: &TechNode) -> Result<Self, LibraryError> {
        let lib = base.into_scaled(node, &pdk_of(node)?.scaling());
        lib.validate()?;
        Ok(lib)
    }

    /// Checks every cell for physical and electrical sanity.
    fn validate(&self) -> Result<(), LibraryError> {
        for cell in &self.cells {
            if cell.width_nm <= 0 || cell.height_nm <= 0 {
                return Err(LibraryError::DegenerateGeometry {
                    cell: cell.name.clone(),
                    width_nm: cell.width_nm,
                    height_nm: cell.height_nm,
                });
            }
            let bad = |table: &str, v: f64| LibraryError::BadCharacterization {
                cell: cell.name.clone(),
                detail: format!("{table} = {v}"),
            };
            // Probe each NLDM at a representative (slew, load) corner.
            let delay = cell.delay.lookup(20.0, 1.0);
            if !delay.is_finite() || delay <= 0.0 {
                return Err(bad("delay(20ps, 1fF)", delay));
            }
            let slew = cell.out_slew.lookup(20.0, 1.0);
            if !slew.is_finite() || slew <= 0.0 {
                return Err(bad("out_slew(20ps, 1fF)", slew));
            }
            let energy = cell.energy.lookup(20.0, 1.0);
            if !energy.is_finite() || energy < 0.0 {
                return Err(bad("energy(20ps, 1fF)", energy));
            }
            if !cell.leakage_mw.is_finite() || cell.leakage_mw < 0.0 {
                return Err(bad("leakage_mw", cell.leakage_mw));
            }
            if !cell.r_drive.is_finite() || cell.r_drive <= 0.0 {
                return Err(bad("r_drive", cell.r_drive));
            }
            for pin in &cell.pins {
                if !pin.cap_ff.is_finite() || pin.cap_ff < 0.0 {
                    return Err(bad(&format!("pin {} cap_ff", pin.name), pin.cap_ff));
                }
            }
        }
        for function in CellFunction::ALL {
            if self.variants(function).is_empty() {
                return Err(LibraryError::MissingVariants {
                    function: format!("{function:?}"),
                });
            }
        }
        Ok(())
    }

    fn build_native(node: &TechNode, style: DesignStyle) -> Self {
        let mut cells = Vec::new();
        for function in CellFunction::ALL {
            let topo = Topology::for_function(function);
            for &drive in drives_for(function) {
                let geom = generate_layout(node, &topo, style, drive);
                let tables = characterize_analytic(node, style, function, drive, &topo, &geom);
                cells.push(assemble_cell(node, function, drive, &geom, tables));
            }
        }
        Self::from_cells(node.clone(), style, cells)
    }

    fn from_cells(node: TechNode, style: DesignStyle, cells: Vec<Cell>) -> Self {
        let by_name = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), CellId(i as u32)))
            .collect();
        CellLibrary {
            node,
            style,
            cells,
            by_name,
        }
    }

    /// Derives a scaled node's library from this (base-node) one via the
    /// target PDK's Liberty scaling factors — for the 7 nm node these
    /// are the paper's ITRS factors of Table 6 / Section S3.
    fn into_scaled(self, node: &TechNode, f: &ScaleFactors) -> Self {
        let style = self.style;
        let cells = self
            .cells
            .into_iter()
            .map(|c| {
                let topo = Topology::for_function(c.function);
                let geom = generate_layout(node, &topo, style, c.drive);
                Cell {
                    width_nm: geom.width_nm,
                    height_nm: geom.height_nm,
                    miv_count: geom.miv_count,
                    pins: c
                        .pins
                        .iter()
                        .map(|p| Pin {
                            name: p.name.clone(),
                            dir: p.dir,
                            cap_ff: p.cap_ff * f.input_cap,
                        })
                        .collect(),
                    delay: c
                        .delay
                        .scaled(f.cell_delay)
                        .with_axes_scaled(f.output_slew, f.input_cap),
                    out_slew: c
                        .out_slew
                        .scaled(f.output_slew)
                        .with_axes_scaled(f.output_slew, f.input_cap),
                    energy: c
                        .energy
                        .scaled(f.cell_power)
                        .with_axes_scaled(f.output_slew, f.input_cap),
                    leakage_mw: c.leakage_mw * f.leakage,
                    seq: c.seq.map(|s| SeqSpec {
                        setup_ps: s.setup_ps * f.cell_delay,
                        hold_ps: s.hold_ps * f.cell_delay,
                        clk_energy_fj: s.clk_energy_fj * f.cell_power,
                    }),
                    // Delay per fF scales as delay/cap.
                    r_drive: c.r_drive * f.cell_delay / f.input_cap,
                    ..c
                }
            })
            .collect();
        Self::from_cells(node.clone(), style, cells)
    }

    /// Reassembles a library from externally persisted parts — the
    /// reload half of a disk-resident artifact store. Runs the same
    /// validation as [`CellLibrary::try_build`], so a corrupt or
    /// hand-edited payload that decodes structurally can still not
    /// smuggle a malformed library (non-finite tables, degenerate
    /// geometry, missing drive variants) past synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError`] naming the first offending cell.
    pub fn try_from_parts(
        node: TechNode,
        style: DesignStyle,
        cells: Vec<Cell>,
    ) -> Result<Self, LibraryError> {
        let lib = Self::from_cells(node, style, cells);
        lib.validate()?;
        Ok(lib)
    }

    /// Fallible form of [`CellLibrary::with_pin_cap_scaled`], rejecting
    /// non-finite and non-positive factors.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::InvalidPinCapScale`] when `factor` is not
    /// a positive finite number.
    pub fn try_with_pin_cap_scaled(&self, factor: f64) -> Result<Self, LibraryError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(LibraryError::InvalidPinCapScale(factor));
        }
        Ok(self.with_pin_cap_scaled(factor))
    }

    /// Returns a copy with every input pin capacitance scaled by `factor`
    /// — the paper's Table 8 pin-cap sensitivity study.
    pub fn with_pin_cap_scaled(&self, factor: f64) -> Self {
        let mut out = self.clone();
        for c in &mut out.cells {
            for p in &mut c.pins {
                if p.dir == PinDir::Input {
                    p.cap_ff *= factor;
                }
            }
        }
        out
    }

    /// The technology node the library was built for.
    pub fn node(&self) -> &TechNode {
        &self.node
    }

    /// The design style (2D or T-MI).
    pub fn style(&self) -> DesignStyle {
        self.style
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the library is empty (never, for built libraries).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell by id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Cell by name.
    pub fn cell_named(&self, name: &str) -> Option<&Cell> {
        self.by_name.get(name).map(|&id| self.cell(id))
    }

    /// Id and cell by name.
    pub fn id_named(&self, name: &str) -> Option<(CellId, &Cell)> {
        self.by_name.get(name).map(|&id| (id, self.cell(id)))
    }

    /// All drive variants of a function, weakest first.
    pub fn variants(&self, function: CellFunction) -> Vec<CellId> {
        let mut v: Vec<CellId> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.function == function)
            .map(|(i, _)| CellId(i as u32))
            .collect();
        v.sort_by_key(|&id| self.cell(id).drive);
        v
    }

    /// The weakest variant of a function.
    ///
    /// # Panics
    ///
    /// Panics if the function has no variants (cannot happen for built
    /// libraries).
    pub fn smallest(&self, function: CellFunction) -> CellId {
        self.variants(function)[0]
    }

    /// The next-stronger variant, if any.
    pub fn upsize(&self, id: CellId) -> Option<(CellId, &Cell)> {
        let c = self.cell(id);
        self.variants(c.function)
            .into_iter()
            .find(|&v| self.cell(v).drive > c.drive)
            .map(|v| (v, self.cell(v)))
    }

    /// The next-weaker variant, if any.
    pub fn downsize(&self, id: CellId) -> Option<(CellId, &Cell)> {
        let c = self.cell(id);
        self.variants(c.function)
            .into_iter()
            .rev()
            .find(|&v| self.cell(v).drive < c.drive)
            .map(|v| (v, self.cell(v)))
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }
}

fn assemble_cell(
    _node: &TechNode,
    function: CellFunction,
    drive: u8,
    geom: &crate::layout::CellGeometry,
    tables: CellTables,
) -> Cell {
    let mut pins = Vec::new();
    for (i, name) in function.input_names().iter().enumerate() {
        pins.push(Pin {
            name: (*name).to_string(),
            dir: PinDir::Input,
            cap_ff: tables.input_caps[i],
        });
    }
    for name in function.output_names() {
        pins.push(Pin {
            name: (*name).to_string(),
            dir: PinDir::Output,
            cap_ff: 0.0,
        });
    }
    let seq = function.is_sequential().then(|| {
        // Setup: the master latch must settle (two internal stages) before
        // the clock edge; hold is near zero for transmission-gate DFFs.
        let stage = tables.delay.lookup(20.0, 1.0) / function.stage_count() as f64;
        SeqSpec {
            setup_ps: 1.6 * stage,
            hold_ps: 2.0,
            // Clock buffers + tgate gates toggle every cycle.
            clk_energy_fj: 0.35 * tables.energy.lookup(20.0, 1.0),
        }
    });
    Cell {
        name: format!("{}_X{}", function.base_name(), drive),
        function,
        drive,
        width_nm: geom.width_nm,
        height_nm: geom.height_nm,
        pins,
        delay: tables.delay,
        out_slew: tables.out_slew,
        energy: tables.energy,
        leakage_mw: tables.leakage_mw,
        seq,
        miv_count: geom.miv_count,
        r_drive: tables.r_drive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib45() -> CellLibrary {
        CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD)
    }

    #[test]
    fn library_has_all_functions_and_drives() {
        let lib = lib45();
        for f in CellFunction::ALL {
            let v = lib.variants(f);
            assert_eq!(v.len(), drives_for(f).len(), "{f:?}");
            // Upsizing from the smallest eventually reaches the largest.
            let mut id = lib.smallest(f);
            let mut steps = 0;
            while let Some((next, _)) = lib.upsize(id) {
                id = next;
                steps += 1;
            }
            assert_eq!(steps, v.len() - 1, "{f:?}");
        }
    }

    #[test]
    fn upsizing_lowers_drive_resistance_and_raises_cap() {
        let lib = lib45();
        let (x1, c1) = lib.id_named("INV_X1").expect("INV_X1");
        let (_, c4) = lib.id_named("INV_X4").expect("INV_X4");
        assert!(c4.r_drive < c1.r_drive / 2.0);
        assert!(c4.max_input_cap() > 2.0 * c1.max_input_cap());
        assert!(lib.downsize(x1).is_none());
    }

    #[test]
    fn dff_has_sequential_spec() {
        let lib = lib45();
        let dff = lib.cell_named("DFF_X1").expect("DFF_X1");
        let seq = dff.seq.expect("sequential");
        assert!(seq.setup_ps > 10.0 && seq.setup_ps < 300.0);
        assert!(seq.clk_energy_fj > 0.0);
        assert!(lib.cell_named("INV_X1").expect("INV").seq.is_none());
    }

    #[test]
    fn seven_nm_library_scales_per_itrs() {
        let lib45 = lib45();
        let lib7 = CellLibrary::build(&TechNode::n7(), DesignStyle::TwoD);
        let i45 = lib45.cell_named("INV_X1").expect("INV45");
        let i7 = lib7.cell_named("INV_X1").expect("INV7");
        // Input cap: 0.179x (Table 11: 0.463 -> 0.125 fF).
        let cap_ratio = i7.max_input_cap() / i45.max_input_cap();
        assert!((cap_ratio - 0.179).abs() < 0.01, "cap ratio {cap_ratio}");
        // Delay at the scaled corner: 0.471x.
        let d45 = i45.delay.lookup(37.5, 3.2);
        let d7 = i7.delay.lookup(37.5 * 0.42, 3.2 * 0.179);
        assert!((d7 / d45 - 0.471).abs() < 0.01, "delay ratio {}", d7 / d45);
        // Leakage: 0.678x; energy: 0.084x.
        assert!((i7.leakage_mw / i45.leakage_mw - 0.678).abs() < 0.01);
        // Cell height scales to 218 nm.
        assert_eq!(i7.height_nm, 218);
    }

    #[test]
    fn tmi_library_cells_are_40_percent_shorter() {
        let lib3 = CellLibrary::build(&TechNode::n45(), DesignStyle::Tmi);
        let lib2 = lib45();
        for (_, c3) in lib3.iter() {
            let c2 = lib2.cell_named(&c3.name).expect("same names");
            assert_eq!(c3.height_nm * 10, c2.height_nm * 6, "{}", c3.name);
            assert!(c3.miv_count > 0, "{} has no MIVs", c3.name);
        }
    }

    #[test]
    fn pin_cap_scaling_only_touches_inputs() {
        let lib = lib45().with_pin_cap_scaled(0.6);
        let base = lib45();
        let a = lib.cell_named("NAND2_X1").expect("scaled");
        let b = base.cell_named("NAND2_X1").expect("base");
        assert!((a.input_cap(0) / b.input_cap(0) - 0.6).abs() < 1e-9);
        assert_eq!(a.delay, b.delay);
    }

    #[test]
    fn names_resolve_round_trip() {
        let lib = lib45();
        for (id, cell) in lib.iter() {
            let (id2, _) = lib.id_named(&cell.name).expect("by name");
            assert_eq!(id, id2);
        }
        assert!(lib.cell_named("NOPE_X9").is_none());
    }
}
