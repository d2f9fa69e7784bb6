//! Parasitic RC extraction for the `monolith3d` toolkit.
//!
//! Two extraction engines live here, mirroring the two extraction steps of
//! the DAC'13 T-MI study:
//!
//! * [`extract_cell`] — cell-internal parasitics from a transistor-level
//!   layout ([`m3d_geom::ShapeSet`] over [`m3d_tech::CellLayer`]s). This is
//!   the toolkit's Calibre-XRC analogue, including the paper's two
//!   bracketing models for the top-tier silicon ([`TopSiliconModel`]):
//!   treating it as a *dielectric* over-estimates the coupling between
//!   bottom- and top-tier conductors, treating it as a grounded *conductor*
//!   under-estimates it ("the real case would be between these two extreme
//!   cases", Section 3.2). Table 1 of the paper is regenerated with this
//!   engine.
//! * [`try_extract_net`] — routed-net parasitics from per-layer wire lengths,
//!   using the capTable-derived unit RC of [`m3d_tech::WireRc`]. The STA
//!   and power engines consume the resulting [`NetParasitics`].
//!
//! # Example
//!
//! ```
//! use m3d_tech::{MetalStack, StackKind, TechNode};
//! use m3d_extract::try_extract_net;
//!
//! let node = TechNode::n45();
//! let stack = MetalStack::new(&node, StackKind::TwoD);
//! let m2 = stack.by_name("M2").expect("M2 exists").index;
//! let m7 = stack.by_name("M7").expect("M7 exists").index;
//! // A net with 12 um on M2 and 80 um on M7, 4 vias.
//! let p = try_extract_net(&node, &stack, [(m2, 12.0), (m7, 80.0)], 4).expect("extraction succeeds");
//! assert!(p.c_wire > 0.0 && p.r_wire > 0.0);
//! assert_eq!(p.length_um(), 92.0);
//! ```

mod cell;
mod net;

pub use cell::{extract_cell, CellExtraction, TopSiliconModel};
pub use net::{try_extract_net, ExtractError, NetParasitics};
