//! Analytical standard-cell placement for the `monolith3d` flow.
//!
//! The placer follows the classic global-placement recipe:
//!
//! 1. **Core sizing** — total cell area over the target utilization, near
//!    1:1 aspect, row grid at the library cell height. The T-MI library's
//!    40 % shorter cells directly produce the ~40-44 % footprint
//!    reduction of the paper's Tables 4/13.
//! 2. **I/O assignment** — primary inputs/outputs pinned around the
//!    periphery.
//! 3. **Quadratic-style global placement** — Gauss-Seidel iterations that
//!    move every cell toward the weighted centroid of its nets
//!    (clique-centroid approximation of the quadratic system), with the
//!    clock net excluded from forces.
//! 4. **Density spreading** — alternating 1-D x/y redistribution over a
//!    bin grid so no bin exceeds the target utilization.
//! 5. **Row legalization** — snap to rows, pack left-to-right.
//!
//! The output [`Placement`] exposes per-instance positions and HPWL
//! queries, the wirelength basis for routing, timing and the wire-load
//! models.
//!
//! # Example
//!
//! ```
//! use m3d_cells::CellLibrary;
//! use m3d_netlist::{BenchScale, Benchmark};
//! use m3d_place::Placer;
//! use m3d_tech::{DesignStyle, TechNode};
//!
//! let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
//! let netlist = Benchmark::Aes.generate(&lib, BenchScale::Small);
//! let placement = Placer::new(&lib).utilization(0.8).try_place(&netlist).expect("placement succeeds");
//! assert!(placement.total_hpwl_um(&netlist) > 0.0);
//! ```

pub mod def;
mod legalize;
mod placement;
mod placer;
mod spread;

pub use placement::Placement;
pub use placer::{PlaceError, Placer};
