//! Congestion-aware global routing for the `monolith3d` flow.
//!
//! The router performs the layout steps the paper runs in Encounter
//! (Section 2): multi-pin nets are decomposed into two-pin connections
//! (Prim MST over the placed pins), each connection is assigned to a
//! metal-layer *class* by its length, routed as the less-congested of the
//! two L-shapes over a global bin grid, and spilled to a neighbouring
//! class when its own class is full along the path.
//!
//! The class-capacity model is where the T-MI stack trade-offs live:
//!
//! * T-MI adds **local** layers only (Table 3), so its local capacity is
//!   2.5× the 2D stack's — absorbing the ~2x pin-density increase of the
//!   folded cells.
//! * The intermediate/global track *count* is unchanged while the die
//!   shrinks ~42 %, so long-net capacity is tighter in T-MI; at 7 nm,
//!   where local wires are extremely resistive, nets demoted to local
//!   layers get slower — the mechanism behind the paper's smaller LDPC
//!   benefit at 7 nm (Section 6).
//!
//! # Example
//!
//! ```
//! use m3d_cells::CellLibrary;
//! use m3d_netlist::{BenchScale, Benchmark};
//! use m3d_place::Placer;
//! use m3d_route::Router;
//! use m3d_tech::{DesignStyle, MetalStack, StackKind, TechNode};
//!
//! let node = TechNode::n45();
//! let lib = CellLibrary::build(&node, DesignStyle::TwoD);
//! let netlist = Benchmark::Aes.generate(&lib, BenchScale::Small);
//! let placement = Placer::new(&lib).try_place(&netlist).expect("placement succeeds");
//! let stack = MetalStack::new(&node, StackKind::TwoD);
//! let routed = Router::new(&node, &stack).try_route(&netlist, &placement, &lib).expect("routing succeeds");
//! assert!(routed.total_wirelength_um() > 0.0);
//! ```

pub mod cts;
mod grid;
mod report;
mod router;

pub use grid::CongestionGrid;
pub use report::LayerUsage;
pub use router::{RouteError, RoutedDesign, RoutedNet, Router};
