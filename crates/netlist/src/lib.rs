//! Gate-level netlists and the benchmark circuits of the T-MI study.
//!
//! The five benchmarks (paper Table 12) are generated *structurally* from
//! their architectures rather than read from proprietary RTL:
//!
//! | circuit | architecture here | wiring character |
//! |---|---|---|
//! | FPU  | double-precision mantissa datapath: 53×53 array multiplier, barrel shifters, Kogge-Stone adder, LZC, rounding | mixed |
//! | AES  | two unrolled AES-128 rounds: 16 S-boxes, MixColumns XOR trees, key schedule | mostly local |
//! | LDPC | IEEE 802.3an (2048,1723) min-sum decoder: 2048 variable nodes, 384 check nodes, pseudo-random regular bipartite interconnect | dominated by long global wires |
//! | DES  | two 16-round unrolled/pipelined DES cores with mux-tree S-boxes | tight local clusters, short nets |
//! | M256 | partial-sum-add 256-bit array multiplier (carry-save rows + final prefix adder) | regular neighbour wiring |
//!
//! The LDPC-vs-DES contrast is the paper's Section 4.3 analysis: LDPC's
//! bipartite graph has no spatial locality, so placement cannot shorten
//! its nets (huge wire capacitance, many buffers), while DES decomposes
//! into S-box clusters with short nets whose capacitance is pin-dominated.
//!
//! # Example
//!
//! ```
//! use m3d_cells::{CellFunction, CellLibrary};
//! use m3d_netlist::NetlistBuilder;
//! use m3d_tech::{DesignStyle, TechNode};
//!
//! let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
//! let mut b = NetlistBuilder::new(&lib, "toy");
//! let a = b.input();
//! let c = b.input();
//! let x = b.gate(CellFunction::Nand2, &[a, c]);
//! let q = b.dff(x);
//! b.output(q);
//! let n = b.finish();
//! assert_eq!(n.instance_count(), 2);
//! assert_eq!(n.stats(&lib).flop_count, 1);
//! ```

mod builder;
pub mod circuits;
mod edit;
pub mod io;
mod netlist;
mod stats;
mod topo;

pub use builder::NetlistBuilder;
pub use circuits::{BenchScale, Benchmark};
pub use netlist::{InstId, Instance, Net, NetDriver, NetId, Netlist, PinRef, Pins};
pub use stats::NetlistStats;
pub use topo::levelize;
