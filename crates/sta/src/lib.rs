//! Static timing analysis for the `monolith3d` flow.
//!
//! Graph-based STA in the sign-off style the paper requires ("timing is
//! closed on all designs", Section 1):
//!
//! * forward propagation of arrival times and slews in topological order,
//!   cell arcs evaluated through the library NLDM tables; the order is a
//!   [`TimingGraph`], built once per topology and reused across resizes,
//! * net delays from the lumped Elmore model
//!   `R_wire · (C_wire/2 + C_pins)` over extracted parasitics,
//! * slew degradation across resistive nets,
//! * launch from flop CK→Q, capture at flop D with setup, plus primary
//!   I/O endpoints — yielding WNS/TNS against a target clock period.
//!
//! [`opt`] turns a timing report into concrete optimization moves (gate
//! sizing up/down, repeater insertion) that the flow driver applies and
//! re-extracts — the pre-route and post-route optimization steps of the
//! paper's Fig. 1.
//!
//! # Example
//!
//! ```
//! use m3d_cells::{CellFunction, CellLibrary};
//! use m3d_netlist::NetlistBuilder;
//! use m3d_sta::{try_analyze, NetModel, TimingConfig};
//! use m3d_tech::{DesignStyle, TechNode};
//!
//! let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
//! let mut b = NetlistBuilder::new(&lib, "t");
//! let x = b.input();
//! let y = b.gate(CellFunction::Inv, &[x]);
//! let q = b.dff(y);
//! b.output(q);
//! let n = b.finish();
//! let models = vec![NetModel::default(); n.net_count()];
//! let report = try_analyze(&n, &lib, &models, &TimingConfig::new(1000.0)).expect("timing analysis succeeds");
//! assert!(report.wns > 0.0, "a single inverter meets 1 ns easily");
//! ```

mod engine;
pub mod opt;
mod report;

pub use engine::{try_analyze, NetModel, StaError, TimingConfig, TimingGraph};
pub use opt::{plan_load_sizing, plan_power_recovery, plan_timing_moves, OptMove};
pub use report::{PathHop, TimingReport};
