//! Statistical power analysis for the `monolith3d` flow.
//!
//! Implements the paper's sign-off power methodology (Section 2, S10):
//! switching activity factors are assigned to the primary inputs (0.2)
//! and sequential cell outputs (0.1), propagated through the
//! combinational logic using exact per-function Boolean-difference
//! probabilities, and converted into
//!
//! * **cell power** — internal energy per output transition from the
//!   library NLDM tables, plus per-cycle clocking energy in flops,
//! * **net power** — `0.5·α·C·V²·f`, split into its **wire** and **pin**
//!   components (the decomposition behind the paper's Table 16 and the
//!   DES-vs-LDPC analysis of Section 4.3),
//! * **leakage**.
//!
//! # Example
//!
//! ```
//! use m3d_cells::{CellFunction, CellLibrary};
//! use m3d_netlist::NetlistBuilder;
//! use m3d_power::{try_analyze_power, PowerConfig};
//! use m3d_sta::NetModel;
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
//! let p = try_analyze_power(&n, &lib, &models, &PowerConfig::new(1000.0)).expect("power analysis succeeds");
//! assert!(p.total_mw() > 0.0);
//! ```

mod activity;
mod analysis;
mod report;

pub use activity::{propagate_activity, Activity};
pub use analysis::{per_instance_power, try_analyze_power, PowerConfig, PowerError};
pub use report::PowerReport;
