//! Wire-load models and synthesis-stage optimization.
//!
//! The paper's synthesis step (Section 3.4) is guided by per-circuit
//! wire-load models: fanout → statistical wirelength tables extracted
//! from preliminary layouts, with T-MI's 20-30 % shorter wires baked into
//! T-MI-specific WLMs so that "the synthesized netlists for 2D and T-MI
//! are different". Table 15 / S7 then measures what happens when the T-MI
//! design is synthesized with the 2D WLM instead.
//!
//! * [`WireLoadModel`] — the fanout → length table, built either from a
//!   placement ([`WireLoadModel::from_placement`], the paper's
//!   "preliminary layout simulations") or analytically.
//! * [`try_synthesize`] — WLM-driven sizing and buffering over the mapped
//!   netlist until the target clock is met at the WLM estimate (or the
//!   pass budget runs out), producing the Table 12 netlists.
//!
//! # Example
//!
//! ```
//! use m3d_cells::CellLibrary;
//! use m3d_netlist::{BenchScale, Benchmark};
//! use m3d_place::Placer;
//! use m3d_synth::{try_synthesize, SynthConfig, WireLoadModel};
//! use m3d_tech::{DesignStyle, TechNode};
//!
//! let node = TechNode::n45();
//! let lib = CellLibrary::build(&node, DesignStyle::TwoD);
//! let raw = Benchmark::Aes.generate(&lib, BenchScale::Small);
//! let prelim = Placer::new(&lib).iterations(12).try_place(&raw).expect("placement succeeds");
//! let wlm = WireLoadModel::from_placement(&raw, &prelim);
//! let synthesized = try_synthesize(raw, &lib, &wlm, &SynthConfig::new(800.0)).expect("synthesis succeeds");
//! assert!(synthesized.instance_count() > 0);
//! ```

mod optimize;
mod wlm;

pub use optimize::{try_synthesize, wlm_net_models, SynthConfig, SynthError};
pub use wlm::WireLoadModel;
