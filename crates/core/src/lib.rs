//! `monolith3d` — an open reproduction of the DAC'13 study *"Power
//! Benefit Study for Ultra-High Density Transistor-Level Monolithic 3D
//! ICs"* (Lee, Limbrick, Lim).
//!
//! Transistor-level monolithic 3D integration (**T-MI**) folds every
//! standard cell: PMOS devices go to the bottom tier, NMOS devices stay
//! on top, and nano-scale monolithic inter-tier vias (MIVs) stitch the
//! halves. Cell height drops 40 %, die footprint 40-44 %, wirelength
//! 20-34 %, and — the paper's headline — *total power drops up to 32 %
//! at iso-performance*, with the benefit depending strongly on circuit
//! wiring character and target clock.
//!
//! This crate is the study itself, built on the toolkit's substrates:
//!
//! | stage (paper Fig. 1) | crate |
//! |---|---|
//! | T-MI cell design + characterization | `m3d-cells`, `m3d-spice`, `m3d-extract` |
//! | metal stack + interconnect RC | `m3d-tech` |
//! | wire load models + synthesis | `m3d-synth` |
//! | placement | `m3d-place` |
//! | routing | `m3d-route` |
//! | timing/power sign-off | `m3d-sta`, `m3d-power` |
//!
//! [`Flow`] runs the whole pipeline for one (benchmark, node, style)
//! point; [`Comparison`] runs the iso-performance 2D-vs-T-MI pair and
//! reports the percentage deltas of the paper's Tables 4/7/13/14;
//! [`experiments`] regenerates every table and figure.
//!
//! The pipeline itself is one plain function per paper step, with typed
//! inputs and outputs, that [`FlowSupervisor`] calls in the paper's
//! fixed order; each stage's [`FlowStage::consumes`] names the config
//! knobs it reads. Cell libraries and completed results are shared
//! through a content-keyed [`ArtifactCache`] ([`cache`]) so the
//! experiment drivers and `paper_tables` never rebuild an identical
//! artifact.
//!
//! Failure handling: every stage has one fallible entry point whose
//! errors unify into [`FlowError`] ([`error`]); [`Flow::try_run`], the
//! [`experiments`] drivers and [`gmi::gmi_comparison`] return the first
//! failing stage's error; [`FlowSupervisor`]
//! ([`supervisor`]) runs each stage once under panic containment and a
//! per-stage deadline, and [`faultinject`] plants deterministic faults —
//! addressed to stages by name — to test that containment. A killed
//! process recovers through the persistent [`DiskStore`] ([`store`]):
//! the flows it completed are verified hits on the next run.
//!
//! Governance: [`govern`] gives the executor one stop control — a
//! [`CancelToken`] the caller owns, threaded through workers, stage
//! attempts and cache build waits. Cancelling it, or letting a deadline
//! armed on it pass, returns typed partial results ([`PointOutcome`]).
//!
//! Observability: the supervisor, cache and executor emit typed events
//! (stage spans with wall/busy durations, cache and store traffic,
//! governance decisions) into a
//! pluggable [`observe::Recorder`] — a JSONL trace, or in-memory
//! capture for tests. Attach one with
//! [`ArtifactCache::set_recorder`]; the default null recorder costs
//! nothing. [`observe::validate_jsonl`] checks a trace and aggregates
//! its stage spans per stage.
//!
//! # Example: a small iso-performance comparison
//!
//! ```no_run
//! use m3d_netlist::{BenchScale, Benchmark};
//! use m3d_tech::NodeId;
//! use monolith3d::{Comparison, FlowConfig};
//!
//! let cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
//! let cmp = Comparison::try_run(Benchmark::Aes, &cfg).expect("both flows close");
//! println!(
//!     "footprint {:+.1}%  wirelength {:+.1}%  power {:+.1}%",
//!     cmp.footprint_pct(),
//!     cmp.wirelength_pct(),
//!     cmp.total_power_pct()
//! );
//! ```

pub mod cache;
mod codec;
mod compare;
pub mod error;
pub mod executor;
pub mod experiments;
pub mod faultinject;
mod flow;
pub mod gmi;
pub mod govern;
mod memo;
pub mod observe;
mod stage;
pub mod store;
pub mod supervisor;

pub use cache::{ArtifactCache, CacheStats, FlowKey, LibraryKey, SpiceKey};
pub use compare::Comparison;
pub use error::StoreFailure;
pub use error::{ConfigError, FlowError, FlowStage};
pub use executor::{ExecutorReport, ExperimentPlan, ParallelExecutor, PlanPoint, WorkerReport};
pub use faultinject::{
    FaultInjector, FaultKind, FaultPlan, InjectedFault, PlannedFault, PlannedStoreFault,
    StoreFaultKind, StoreFaultPlan,
};
pub use flow::{apply_moves, estimate_models, try_extraction_models, EditLog};
pub use flow::{default_clock_scale_at, Flow, FlowConfig, FlowResult};
pub use govern::{CancelCause, CancelToken, PointOutcome};
pub use observe::{
    escape_json_into, json_raw_field, json_str_field, kv_str, unescape_json, CacheKind,
    CacheTotals, Event, EventKind, JsonlRecorder, NullRecorder, Recorder, StageOutcome,
    TraceSummary, VecRecorder,
};
pub use store::{DiskCounters, DiskStore};
pub use supervisor::{FlowSupervisor, StageDeadlines};
