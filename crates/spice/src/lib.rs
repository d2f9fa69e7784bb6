//! A small SPICE-class circuit simulator for standard-cell characterization.
//!
//! The DAC'13 T-MI study characterizes its 3D cells by feeding extracted
//! transistor + parasitic-RC netlists into a SPICE-driven library
//! characterizer. This crate is that substrate: a modified nodal analysis
//! (MNA) engine with
//!
//! * linear resistors, capacitors, and independent voltage sources,
//! * a semi-empirical alpha-power-law MOSFET model (Sakurai-Newton) for
//!   both NMOS and PMOS devices,
//! * trapezoidal transient integration with per-step Newton-Raphson,
//! * waveform measurement helpers (threshold crossings, 30/70 slew,
//!   supply-energy integration) used to build NLDM delay/power tables.
//!
//! Units follow the toolkit convention: V, kΩ, fF, ps, mA, fJ, mW.
//!
//! # Example: an RC step response
//!
//! ```
//! use m3d_spice::{Circuit, Transient, Waveform};
//!
//! let mut c = Circuit::new();
//! let inp = c.node("in");
//! let out = c.node("out");
//! c.vsource(inp, Waveform::step(1.0, 10.0, 1.0));
//! c.resistor(inp, out, 1.0);        // 1 kOhm
//! c.capacitor(out, Circuit::GND, 1.0); // 1 fF -> tau = 1 ps
//! let result = Transient::new(&c).try_run(50.0)?;
//! let t50 = result.cross_time(out, 0.5, true).expect("crosses 0.5 V");
//! // Analytic 50% point: t_start + tau*ln(2) (plus ~half the 1 ps input slew).
//! assert!((t50 - (10.5 + 0.693)).abs() < 0.1, "t50 = {t50}");
//! # Ok::<(), m3d_spice::ConvergenceError>(())
//! ```

mod circuit;
mod mosfet;
mod solver;
mod transient;
mod waveform;

pub use circuit::{Circuit, Node};
pub use mosfet::{MosKind, MosParams};
pub use solver::solve_dense;
pub use transient::{dc_transfer, Transient, TransientResult};
pub use waveform::Waveform;

/// Stage-error alias: SPICE's one failure mode is Newton non-convergence,
/// so the flow-level taxonomy wraps [`ConvergenceError`] under this name.
pub type SpiceError = ConvergenceError;

/// Error produced when the nonlinear solver fails to converge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceError {
    /// Simulation time (ps) at which Newton iteration diverged.
    pub at_time_ps: u64,
}

impl std::fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "newton iteration failed to converge near t = {} ps",
            self.at_time_ps
        )
    }
}

impl std::error::Error for ConvergenceError {}
