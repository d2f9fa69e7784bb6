use crate::circuit::Circuit;
use crate::solver::solve_in_place;
use crate::{ConvergenceError, Node};

/// Transient simulation engine: trapezoidal integration with per-step
/// Newton-Raphson linearization of the MOSFETs.
///
/// # Example
///
/// ```
/// use m3d_spice::{Circuit, MosParams, Transient, Waveform};
///
/// // A CMOS inverter driving 2 fF.
/// let mut c = Circuit::new();
/// let vdd = c.node("vdd");
/// let inp = c.node("in");
/// let out = c.node("out");
/// c.vsource(vdd, Waveform::Dc(1.1));
/// c.vsource(inp, Waveform::step(1.1, 20.0, 10.0));
/// c.mosfet(out, inp, Circuit::GND, MosParams::nmos45(0.415));
/// c.mosfet(out, inp, vdd, MosParams::pmos45(0.630));
/// c.capacitor(out, Circuit::GND, 2.0);
/// let r = Transient::new(&c).try_run(200.0)?;
/// // Input rise -> output falls below VDD/2 some time after the input
/// // crosses VDD/2.
/// let t_in = r.cross_time(inp, 0.55, true).expect("input crosses");
/// let t_out = r.cross_time(out, 0.55, false).expect("output falls");
/// assert!(t_out > t_in);
/// assert!(t_out - t_in < 60.0, "inverter delay {} ps", t_out - t_in);
/// # Ok::<(), m3d_spice::ConvergenceError>(())
/// ```
/// Companion-model integration method used for one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Integ {
    /// First-order, unconditionally damped; used for DC settling.
    BackwardEuler,
    /// Second-order accurate; used for the measured transient.
    Trapezoidal,
}

impl Integ {
    fn geq(self, c: f64, dt: f64) -> f64 {
        match self {
            Integ::BackwardEuler => c / dt,
            Integ::Trapezoidal => 2.0 * c / dt,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Transient<'c> {
    circuit: &'c Circuit,
    dt: Option<f64>,
    max_newton: usize,
}

/// Simulated node waveforms plus per-source energy bookkeeping.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Time points, ps.
    pub time: Vec<f64>,
    /// `voltages[node][step]`, V.
    pub voltages: Vec<Vec<f64>>,
    /// Energy delivered by each voltage source over the run, fJ
    /// (positive = source supplied energy to the circuit).
    pub source_energy: Vec<f64>,
}

impl<'c> Transient<'c> {
    /// Creates an engine for `circuit` with an automatic timestep
    /// (1/2000 of the run length, at most 0.5 ps).
    pub fn new(circuit: &'c Circuit) -> Self {
        Transient {
            circuit,
            dt: None,
            max_newton: 60,
        }
    }

    /// Overrides the timestep, ps.
    pub fn with_dt(mut self, dt: f64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        self.dt = Some(dt);
        self
    }

    /// Runs until `t_end` ps.
    ///
    /// # Errors
    ///
    /// Returns [`ConvergenceError`] when Newton iteration fails at some
    /// timestep (usually an unphysical circuit: floating gates, no DC path).
    pub fn try_run(&self, t_end: f64) -> Result<TransientResult, ConvergenceError> {
        let ckt = self.circuit;
        let n_nodes = ckt.node_count();
        let nv = ckt.vsources.len();
        // Unknowns: node voltages 1..n_nodes (ground eliminated) then
        // source branch currents.
        let dim = (n_nodes - 1) + nv;
        let dt = self.dt.unwrap_or_else(|| (t_end / 2000.0).min(0.5));
        let steps = (t_end / dt).ceil() as usize;

        let mut v = vec![0.0; n_nodes]; // current node voltages
        let mut cap_current: Vec<f64> = vec![0.0; ckt.capacitors.len()];
        // Operating point at t = 0 via pseudo-transient settling: hold the
        // sources at their t = 0 values and integrate until quiescent. The
        // capacitor companion conductances keep the Newton iteration
        // well-conditioned even deep in MOSFET saturation, where a plain
        // DC Newton (open capacitors, tiny gds) can limit-cycle.
        {
            let dt_settle = 2.0;
            for _ in 0..500 {
                let prev = v.clone();
                self.solve_point(
                    &mut v,
                    Some((dt_settle, &mut cap_current)),
                    Integ::BackwardEuler,
                    0.0,
                    dim,
                    n_nodes,
                )?;
                let moved = v
                    .iter()
                    .zip(&prev)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                if moved < 1e-9 {
                    break;
                }
            }
            cap_current.iter_mut().for_each(|i| *i = 0.0);
        }
        let mut time = Vec::with_capacity(steps + 1);
        let mut volts: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); n_nodes];
        let mut energy = vec![0.0; nv];
        let mut src_i_prev = vec![0.0; nv];

        let record = |t: f64, v: &[f64], time: &mut Vec<f64>, volts: &mut Vec<Vec<f64>>| {
            time.push(t);
            for (node, wave) in volts.iter_mut().enumerate() {
                wave.push(v[node]);
            }
        };
        record(0.0, &v, &mut time, &mut volts);

        for step in 1..=steps {
            let t = step as f64 * dt;
            let src_i = self.solve_point(
                &mut v,
                Some((dt, &mut cap_current)),
                Integ::Trapezoidal,
                t,
                dim,
                n_nodes,
            )?;
            // Trapezoidal energy integration per source: E += v * i * dt.
            for (k, vs) in ckt.vsources.iter().enumerate() {
                let vv = vs.waveform.at(t);
                // Source current convention: src_i is the branch current
                // flowing out of the + terminal into the circuit.
                // The MNA branch current is oriented into the source from
                // the circuit, so delivered power is its negation.
                let p_now = -vv * src_i[k];
                let p_prev = -vs.waveform.at(t - dt) * src_i_prev[k];
                energy[k] += 0.5 * (p_now + p_prev) * dt;
                src_i_prev[k] = src_i[k];
            }
            record(t, &v, &mut time, &mut volts);
        }
        Ok(TransientResult {
            time,
            voltages: volts,
            source_energy: energy,
        })
    }

    /// Solves one operating point. When `trans` is `Some((dt, cap_i))`, the
    /// capacitors get companion models for the chosen integration `method`
    /// and `cap_i` is updated; when `None`, capacitors are open (pure DC
    /// solve). Returns the voltage source branch currents.
    ///
    /// Backward Euler has no companion-current memory, so it damps straight
    /// to the DC point during the settling phase; trapezoidal is
    /// second-order accurate and is used for the measured transient.
    fn solve_point(
        &self,
        v: &mut [f64],
        trans: Option<(f64, &mut Vec<f64>)>,
        method: Integ,
        t: f64,
        dim: usize,
        n_nodes: usize,
    ) -> Result<Vec<f64>, ConvergenceError> {
        let ckt = self.circuit;
        let nv = ckt.vsources.len();
        let (dt, cap_prev): (Option<f64>, Option<&Vec<f64>>) = match &trans {
            Some((dt, ci)) => (Some(*dt), Some(&**ci)),
            None => (None, None),
        };
        let v_prev: Vec<f64> = v.to_vec();
        let mut src_i = vec![0.0; nv];
        let gmin = 1e-9;

        // One matrix and one right-hand side, restamped every Newton
        // iteration; the solve leaves x in `b`.
        let mut a = vec![0.0; dim * dim];
        let mut b = vec![0.0; dim];
        let mut converged = false;
        for _iter in 0..self.max_newton {
            a.fill(0.0);
            b.fill(0.0);
            // Map node -> unknown index (ground = none).
            let idx = |node: Node| -> Option<usize> {
                if node.index() == 0 {
                    None
                } else {
                    Some(node.index() - 1)
                }
            };
            let stamp_g = |a: &mut [f64], p: Option<usize>, q: Option<usize>, g: f64| {
                if let Some(i) = p {
                    a[i * dim + i] += g;
                    if let Some(j) = q {
                        a[i * dim + j] -= g;
                    }
                }
                if let Some(j) = q {
                    a[j * dim + j] += g;
                    if let Some(i) = p {
                        a[j * dim + i] -= g;
                    }
                }
            };
            // gmin to ground on every node.
            for i in 0..(n_nodes - 1) {
                a[i * dim + i] += gmin;
            }
            for r in &ckt.resistors {
                stamp_g(&mut a, idx(r.a), idx(r.b), 1.0 / r.r);
            }
            if let (Some(dt), Some(cap_i)) = (dt, cap_prev) {
                for (k, c) in ckt.capacitors.iter().enumerate() {
                    let geq = method.geq(c.c, dt);
                    let v_ab_prev = v_prev[c.a.index()] - v_prev[c.b.index()];
                    let ieq = match method {
                        Integ::BackwardEuler => geq * v_ab_prev,
                        Integ::Trapezoidal => geq * v_ab_prev + cap_i[k],
                    };
                    stamp_g(&mut a, idx(c.a), idx(c.b), geq);
                    if let Some(i) = idx(c.a) {
                        b[i] += ieq;
                    }
                    if let Some(j) = idx(c.b) {
                        b[j] -= ieq;
                    }
                }
            }
            for m in &ckt.mosfets {
                let (vg, vd, vs) = (v[m.g.index()], v[m.d.index()], v[m.s.index()]);
                let id0 = m.params.id(vg, vd, vs);
                let (gm, gd, gs) = m.params.id_derivs(vg, vd, vs);
                // Current Id leaves node d and enters node s.
                let ieq = id0 - gm * vg - gd * vd - gs * vs;
                let (di, gi, si) = (idx(m.d), idx(m.g), idx(m.s));
                if let Some(i) = di {
                    if let Some(j) = gi {
                        a[i * dim + j] += gm;
                    }
                    a[i * dim + i] += gd;
                    if let Some(j) = si {
                        a[i * dim + j] += gs;
                    }
                    b[i] -= ieq;
                }
                if let Some(i) = si {
                    if let Some(j) = gi {
                        a[i * dim + j] -= gm;
                    }
                    if let Some(j) = di {
                        a[i * dim + j] -= gd;
                    }
                    a[i * dim + i] -= gs;
                    b[i] += ieq;
                }
            }
            for (k, vs) in ckt.vsources.iter().enumerate() {
                let row = (n_nodes - 1) + k;
                let vv = vs.waveform.at(t);
                if let Some(i) = idx(vs.pos) {
                    a[i * dim + row] += 1.0;
                    a[row * dim + i] += 1.0;
                }
                b[row] = vv;
            }

            if !solve_in_place(&mut a, &mut b) {
                return Err(ConvergenceError {
                    at_time_ps: t as u64,
                });
            }
            let x = &b;
            // Damped update with convergence check.
            let mut max_delta: f64 = 0.0;
            for node in 1..n_nodes {
                let new_v = x[node - 1];
                let delta = new_v - v[node];
                max_delta = max_delta.max(delta.abs());
                let limited = delta.clamp(-0.6, 0.6);
                v[node] += limited;
            }
            for k in 0..nv {
                src_i[k] = x[(n_nodes - 1) + k];
            }
            if max_delta < 1e-7 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(ConvergenceError {
                at_time_ps: t as u64,
            });
        }
        // Update capacitor branch currents for the next companion step.
        if let Some((dt, cap_i)) = trans {
            for (k, c) in self.circuit.capacitors.iter().enumerate() {
                let geq = method.geq(c.c, dt);
                let v_ab = v[c.a.index()] - v[c.b.index()];
                let v_ab_prev = v_prev[c.a.index()] - v_prev[c.b.index()];
                cap_i[k] = match method {
                    Integ::BackwardEuler => geq * (v_ab - v_ab_prev),
                    Integ::Trapezoidal => geq * (v_ab - v_ab_prev) - cap_i[k],
                };
            }
        }
        Ok(src_i)
    }
}

/// Sweeps the DC transfer curve of a circuit: for each value of the
/// swept source (by index into the circuit's source list), settles the
/// circuit and records the observed node voltage.
///
/// Used to validate gate thresholds (e.g. an inverter's VTC) against the
/// device models.
///
/// # Errors
///
/// Returns [`ConvergenceError`] when settling fails at some sweep point.
///
/// # Panics
///
/// Panics if `source_idx` is out of range.
pub fn dc_transfer(
    circuit: &Circuit,
    source_idx: usize,
    sweep: &[f64],
    observe: Node,
) -> Result<Vec<(f64, f64)>, ConvergenceError> {
    assert!(
        source_idx < circuit.vsources.len(),
        "source index out of range"
    );
    sweep
        .iter()
        .map(|&v| {
            let mut ckt = circuit.clone();
            ckt.vsources[source_idx].waveform = crate::Waveform::Dc(v);
            let r = Transient::new(&ckt).with_dt(2.0).try_run(120.0)?;
            Ok((v, r.final_voltage(observe)))
        })
        .collect()
}

impl TransientResult {
    /// Voltage of `node` at sample `step`.
    pub fn voltage(&self, node: Node, step: usize) -> f64 {
        self.voltages[node.index()][step]
    }

    /// Final (settled) voltage of `node`.
    pub fn final_voltage(&self, node: Node) -> f64 {
        *self.voltages[node.index()]
            .last()
            .expect("non-empty waveform")
    }

    /// First time `node` crosses `threshold` in the given direction
    /// (`rising = true` for upward crossings), linearly interpolated.
    pub fn cross_time(&self, node: Node, threshold: f64, rising: bool) -> Option<f64> {
        let w = &self.voltages[node.index()];
        for i in 1..w.len() {
            let (v0, v1) = (w[i - 1], w[i]);
            let crossed = if rising {
                v0 < threshold && v1 >= threshold
            } else {
                v0 > threshold && v1 <= threshold
            };
            if crossed {
                let f = (threshold - v0) / (v1 - v0);
                return Some(self.time[i - 1] + f * (self.time[i] - self.time[i - 1]));
            }
        }
        None
    }

    /// Transition time between the `lo_frac` and `hi_frac` fractions of
    /// `vdd` (e.g. 0.3/0.7), extrapolated to the full swing the way
    /// Liberty slews are reported: `(t_hi - t_lo) / (hi - lo)`.
    pub fn slew(
        &self,
        node: Node,
        vdd: f64,
        lo_frac: f64,
        hi_frac: f64,
        rising: bool,
    ) -> Option<f64> {
        let (first, second) = if rising {
            (lo_frac, hi_frac)
        } else {
            (hi_frac, lo_frac)
        };
        let t0 = self.cross_time(node, first * vdd, rising)?;
        let t1 = self.cross_time(node, second * vdd, rising)?;
        Some((t1 - t0).abs() / (hi_frac - lo_frac))
    }

    /// Total energy delivered by all sources, fJ.
    pub fn total_source_energy(&self) -> f64 {
        self.source_energy.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MosParams, Waveform};

    #[test]
    fn rc_time_constant_matches_theory() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(inp, Waveform::step(1.0, 5.0, 0.01));
        c.resistor(inp, out, 2.0); // 2 kOhm
        c.capacitor(out, Circuit::GND, 3.0); // 3 fF -> tau = 6 ps
        let r = Transient::new(&c)
            .with_dt(0.02)
            .try_run(60.0)
            .expect("converges");
        let t63 = r
            .cross_time(out, 1.0 - (-1.0f64).exp(), true)
            .expect("charges");
        assert!((t63 - 5.0 - 6.0).abs() < 0.15, "tau measured {}", t63 - 5.0);
    }

    #[test]
    fn capacitive_divider_charge_conservation() {
        // Two series caps from a stepped source: V_mid = C1/(C1+C2) * V.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.vsource(inp, Waveform::step(1.0, 1.0, 0.5));
        c.capacitor(inp, mid, 2.0);
        c.capacitor(mid, Circuit::GND, 2.0);
        // Large bleed resistor so DC is well-defined.
        c.resistor(mid, Circuit::GND, 1e6);
        let r = Transient::new(&c)
            .with_dt(0.01)
            .try_run(10.0)
            .expect("converges");
        let v_mid = r.voltage(mid, (2.0 / 0.01) as usize);
        assert!((v_mid - 0.5).abs() < 0.02, "v_mid = {v_mid}");
    }

    #[test]
    fn inverter_dc_levels_are_rail_to_rail() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Waveform::Dc(1.1));
        c.vsource(inp, Waveform::Dc(0.0));
        c.mosfet(out, inp, Circuit::GND, MosParams::nmos45(0.415));
        c.mosfet(out, inp, vdd, MosParams::pmos45(0.630));
        c.capacitor(out, Circuit::GND, 1.0);
        let r = Transient::new(&c)
            .with_dt(0.5)
            .try_run(100.0)
            .expect("converges");
        assert!(
            r.final_voltage(out) > 1.05,
            "out = {}",
            r.final_voltage(out)
        );
    }

    #[test]
    fn inverter_switching_consumes_energy() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Waveform::Dc(1.1));
        c.vsource(inp, Waveform::step(1.1, 20.0, 7.5));
        c.mosfet(out, inp, Circuit::GND, MosParams::nmos45(0.415));
        c.mosfet(out, inp, vdd, MosParams::pmos45(0.630));
        let load = 3.2;
        c.capacitor(out, Circuit::GND, load);
        let r = Transient::new(&c)
            .with_dt(0.1)
            .try_run(200.0)
            .expect("converges");
        // Output discharges: the NMOS dumps the load charge to ground, and
        // the rising input charges the gate caps. The VDD rail itself can
        // *absorb* energy on this edge (input couples into it through the
        // PMOS gate-source cap), but the total delivered by all sources
        // must be positive and of CV^2 order.
        assert!(r.final_voltage(out) < 0.05);
        let total = r.total_source_energy();
        assert!(
            total > 0.1 && total < 20.0,
            "total source energy {total} fJ"
        );
    }

    #[test]
    fn inverter_vtc_is_monotone_and_rail_to_rail() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Waveform::Dc(1.1));
        c.vsource(inp, Waveform::Dc(0.0));
        c.mosfet(out, inp, Circuit::GND, MosParams::nmos45(0.415));
        c.mosfet(out, inp, vdd, MosParams::pmos45(0.630));
        c.capacitor(out, Circuit::GND, 1.0);
        let sweep: Vec<f64> = (0..=11).map(|i| i as f64 * 0.1).collect();
        let vtc = dc_transfer(&c, 1, &sweep, out).expect("settles");
        // Rails.
        assert!(vtc[0].1 > 1.0, "out at Vin=0 is {}", vtc[0].1);
        assert!(vtc[11].1 < 0.1, "out at Vin=VDD is {}", vtc[11].1);
        // Monotone non-increasing.
        for pair in vtc.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-6);
        }
        // The switching threshold sits mid-rail-ish.
        let vm = vtc
            .windows(2)
            .find(|w| w[0].1 >= w[0].0 && w[1].1 < w[1].0)
            .map(|w| w[1].0)
            .expect("VTC crosses the unity line");
        assert!((0.3..0.8).contains(&vm), "switching threshold {vm}");
    }

    #[test]
    fn output_slew_grows_with_load() {
        let delay_for = |load: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.vsource(vdd, Waveform::Dc(1.1));
            c.vsource(inp, Waveform::fall(1.1, 10.0, 7.5));
            c.mosfet(out, inp, Circuit::GND, MosParams::nmos45(0.415));
            c.mosfet(out, inp, vdd, MosParams::pmos45(0.630));
            c.capacitor(out, Circuit::GND, load);
            let r = Transient::new(&c)
                .with_dt(0.1)
                .try_run(400.0)
                .expect("converges");
            r.slew(out, 1.1, 0.3, 0.7, true).expect("output rises")
        };
        let s_small = delay_for(0.8);
        let s_big = delay_for(12.8);
        assert!(s_big > 3.0 * s_small, "slews {s_small} vs {s_big}");
    }

    #[test]
    fn conflicting_sources_fail_with_a_convergence_error() {
        // Two ideal sources pin one node to different voltages: the MNA
        // system has no solution.
        let mut c = Circuit::new();
        let n = c.node("n");
        c.vsource(n, Waveform::Dc(1.0));
        c.vsource(n, Waveform::Dc(0.5));
        c.resistor(n, Circuit::GND, 1.0);
        let err = Transient::new(&c)
            .with_dt(1.0)
            .try_run(10.0)
            .expect_err("conflicting sources have no operating point");
        assert_eq!(err, ConvergenceError { at_time_ps: 0 });
    }
}
