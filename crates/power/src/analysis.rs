use serde::{Deserialize, Serialize};

use m3d_cells::CellLibrary;
use m3d_netlist::{NetDriver, Netlist};
use m3d_sta::NetModel;

use crate::{propagate_activity, PowerReport};

/// Power analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerConfig {
    /// Clock period, ps (frequency = 1/period).
    pub clock_period_ps: f64,
    /// Switching activity at primary inputs (paper default 0.2).
    pub alpha_pi: f64,
    /// Switching activity at sequential cell outputs (paper default 0.1).
    pub alpha_ff: f64,
    /// Representative input slew for internal-energy lookups, ps.
    pub slew_ps: f64,
}

impl PowerConfig {
    /// Paper-default config for a clock period.
    pub fn new(clock_period_ps: f64) -> Self {
        PowerConfig {
            clock_period_ps,
            alpha_pi: 0.2,
            alpha_ff: 0.1,
            slew_ps: 30.0,
        }
    }

    /// Overrides the flop-output activity (the paper's Fig. 11 sweep).
    pub fn with_alpha_ff(mut self, alpha: f64) -> Self {
        self.alpha_ff = alpha;
        self
    }
}

/// Power-analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerError {
    /// `models` is shorter than the net count.
    ModelCountMismatch {
        /// Nets in the design.
        nets: usize,
        /// Models supplied.
        models: usize,
    },
    /// A switching-activity knob is outside `[0, 1]` or non-finite.
    InvalidActivity {
        /// Knob name (`alpha_pi` / `alpha_ff`).
        knob: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Clock period non-finite or non-positive.
    InvalidClockPeriod(f64),
}

impl std::fmt::Display for PowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerError::ModelCountMismatch { nets, models } => write!(
                f,
                "power analysis needs one NetModel per net: {nets} nets, {models} models"
            ),
            PowerError::InvalidActivity { knob, value } => {
                write!(f, "{knob} must be in [0, 1], got {value}")
            }
            PowerError::InvalidClockPeriod(t) => {
                write!(f, "clock period must be positive, got {t} ps")
            }
        }
    }
}

impl std::error::Error for PowerError {}

/// Runs statistical power analysis.
///
/// `models` supplies per-net wire capacitance (indexed by `NetId`).
///
/// # Errors
///
/// Returns [`PowerError`] on a model/net count mismatch or out-of-range
/// activity and clock knobs.
pub fn try_analyze_power(
    netlist: &Netlist,
    lib: &CellLibrary,
    models: &[NetModel],
    config: &PowerConfig,
) -> Result<PowerReport, PowerError> {
    if models.len() < netlist.net_count() {
        return Err(PowerError::ModelCountMismatch {
            nets: netlist.net_count(),
            models: models.len(),
        });
    }
    for (knob, value) in [("alpha_pi", config.alpha_pi), ("alpha_ff", config.alpha_ff)] {
        if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
            return Err(PowerError::InvalidActivity { knob, value });
        }
    }
    if !(config.clock_period_ps.is_finite() && config.clock_period_ps > 0.0) {
        return Err(PowerError::InvalidClockPeriod(config.clock_period_ps));
    }
    let act = propagate_activity(netlist, lib, config.alpha_pi, config.alpha_ff);
    let t = config.clock_period_ps;
    let vdd = lib.node().vdd;
    let v2 = vdd * vdd;

    let mut report = PowerReport::default();

    // Net switching power: each transition charges/discharges C; the VDD
    // rail supplies C·V² on rising transitions only, i.e. 0.5·α·C·V² per
    // cycle on average.
    for id in netlist.net_ids() {
        let alpha = act[id.0 as usize].alpha;
        let c_wire = models[id.0 as usize].c_wire;
        let c_pin = netlist.net_pin_cap(id, lib);
        report.wire_cap_pf += c_wire * 1e-3;
        report.pin_cap_pf += c_pin * 1e-3;
        if alpha == 0.0 {
            continue;
        }
        // fJ per cycle / ps per cycle = mW.
        report.wire_mw += 0.5 * alpha * c_wire * v2 / t;
        report.pin_mw += 0.5 * alpha * c_pin * v2 / t;
    }

    // Cell internal power and leakage.
    for id in netlist.inst_ids() {
        let inst = netlist.inst(id);
        let cell = lib.cell(inst.cell);
        report.leakage_mw += cell.leakage_mw;
        let n_in = cell.input_count();
        // Energy per output transition from the NLDM, at the output load.
        for &out in &inst.pins[n_in..] {
            let alpha = act[out.0 as usize].alpha;
            if alpha == 0.0 {
                continue;
            }
            let load = models[out.0 as usize].c_wire + netlist.net_pin_cap(out, lib);
            let e_int = cell.energy.lookup(config.slew_ps, load);
            report.cell_mw += alpha * e_int / t;
        }
        // Flop clocking energy: dissipated every cycle regardless of data.
        if let Some(seq) = cell.seq {
            report.cell_mw += seq.clk_energy_fj / t;
        }
    }

    // Primary-input pin power is already counted through their nets; port
    // drivers themselves are external. Undriven nets contribute nothing.
    let _ = NetDriver::None;
    Ok(report)
}

/// Per-instance power: internal + leakage per cell, sorted descending —
/// the "report_power -sort" view used to find hot spots.
pub fn per_instance_power(
    netlist: &Netlist,
    lib: &CellLibrary,
    models: &[NetModel],
    config: &PowerConfig,
) -> Vec<(m3d_netlist::InstId, f64)> {
    let act = propagate_activity(netlist, lib, config.alpha_pi, config.alpha_ff);
    let t = config.clock_period_ps;
    let mut rows: Vec<(m3d_netlist::InstId, f64)> = netlist
        .inst_ids()
        .map(|id| {
            let inst = netlist.inst(id);
            let cell = lib.cell(inst.cell);
            let mut p = cell.leakage_mw;
            let n_in = cell.input_count();
            for &out in &inst.pins[n_in..] {
                let alpha = act[out.0 as usize].alpha;
                if alpha > 0.0 {
                    let load = models[out.0 as usize].c_wire + netlist.net_pin_cap(out, lib);
                    p += alpha * cell.energy.lookup(config.slew_ps, load) / t;
                }
            }
            if let Some(seq) = cell.seq {
                p += seq.clk_energy_fj / t;
            }
            (id, p)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_cells::CellFunction;
    use m3d_netlist::NetlistBuilder;
    use m3d_tech::{DesignStyle, TechNode};

    fn lib() -> CellLibrary {
        CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD)
    }

    fn toy(lib: &CellLibrary) -> Netlist {
        let mut b = NetlistBuilder::new(lib, "t");
        let x = b.input();
        let y = b.input();
        let z = b.gate(CellFunction::Xor2, &[x, y]);
        let q = b.dff(z);
        b.output(q);
        b.finish()
    }

    #[test]
    fn power_scales_inversely_with_period() {
        let lib = lib();
        let n = toy(&lib);
        let models = vec![
            NetModel {
                c_wire: 5.0,
                r_wire: 0.1,
            };
            n.net_count()
        ];
        let slow = try_analyze_power(&n, &lib, &models, &PowerConfig::new(2000.0))
            .expect("power analysis succeeds");
        let fast = try_analyze_power(&n, &lib, &models, &PowerConfig::new(1000.0))
            .expect("power analysis succeeds");
        let dyn_slow = slow.total_mw() - slow.leakage_mw;
        let dyn_fast = fast.total_mw() - fast.leakage_mw;
        assert!((dyn_fast / dyn_slow - 2.0).abs() < 1e-9);
        assert!((slow.leakage_mw - fast.leakage_mw).abs() < 1e-15);
    }

    #[test]
    fn wire_power_scales_with_wire_cap() {
        let lib = lib();
        let n = toy(&lib);
        let thin = vec![
            NetModel {
                c_wire: 1.0,
                r_wire: 0.1,
            };
            n.net_count()
        ];
        let fat = vec![
            NetModel {
                c_wire: 10.0,
                r_wire: 0.1,
            };
            n.net_count()
        ];
        let p_thin = try_analyze_power(&n, &lib, &thin, &PowerConfig::new(1000.0))
            .expect("power analysis succeeds");
        let p_fat = try_analyze_power(&n, &lib, &fat, &PowerConfig::new(1000.0))
            .expect("power analysis succeeds");
        assert!((p_fat.wire_mw / p_thin.wire_mw - 10.0).abs() < 1e-9);
        assert!(
            (p_fat.pin_mw - p_thin.pin_mw).abs() < 1e-12,
            "pin power unchanged"
        );
    }

    #[test]
    fn higher_activity_raises_dynamic_power_only() {
        let lib = lib();
        let n = toy(&lib);
        let models = vec![NetModel::default(); n.net_count()];
        let lo = try_analyze_power(
            &n,
            &lib,
            &models,
            &PowerConfig::new(1000.0).with_alpha_ff(0.1),
        )
        .expect("power analysis succeeds");
        let hi = try_analyze_power(
            &n,
            &lib,
            &models,
            &PowerConfig::new(1000.0).with_alpha_ff(0.4),
        )
        .expect("power analysis succeeds");
        assert!(hi.total_mw() > lo.total_mw());
        assert_eq!(hi.leakage_mw, lo.leakage_mw);
    }

    #[test]
    fn per_instance_power_sums_to_cell_plus_leakage() {
        let lib = lib();
        let n = toy(&lib);
        let models = vec![NetModel::default(); n.net_count()];
        let cfg = PowerConfig::new(1000.0);
        let total = try_analyze_power(&n, &lib, &models, &cfg).expect("power analysis succeeds");
        let rows = per_instance_power(&n, &lib, &models, &cfg);
        let sum: f64 = rows.iter().map(|(_, p)| p).sum();
        assert!(
            (sum - (total.cell_mw + total.leakage_mw)).abs() < 1e-9,
            "per-instance {} vs aggregate {}",
            sum,
            total.cell_mw + total.leakage_mw
        );
        // Sorted descending.
        for pair in rows.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn clock_dominates_an_idle_design() {
        // With zero input activity, only clocking and leakage remain.
        let lib = lib();
        let n = toy(&lib);
        let models = vec![NetModel::default(); n.net_count()];
        let mut cfg = PowerConfig::new(1000.0);
        cfg.alpha_pi = 0.0;
        cfg.alpha_ff = 0.0;
        let p = try_analyze_power(&n, &lib, &models, &cfg).expect("power analysis succeeds");
        assert!(p.cell_mw > 0.0, "flop clocking energy remains");
        assert!(p.pin_mw > 0.0, "clock pin caps still toggle");
    }
}
