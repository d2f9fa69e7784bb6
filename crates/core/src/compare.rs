use serde::{Deserialize, Serialize};

use m3d_netlist::Benchmark;
use m3d_tech::DesignStyle;

use crate::{Flow, FlowConfig, FlowError, FlowResult};

/// An iso-performance 2D vs T-MI pair: both styles, same benchmark, same
/// target clock — the comparison unit of the paper's Tables 4/7/13/14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// The planar baseline.
    pub two_d: FlowResult,
    /// The folded T-MI implementation.
    pub tmi: FlowResult,
}

fn pct(tmi: f64, two_d: f64) -> f64 {
    if two_d == 0.0 {
        0.0
    } else {
        (tmi / two_d - 1.0) * 100.0
    }
}

impl Comparison {
    /// Runs both flows, 2D first.
    ///
    /// # Errors
    ///
    /// Returns the [`FlowError`] of the first flow that fails.
    pub fn try_run(bench: Benchmark, config: &FlowConfig) -> Result<Self, FlowError> {
        Ok(Comparison {
            two_d: Flow::new(bench, DesignStyle::TwoD, config.clone()).try_run()?,
            tmi: Flow::new(bench, DesignStyle::Tmi, config.clone()).try_run()?,
        })
    }

    /// Footprint delta, % (negative = T-MI smaller; paper: −40.9…−43.4 %).
    pub fn footprint_pct(&self) -> f64 {
        pct(self.tmi.footprint_um2, self.two_d.footprint_um2)
    }

    /// Total wirelength delta, % (paper: −21.5…−33.6 % at 45 nm).
    pub fn wirelength_pct(&self) -> f64 {
        pct(self.tmi.wirelength_um, self.two_d.wirelength_um)
    }

    /// Total power delta, % (paper headline: −4.1…−32.1 % at 45 nm).
    pub fn total_power_pct(&self) -> f64 {
        pct(self.tmi.total_power_mw(), self.two_d.total_power_mw())
    }

    /// Cell (internal) power delta, %.
    pub fn cell_power_pct(&self) -> f64 {
        pct(self.tmi.power.cell_mw, self.two_d.power.cell_mw)
    }

    /// Net (wire+pin) power delta, %.
    pub fn net_power_pct(&self) -> f64 {
        pct(self.tmi.power.net_mw(), self.two_d.power.net_mw())
    }

    /// Leakage delta, %.
    pub fn leakage_pct(&self) -> f64 {
        pct(self.tmi.power.leakage_mw, self.two_d.power.leakage_mw)
    }

    /// Buffer-count delta, % (paper: −48.6 % LDPC vs −3.2 % DES).
    pub fn buffer_pct(&self) -> f64 {
        pct(self.tmi.buffer_count as f64, self.two_d.buffer_count as f64)
    }

    /// One formatted row in the layout of the paper's Table 4/7.
    pub fn table_row(&self) -> String {
        format!(
            "{:5}  {:+7.1}%  {:+7.1}%  {:+7.1}%  {:+7.1}%  {:+7.1}%  {:+7.1}%",
            self.two_d.bench.name(),
            self.footprint_pct(),
            self.wirelength_pct(),
            self.total_power_pct(),
            self.cell_power_pct(),
            self.net_power_pct(),
            self.leakage_pct(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigError;
    use m3d_netlist::BenchScale;
    use m3d_tech::NodeId;

    #[test]
    fn comparison_shows_tmi_benefits_on_small_aes() {
        let cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
        let cmp = Comparison::try_run(Benchmark::Aes, &cfg).expect("both flows close");
        assert!(
            cmp.footprint_pct() < -25.0,
            "footprint {}",
            cmp.footprint_pct()
        );
        assert!(
            cmp.wirelength_pct() < -5.0,
            "wirelength {}",
            cmp.wirelength_pct()
        );
        assert!(
            cmp.total_power_pct() < 0.0,
            "power {}",
            cmp.total_power_pct()
        );
        let row = cmp.table_row();
        assert!(row.contains("AES"));
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let cfg = FlowConfig::new(NodeId::N45)
            .scale(BenchScale::Small)
            .clock(f64::NAN);
        let err = Comparison::try_run(Benchmark::Aes, &cfg).expect_err("a NaN clock is rejected");
        assert!(
            matches!(err, FlowError::Config(ConfigError::BadClock(c)) if c.is_nan()),
            "got {err:?}"
        );
    }
}
