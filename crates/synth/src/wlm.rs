use serde::{Deserialize, Serialize};

use m3d_netlist::Netlist;
use m3d_place::Placement;

/// A wire-load model: expected wirelength (µm) as a function of net
/// fanout, plus the unit R/C the estimate converts through.
///
/// This is the statistical table Design Compiler consumes; the paper's
/// Fig. 6 plots exactly these curves for the five benchmarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireLoadModel {
    /// `lengths_um[f]` = mean length of nets with `f+1` sinks; the last
    /// entry extends with a per-sink slope.
    lengths_um: Vec<f64>,
    /// Extra length per sink beyond the table, µm.
    slope_um: f64,
}

impl WireLoadModel {
    /// Maximum tabulated fanout.
    pub const MAX_FANOUT: usize = 20;

    /// Builds the model from a placed design by binning net HPWL by
    /// fanout — the paper's "from preliminary layout simulations, per
    /// each circuit we extract a WLM".
    pub fn from_placement(netlist: &Netlist, placement: &Placement) -> Self {
        let mut sum = [0.0f64; Self::MAX_FANOUT + 1];
        let mut count = [0usize; Self::MAX_FANOUT + 1];
        for id in netlist.net_ids() {
            if Some(id) == netlist.clock {
                continue;
            }
            let sinks = netlist.net(id).sinks.len();
            if sinks == 0 {
                continue;
            }
            let bin = sinks.min(Self::MAX_FANOUT + 1) - 1;
            sum[bin] += placement.net_hpwl_um(netlist, id);
            count[bin] += 1;
        }
        // Fill gaps by interpolation from neighbours; guarantee
        // monotonicity (longer nets for higher fanout).
        let mut lengths: Vec<f64> = (0..=Self::MAX_FANOUT)
            .map(|b| {
                if count[b] > 0 {
                    sum[b] / count[b] as f64
                } else {
                    f64::NAN
                }
            })
            .collect();
        let first_valid = lengths.iter().position(|v| v.is_finite()).unwrap_or(0);
        let mut last = if lengths.is_empty() || !lengths[first_valid].is_finite() {
            1.0
        } else {
            lengths[first_valid]
        };
        for v in &mut lengths {
            if v.is_finite() {
                last = last.max(*v);
                *v = last;
            } else {
                *v = last;
            }
        }
        let slope = if lengths.len() >= 2 {
            ((lengths[lengths.len() - 1] - lengths[0]) / Self::MAX_FANOUT as f64).max(0.1)
        } else {
            1.0
        };
        WireLoadModel {
            lengths_um: lengths,
            slope_um: slope,
        }
    }

    /// A flat synthetic model (mainly for tests): every net `base` µm plus
    /// `slope` per sink.
    pub fn uniform(base: f64, slope: f64) -> Self {
        WireLoadModel {
            lengths_um: (0..=Self::MAX_FANOUT)
                .map(|f| base + slope * f as f64)
                .collect(),
            slope_um: slope,
        }
    }

    /// Estimated length for a net with `sinks` sinks, µm.
    pub fn estimate_um(&self, sinks: usize) -> f64 {
        if sinks == 0 {
            return 0.0;
        }
        let bin = sinks - 1;
        if bin <= Self::MAX_FANOUT {
            self.lengths_um[bin]
        } else {
            self.lengths_um[Self::MAX_FANOUT] + self.slope_um * (bin - Self::MAX_FANOUT) as f64
        }
    }

    /// The fanout → length curve (Fig. 6 data).
    pub fn curve(&self) -> &[f64] {
        &self.lengths_um
    }

    /// Returns a copy with every length scaled by `factor` (used to derive
    /// a first-cut T-MI WLM from a 2D one).
    pub fn scaled(&self, factor: f64) -> Self {
        WireLoadModel {
            lengths_um: self.lengths_um.iter().map(|l| l * factor).collect(),
            slope_um: self.slope_um * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_cells::CellLibrary;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_place::Placer;
    use m3d_tech::{DesignStyle, TechNode};

    #[test]
    fn uniform_model_is_affine() {
        let w = WireLoadModel::uniform(5.0, 2.0);
        assert_eq!(w.estimate_um(0), 0.0);
        assert_eq!(w.estimate_um(1), 5.0);
        assert_eq!(w.estimate_um(3), 9.0);
        // Beyond the table: slope extension.
        assert!(w.estimate_um(40) > w.estimate_um(21));
    }

    #[test]
    fn placement_model_is_monotone_in_fanout() {
        let lib = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let n = Benchmark::Ldpc.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib)
            .iterations(12)
            .try_place(&n)
            .expect("placement succeeds");
        let w = WireLoadModel::from_placement(&n, &p);
        let c = w.curve();
        for pair in c.windows(2) {
            assert!(pair[1] >= pair[0], "WLM curve must be monotone");
        }
        assert!(w.estimate_um(1) > 0.0);
    }

    #[test]
    fn tmi_wlm_is_shorter_than_2d() {
        // The folded library shrinks the die, so the measured WLM shrinks
        // with it -- the input to the paper's Section 3.4.
        let lib2 = CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD);
        let lib3 = CellLibrary::build(&TechNode::n45(), DesignStyle::Tmi);
        let n2 = Benchmark::Aes.generate(&lib2, BenchScale::Small);
        let n3 = Benchmark::Aes.generate(&lib3, BenchScale::Small);
        let w2 = WireLoadModel::from_placement(
            &n2,
            &Placer::new(&lib2)
                .iterations(12)
                .try_place(&n2)
                .expect("placement succeeds"),
        );
        let w3 = WireLoadModel::from_placement(
            &n3,
            &Placer::new(&lib3)
                .iterations(12)
                .try_place(&n3)
                .expect("placement succeeds"),
        );
        assert!(w3.estimate_um(2) < w2.estimate_um(2));
    }

    #[test]
    fn scaling_shrinks_the_curve() {
        let w = WireLoadModel::uniform(10.0, 1.0).scaled(0.75);
        assert!((w.estimate_um(1) - 7.5).abs() < 1e-12);
    }
}
