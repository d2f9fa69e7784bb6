use m3d_geom::Nm;
use serde::{Deserialize, Serialize};

/// Electrical and geometric model of a monolithic inter-tier via (MIV).
///
/// MIVs are roughly two orders of magnitude smaller than TSVs (70 nm
/// diameter at the 45 nm node vs multi-µm TSVs) with "almost negligible
/// parasitic RC" (paper Section 1). They connect the bottom-tier MB1 metal
/// to top-tier M1 through the inter-tier ILD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MivModel {
    /// Via diameter in nm (70 @45 nm, 10.8 -> 11 @7 nm).
    pub diameter: Nm,
    /// Via height in nm: the inter-tier ILD plus the top silicon it pierces.
    pub height: Nm,
    /// Series resistance per MIV, kΩ.
    pub resistance: f64,
    /// Parasitic capacitance per MIV, fF.
    pub capacitance: f64,
}

impl MivModel {
    /// MIV model for the 45 nm node.
    pub fn n45() -> Self {
        MivModel {
            diameter: 70,
            height: 140,
            resistance: 0.004,
            capacitance: 0.10,
        }
    }

    /// MIV model for the projected 7 nm node. The ILD is thinned to 50 nm
    /// to keep the aspect ratio reasonable at the 10.8 nm diameter
    /// (paper Section 5).
    pub fn n7() -> Self {
        MivModel {
            diameter: 11,
            height: 60,
            resistance: 0.040,
            capacitance: 0.015,
        }
    }

    /// Aspect ratio (height / diameter); fabrication typically wants < 10.
    pub fn aspect_ratio(&self) -> f64 {
        self.height as f64 / self.diameter as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aspect_ratios_stay_manufacturable() {
        assert!(MivModel::n45().aspect_ratio() < 10.0);
        assert!(MivModel::n7().aspect_ratio() < 10.0);
    }

    #[test]
    fn miv_rc_is_negligible_vs_typical_net() {
        // A 10 µm M2 wire at 45 nm has R ~ 35.7 Ω and C ~ 1.06 fF;
        // the MIV is well below both.
        let miv = MivModel::n45();
        assert!(miv.resistance < 0.036);
        assert!(miv.capacitance < 1.0);
    }

    #[test]
    fn n7_miv_shrinks_with_node() {
        // 11 nm vs 70 nm: the MIV shrinks with the dimension scale (0.156x).
        assert!(MivModel::n7().diameter <= MivModel::n45().diameter / 6);
    }
}
