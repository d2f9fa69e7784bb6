use serde::{Deserialize, Serialize};

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosKind {
    /// N-channel device (top tier in T-MI cells).
    Nmos,
    /// P-channel device (bottom tier in T-MI cells).
    Pmos,
}

/// Semi-empirical alpha-power-law MOSFET parameters (Sakurai-Newton).
///
/// The model captures velocity saturation via the `alpha` exponent and is
/// accurate enough for gate-level delay/power characterization, which is
/// all the T-MI study needs from its transistor model.
///
/// Current units are mA; `beta` has units mA / V^alpha per µm of width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosParams {
    /// Polarity.
    pub kind: MosKind,
    /// Threshold voltage magnitude, V.
    pub vth: f64,
    /// Transconductance coefficient, mA / V^alpha per µm width.
    pub beta: f64,
    /// Velocity-saturation exponent (2.0 = classic square law; modern
    /// short-channel devices sit near 1.2-1.4).
    pub alpha: f64,
    /// Saturation-voltage coefficient: `Vdsat = kv * (Vgs - Vth)^(alpha/2)`.
    pub kv: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
    /// Device width, µm.
    pub width: f64,
    /// Gate capacitance, fF per µm width (split evenly between G-S and G-D).
    pub c_gate_per_um: f64,
    /// Drain/source junction capacitance, fF per µm width.
    pub c_junction_per_um: f64,
    /// Off-state (subthreshold) leakage at Vgs = 0, nA per µm width.
    pub i_off_na_per_um: f64,
}

impl MosParams {
    /// A 45 nm-class NMOS of the given width (µm), calibrated so that
    /// characterized INV_X1 delays land in the range the paper's Table 2
    /// reports.
    pub fn nmos45(width: f64) -> Self {
        MosParams {
            kind: MosKind::Nmos,
            vth: 0.47,
            beta: 0.26,
            alpha: 1.32,
            kv: 0.85,
            lambda: 0.10,
            width,
            // Calibrated so INV_X1 input cap lands at the 0.463 fF the
            // paper's Table 11 reports for the 45 nm library.
            c_gate_per_um: 0.44,
            c_junction_per_um: 0.13,
            i_off_na_per_um: 1.2,
        }
    }

    /// A 45 nm-class PMOS (hole mobility ~ half the electron mobility; the
    /// Nangate library compensates by drawing PMOS wider, see Section 3.1).
    pub fn pmos45(width: f64) -> Self {
        MosParams {
            kind: MosKind::Pmos,
            vth: 0.43,
            beta: 0.13,
            alpha: 1.35,
            kv: 0.90,
            lambda: 0.11,
            width,
            c_gate_per_um: 0.44,
            c_junction_per_um: 0.13,
            i_off_na_per_um: 0.6,
        }
    }

    /// A 7 nm-class multi-gate NMOS (PTM-MG-flavoured): lower threshold
    /// and supply, much higher drive per µm, far smaller capacitance.
    /// Follows the paper's Table 6/S3 projection of the device trends.
    pub fn nmos7(width: f64) -> Self {
        MosParams {
            kind: MosKind::Nmos,
            vth: 0.25,
            beta: 0.48,
            alpha: 1.15,
            kv: 0.75,
            lambda: 0.06,
            width,
            c_gate_per_um: 0.44 * 0.55,
            c_junction_per_um: 0.13 * 0.45,
            i_off_na_per_um: 1.0,
        }
    }

    /// A 7 nm-class multi-gate PMOS. Advanced channel engineering closes
    /// most of the hole-mobility gap at sub-32 nm nodes (paper footnote 3),
    /// so the P/N drive ratio is near one.
    pub fn pmos7(width: f64) -> Self {
        MosParams {
            kind: MosKind::Pmos,
            vth: 0.24,
            beta: 0.42,
            alpha: 1.18,
            kv: 0.78,
            lambda: 0.07,
            width,
            c_gate_per_um: 0.44 * 0.55,
            c_junction_per_um: 0.13 * 0.45,
            i_off_na_per_um: 0.8,
        }
    }

    /// Total gate capacitance, fF.
    pub fn c_gate(&self) -> f64 {
        self.c_gate_per_um * self.width
    }

    /// Total junction capacitance, fF.
    pub fn c_junction(&self) -> f64 {
        self.c_junction_per_um * self.width
    }

    /// Drain current into the drain terminal, mA, for NMOS-convention
    /// terminal voltages (`vgs`, `vds` both referenced to the source).
    ///
    /// Symmetric in source/drain: callers must pass `vds >= 0` (swap the
    /// terminals otherwise); this is handled by the stamping code.
    pub fn id_nchan(&self, vgs: f64, vds: f64) -> f64 {
        debug_assert!(vds >= -1e-12);
        let vgt = vgs - self.vth;
        let b = self.beta * self.width;
        if vgt <= 0.0 {
            // Subthreshold: exponential roll-off, floor at i_off.
            let i_off = self.i_off_na_per_um * self.width * 1e-6; // nA -> mA
            let n_vt = 0.035; // n * kT/q at ~85C, V
            return i_off * (vgt / n_vt).exp().min(1.0) * sat_frac(vds);
        }
        let vdsat = self.kv * vgt.powf(self.alpha / 2.0);
        let idsat = b * vgt.powf(self.alpha);
        let clm = 1.0 + self.lambda * vds;
        if vds >= vdsat {
            idsat * clm
        } else {
            let x = vds / vdsat;
            idsat * x * (2.0 - x) * clm
        }
    }

    /// Drain current with polarity handled: positive current flows
    /// drain -> source for NMOS and source -> drain for PMOS.
    /// `vg`, `vd`, `vs` are absolute node voltages.
    pub fn id(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        match self.kind {
            MosKind::Nmos => {
                if vd >= vs {
                    self.id_nchan(vg - vs, vd - vs)
                } else {
                    // Source/drain swap.
                    -self.id_nchan(vg - vd, vs - vd)
                }
            }
            MosKind::Pmos => {
                // Mirror through 0: a PMOS is an NMOS in the negated domain.
                if vd <= vs {
                    -self.id_nchan(vs - vg, vs - vd)
                } else {
                    self.id_nchan(vd - vg, vd - vs)
                }
            }
        }
    }

    /// The drain current [`MosParams::id`] and its numerical partial
    /// derivatives `(d Id/d vg, d Id/d vd, d Id/d vs)`, as
    /// `(id, gm, gd, gs)`: what the Newton linearization stamps, from
    /// four model evaluations.
    pub fn id_and_derivs(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64, f64) {
        const H: f64 = 1e-5;
        let base = self.id(vg, vd, vs);
        (
            base,
            (self.id(vg + H, vd, vs) - base) / H,
            (self.id(vg, vd + H, vs) - base) / H,
            (self.id(vg, vd, vs + H) - base) / H,
        )
    }
}

/// Smooth 0->1 factor so subthreshold current still depends on Vds.
fn sat_frac(vds: f64) -> f64 {
    1.0 - (-vds / 0.026).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmos_off_below_threshold() {
        let m = MosParams::nmos45(0.415);
        let on = m.id_nchan(1.1, 1.1);
        let off = m.id_nchan(0.0, 1.1);
        assert!(on > 0.05, "on current {on} mA");
        assert!(off < 1e-5, "off current {off} mA");
        assert!(on / off.max(1e-30) > 1e4);
    }

    #[test]
    fn current_monotonic_in_vgs() {
        let m = MosParams::nmos45(1.0);
        let mut prev = -1.0;
        for i in 0..20 {
            let vgs = i as f64 * 0.06;
            let id = m.id_nchan(vgs, 1.1);
            assert!(id >= prev, "non-monotonic at vgs = {vgs}");
            prev = id;
        }
    }

    #[test]
    fn current_monotonic_in_vds_and_saturates() {
        let m = MosParams::nmos45(1.0);
        let lin = m.id_nchan(1.1, 0.1);
        let sat = m.id_nchan(1.1, 1.1);
        assert!(sat > lin);
        // Beyond vdsat, only lambda-slope growth.
        let deep = m.id_nchan(1.1, 2.0);
        assert!(deep < sat * 1.2);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = MosParams::pmos45(0.63);
        // Gate low, source at VDD, drain at 0: device on, current flows
        // source->drain, i.e. *into* the drain from outside is negative.
        let id_on = p.id(0.0, 0.0, 1.1);
        assert!(id_on < -0.05, "PMOS on current {id_on}");
        // Gate high: off.
        let id_off = p.id(1.1, 0.0, 1.1);
        assert!(id_off.abs() < 1e-4);
    }

    #[test]
    fn source_drain_swap_is_antisymmetric() {
        let m = MosParams::nmos45(1.0);
        let a = m.id(1.1, 0.8, 0.2);
        let b = m.id(1.1, 0.2, 0.8);
        assert!((a + b).abs() < 1e-9, "a = {a}, b = {b}");
    }

    #[test]
    fn derivatives_have_correct_signs() {
        let m = MosParams::nmos45(1.0);
        let (id, gm, gd, gs) = m.id_and_derivs(0.9, 0.6, 0.0);
        assert_eq!(id.to_bits(), m.id(0.9, 0.6, 0.0).to_bits());
        assert!(gm > 0.0);
        assert!(gd > 0.0);
        assert!(gs < 0.0);
    }

    #[test]
    fn n7_devices_follow_the_itrs_trends() {
        // Higher drive per um at lower VDD, near-unity P/N ratio, lower
        // caps: the paper's Table 10 story.
        let n45 = MosParams::nmos45(1.0);
        let n7 = MosParams::nmos7(1.0);
        let i45 = n45.id_nchan(1.1, 1.1);
        let i7 = n7.id_nchan(0.7, 0.7);
        assert!(i7 > i45, "7 nm drive {i7} should beat 45 nm {i45} per um");
        let p7 = MosParams::pmos7(1.0);
        let ip7 = -p7.id(0.0, 0.0, 0.7);
        assert!(
            (0.7..1.1).contains(&(ip7 / i7)),
            "P/N ratio {} should be near one at 7 nm",
            ip7 / i7
        );
        assert!(n7.c_gate() < n45.c_gate());
    }

    #[test]
    fn pmos_weaker_than_nmos_per_um() {
        // Hole mobility deficit: same width -> roughly half the current.
        let n = MosParams::nmos45(1.0);
        let p = MosParams::pmos45(1.0);
        let idn = n.id_nchan(1.1, 1.1);
        let idp = -p.id(0.0, 0.0, 1.1);
        assert!(idp < idn * 0.7 && idp > idn * 0.3, "idn {idn} idp {idp}");
    }
}
