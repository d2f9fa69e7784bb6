//! Sensitivity sweeps and ablations (Tables 8, 9, 15, 17; Figs. 4, 10,
//! 11; supplement S5).

use std::fmt::Write as _;

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId, StackKind};

use super::Row;
use crate::{FlowConfig, FlowError};

/// Fig. 4 clock sweep points, chosen so both styles close at this
/// toolkit's library speed: the flow multiplies each by the benchmark's
/// clock calibration (see `FlowConfig::clock_ps`).
const FIG4_SWEEPS: [(Benchmark, [f64; 3]); 2] = [
    (Benchmark::Aes, [900.0, 850.0, 800.0]),
    (Benchmark::M256, [2500.0, 2400.0, 2300.0]),
];

/// Table 8 pin-capacitance scales (paper: 1.0 / 0.8 / 0.6 / 0.4).
const TABLE8_PIN_SCALES: [f64; 4] = [1.0, 0.8, 0.6, 0.4];

/// Table 9 resistivity variants: `(label, halve local+intermediate ρ)`.
const TABLE9_VARIANTS: [(&str, bool); 2] = [("base", false), ("-m (rho/2)", true)];

/// Table 15 WLM variants: `(row suffix, synthesize with the T-MI WLM)`.
const TABLE15_WLM: [(&str, bool); 2] = [("", true), ("-n", false)];

/// Table 17 circuits and metal-stack variants.
const TABLE17_BENCHES: [Benchmark; 2] = [Benchmark::Ldpc, Benchmark::M256];
const TABLE17_STACKS: [(&str, Option<StackKind>); 2] =
    [("3D", None), ("3D+M", Some(StackKind::TmiPlusM))];

/// Fig. 10 metal-usage circuits.
const FIG10_BENCHES: [Benchmark; 2] = [Benchmark::Ldpc, Benchmark::M256];

/// Fig. 11 activity-sweep circuits and α values.
const FIG11_BENCHES: [Benchmark; 2] = [Benchmark::Aes, Benchmark::M256];
const FIG11_ALPHAS: [f64; 3] = [0.1, 0.2, 0.4];

/// S5 blockage variants: `(label, allow MB1/MIV routing escapes)`.
const S5_VARIANTS: [(&str, bool); 2] = [("with MB1/MIV", true), ("without", false)];

/// Fig. 4's rows, labelled with their clock period (ps).
pub(crate) fn fig4_rows(scale: BenchScale) -> Vec<Row<f64>> {
    FIG4_SWEEPS
        .into_iter()
        .flat_map(|(bench, clocks)| {
            clocks.map(|clock| {
                let cfg = FlowConfig::new(NodeId::N45).scale(scale).clock(clock);
                Row::pair(clock, bench, cfg)
            })
        })
        .collect()
}

/// Fig. 4: the power benefit of T-MI versus target clock period for AES
/// (1.0 / 0.8 / 0.72 ns) and M256 (2.6 / 2.4 / 2.0 ns). The paper's
/// trend: the faster the clock, the bigger the benefit.
pub fn fig4_clock_sweep(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 4 - power reduction rate vs target clock (T-MI over 2D)\n\
         circuit  clock(ns)  total     cell      net     leakage"
    );
    // Rows where a side misses its clock are flagged and not part of
    // the trend.
    for row in fig4_rows(scale) {
        let cmp = row.compare()?;
        let flag = if cmp.two_d.wns_ps < 0.0 || cmp.tmi.wns_ps < 0.0 {
            "  [NOT MET - excluded from trend]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:6} {:9.2} {:+8.1}% {:+8.1}% {:+8.1}% {:+8.1}%   (2D wns {:+.0}, 3D wns {:+.0}){}",
            row.bench.name(),
            row.label * 1e-3,
            cmp.total_power_pct(),
            cmp.cell_power_pct(),
            cmp.net_power_pct(),
            cmp.leakage_pct(),
            cmp.two_d.wns_ps,
            cmp.tmi.wns_ps,
            flag,
        );
    }
    out.push_str(
        "paper: AES slow->fast total reduction grows ~9% -> ~14%; M256 ~15% -> ~25%;\n\
         cell-power reduction grows most steeply as the clock tightens\n",
    );
    Ok(out)
}

/// Table 8's rows, labelled with their pin-capacitance scale.
pub(crate) fn table8_rows(scale: BenchScale) -> Vec<Row<f64>> {
    TABLE8_PIN_SCALES
        .into_iter()
        .map(|pin_scale| {
            let mut cfg = FlowConfig::new(NodeId::N7).scale(scale);
            cfg.pin_cap_scale = pin_scale;
            Row::pair(pin_scale, Benchmark::Des, cfg)
        })
        .collect()
}

/// Table 8: the pin-capacitance reduction study on DES at 7 nm
/// (pin caps scaled by 1.0 / 0.8 / 0.6 / 0.4). Paper's surprise: a lower
/// pin cap does *not* increase the T-MI benefit.
pub fn table8_pin_cap(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 8 - impact of lower cell pin cap (DES, 7 nm)\n\
         pin-cap   WL-2D(m)  WL-3D(m)   P-2D(mW)  P-3D(mW)  reduction"
    );
    for row in table8_rows(scale) {
        let cmp = row.compare()?;
        let _ = writeln!(
            out,
            "x{:4.2} {:11.3} {:9.3} {:10.2} {:9.2} {:+9.1}%",
            row.label,
            cmp.two_d.wirelength_m(),
            cmp.tmi.wirelength_m(),
            cmp.two_d.total_power_mw(),
            cmp.tmi.total_power_mw(),
            cmp.total_power_pct()
        );
    }
    out.push_str(
        "paper: -3.4% at x1.0 -> -1.8/-2.7/-2.3% at x0.8/0.6/0.4 -- the benefit\n\
         does NOT grow: with smaller pins, cell power dominates instead\n",
    );
    Ok(out)
}

/// Table 9's rows, labelled with their variant name.
pub(crate) fn table9_rows(scale: BenchScale) -> Vec<Row<&'static str>> {
    TABLE9_VARIANTS
        .into_iter()
        .map(|(label, lower)| {
            let mut cfg = FlowConfig::new(NodeId::N7).scale(scale);
            cfg.lower_metal_rho = lower;
            Row::pair(label, Benchmark::M256, cfg)
        })
        .collect()
}

/// Table 9: the lower-metal-resistivity study on M256 at 7 nm (local +
/// intermediate resistivity halved).
pub fn table9_resistivity(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 9 - impact of lower metal resistivity (M256, 7 nm)\n\
         variant   WL-2D(m)  WL-3D(m)   P-2D(mW)  P-3D(mW)  reduction"
    );
    for row in table9_rows(scale) {
        let cmp = row.compare()?;
        let _ = writeln!(
            out,
            "{:10} {:9.3} {:9.3} {:10.2} {:9.2} {:+9.1}%",
            row.label,
            cmp.two_d.wirelength_m(),
            cmp.tmi.wirelength_m(),
            cmp.two_d.total_power_mw(),
            cmp.tmi.total_power_mw(),
            cmp.total_power_pct()
        );
    }
    out.push_str(
        "paper: -17.8% both with and without the resistivity cut -- lower metal\n\
         resistivity does not shrink the T-MI power benefit\n",
    );
    Ok(out)
}

/// Table 15's T-MI rows, labelled with their row suffix.
pub(crate) fn table15_rows(scale: BenchScale) -> Vec<Row<&'static str>> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            TABLE15_WLM.map(|(suffix, tmi_wlm)| {
                let mut cfg = FlowConfig::new(NodeId::N45).scale(scale);
                cfg.tmi_wlm = tmi_wlm;
                Row::single(suffix, bench, DesignStyle::Tmi, cfg)
            })
        })
        .collect()
}

/// Table 15: synthesizing the T-MI designs with the 2D wire-load model
/// ("-n") instead of their own.
pub fn table15_wlm_impact(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 15 - impact of the T-MI wire load model\n\
         design      WL(m)     WNS(ps)   total P(mW)"
    );
    for row in table15_rows(scale) {
        let r = row.run()?;
        let _ = writeln!(
            out,
            "{:5}-3D{:2} {:8.3} {:+10.0} {:12.2}",
            row.bench.name(),
            row.label,
            r.wirelength_m(),
            r.wns_ps,
            r.total_power_mw()
        );
    }
    out.push_str(
        "paper: negligible for FPU/AES/DES; LDPC +10.1% WL and +10.1% power\n\
         without its T-MI WLM; M256 +5.5% WL / +3.9% power\n",
    );
    Ok(out)
}

/// Table 17's T-MI rows, labelled with their stack name.
pub(crate) fn table17_rows(scale: BenchScale) -> Vec<Row<&'static str>> {
    TABLE17_BENCHES
        .into_iter()
        .flat_map(|bench| {
            TABLE17_STACKS.map(|(label, stack)| {
                let mut cfg = FlowConfig::new(NodeId::N7).scale(scale);
                cfg.stack_kind = stack;
                Row::single(label, bench, DesignStyle::Tmi, cfg)
            })
        })
        .collect()
}

/// Table 17: the modified T-MI+M metal stack (two extra local + two extra
/// intermediate layers instead of three local) on LDPC and M256 at 7 nm.
pub fn table17_metal_stack(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 17 - impact of the metal layer setup (7 nm, T-MI vs T-MI+M)\n\
         design        WL(m)    total P(mW)  cell     net     leak"
    );
    for row in table17_rows(scale) {
        let r = row.run()?;
        let _ = writeln!(
            out,
            "{:5}-{:4} {:9.3} {:12.2} {:8.2} {:8.2} {:7.3}",
            row.bench.name(),
            row.label,
            r.wirelength_m(),
            r.total_power_mw(),
            r.power.cell_mw,
            r.power.net_mw(),
            r.power.leakage_mw
        );
    }
    out.push_str("paper: the +M stack cuts total power a further 2.4% (LDPC) / 2.8% (M256)\n");
    Ok(out)
}

/// Fig. 10's rows: the T-MI designs of its circuits.
pub(crate) fn fig10_rows(node: NodeId, scale: BenchScale) -> Vec<Row> {
    let cfg = FlowConfig::new(node).scale(scale);
    FIG10_BENCHES
        .into_iter()
        .map(|bench| Row::single((), bench, DesignStyle::Tmi, cfg.clone()))
        .collect()
}

/// Fig. 10: per-class metal usage for LDPC and M256 (T-MI, 45 nm). Any
/// other node (the `--node` CLI path) renders the same rows without the
/// paper reference footer.
pub fn fig10_layer_usage(node: NodeId, scale: BenchScale) -> Result<String, FlowError> {
    let paper = node == NodeId::N45;
    let mut out = String::new();
    if paper {
        let _ = writeln!(out, "Fig. 10 - metal layer usage (T-MI designs)");
    } else {
        let _ = writeln!(
            out,
            "Fig. 10 - metal layer usage (T-MI designs, {} node)",
            node.label()
        );
    }
    for row in fig10_rows(node, scale) {
        let r = row.run()?;
        let _ = writeln!(out, "{}:\n{}", row.bench.name(), r.layer_usage.to_table());
    }
    if paper {
        out.push_str(
            "paper: both local and intermediate heavily used; LDPC uses more global metal than M256\n",
        );
    }
    Ok(out)
}

/// Fig. 11's rows, labelled with their flop activity factor.
pub(crate) fn fig11_rows(scale: BenchScale) -> Vec<Row<f64>> {
    FIG11_BENCHES
        .into_iter()
        .flat_map(|bench| {
            FIG11_ALPHAS.map(|alpha| {
                let mut cfg = FlowConfig::new(NodeId::N45).scale(scale);
                cfg.alpha_ff = alpha;
                Row::pair(alpha, bench, cfg)
            })
        })
        .collect()
}

/// Fig. 11: power and reduction rate versus the sequential switching
/// activity factor (0.1 - 0.4).
pub fn fig11_activity_sweep(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 11 - switching activity sweep (45 nm)\n\
         circuit  alpha   P-2D(mW)   P-3D(mW)  reduction"
    );
    for row in fig11_rows(scale) {
        let cmp = row.compare()?;
        let _ = writeln!(
            out,
            "{:6} {:6.2} {:10.2} {:10.2} {:+9.1}%",
            row.bench.name(),
            row.label,
            cmp.two_d.total_power_mw(),
            cmp.tmi.total_power_mw(),
            cmp.total_power_pct()
        );
    }
    out.push_str(
        "paper: total power grows with activity but the reduction *rate* is\n\
         nearly flat across alpha = 0.1-0.4 for every circuit\n",
    );
    Ok(out)
}

/// S5's AES T-MI rows, labelled with their variant name.
pub(crate) fn s5_rows(scale: BenchScale) -> Vec<Row<&'static str>> {
    S5_VARIANTS
        .into_iter()
        .map(|(label, mb1)| {
            let mut cfg = FlowConfig::new(NodeId::N45).scale(scale);
            cfg.mb1_routing = mb1;
            Row::single(label, Benchmark::Aes, DesignStyle::Tmi, cfg)
        })
        .collect()
}

/// Supplement S5: MIV/MB1 routing blockage study — AES T-MI with and
/// without MB1/MIV routing escapes.
pub fn fig_s5_blockage(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "S5 - MIV/MB1 blockage impact (AES, T-MI, 45 nm)\n\
         variant        WL(m)    WNS(ps)   total P(mW)"
    );
    for row in s5_rows(scale) {
        let r = row.run()?;
        let _ = writeln!(
            out,
            "{:13} {:7.3} {:+10.0} {:12.2}",
            row.label,
            r.wirelength_m(),
            r.wns_ps,
            r.total_power_mw()
        );
    }
    out.push_str(
        "paper: +0.1% wirelength, -0.1% power -- the in-cell blockages do not\n\
         degrade design quality at ~80% utilization\n",
    );
    Ok(out)
}

/// The scorecard's rows: every circuit as a 45 nm 2D/T-MI pair.
pub(crate) fn summary_rows(scale: BenchScale) -> Vec<Row> {
    let cfg = FlowConfig::new(NodeId::N45).scale(scale);
    Benchmark::ALL
        .into_iter()
        .map(|bench| Row::pair((), bench, cfg.clone()))
        .collect()
}

/// One-screen reproduction scorecard: the paper's headline claims with
/// their pass/fail state, measured live at the given scale.
pub fn summary_scorecard(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(out, "Reproduction scorecard ({scale:?} scale)");
    let rows = summary_rows(scale);
    let mut claims: Vec<(String, bool)> = Vec::new();

    // Claim 1: iso-performance power reduction for every circuit, with
    // DES the smallest benefit.
    let mut reductions: Vec<(Benchmark, f64, bool)> = Vec::new();
    for row in &rows {
        let cmp = row.compare()?;
        reductions.push((
            row.bench,
            cmp.total_power_pct(),
            cmp.two_d.wns_ps >= -0.02 * cmp.two_d.clock_ps
                && cmp.tmi.wns_ps >= -0.02 * cmp.tmi.clock_ps,
        ));
    }
    for (bench, pct, closed) in &reductions {
        let _ = writeln!(
            out,
            "  {:5} total power {:+6.1}%  (timing {})",
            bench.name(),
            pct,
            if *closed { "met" } else { "MISSED" }
        );
    }
    claims.push((
        "every circuit saves power at iso-performance".into(),
        reductions.iter().all(|(_, p, _)| *p < 0.0),
    ));
    let des = reductions
        .iter()
        .find(|(b, _, _)| *b == Benchmark::Des)
        .map(|(_, p, _)| *p)
        .unwrap_or(0.0);
    claims.push((
        "DES is the smallest benefit (Section 4.3)".into(),
        reductions
            .iter()
            .all(|(b, p, _)| *b == Benchmark::Des || *p <= des),
    ));

    // Claim 2: footprint reduction ~40%+ everywhere.
    let mut fp_ok = true;
    for row in &rows {
        fp_ok = row.compare()?.footprint_pct() < -30.0;
        if !fp_ok {
            break;
        }
    }
    claims.push(("footprint shrinks >30% in T-MI".into(), fp_ok));

    for (claim, ok) in &claims {
        let _ = writeln!(out, "  [{}] {}", if *ok { "PASS" } else { "FAIL" }, claim);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scorecard_runs_and_reports() {
        let t = summary_scorecard(BenchScale::Small).expect("scorecard renders");
        assert!(t.contains("scorecard"));
        assert!(t.contains("DES"));
        assert!(t.contains("PASS") || t.contains("FAIL"));
    }

    #[test]
    fn fig4_produces_both_circuits() {
        let t = fig4_clock_sweep(BenchScale::Small).expect("fig4 renders");
        assert!(t.contains("AES"));
        assert!(t.contains("M256"));
    }

    #[test]
    fn s5_runs_both_variants() {
        let t = fig_s5_blockage(BenchScale::Small).expect("s5 renders");
        assert!(t.contains("with MB1/MIV"));
        assert!(t.contains("without"));
    }
}
