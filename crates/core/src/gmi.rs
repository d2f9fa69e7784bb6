//! Gate-level monolithic 3D integration (**G-MI**) — the alternative the
//! paper contrasts T-MI against in its introduction: *planar* cells placed
//! on two tiers, stitched by MIVs on the nets that cross tiers, instead of
//! folding every cell.
//!
//! This module is an extension beyond the paper's own experiments: it lets
//! the toolkit answer "how much of the T-MI benefit would the coarser
//! G-MI partitioning already capture?" The pipeline is
//!
//! 1. synthesize the 2D netlist as usual,
//! 2. bipartition it with a Fiduccia-Mattheyses pass minimizing cut nets
//!    under an area balance ([`fm_bipartition`]),
//! 3. place both tiers in a shared x/y space on a half-area core
//!    ([`m3d_place::Placer::tiers`]),
//! 4. route against the T-MI metal stack and add one MIV per cut net,
//! 5. sign off timing and power exactly like the main flow.

use std::fmt::Write as _;

use m3d_cells::CellLibrary;
use m3d_netlist::{BenchScale, Benchmark, NetDriver, Netlist};
use m3d_place::Placer;
use m3d_power::{analyze_power, PowerConfig};
use m3d_route::Router;
use m3d_sta::analyze;
use m3d_sta::TimingConfig;
use m3d_synth::{synthesize, SynthConfig, WireLoadModel};
use m3d_tech::{DesignStyle, MetalStack, NodeId, StackKind};

use crate::cache::ArtifactCache;
use crate::experiments::Row;
use crate::flow::extraction_models;
use crate::FlowConfig;

/// The circuits the G-MI comparison study runs.
const GMI_BENCHES: [Benchmark; 2] = [Benchmark::Aes, Benchmark::Ldpc];

/// The cacheable flow points of [`gmi_comparison`]: its 2D and T-MI
/// reference pairs. The G-MI implementation itself ([`run_gmi`]) is not
/// a `Flow` and is not memoized, so it stays in the driver.
pub(crate) fn gmi_rows(scale: BenchScale) -> Vec<Row> {
    let cfg = FlowConfig::new(NodeId::N45).scale(scale);
    GMI_BENCHES
        .into_iter()
        .map(|bench| Row::pair((), bench, cfg.clone()))
        .collect()
}

/// Result of a Fiduccia-Mattheyses bipartition.
#[derive(Debug, Clone)]
pub struct Bipartition {
    /// Tier (0/1) per instance.
    pub assignment: Vec<u8>,
    /// Nets with pins on both tiers (each needs an MIV in G-MI).
    pub cut_nets: usize,
    /// Area fraction on tier 0.
    pub balance: f64,
}

/// Fiduccia-Mattheyses-style bipartitioning: single-cell moves with
/// net-cut gains, best-prefix acceptance, repeated for `passes` passes,
/// under a `balance_tolerance` area constraint (e.g. 0.1 keeps each side
/// within 40-60 %).
pub fn fm_bipartition(
    netlist: &Netlist,
    lib: &CellLibrary,
    passes: usize,
    balance_tolerance: f64,
) -> Bipartition {
    let n = netlist.instance_count();
    let areas: Vec<f64> = netlist
        .inst_ids()
        .map(|i| lib.cell(netlist.inst(i).cell).area_um2())
        .collect();
    let total_area: f64 = areas.iter().sum();
    // Initial split: even/odd by id keeps generator locality mixed, which
    // gives FM real work and a reproducible start.
    let mut side: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
    let mut area0: f64 = areas
        .iter()
        .enumerate()
        .filter(|(i, _)| side[*i] == 0)
        .map(|(_, a)| a)
        .sum();

    // Per-net pin lists (instances only; ports are tier-agnostic pads).
    let mut net_pins: Vec<Vec<u32>> = vec![Vec::new(); netlist.net_count()];
    for id in netlist.net_ids() {
        if Some(id) == netlist.clock {
            continue; // the clock reaches both tiers regardless
        }
        let net = netlist.net(id);
        if let NetDriver::Cell { inst, .. } = net.driver {
            net_pins[id.0 as usize].push(inst.0);
        }
        for s in &net.sinks {
            net_pins[id.0 as usize].push(s.inst.0);
        }
    }
    let mut inst_nets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (nid, pins) in net_pins.iter().enumerate() {
        for &i in pins {
            inst_nets[i as usize].push(nid as u32);
        }
    }
    for v in &mut inst_nets {
        v.sort_unstable();
        v.dedup();
    }

    let cut_count = |side: &[u8]| -> usize {
        net_pins
            .iter()
            .filter(|pins| {
                pins.len() > 1 && {
                    let first = side[pins[0] as usize];
                    pins.iter().any(|&p| side[p as usize] != first)
                }
            })
            .count()
    };

    let lo = total_area * (0.5 - balance_tolerance);
    let hi = total_area * (0.5 + balance_tolerance);
    for _pass in 0..passes {
        // Gain of moving instance i = (nets that become uncut) - (nets
        // that become cut).
        let mut moved = vec![false; n];
        let mut best_cut = cut_count(&side);
        let mut best_prefix = 0usize;
        let mut trail: Vec<u32> = Vec::new();
        let mut cur_cut = best_cut;
        for _step in 0..n.min(4000) {
            // Greedy: pick the unmoved cell with the best gain that keeps
            // balance.
            let mut best: Option<(i64, u32)> = None;
            for i in 0..n {
                if moved[i] {
                    continue;
                }
                let from = side[i];
                let new_area0 = if from == 0 {
                    area0 - areas[i]
                } else {
                    area0 + areas[i]
                };
                if new_area0 < lo || new_area0 > hi {
                    continue;
                }
                let mut gain = 0i64;
                for &nid in &inst_nets[i] {
                    let pins = &net_pins[nid as usize];
                    if pins.len() < 2 {
                        continue;
                    }
                    let mine = pins.iter().filter(|&&p| p as usize == i).count();
                    let same = pins.iter().filter(|&&p| side[p as usize] == from).count();
                    let other = pins.len() - same;
                    if other == 0 {
                        gain -= 1; // uncut net becomes cut
                    } else if same == mine {
                        gain += 1; // this move heals the cut
                    }
                }
                if best.map(|(g, _)| gain > g).unwrap_or(true) {
                    best = Some((gain, i as u32));
                }
            }
            let Some((gain, i)) = best else { break };
            let i_us = i as usize;
            moved[i_us] = true;
            if side[i_us] == 0 {
                area0 -= areas[i_us];
                side[i_us] = 1;
            } else {
                area0 += areas[i_us];
                side[i_us] = 0;
            }
            trail.push(i);
            cur_cut = (cur_cut as i64 - gain) as usize;
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = trail.len();
            }
            if gain <= 0 && trail.len() > best_prefix + 64 {
                break; // long negative tail: stop the pass early
            }
        }
        // Roll back past the best prefix.
        for &i in trail[best_prefix..].iter() {
            let i = i as usize;
            if side[i] == 0 {
                area0 -= areas[i];
                side[i] = 1;
            } else {
                area0 += areas[i];
                side[i] = 0;
            }
        }
        if best_prefix == 0 {
            break; // converged
        }
    }

    Bipartition {
        cut_nets: cut_count(&side),
        balance: area0 / total_area,
        assignment: side,
    }
}

/// Sign-off summary of a G-MI implementation.
#[derive(Debug, Clone)]
pub struct GmiResult {
    /// Core footprint, µm² (two stacked tiers).
    pub footprint_um2: f64,
    /// Total routed wirelength, µm.
    pub wirelength_um: f64,
    /// Nets crossing tiers (MIV count).
    pub miv_nets: usize,
    /// Worst slack, ps.
    pub wns_ps: f64,
    /// Total power, mW.
    pub total_power_mw: f64,
}

/// Runs the G-MI flow for a benchmark (2D library, two tiers).
pub fn run_gmi(bench: Benchmark, config: &FlowConfig) -> GmiResult {
    let node = config.tech_node();
    let lib = ArtifactCache::global()
        .library(
            config.node_id,
            DesignStyle::TwoD,
            config.lower_metal_rho,
            1.0,
        )
        .expect("library builds");
    let clock_ps = config
        .clock_ps
        .unwrap_or_else(|| bench.target_clock_ps(config.node_id))
        * config.effective_clock_scale(bench);
    let utilization = config
        .utilization
        .unwrap_or_else(|| bench.target_utilization());

    let raw = bench.generate(&lib, config.bench_scale);
    let prelim = Placer::new(&lib)
        .utilization(utilization)
        .iterations(16)
        .place(&raw);
    let wlm = WireLoadModel::from_placement(&raw, &prelim);
    let netlist = synthesize(raw, &lib, &wlm, &SynthConfig::new(clock_ps));

    let part = fm_bipartition(&netlist, &lib, 4, 0.1);
    let placement = Placer::new(&lib)
        .utilization(utilization)
        .iterations(config.place_iterations)
        .tiers(part.assignment.clone(), 2)
        .place(&netlist);

    // G-MI routes over the T-MI stack (it needs MB1 + the extra layers
    // for the doubled pin density just like T-MI does).
    let stack = MetalStack::new(&node, StackKind::Tmi);
    let router = Router::new(&node, &stack);
    let routed = router.route(&netlist, &placement, &lib);
    let mut models = extraction_models(&netlist, &routed, &node);
    // Cut nets carry one MIV each.
    for id in netlist.net_ids() {
        let pins_tiers: Vec<u8> = {
            let net = netlist.net(id);
            let mut v: Vec<u8> = net
                .sinks
                .iter()
                .map(|s| part.assignment[s.inst.0 as usize])
                .collect();
            if let NetDriver::Cell { inst, .. } = net.driver {
                v.push(part.assignment[inst.0 as usize]);
            }
            v
        };
        if pins_tiers.windows(2).any(|w| w[0] != w[1]) {
            models[id.0 as usize].r_wire += node.miv.resistance;
            models[id.0 as usize].c_wire += node.miv.capacitance;
        }
    }

    let report = analyze(&netlist, &lib, &models, &TimingConfig::new(clock_ps));
    let power = analyze_power(&netlist, &lib, &models, &PowerConfig::new(clock_ps));
    GmiResult {
        footprint_um2: placement.footprint_um2(),
        wirelength_um: routed.total_wirelength_um(),
        miv_nets: part.cut_nets,
        wns_ps: report.wns,
        total_power_mw: power.total_mw(),
    }
}

/// Extension experiment: 2D vs G-MI vs T-MI on AES and LDPC.
pub fn gmi_comparison(scale: BenchScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension - integration granularity: 2D vs gate-level (G-MI) vs transistor-level (T-MI)\n\
         design      footprint(um2)  WL(m)     power(mW)  MIV nets"
    );
    for row in gmi_rows(scale) {
        let bench = row.bench;
        let crate::Comparison { two_d, tmi } = row.compare();
        let gmi = run_gmi(bench, &row.cfg);
        let _ = writeln!(
            out,
            "{:5}-2D   {:13.0} {:9.3} {:10.2}        -",
            bench.name(),
            two_d.footprint_um2,
            two_d.wirelength_m(),
            two_d.total_power_mw()
        );
        let _ = writeln!(
            out,
            "{:5}-GMI  {:13.0} {:9.3} {:10.2} {:8}   (wns {:+.0} ps, pre-optimization estimate)",
            bench.name(),
            gmi.footprint_um2,
            gmi.wirelength_um * 1e-6,
            gmi.total_power_mw,
            gmi.miv_nets,
            gmi.wns_ps
        );
        let _ = writeln!(
            out,
            "{:5}-TMI  {:13.0} {:9.3} {:10.2}   in-cell",
            bench.name(),
            tmi.footprint_um2,
            tmi.wirelength_m(),
            tmi.total_power_mw()
        );
    }
    out.push_str(
        "note: the G-MI rows are synthesized + partitioned + placed + routed but not\n\
         run through the iso-performance optimization loop, so their power reads\n\
         optimistic; compare footprint/wirelength/MIV structure, not closed power.\n\
         literature context ([2], [8]): gate-level partitioning recovers part of the\n\
         footprint benefit but fewer of the wirelength gains than T-MI\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Flow;

    fn small() -> (CellLibrary, Netlist) {
        let node = m3d_tech::TechNode::n45();
        let lib = CellLibrary::build(&node, DesignStyle::TwoD);
        let n = Benchmark::Aes.generate(&lib, BenchScale::Small);
        (lib, n)
    }

    #[test]
    fn fm_respects_balance_and_reduces_cut() {
        let (lib, n) = small();
        let initial_cut = {
            // even/odd start
            let side: Vec<u8> = (0..n.instance_count()).map(|i| (i % 2) as u8).collect();
            let mut cut = 0;
            for id in n.net_ids() {
                if Some(id) == n.clock {
                    continue;
                }
                let net = n.net(id);
                let mut tiers: Vec<u8> =
                    net.sinks.iter().map(|s| side[s.inst.0 as usize]).collect();
                if let NetDriver::Cell { inst, .. } = net.driver {
                    tiers.push(side[inst.0 as usize]);
                }
                if tiers.windows(2).any(|w| w[0] != w[1]) {
                    cut += 1;
                }
            }
            cut
        };
        let p = fm_bipartition(&n, &lib, 3, 0.1);
        assert!(
            (0.4..=0.6).contains(&p.balance),
            "balance {} outside tolerance",
            p.balance
        );
        assert!(
            p.cut_nets < initial_cut,
            "FM should improve on the even/odd start ({} !< {})",
            p.cut_nets,
            initial_cut
        );
        assert_eq!(p.assignment.len(), n.instance_count());
    }

    #[test]
    fn gmi_footprint_sits_between_2d_and_halved() {
        let cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
        let two_d = Flow::new(Benchmark::Aes, DesignStyle::TwoD, cfg.clone()).run();
        let gmi = run_gmi(Benchmark::Aes, &cfg);
        let ratio = gmi.footprint_um2 / two_d.footprint_um2;
        assert!(
            (0.3..0.75).contains(&ratio),
            "G-MI footprint ratio {ratio} (expect ~0.5)"
        );
        assert!(gmi.miv_nets > 0, "some nets must cross tiers");
        assert!(gmi.total_power_mw > 0.0);
    }
}
