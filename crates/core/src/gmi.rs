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
//!    under an area balance ([`fm_bipartition`]); the pass keeps its
//!    unmoved cells in gain buckets, so a move costs the pins of the
//!    moved cell's nets rather than a rescan of the design,
//! 3. place both tiers in a shared x/y space on a half-area core
//!    ([`m3d_place::Placer::tiers`]),
//! 4. route against the T-MI metal stack and add one MIV per net whose
//!    pins span both tiers,
//! 5. sign off timing and power exactly like the main flow.
//!
//! [`run_gmi`] is that pipeline, uncached. [`gmi_comparison`] memoizes
//! its results in the global [`ArtifactCache`] (and its disk tier),
//! keyed by the [`FlowKey`] of the 2D reference point, which holds every
//! knob the pipeline reads; a warm `--cache-dir` replay therefore
//! partitions, places and routes nothing.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use m3d_cells::CellLibrary;
use m3d_netlist::{BenchScale, Benchmark, NetDriver, NetId, Netlist};
use m3d_place::Placer;
use m3d_power::{try_analyze_power, PowerConfig};
use m3d_route::Router;
use m3d_sta::try_analyze;
use m3d_tech::{DesignStyle, MetalStack, NodeId, StackKind};

use crate::cache::{ArtifactCache, FlowKey};
use crate::error::{FlowError, FlowStage};
use crate::experiments::Row;
use crate::flow::try_extraction_models;
use crate::govern::check;
use crate::stage;
use crate::FlowConfig;

/// The circuits the G-MI comparison study runs.
const GMI_BENCHES: [Benchmark; 2] = [Benchmark::Aes, Benchmark::Ldpc];

/// The flow points of [`gmi_comparison`] a plan can pre-warm: its 2D
/// and T-MI reference pairs. The G-MI implementation itself
/// ([`run_gmi`]) is not a `Flow`; the driver looks it up in the G-MI
/// memo class and runs it on a miss.
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
    /// Nets with pins on both tiers, the clock excluded.
    pub cut_nets: usize,
    /// Area fraction on tier 0.
    pub balance: f64,
}

/// What a net contributes to the gain of moving one of its cells: the
/// cell has `mine` of the net's `len` pins, and `same` pins (its own
/// included) sit on the cell's side. Moving the cell cuts an uncut net
/// (−1) or heals a net whose other pins all sit across (+1).
fn gain_term(same: u32, len: u32, mine: u32) -> i64 {
    if same == len {
        -1
    } else if same == mine {
        1
    } else {
        0
    }
}

/// Fiduccia-Mattheyses-style bipartitioning: single-cell moves with
/// net-cut gains, best-prefix acceptance, repeated for `passes` passes,
/// under a `balance_tolerance` area constraint (e.g. 0.1 keeps each side
/// within 40-60 %).
///
/// The clock and nets with fewer than two instance pins never count as
/// cut; a pin counts once per connection, so a cell that drives and
/// sinks a net holds two of its pins. Each pass starts from the even/odd
/// split or the previous pass's result, and moves each cell at most once
/// (at most 4,000 moves). A move takes the unmoved cell of highest gain
/// whose move keeps tier 0's area within the tolerance, ties going to
/// the lowest index. The pass stops 64 moves past its best prefix once
/// the gain is no longer positive, rolls back to the best prefix, and
/// the partitioner stops after a pass that improves nothing.
///
/// The unmoved cells sit in gain buckets ordered by (gain descending,
/// index ascending), so the first bucket entry whose move keeps the
/// balance is the cell a full scan would pick. Moving a cell updates the
/// per-side pin counts of its nets and re-buckets only the unmoved cells
/// on those nets whose gain changed.
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

    // Each net's distinct cells with their pin multiplicity, and its pin
    // total (instances only; ports are tier-agnostic pads). Nets with
    // fewer than two pins can never be cut and are left out.
    let mut net_cells: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut net_len: Vec<u32> = Vec::new();
    let mut pins: Vec<u32> = Vec::new();
    for id in netlist.net_ids() {
        if Some(id) == netlist.clock {
            continue; // the clock reaches both tiers regardless
        }
        let net = netlist.net(id);
        pins.clear();
        if let NetDriver::Cell { inst, .. } = net.driver {
            pins.push(inst.0);
        }
        pins.extend(net.sinks.iter().map(|s| s.inst.0));
        if pins.len() < 2 {
            continue;
        }
        pins.sort_unstable();
        let mut cells: Vec<(u32, u32)> = Vec::new();
        for &p in &pins {
            match cells.last_mut() {
                Some((c, m)) if *c == p => *m += 1,
                _ => cells.push((p, 1)),
            }
        }
        net_len.push(pins.len() as u32);
        net_cells.push(cells);
    }
    let mut inst_nets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for (e, cells) in net_cells.iter().enumerate() {
        for &(c, m) in cells {
            inst_nets[c as usize].push((e as u32, m));
        }
    }

    // Pins of each net on each side.
    let side_counts = |side: &[u8]| -> Vec<[u32; 2]> {
        net_cells
            .iter()
            .map(|cells| {
                let mut cnt = [0u32; 2];
                for &(c, m) in cells {
                    cnt[side[c as usize] as usize] += m;
                }
                cnt
            })
            .collect()
    };
    let cut_count = |cnt: &[[u32; 2]]| cnt.iter().filter(|c| c[0] > 0 && c[1] > 0).count();

    let lo = total_area * (0.5 - balance_tolerance);
    let hi = total_area * (0.5 + balance_tolerance);
    for _pass in 0..passes {
        let mut cnt = side_counts(&side);
        let mut gain: Vec<i64> = inst_nets
            .iter()
            .zip(&side)
            .map(|(nets, &s)| {
                nets.iter()
                    .map(|&(e, m)| gain_term(cnt[e as usize][s as usize], net_len[e as usize], m))
                    .sum()
            })
            .collect();
        let mut buckets: BTreeSet<(Reverse<i64>, u32)> = (0..n as u32)
            .map(|i| (Reverse(gain[i as usize]), i))
            .collect();
        let mut moved = vec![false; n];
        let mut best_cut = cut_count(&cnt);
        let mut best_prefix = 0usize;
        let mut trail: Vec<u32> = Vec::new();
        let mut cur_cut = best_cut;
        for _step in 0..n.min(4000) {
            let pick = buckets.iter().find(|&&(_, i)| {
                let i = i as usize;
                let new_area0 = if side[i] == 0 {
                    area0 - areas[i]
                } else {
                    area0 + areas[i]
                };
                !(new_area0 < lo || new_area0 > hi)
            });
            let Some(&(Reverse(g), i)) = pick else { break };
            buckets.remove(&(Reverse(g), i));
            let i_us = i as usize;
            moved[i_us] = true;
            let from = side[i_us] as usize;
            if from == 0 {
                area0 -= areas[i_us];
                side[i_us] = 1;
            } else {
                area0 += areas[i_us];
                side[i_us] = 0;
            }
            for &(e, mine) in &inst_nets[i_us] {
                let e = e as usize;
                let before = cnt[e];
                cnt[e][from] -= mine;
                cnt[e][1 - from] += mine;
                for &(j, m) in &net_cells[e] {
                    let j_us = j as usize;
                    if moved[j_us] {
                        continue;
                    }
                    let s = side[j_us] as usize;
                    let delta =
                        gain_term(cnt[e][s], net_len[e], m) - gain_term(before[s], net_len[e], m);
                    if delta != 0 {
                        buckets.remove(&(Reverse(gain[j_us]), j));
                        gain[j_us] += delta;
                        buckets.insert((Reverse(gain[j_us]), j));
                    }
                }
            }
            trail.push(i);
            cur_cut = (cur_cut as i64 - g) as usize;
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = trail.len();
            }
            if g <= 0 && trail.len() > best_prefix + 64 {
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
        cut_nets: cut_count(&side_counts(&side)),
        balance: area0 / total_area,
        assignment: side,
    }
}

/// The nets G-MI gives an MIV: every net whose instance pins sit on both
/// tiers under `assignment`. Unlike [`Bipartition::cut_nets`] this
/// includes the clock, whose flip-flop sinks land on both tiers.
fn miv_nets(netlist: &Netlist, assignment: &[u8]) -> Vec<NetId> {
    netlist
        .net_ids()
        .filter(|&id| {
            let net = netlist.net(id);
            let driver = match net.driver {
                NetDriver::Cell { inst, .. } => Some(inst),
                _ => None,
            };
            let mut tiers = net
                .sinks
                .iter()
                .map(|s| s.inst)
                .chain(driver)
                .map(|inst| assignment[inst.0 as usize]);
            tiers.next().is_some_and(|first| tiers.any(|t| t != first))
        })
        .collect()
}

/// Sign-off summary of a G-MI implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct GmiResult {
    /// Core footprint, µm² (two stacked tiers).
    pub footprint_um2: f64,
    /// Total routed wirelength, µm.
    pub wirelength_um: f64,
    /// The partition's cut nets, which exclude the clock; sign-off adds
    /// one more MIV, on the clock, whose sinks sit on both tiers.
    pub miv_nets: usize,
    /// Worst slack, ps.
    pub wns_ps: f64,
    /// Total power, mW.
    pub total_power_mw: f64,
}

/// Runs the G-MI flow for a benchmark (2D library, two tiers), without
/// consulting the G-MI memo ([`gmi_comparison`] does). Stops at the next
/// phase boundary once the calling thread's installed cancel token
/// fires.
///
/// # Errors
///
/// The first phase failure as a [`FlowError`], or
/// [`FlowError::Cancelled`] naming the phase about to start.
pub fn run_gmi(bench: Benchmark, config: &FlowConfig) -> Result<GmiResult, FlowError> {
    // G-MI places planar cells: the 2D library at unscaled pin caps,
    // whatever pin-cap scale `config` asks of the main flow.
    let config = FlowConfig {
        pin_cap_scale: 1.0,
        ..config.clone()
    };
    let cache = ArtifactCache::global();
    check(FlowStage::Library)?;
    let env = stage::library(bench, DesignStyle::TwoD, &config, &cache)?;
    check(FlowStage::Synthesis)?;
    let (netlist, _, _) = stage::synthesize(bench, DesignStyle::TwoD, &config, &cache, &env)?;
    let (lib, node) = (&env.lib, &env.node);

    check(FlowStage::Placement)?;
    let part = fm_bipartition(&netlist, lib, 4, 0.1);
    let placement = Placer::new(lib)
        .utilization(env.utilization)
        .iterations(config.place_iterations)
        .tiers(part.assignment.clone(), 2)
        .try_place(&netlist)?;

    // G-MI routes over the T-MI stack (it needs MB1 + the extra layers
    // for the doubled pin density just like T-MI does).
    check(FlowStage::Routing)?;
    let stack = MetalStack::new(node, StackKind::Tmi);
    let router = Router::new(node, &stack);
    let routed = router.try_route(&netlist, &placement, lib)?;
    let mut models = try_extraction_models(&netlist, &routed, node)?;
    for id in miv_nets(&netlist, &part.assignment) {
        models[id.0 as usize].r_wire += node.miv.resistance;
        models[id.0 as usize].c_wire += node.miv.capacitance;
    }

    check(FlowStage::SignOff)?;
    let report = try_analyze(&netlist, lib, &models, &env.timing())?;
    let power = try_analyze_power(&netlist, lib, &models, &PowerConfig::new(env.clock_ps))?;
    Ok(GmiResult {
        footprint_um2: placement.footprint_um2(),
        wirelength_um: routed.total_wirelength_um(),
        miv_nets: part.cut_nets,
        wns_ps: report.wns,
        total_power_mw: power.total_mw(),
    })
}

/// Extension experiment: 2D vs G-MI vs T-MI on AES and LDPC. Each G-MI
/// point is served from the global cache when an earlier call (or, over
/// a disk tier, an earlier process) stored it; a failed run stores
/// nothing and returns its [`FlowError`].
pub fn gmi_comparison(scale: BenchScale) -> Result<String, FlowError> {
    let cache = ArtifactCache::global();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension - integration granularity: 2D vs gate-level (G-MI) vs transistor-level (T-MI)\n\
         design      footprint(um2)  WL(m)     power(mW)  MIV nets"
    );
    for row in gmi_rows(scale) {
        let bench = row.bench;
        let crate::Comparison { two_d, tmi } = row.compare()?;
        let key = FlowKey::of(bench, DesignStyle::TwoD, &row.cfg);
        let gmi = cache.gmi(&key, || run_gmi(bench, &row.cfg))?;
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
    Ok(out)
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

    /// A known deviation (EXPERIMENTS.md, G-MI): the MIV count reported
    /// is the partition's cut count, but sign-off also puts an MIV on the
    /// clock, so the models carry exactly one MIV more.
    #[test]
    fn miv_nets_are_the_cut_nets_plus_the_clock() {
        let (lib, n) = small();
        let p = fm_bipartition(&n, &lib, 4, 0.1);
        let clock = n.clock.expect("AES is sequential");
        // Cut nets by a per-net tier mask over every instance pin.
        let cut: Vec<NetId> = n
            .net_ids()
            .filter(|&id| Some(id) != n.clock)
            .filter(|&id| {
                let net = n.net(id);
                let mut mask = 0u8;
                for s in &net.sinks {
                    mask |= 1 << p.assignment[s.inst.0 as usize];
                }
                if let NetDriver::Cell { inst, .. } = net.driver {
                    mask |= 1 << p.assignment[inst.0 as usize];
                }
                mask == 0b11
            })
            .collect();
        assert_eq!(cut.len(), p.cut_nets);
        let mut expected = cut;
        expected.push(clock);
        expected.sort_unstable();
        assert_eq!(miv_nets(&n, &p.assignment), expected);
    }

    #[test]
    fn a_cancelled_token_stops_gmi_before_any_work() {
        let token = crate::govern::CancelToken::new();
        token.cancel();
        let _installed = crate::govern::install(token);
        let cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
        let err = run_gmi(Benchmark::Aes, &cfg).expect_err("the token fired");
        assert_eq!(
            err,
            FlowError::Cancelled {
                stage: FlowStage::Library
            }
        );
    }

    #[test]
    fn gmi_footprint_sits_between_2d_and_halved() {
        let cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
        let two_d = Flow::new(Benchmark::Aes, DesignStyle::TwoD, cfg.clone())
            .try_run()
            .expect("2D flow closes");
        let gmi = run_gmi(Benchmark::Aes, &cfg).expect("G-MI flow runs");
        let ratio = gmi.footprint_um2 / two_d.footprint_um2;
        assert!(
            (0.3..0.75).contains(&ratio),
            "G-MI footprint ratio {ratio} (expect ~0.5)"
        );
        assert!(gmi.miv_nets > 0, "some nets must cross tiers");
        assert!(gmi.total_power_mw > 0.0);
    }
}
