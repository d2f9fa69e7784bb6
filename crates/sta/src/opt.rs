//! Timing-optimization planning: turns a [`TimingReport`] into gate-sizing
//! and repeater-insertion moves.
//!
//! The planner implements the two levers the paper's optimizer uses
//! (Sections 4.1, 4.4): on failing paths it *upsizes* drivers and chops
//! long resistive nets with repeaters; once timing is met it *downsizes*
//! cells with comfortable slack to recover power ("with a better timing,
//! cells are downsized and less number of buffers are used").

use serde::{Deserialize, Serialize};

use m3d_cells::{CellFunction, CellLibrary};
use m3d_netlist::{NetDriver, NetId, Netlist};

use crate::{NetModel, TimingReport};

/// One planned edit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptMove {
    /// Swap the net's driver to the next-stronger variant.
    Upsize(m3d_netlist::InstId),
    /// Swap to the next-weaker variant (power recovery).
    Downsize(m3d_netlist::InstId),
    /// Split the net with `repeaters` buffers along its span.
    BufferNet {
        /// The overloaded net.
        net: NetId,
        /// How many repeaters to insert.
        repeaters: u32,
    },
}

/// Optimal repeater count for a wire with total RC, from the classic
/// repeater-insertion balance: k ~ sqrt(R_wire·C_wire / (R_buf·C_buf)).
fn repeater_count(model: &NetModel, r_buf: f64, c_buf: f64) -> u32 {
    if model.r_wire <= 0.0 || model.c_wire <= 0.0 {
        return 0;
    }
    let k = (model.r_wire * model.c_wire / (r_buf * c_buf)).sqrt();
    (k as u32).min(8)
}

/// Plans timing fixes for up to `limit` critical nets: buffer long nets
/// whose wire RC dominates, upsize drivers otherwise.
///
/// Returns an empty vector when timing is met.
pub fn plan_timing_moves(
    netlist: &Netlist,
    lib: &CellLibrary,
    models: &[NetModel],
    report: &TimingReport,
    limit: usize,
) -> Vec<OptMove> {
    if report.met() {
        return Vec::new();
    }
    let buf = lib.cell(lib.smallest(CellFunction::Buf));
    let (r_buf, c_buf) = (buf.r_drive, buf.max_input_cap());
    let mut moves = Vec::new();
    let mut touched_insts = std::collections::HashSet::new();
    for net in report.critical_nets() {
        if moves.len() >= limit {
            break;
        }
        if Some(net) == netlist.clock {
            continue;
        }
        let m = &models[net.0 as usize];
        let driver = match netlist.net(net).driver {
            NetDriver::Cell { inst, .. } => Some(inst),
            _ => None,
        };
        // Wire-dominated nets get distance repeaters; pin-dominated
        // high-fanout nets get a fanout split (applied iteratively, this
        // grows a buffer tree). Both are the paper's "#buffers".
        let wire_rc = m.r_wire * (0.5 * m.c_wire);
        let stage = r_buf * c_buf;
        let sinks = netlist.net(net).sinks.len();
        if wire_rc > 2.0 * stage {
            let k = repeater_count(m, r_buf, c_buf);
            if k > 0 {
                moves.push(OptMove::BufferNet { net, repeaters: k });
                continue;
            }
        }
        if sinks >= 10 {
            moves.push(OptMove::BufferNet { net, repeaters: 1 });
            continue;
        }
        // Load isolation: a heavy wire on a driver that cannot grow any
        // further is split so each segment carries half the capacitance.
        if let Some(inst) = driver {
            let at_max = lib.upsize(netlist.inst(inst).cell).is_none();
            // Only when the wire charge itself is a large delay (roughly
            // a >200 um run) does splitting pay for the extra stage.
            if at_max && m.c_wire > 25.0 * c_buf {
                moves.push(OptMove::BufferNet { net, repeaters: 1 });
                continue;
            }
        }
        // Otherwise: upsize the driver -- but only when the logical-effort
        // balance favours it: the gain from the stronger drive on this
        // net's load must beat the penalty its larger input pins put on
        // the upstream stage.
        if let Some(inst) = driver {
            if !touched_insts.insert(inst) {
                continue;
            }
            let cur = lib.cell(netlist.inst(inst).cell);
            let Some((_, next)) = lib.upsize(netlist.inst(inst).cell) else {
                continue;
            };
            let load = m.c_wire + netlist.net_pin_cap(net, lib);
            let gain = (cur.r_drive - next.r_drive) * load;
            // Upstream penalty: the worst input net's driver re-drives the
            // extra pin capacitance.
            let mut penalty = 0.0f64;
            for p in 0..cur.input_count() {
                let in_net = netlist.input_net(inst, p as u8);
                let r_up = match netlist.net(in_net).driver {
                    NetDriver::Cell { inst: up, .. } => lib.cell(netlist.inst(up).cell).r_drive,
                    _ => 0.0,
                };
                let d_cap = next.input_cap(p) - cur.input_cap(p);
                penalty = penalty.max(r_up * d_cap);
            }
            if gain > penalty {
                moves.push(OptMove::Upsize(inst));
            }
        }
    }
    moves
}

/// Plans one round of load-based sizing: every driver whose stage delay
/// `r_drive * load` exceeds `tau_ps` steps up one variant; drivers more
/// than 4x faster than the target step down. Called iteratively (loads
/// move as sinks resize), this is the deterministic "map to the load"
/// pass a synthesis tool runs before incremental timing fixes.
pub fn plan_load_sizing(
    netlist: &Netlist,
    lib: &CellLibrary,
    models: &[NetModel],
    tau_ps: f64,
) -> Vec<OptMove> {
    let mut moves = Vec::new();
    for id in netlist.inst_ids() {
        let inst = netlist.inst(id);
        let cell = lib.cell(inst.cell);
        let n_in = cell.input_count();
        let Some(&out) = inst.pins.get(n_in) else {
            continue;
        };
        let load = models[out.0 as usize].c_wire + netlist.net_pin_cap(out, lib);
        let stage = cell.r_drive * load;
        if stage > tau_ps {
            if lib.upsize(inst.cell).is_some() {
                moves.push(OptMove::Upsize(id));
            }
        } else if stage * 4.0 < tau_ps && cell.drive > 1 && !cell.function.is_sequential() {
            moves.push(OptMove::Downsize(id));
        }
    }
    moves
}

/// Plans power recovery: downsizes drivers whose endpoint slack exceeds
/// `slack_margin_ps` (iso-performance power optimization).
pub fn plan_power_recovery(
    netlist: &Netlist,
    lib: &CellLibrary,
    report: &TimingReport,
    slack_margin_ps: f64,
    limit: usize,
) -> Vec<OptMove> {
    if !report.met() {
        return Vec::new();
    }
    // Collect candidates, then keep the `limit` with the biggest payoff:
    // largest drives with the most downstream slack first. Batching small
    // slices lets the caller verify-and-revert incrementally instead of
    // gambling the whole design on one shot.
    let mut candidates: Vec<(m3d_netlist::InstId, u8, f64)> = Vec::new();
    for id in netlist.inst_ids() {
        let inst = netlist.inst(id);
        let cell = lib.cell(inst.cell);
        if cell.drive == 1 || cell.function.is_sequential() {
            continue;
        }
        let n_in = cell.input_count();
        let min_slack = inst.pins[n_in..]
            .iter()
            .map(|&out| report.net_slack(out))
            .fold(f64::INFINITY, f64::min);
        if min_slack > slack_margin_ps {
            candidates.push((id, cell.drive, min_slack));
        }
    }
    candidates.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(b.2.partial_cmp(&a.2).expect("finite slack"))
    });
    candidates
        .into_iter()
        .take(limit)
        .map(|(id, _, _)| OptMove::Downsize(id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_analyze, TimingConfig};
    use m3d_netlist::NetlistBuilder;
    use m3d_tech::{DesignStyle, TechNode};

    fn lib() -> CellLibrary {
        CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD)
    }

    #[test]
    fn met_timing_plans_nothing() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let y = b.gate(CellFunction::Inv, &[x]);
        b.output(y);
        let n = b.finish();
        let models = vec![NetModel::default(); n.net_count()];
        let r = try_analyze(&n, &lib, &models, &TimingConfig::new(10_000.0))
            .expect("timing analysis succeeds");
        assert!(plan_timing_moves(&n, &lib, &models, &r, 10).is_empty());
    }

    #[test]
    fn wire_dominated_nets_get_buffers_gate_dominated_get_sizing() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let a = b.gate(CellFunction::Inv, &[x]);
        let c = b.gate(CellFunction::Inv, &[a]);
        let q = b.dff(c);
        b.output(q);
        let n = b.finish();
        // Net `a` has monstrous wire RC; others are ideal.
        let mut models = vec![NetModel::default(); n.net_count()];
        models[a.0 as usize] = NetModel {
            c_wire: 200.0,
            r_wire: 10.0,
        };
        let r = try_analyze(&n, &lib, &models, &TimingConfig::new(300.0))
            .expect("timing analysis succeeds");
        assert!(!r.met());
        let moves = plan_timing_moves(&n, &lib, &models, &r, 10);
        assert!(
            moves
                .iter()
                .any(|m| matches!(m, OptMove::BufferNet { net, .. } if *net == a)),
            "expected a repeater plan on the fat net, got {moves:?}"
        );
    }

    #[test]
    fn power_recovery_downsizes_only_relaxed_cells() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let y = b.gate(CellFunction::Inv, &[x]);
        b.output(y);
        let mut n = b.finish();
        // Manually upsize the inverter to X4 first.
        let (x4, _) = lib.id_named("INV_X4").expect("INV_X4");
        n.resize(m3d_netlist::InstId(0), x4, &lib);
        let models = vec![NetModel::default(); n.net_count()];
        let r = try_analyze(&n, &lib, &models, &TimingConfig::new(10_000.0))
            .expect("timing analysis succeeds");
        let moves = plan_power_recovery(&n, &lib, &r, 100.0, 10);
        assert_eq!(moves.len(), 1);
        assert!(matches!(moves[0], OptMove::Downsize(_)));
        // With a tight clock there is no recovery.
        let r_tight = try_analyze(&n, &lib, &models, &TimingConfig::new(30.0))
            .expect("timing analysis succeeds");
        assert!(plan_power_recovery(&n, &lib, &r_tight, 100.0, 10).is_empty());
    }

    #[test]
    fn repeater_count_scales_with_wire_rc() {
        let small = NetModel {
            c_wire: 10.0,
            r_wire: 0.5,
        };
        let big = NetModel {
            c_wire: 400.0,
            r_wire: 8.0,
        };
        let (rb, cb) = (5.0, 1.0);
        assert!(repeater_count(&big, rb, cb) > repeater_count(&small, rb, cb));
        assert_eq!(repeater_count(&NetModel::default(), rb, cb), 0);
    }
}
