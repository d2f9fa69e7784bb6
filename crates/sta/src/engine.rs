use serde::{Deserialize, Serialize};

use m3d_cells::CellLibrary;
use m3d_netlist::{levelize, InstId, Netlist};

use crate::TimingReport;

/// Lumped electrical model of one net, fed from extraction (post-route)
/// or a wire-load estimate (pre-route).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetModel {
    /// Wire capacitance, fF.
    pub c_wire: f64,
    /// Wire resistance driver-to-sinks, kΩ.
    pub r_wire: f64,
}

/// Analysis constraints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Target clock period, ps.
    pub clock_period_ps: f64,
    /// Slew assumed at primary inputs, ps.
    pub input_slew_ps: f64,
    /// Timing budget reserved at primary I/O (ps) — models the external
    /// environment.
    pub io_margin_ps: f64,
}

impl TimingConfig {
    /// Config for a clock period with default I/O assumptions.
    pub fn new(clock_period_ps: f64) -> Self {
        TimingConfig {
            clock_period_ps,
            input_slew_ps: 20.0,
            io_margin_ps: 0.0,
        }
    }
}

/// Timing-analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// `models` was shorter than the net count (one [`NetModel`] per net
    /// is required).
    ModelCountMismatch {
        /// Nets in the design.
        nets: usize,
        /// Models supplied.
        models: usize,
    },
    /// The netlist contains a combinational cycle, so no topological
    /// order — and no arrival times — exist.
    CombinationalCycle {
        /// Number of instances trapped in cyclic regions.
        involved: usize,
    },
    /// The [`TimingGraph`] was built for another topology: repeaters
    /// were inserted since, and the graph must be rebuilt.
    StaleGraph {
        /// Instances and nets the graph was built for.
        built: (usize, usize),
        /// Instances and nets the netlist has now.
        found: (usize, usize),
    },
}

impl std::fmt::Display for StaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaError::ModelCountMismatch { nets, models } => write!(
                f,
                "timing needs one net model per net: {nets} nets but {models} models"
            ),
            StaError::CombinationalCycle { involved } => write!(
                f,
                "combinational cycle: {involved} instances have no topological order"
            ),
            StaError::StaleGraph { built, found } => write!(
                f,
                "stale timing graph: built for {} instances and {} nets, netlist has {} and {}",
                built.0, built.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for StaError {}

/// Runs static timing analysis: builds a [`TimingGraph`] and
/// propagates over it once.
///
/// `models` must be indexed by `NetId` (one entry per net).
///
/// # Errors
///
/// Returns [`StaError`] on a model-count mismatch or a combinational
/// cycle.
pub fn try_analyze(
    netlist: &Netlist,
    lib: &CellLibrary,
    models: &[NetModel],
    config: &TimingConfig,
) -> Result<TimingReport, StaError> {
    TimingGraph::build(netlist, lib)?.analyze(netlist, lib, models, config)
}

/// The levelized timing graph of one netlist topology: the topological
/// order STA propagates in.
///
/// Resizing a cell keeps the topology, so one graph serves any number
/// of resizes. Inserting a repeater adds an instance and a net, after
/// which the graph must be rebuilt: [`TimingGraph::analyze`] refuses a
/// netlist whose instance or net count differs from the one the graph
/// was built for.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    order: Vec<InstId>,
    instances: usize,
    nets: usize,
}

impl TimingGraph {
    /// Levelizes `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::CombinationalCycle`] when no topological
    /// order exists.
    pub fn build(netlist: &Netlist, lib: &CellLibrary) -> Result<Self, StaError> {
        let (_, order) = levelize(netlist, lib).map_err(|cycle| StaError::CombinationalCycle {
            involved: cycle.len(),
        })?;
        Ok(TimingGraph {
            order,
            instances: netlist.instance_count(),
            nets: netlist.net_count(),
        })
    }

    /// Propagates arrival times, slews and slacks over the graph —
    /// bit-identical to [`try_analyze`] on the same netlist.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::StaleGraph`] when the netlist's instance or
    /// net count no longer matches the graph, and
    /// [`StaError::ModelCountMismatch`] when `models` is short.
    pub fn analyze(
        &self,
        netlist: &Netlist,
        lib: &CellLibrary,
        models: &[NetModel],
        config: &TimingConfig,
    ) -> Result<TimingReport, StaError> {
        let found = (netlist.instance_count(), netlist.net_count());
        if found != (self.instances, self.nets) {
            return Err(StaError::StaleGraph {
                built: (self.instances, self.nets),
                found,
            });
        }
        if models.len() < netlist.net_count() {
            return Err(StaError::ModelCountMismatch {
                nets: netlist.net_count(),
                models: models.len(),
            });
        }
        Ok(propagate(netlist, lib, models, config, &self.order))
    }
}

/// Forward arrival/slew propagation in `order`, endpoint checks, and the
/// backward per-net slack sweep.
fn propagate(
    netlist: &Netlist,
    lib: &CellLibrary,
    models: &[NetModel],
    config: &TimingConfig,
    order: &[InstId],
) -> TimingReport {
    let n_nets = netlist.net_count();
    let mut arrival = vec![0.0f64; n_nets];
    let mut min_arrival = vec![0.0f64; n_nets];
    let mut slew = vec![config.input_slew_ps; n_nets];

    // Primary inputs start at the I/O margin.
    for &pi in &netlist.primary_inputs {
        arrival[pi.0 as usize] = config.io_margin_ps;
    }

    // Process instances in topological order (flops first, then combs).
    for &inst_id in order {
        let inst = netlist.inst(inst_id);
        let cell = lib.cell(inst.cell);
        let n_in = cell.input_count();
        let seq = cell.function.is_sequential();

        // Worst input arrival/slew. A flop launches from the clock pin
        // instead of D.
        let (arr_in, slew_in) = if seq {
            let ck = inst.pins[1];
            (arrival[ck.0 as usize], slew[ck.0 as usize].max(10.0))
        } else {
            let mut a = f64::NEG_INFINITY;
            let mut s = 0.0f64;
            for p in 0..n_in {
                let net = inst.pins[p];
                let na = arrival[net.0 as usize];
                if na > a {
                    a = na;
                }
                s = s.max(slew[net.0 as usize]);
            }
            (a.max(0.0), s)
        };

        for &out_net in &inst.pins[n_in..] {
            let out_idx = out_net.0 as usize;
            let m = models[out_idx];
            // A net has one driver, so each net's pin caps are summed once.
            let pins = netlist.net_pin_cap(out_net, lib);
            // Effective load: wire plus sink pin caps.
            let load = m.c_wire + pins;
            let gate_delay = cell.delay.lookup(slew_in, load);
            // Lumped Elmore from driver through the wire into the pins.
            let net_delay = m.r_wire * (0.5 * m.c_wire + pins);
            let launch = if seq {
                arrival[inst.pins[1].0 as usize]
            } else {
                arr_in
            };
            let a_out = launch + gate_delay + net_delay;
            if a_out > arrival[out_idx] {
                arrival[out_idx] = a_out;
            }
            // Fastest (hold) arrival: the earliest input through the same
            // arc; sequential launches restart at CK.
            let min_in = if seq {
                min_arrival[inst.pins[1].0 as usize]
            } else {
                (0..n_in)
                    .map(|p| min_arrival[inst.pins[p].0 as usize])
                    .fold(f64::INFINITY, f64::min)
                    .max(0.0)
            };
            let min_out = min_in + gate_delay + net_delay;
            if min_arrival[out_idx] == 0.0 || min_out < min_arrival[out_idx] {
                min_arrival[out_idx] = min_out;
            }
            // Output slew, degraded across the wire RC.
            let s_drv = cell.out_slew.lookup(slew_in, load);
            let wire_tau = 2.2 * m.r_wire * (0.5 * m.c_wire + pins);
            slew[out_idx] = (s_drv * s_drv + wire_tau * wire_tau).sqrt();
        }
    }

    // Endpoints: flop D pins (with setup) and primary outputs.
    let t = config.clock_period_ps;
    let mut wns = f64::INFINITY;
    let mut hold_wns = f64::INFINITY;
    let mut tns = 0.0;
    let mut endpoint_count = 0usize;
    let mut worst_endpoint = None;
    let mut slack_at_net = vec![f64::INFINITY; n_nets];
    for id in netlist.inst_ids() {
        let inst = netlist.inst(id);
        let cell = lib.cell(inst.cell);
        if !cell.function.is_sequential() {
            continue;
        }
        let d_net = inst.pins[0];
        let setup = cell.seq.map(|s| s.setup_ps).unwrap_or(0.0);
        let hold = cell.seq.map(|s| s.hold_ps).unwrap_or(0.0);
        // Same-edge hold check: the fastest new data must not outrun the
        // capture of the previous value. Port-driven D pins are excluded
        // (external input timing is not modeled).
        if matches!(
            netlist.net(d_net).driver,
            m3d_netlist::NetDriver::Cell { .. }
        ) {
            hold_wns = hold_wns.min(min_arrival[d_net.0 as usize] - hold);
        }
        let slack = t - setup - arrival[d_net.0 as usize];
        slack_at_net[d_net.0 as usize] = slack_at_net[d_net.0 as usize].min(slack);
        endpoint_count += 1;
        if slack < wns {
            wns = slack;
            worst_endpoint = Some(d_net);
        }
        if slack < 0.0 {
            tns += slack;
        }
    }
    for &po in &netlist.primary_outputs {
        let slack = t - config.io_margin_ps - arrival[po.0 as usize];
        slack_at_net[po.0 as usize] = slack_at_net[po.0 as usize].min(slack);
        endpoint_count += 1;
        if slack < wns {
            wns = slack;
            worst_endpoint = Some(po);
        }
        if slack < 0.0 {
            tns += slack;
        }
    }
    if endpoint_count == 0 {
        wns = t;
    }
    if !hold_wns.is_finite() {
        hold_wns = 0.0;
    }

    // Backward required-time propagation for per-net slack (approximate:
    // propagate the endpoint slack back along worst arrival chains).
    // For optimization purposes the endpoint-slack map plus arrival is
    // sufficient; compute per-net slack as min over downstream endpoints
    // reached through a reverse sweep.
    let mut slack = slack_at_net;
    for &inst_id in order.iter().rev() {
        let inst = netlist.inst(inst_id);
        let cell = lib.cell(inst.cell);
        if cell.function.is_sequential() {
            continue; // D endpoints already seeded; Q starts fresh paths
        }
        let n_in = cell.input_count();
        let mut out_slack = f64::INFINITY;
        for &out_net in &inst.pins[n_in..] {
            out_slack = out_slack.min(slack[out_net.0 as usize]);
        }
        for p in 0..n_in {
            let net = inst.pins[p].0 as usize;
            slack[net] = slack[net].min(out_slack);
        }
    }

    TimingReport {
        arrival,
        slew,
        slack,
        wns,
        hold_wns,
        tns,
        clock_period_ps: t,
        worst_endpoint,
    }
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

    fn chain(lib: &CellLibrary, k: usize) -> Netlist {
        let mut b = NetlistBuilder::new(lib, "chain");
        let mut x = b.input();
        x = b.dff(x);
        for _ in 0..k {
            x = b.gate(CellFunction::Inv, &[x]);
        }
        let q = b.dff(x);
        b.output(q);
        b.finish()
    }

    #[test]
    fn longer_chains_have_less_slack() {
        let lib = lib();
        let models = |n: &Netlist| vec![NetModel::default(); n.net_count()];
        let short = chain(&lib, 2);
        let long = chain(&lib, 20);
        let cfg = TimingConfig::new(1000.0);
        let r_short =
            try_analyze(&short, &lib, &models(&short), &cfg).expect("timing analysis succeeds");
        let r_long =
            try_analyze(&long, &lib, &models(&long), &cfg).expect("timing analysis succeeds");
        assert!(r_long.wns < r_short.wns);
    }

    #[test]
    fn wire_resistance_adds_delay() {
        let lib = lib();
        let n = chain(&lib, 4);
        let cfg = TimingConfig::new(1000.0);
        let ideal = try_analyze(&n, &lib, &vec![NetModel::default(); n.net_count()], &cfg)
            .expect("timing analysis succeeds");
        let heavy = try_analyze(
            &n,
            &lib,
            &vec![
                NetModel {
                    c_wire: 20.0,
                    r_wire: 2.0,
                };
                n.net_count()
            ],
            &cfg,
        )
        .expect("timing analysis succeeds");
        assert!(heavy.wns < ideal.wns - 100.0, "wire RC must matter");
    }

    #[test]
    fn violating_clock_gives_negative_wns_and_tns() {
        let lib = lib();
        let n = chain(&lib, 40);
        let cfg = TimingConfig::new(100.0); // far too fast
        let r = try_analyze(&n, &lib, &vec![NetModel::default(); n.net_count()], &cfg)
            .expect("timing analysis succeeds");
        assert!(r.wns < 0.0);
        assert!(r.tns <= r.wns);
        assert!(r.worst_endpoint.is_some());
    }

    #[test]
    fn slew_degrades_over_resistive_nets() {
        let lib = lib();
        let n = chain(&lib, 1);
        let cfg = TimingConfig::new(1000.0);
        let ideal = try_analyze(&n, &lib, &vec![NetModel::default(); n.net_count()], &cfg)
            .expect("timing analysis succeeds");
        let resistive = try_analyze(
            &n,
            &lib,
            &vec![
                NetModel {
                    c_wire: 30.0,
                    r_wire: 3.0,
                };
                n.net_count()
            ],
            &cfg,
        )
        .expect("timing analysis succeeds");
        let max_slew_ideal = ideal.slew.iter().cloned().fold(0.0, f64::max);
        let max_slew_res = resistive.slew.iter().cloned().fold(0.0, f64::max);
        assert!(max_slew_res > max_slew_ideal);
    }

    #[test]
    fn worst_path_walks_back_to_the_launch_flop() {
        let lib = lib();
        let n = chain(&lib, 5);
        let cfg = TimingConfig::new(100.0);
        let r = try_analyze(&n, &lib, &vec![NetModel::default(); n.net_count()], &cfg)
            .expect("timing analysis succeeds");
        let path = r.worst_path(&n, &lib);
        // Endpoint (D of the capture flop) back through 5 inverters to
        // the launch flop's Q: 6 hops.
        assert_eq!(path.len(), 6, "{path:#?}");
        assert!(path[0].driver.starts_with("INV"));
        assert!(path.last().expect("non-empty").driver.starts_with("DFF"));
        // Arrivals decrease walking backwards.
        for pair in path.windows(2) {
            assert!(pair[0].arrival_ps >= pair[1].arrival_ps);
        }
    }

    #[test]
    fn hold_is_met_when_logic_outweighs_hold_time() {
        let lib = lib();
        let n = chain(&lib, 3);
        let cfg = TimingConfig::new(1000.0);
        let r = try_analyze(&n, &lib, &vec![NetModel::default(); n.net_count()], &cfg)
            .expect("timing analysis succeeds");
        // Three inverters of delay dwarf the 2 ps hold requirement.
        assert!(r.hold_wns > 0.0, "hold wns {}", r.hold_wns);
    }

    #[test]
    fn direct_flop_to_flop_path_has_least_hold_margin() {
        let lib = lib();
        let short = chain(&lib, 0); // Q feeds the next D directly
        let long = chain(&lib, 6);
        let cfg = TimingConfig::new(1000.0);
        let models = |n: &Netlist| vec![NetModel::default(); n.net_count()];
        let r_short =
            try_analyze(&short, &lib, &models(&short), &cfg).expect("timing analysis succeeds");
        let r_long =
            try_analyze(&long, &lib, &models(&long), &cfg).expect("timing analysis succeeds");
        assert!(
            r_short.hold_wns < r_long.hold_wns,
            "short {} long {}",
            r_short.hold_wns,
            r_long.hold_wns
        );
    }

    #[test]
    fn per_net_slack_decreases_upstream_of_violations() {
        let lib = lib();
        let n = chain(&lib, 30);
        let cfg = TimingConfig::new(200.0);
        let r = try_analyze(&n, &lib, &vec![NetModel::default(); n.net_count()], &cfg)
            .expect("timing analysis succeeds");
        // Every net on the single chain shares the endpoint slack.
        let negative: usize = r.slack.iter().filter(|&&s| s < 0.0).count();
        assert!(negative > 25, "violation should cover the chain");
    }
}
