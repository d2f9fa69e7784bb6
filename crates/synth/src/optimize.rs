use serde::{Deserialize, Serialize};

use m3d_cells::{CellFunction, CellLibrary};
use m3d_netlist::Netlist;
use m3d_sta::{plan_timing_moves, try_analyze, NetModel, OptMove, StaError, TimingConfig};
use m3d_tech::{MetalClass, MetalStack, TechNode, WireRc};

use crate::WireLoadModel;

/// Synthesis-optimization configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Target clock period, ps.
    pub clock_ps: f64,
    /// Maximum optimization passes.
    pub passes: usize,
    /// Moves applied per pass.
    pub moves_per_pass: usize,
}

impl SynthConfig {
    /// Defaults for a clock target.
    pub fn new(clock_ps: f64) -> Self {
        SynthConfig {
            clock_ps,
            passes: 6,
            moves_per_pass: 4000,
        }
    }
}

/// Estimated per-net electrical models from a wire-load model: length by
/// fanout, unit RC by the metal class a net of that length would ride.
pub fn wlm_net_models(
    netlist: &Netlist,
    wlm: &WireLoadModel,
    node: &TechNode,
    stack: &MetalStack,
) -> Vec<NetModel> {
    let s = node.dimension_scale();
    let thresholds = (30.0 * s, 140.0 * s);
    let rc_of = |class: MetalClass| -> WireRc {
        let layer = stack
            .layers_of(class)
            .next()
            .expect("class present in stack");
        WireRc::for_layer(node, layer)
    };
    let rc_local = rc_of(MetalClass::Local);
    let rc_mid = rc_of(MetalClass::Intermediate);
    let rc_global = rc_of(MetalClass::Global);
    netlist
        .net_ids()
        .map(|id| {
            let sinks = netlist.net(id).sinks.len();
            let len = wlm.estimate_um(sinks);
            let rc = if len <= thresholds.0 {
                rc_local
            } else if len <= thresholds.1 {
                rc_mid
            } else {
                rc_global
            };
            NetModel {
                c_wire: rc.capacitance(len),
                r_wire: rc.resistance(len),
            }
        })
        .collect()
}

/// Synthesis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// Target clock non-finite or non-positive.
    InvalidClock(f64),
    /// Timing analysis inside the optimization loop failed.
    Timing(StaError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::InvalidClock(c) => {
                write!(f, "synthesis clock target must be positive, got {c} ps")
            }
            SynthError::Timing(e) => write!(f, "timing analysis during synthesis: {e}"),
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::Timing(e) => Some(e),
            SynthError::InvalidClock(_) => None,
        }
    }
}

impl From<StaError> for SynthError {
    fn from(e: StaError) -> Self {
        SynthError::Timing(e)
    }
}

/// WLM-guided synthesis optimization: sizing and buffering until the
/// clock is met at the WLM estimate or the pass budget is exhausted.
///
/// Buffers are inserted *logically* (no placement yet): the farther half
/// of a net's sinks — by the WLM there is no geometry, so simply half the
/// fanout — moves behind the repeater.
///
/// # Errors
///
/// Returns [`SynthError`] when the clock target is degenerate or the
/// netlist cannot be timed (combinational cycle, model mismatch).
pub fn try_synthesize(
    mut netlist: Netlist,
    lib: &CellLibrary,
    wlm: &WireLoadModel,
    config: &SynthConfig,
) -> Result<Netlist, SynthError> {
    if !(config.clock_ps.is_finite() && config.clock_ps > 0.0) {
        return Err(SynthError::InvalidClock(config.clock_ps));
    }
    let node = lib.node().clone();
    let stack = MetalStack::new(&node, lib.style().default_stack());
    let timing = TimingConfig::new(config.clock_ps);
    let buf = lib.smallest(CellFunction::Buf);
    for _pass in 0..config.passes {
        let models = wlm_net_models(&netlist, wlm, &node, &stack);
        let report = try_analyze(&netlist, lib, &models, &timing)?;
        if report.met() {
            break;
        }
        let limit = config.moves_per_pass.max(netlist.net_count() / 3);
        let moves = plan_timing_moves(&netlist, lib, &models, &report, limit);
        if moves.is_empty() {
            break;
        }
        for m in moves {
            match m {
                OptMove::Upsize(inst) => {
                    if let Some((bigger, _)) = lib.upsize(netlist.inst(inst).cell) {
                        netlist.resize(inst, bigger, lib);
                    }
                }
                OptMove::Downsize(inst) => {
                    if let Some((smaller, _)) = lib.downsize(netlist.inst(inst).cell) {
                        netlist.resize(inst, smaller, lib);
                    }
                }
                OptMove::BufferNet { net, repeaters } => {
                    // Pre-placement: peel the farther half of the sinks
                    // (all of them for a two-pin net) behind one repeater
                    // per requested stage (bounded).
                    let mut current = net;
                    for _ in 0..repeaters.min(2) {
                        let sinks = netlist.net(current).sinks.len();
                        if sinks == 0 {
                            break;
                        }
                        let take: Vec<usize> = (sinks / 2..sinks).collect();
                        let (_, new_net) = netlist.insert_repeater(current, &take, buf, lib);
                        current = new_net;
                    }
                }
            }
        }
    }
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_sta::try_analyze;
    use m3d_tech::DesignStyle;

    fn ctx() -> (TechNode, CellLibrary, Netlist) {
        let node = TechNode::n45();
        let lib = CellLibrary::build(&node, DesignStyle::TwoD);
        let n = Benchmark::Fpu.generate(&lib, BenchScale::Small);
        (node, lib, n)
    }

    #[test]
    fn wlm_models_scale_with_fanout() {
        let (node, lib, n) = ctx();
        let stack = MetalStack::new(&node, m3d_tech::StackKind::TwoD);
        let wlm = WireLoadModel::uniform(5.0, 3.0);
        let models = wlm_net_models(&n, &wlm, &node, &stack);
        // Find a high-fanout and a low-fanout net.
        let mut hi = (0, 0usize);
        for id in n.net_ids() {
            let s = n.net(id).sinks.len();
            if s > hi.1 && Some(id) != n.clock {
                hi = (id.0 as usize, s);
            }
        }
        let lo = n
            .net_ids()
            .find(|&id| n.net(id).sinks.len() == 1)
            .expect("some single-sink net");
        assert!(models[hi.0].c_wire > models[lo.0 as usize].c_wire);
        let _ = lib;
    }

    #[test]
    fn synthesis_fixes_timing_by_adding_area() {
        let (node, lib, n) = ctx();
        let stack = MetalStack::new(&node, m3d_tech::StackKind::TwoD);
        // A heavy WLM creates violations at a moderate clock.
        let wlm = WireLoadModel::uniform(40.0, 20.0);
        let models = wlm_net_models(&n, &wlm, &node, &stack);
        let before = try_analyze(&n, &lib, &models, &TimingConfig::new(2500.0))
            .expect("timing analysis succeeds");
        let cells_before = n.instance_count();
        let out =
            try_synthesize(n, &lib, &wlm, &SynthConfig::new(2500.0)).expect("synthesis succeeds");
        let models2 = wlm_net_models(&out, &wlm, &node, &stack);
        let after = try_analyze(&out, &lib, &models2, &TimingConfig::new(2500.0))
            .expect("timing analysis succeeds");
        assert!(
            after.wns > before.wns,
            "optimization must improve WNS ({} -> {})",
            before.wns,
            after.wns
        );
        assert!(
            out.instance_count() >= cells_before,
            "buffers/sizing never remove cells here"
        );
    }

    #[test]
    fn met_designs_are_untouched() {
        let (_, lib, n) = ctx();
        let wlm = WireLoadModel::uniform(1.0, 0.5);
        let before = n.instance_count();
        let out = try_synthesize(n, &lib, &wlm, &SynthConfig::new(1_000_000.0))
            .expect("synthesis succeeds");
        assert_eq!(out.instance_count(), before);
    }
}
