//! Experiment drivers: one function per table/figure of the paper.
//!
//! Every driver regenerates its artifact from scratch — cell library,
//! layouts, extraction, full physical flows — and returns a formatted
//! report comparing the measured values against the paper's published
//! numbers, or the [`FlowError`] of the first flow or library build
//! that fails. The `paper_tables` binary (in `m3d-bench`) exposes them on
//! the command line; `EXPERIMENTS.md` records a full run.
//!
//! | driver | paper artifact |
//! |---|---|
//! | [`table1_cell_rc`] | Table 1 — cell-internal parasitic RC |
//! | [`table2_cell_timing_power`] | Table 2 — SPICE cell delay/power |
//! | [`table3_metal_layers`] | Table 3 — metal layer summary |
//! | [`layout_results`] at 45 nm | Tables 4 & 13 — 45 nm layout results |
//! | [`table5_prior_work`] | Table 5 — comparison with prior works |
//! | [`fig3_circuit_character`] | Fig. 3 — LDPC vs DES layout character |
//! | [`fig4_clock_sweep`] | Fig. 4 — power benefit vs target clock |
//! | [`table6_node_setup`] | Table 6 — 45 nm vs 7 nm setup |
//! | [`layout_results`] at 7 nm | Tables 7 & 14 — 7 nm layout results |
//! | [`table8_pin_cap`] | Table 8 — pin-cap reduction study |
//! | [`table9_resistivity`] | Table 9 — lower metal resistivity |
//! | [`table11_7nm_cells`] | Table 11 — 7 nm cell characterization |
//! | [`table12_benchmarks`] | Table 12 — benchmark synthesis results |
//! | [`table15_wlm_impact`] | Table 15 — T-MI wire-load-model impact |
//! | [`table16_net_breakdown`] | Table 16 — wire vs pin capacitance |
//! | [`table17_metal_stack`] | Table 17 — T-MI+M metal stack |
//! | [`fig5_cell_inventory`] | Fig. 5 — the T-MI cell library |
//! | [`fig6_wlm_curves`] | Fig. 6 — fanout vs wirelength WLMs |
//! | [`fig10_layer_usage`] | Fig. 10 — per-class metal usage |
//! | [`fig11_activity_sweep`] | Fig. 11 — switching-activity sweep |
//! | [`fig_s5_blockage`] | S5 — MIV/MB1 blockage impact |

mod cells_exp;
mod layout_exp;
mod sweeps;

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};

use crate::{Comparison, ExperimentPlan, Flow, FlowConfig, FlowError, FlowResult};

/// One row of a flow driver's table: what the row prints (`label`) and
/// the flow point it runs — `bench` under `cfg`, in one `style`, or as
/// the iso-performance 2D/T-MI pair when `style` is `None`.
///
/// Each flow driver lists its rows once, in row order, in a `*_rows`
/// function. The driver renders by iterating that list, and
/// [`plan_for_at`] plans from the same list, so the pre-warm plan
/// cannot drift from the flows the driver runs.
#[derive(Debug)]
pub(crate) struct Row<L = ()> {
    pub(crate) label: L,
    pub(crate) bench: Benchmark,
    pub(crate) style: Option<DesignStyle>,
    pub(crate) cfg: FlowConfig,
}

impl<L> Row<L> {
    /// A row comparing the 2D and T-MI implementations.
    pub(crate) fn pair(label: L, bench: Benchmark, cfg: FlowConfig) -> Self {
        Row {
            label,
            bench,
            style: None,
            cfg,
        }
    }

    /// A row running one style only.
    pub(crate) fn single(label: L, bench: Benchmark, style: DesignStyle, cfg: FlowConfig) -> Self {
        Row {
            label,
            bench,
            style: Some(style),
            cfg,
        }
    }

    /// Runs a pair row's iso-performance comparison.
    pub(crate) fn compare(&self) -> Result<Comparison, FlowError> {
        assert!(self.style.is_none(), "a single-style row has no pair");
        Comparison::try_run(self.bench, &self.cfg)
    }

    /// Runs a single-style row's flow.
    pub(crate) fn run(&self) -> Result<FlowResult, FlowError> {
        let style = self.style.expect("a pair row runs two flows");
        Flow::new(self.bench, style, self.cfg.clone()).try_run()
    }
}

fn plan_rows<L>(plan: &mut ExperimentPlan, rows: Vec<Row<L>>) {
    for r in rows {
        match r.style {
            Some(style) => {
                plan.push(r.bench, style, r.cfg);
            }
            None => plan.push_comparison(r.bench, &r.cfg),
        }
    }
}

/// The flow points the named driver runs at `node`, in the driver's
/// row order, so the [`crate::ParallelExecutor`] can pre-warm the
/// shared [`crate::ArtifactCache`] before the driver formats its table
/// from (bit-identical) cache hits.
///
/// The node-generic drivers (`table4`, `fig3`, `table16`, `fig10` — the
/// CLI `--node` registry) run at `node`; every other driver pins the
/// node its paper table reports, and ignores `node`. Drivers that run
/// no full flows (the cell-level experiments, `table12`, `fig6`)
/// return an empty plan, as does an unknown name (the `paper_tables`
/// registry owns name validation).
///
/// Merge the per-driver plans of a whole run into one
/// [`ExperimentPlan`]: the `FlowKey` dedup collapses the many points
/// the tables share (e.g. Table 4's baselines reappear in Table 5, the
/// scorecard and the G-MI study).
pub fn plan_for_at(name: &str, scale: BenchScale, node: NodeId) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new();
    let p = &mut plan;
    match name {
        "table4" => plan_rows(p, layout_exp::layout_rows(node, scale)),
        "table5" => plan_rows(p, layout_exp::table5_rows(scale)),
        "table7" => plan_rows(p, layout_exp::layout_rows(NodeId::N7, scale)),
        "table8" => plan_rows(p, sweeps::table8_rows(scale)),
        "table9" => plan_rows(p, sweeps::table9_rows(scale)),
        "table15" => plan_rows(p, sweeps::table15_rows(scale)),
        "table16" => plan_rows(p, layout_exp::table16_rows(node, scale)),
        "table17" => plan_rows(p, sweeps::table17_rows(scale)),
        "fig3" => plan_rows(p, layout_exp::fig3_rows(node, scale)),
        "fig4" => plan_rows(p, sweeps::fig4_rows(scale)),
        "fig10" => plan_rows(p, sweeps::fig10_rows(node, scale)),
        "fig11" => plan_rows(p, sweeps::fig11_rows(scale)),
        "s5" => plan_rows(p, sweeps::s5_rows(scale)),
        "gmi" => plan_rows(p, crate::gmi::gmi_rows(scale)),
        "summary" => plan_rows(p, sweeps::summary_rows(scale)),
        _ => {}
    }
    plan
}

/// [`plan_for_at`] at the paper's 45 nm default node.
pub fn plan_for(name: &str, scale: BenchScale) -> ExperimentPlan {
    plan_for_at(name, scale, NodeId::N45)
}

pub use cells_exp::{
    fig5_cell_inventory, table11_7nm_cells, table1_cell_rc, table2_cell_timing_power,
    table3_metal_layers, table6_node_setup,
};
pub use layout_exp::{
    fig3_circuit_character, fig6_wlm_curves, layout_results, table12_benchmarks,
    table16_net_breakdown, table5_prior_work,
};
pub use sweeps::{
    fig10_layer_usage, fig11_activity_sweep, fig4_clock_sweep, fig_s5_blockage, summary_scorecard,
    table15_wlm_impact, table17_metal_stack, table8_pin_cap, table9_resistivity,
};

#[cfg(test)]
mod plan_tests {
    use super::*;

    #[test]
    fn flow_drivers_have_nonempty_plans() {
        for name in [
            "table4", "table5", "table7", "table8", "table9", "table15", "table16", "table17",
            "fig3", "fig4", "fig10", "fig11", "s5", "summary", "gmi",
        ] {
            assert!(
                !plan_for(name, BenchScale::Small).is_empty(),
                "driver '{name}' should enumerate flow points"
            );
        }
    }

    #[test]
    fn cell_drivers_and_unknown_names_plan_nothing() {
        for name in [
            "table1", "table2", "table3", "table6", "table11", "table12", "fig5", "fig6", "nope",
        ] {
            assert!(
                plan_for(name, BenchScale::Small).is_empty(),
                "'{name}' plans no flows"
            );
        }
    }

    #[test]
    fn merged_plans_dedup_shared_points() {
        let mut merged = ExperimentPlan::new();
        merged.merge(plan_for("table4", BenchScale::Small));
        let table4 = merged.len();
        // Table 5, the scorecard and the G-MI study only re-run Table 4
        // baselines: merging them must add nothing.
        merged.merge(plan_for("table5", BenchScale::Small));
        merged.merge(plan_for("summary", BenchScale::Small));
        merged.merge(plan_for("gmi", BenchScale::Small));
        assert_eq!(merged.len(), table4);
        // A sensitivity sweep shares its base point but adds the rest.
        merged.merge(plan_for("fig11", BenchScale::Small));
        assert!(merged.len() > table4);
    }
}
