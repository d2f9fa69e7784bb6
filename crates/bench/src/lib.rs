//! Paper-table regeneration for the `monolith3d` toolkit.
//!
//! Two binaries live here:
//!
//! * **`paper_tables`** — regenerates every table and figure of the
//!   paper at full (default) or reduced (`--small`) benchmark scale
//!   through the shared [`monolith3d::ArtifactCache`]. `paper_tables
//!   all` writes the complete run that `EXPERIMENTS.md` records;
//!   `paper_tables --small --subset` runs the flow-heavy smoke subset.
//! * **`trace_check`** — validates a JSONL event trace against the
//!   observability schema.
//!
//! Timing lives in the repository benchmark (`BENCHMARK.json` and
//! `benchmark/`), which drives these binaries from outside.

use m3d_netlist::BenchScale;
use m3d_tech::NodeId;
use monolith3d::experiments as exp;
use monolith3d::FlowError;

/// Shared command-line parsing for the bench binaries.
pub mod cli {
    use std::fmt;

    use m3d_tech::{NodeId, PdkRegistry};

    /// Typed error from parsing a `--node` process-node name.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum NodeError {
        /// `--node` was the last argument: no name followed it.
        MissingValue,
        /// The name matches no registered PDK.
        Unknown {
            /// What the user typed.
            given: String,
            /// The registered PDK names, in registration order.
            known: Vec<String>,
        },
    }

    impl fmt::Display for NodeError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                NodeError::MissingValue => write!(f, "--node needs a process-node name"),
                NodeError::Unknown { given, known } => write!(
                    f,
                    "unknown node '{given}': registered PDKs are {}",
                    known.join(", ")
                ),
            }
        }
    }

    impl std::error::Error for NodeError {}

    /// Parses a `--node` operand (`None` models a missing one) against
    /// the [`PdkRegistry`]. The error lists every registered name so the
    /// usage line that wraps it is actionable.
    pub fn parse_node(value: Option<&str>) -> Result<NodeId, NodeError> {
        let v = value.ok_or(NodeError::MissingValue)?;
        PdkRegistry::global()
            .by_name(v)
            .ok_or_else(|| NodeError::Unknown {
                given: v.to_string(),
                known: PdkRegistry::global()
                    .names()
                    .iter()
                    .map(|n| n.to_string())
                    .collect(),
            })
    }

    /// Typed error from selecting experiments by name.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct UnknownExperiments {
        /// Every requested name that is not in the registry.
        pub unknown: Vec<String>,
        /// The registry's names, in registry order.
        pub known: Vec<&'static str>,
    }

    impl fmt::Display for UnknownExperiments {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "unknown experiment(s): {:?}\nknown: {}",
                self.unknown,
                self.known.join(" ")
            )
        }
    }

    impl std::error::Error for UnknownExperiments {}

    /// Selects the registry entries `wanted` names, in registry order;
    /// `all` selects every entry. Any name that is neither `all` nor in
    /// the registry rejects the whole selection, so a typo never
    /// silently drops an experiment.
    pub fn select<D: Copy>(
        registry: &[(&'static str, D)],
        wanted: &[String],
    ) -> Result<Vec<(&'static str, D)>, UnknownExperiments> {
        let unknown: Vec<String> = wanted
            .iter()
            .filter(|w| *w != "all" && !registry.iter().any(|(n, _)| n == w))
            .cloned()
            .collect();
        if !unknown.is_empty() {
            return Err(UnknownExperiments {
                unknown,
                known: registry.iter().map(|(n, _)| *n).collect(),
            });
        }
        let all = wanted.iter().any(|w| w == "all");
        Ok(registry
            .iter()
            .filter(|(n, _)| all || wanted.iter().any(|w| w == n))
            .copied()
            .collect())
    }

    /// Typed error from parsing a `--jobs` worker count.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum JobsError {
        /// `--jobs` was the last argument: no value followed it.
        MissingValue,
        /// The value was not an unsigned integer.
        NotANumber(String),
        /// `--jobs 0` asks for an executor with no workers.
        Zero,
    }

    impl fmt::Display for JobsError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                JobsError::MissingValue => write!(f, "--jobs needs a worker count"),
                JobsError::NotANumber(v) => write!(f, "bad --jobs value '{v}': not a number"),
                JobsError::Zero => {
                    write!(
                        f,
                        "--jobs 0 rejected: the executor needs at least one worker"
                    )
                }
            }
        }
    }

    impl std::error::Error for JobsError {}

    /// Parses a `--jobs` operand (`None` models a missing one).
    ///
    /// Zero is rejected rather than clamped: an explicit `--jobs 0` is
    /// a user error, and silently running one worker instead hides it.
    pub fn parse_jobs(value: Option<&str>) -> Result<usize, JobsError> {
        let v = value.ok_or(JobsError::MissingValue)?;
        let n: usize = v
            .parse()
            .map_err(|_| JobsError::NotANumber(v.to_string()))?;
        if n == 0 {
            return Err(JobsError::Zero);
        }
        Ok(n)
    }

    /// Typed error from parsing a `--deadline-s` run budget.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DeadlineError {
        /// `--deadline-s` was the last argument: no value followed it.
        MissingValue,
        /// The value was not a number of seconds.
        NotANumber(String),
        /// The budget was zero, negative, or not finite — a run that can
        /// never admit a single point.
        NotPositive(String),
    }

    impl fmt::Display for DeadlineError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                DeadlineError::MissingValue => {
                    write!(f, "--deadline-s needs a budget in seconds")
                }
                DeadlineError::NotANumber(v) => {
                    write!(f, "bad --deadline-s value '{v}': not a number of seconds")
                }
                DeadlineError::NotPositive(v) => write!(
                    f,
                    "--deadline-s {v} rejected: the run budget must be a positive number of seconds"
                ),
            }
        }
    }

    impl std::error::Error for DeadlineError {}

    /// Parses a `--deadline-s` operand (`None` models a missing one)
    /// into a whole-run wall-clock budget.
    ///
    /// Fractional seconds are accepted (`--deadline-s 0.5`); zero,
    /// negative and non-finite budgets are rejected rather than clamped,
    /// for the same reason `--jobs 0` is.
    pub fn parse_deadline(value: Option<&str>) -> Result<std::time::Duration, DeadlineError> {
        let v = value.ok_or(DeadlineError::MissingValue)?;
        let s: f64 = v
            .parse()
            .map_err(|_| DeadlineError::NotANumber(v.to_string()))?;
        if !s.is_finite() || s <= 0.0 {
            return Err(DeadlineError::NotPositive(v.to_string()));
        }
        Ok(std::time::Duration::from_secs_f64(s))
    }
}

/// One named experiment driver of the `paper_tables` registry: the
/// rendered table, or the [`FlowError`] of the first flow that failed.
pub type PaperDriver = (&'static str, fn(BenchScale) -> Result<String, FlowError>);

/// One named node-generic experiment driver: the `--node` CLI path runs
/// these with the selected [`NodeId`].
pub type NodeDriver = (
    &'static str,
    fn(NodeId, BenchScale) -> Result<String, FlowError>,
);

/// The flow-heavy smoke subset: `paper_tables --subset` runs exactly
/// these drivers, in [`paper_drivers`] order.
pub const SMOKE_SUBSET: [&str; 4] = ["table4", "fig3", "table16", "fig10"];

/// The node-generic smoke-subset drivers. At 45 nm each is its
/// [`paper_drivers`] entry; `table4` at 7 nm is the paper's Table 7;
/// any other node renders the same rows under a generic header. Names
/// mirror [`SMOKE_SUBSET`] exactly so `--subset --node NAME` selects the
/// same work across every backend.
pub fn node_drivers() -> Vec<NodeDriver> {
    vec![
        ("table4", exp::layout_results),
        ("fig3", exp::fig3_circuit_character),
        ("table16", exp::table16_net_breakdown),
        ("fig10", exp::fig10_layer_usage),
    ]
}

/// The full experiment registry, in the order `paper_tables all` runs.
///
/// The node-generic drivers run at their paper node here; the
/// cell-level ones ignore the benchmark scale.
pub fn paper_drivers() -> Vec<PaperDriver> {
    vec![
        ("table1", |_| exp::table1_cell_rc()),
        ("table2", |_| exp::table2_cell_timing_power()),
        ("table3", |_| exp::table3_metal_layers()),
        ("table4", |s| exp::layout_results(NodeId::N45, s)),
        ("table5", exp::table5_prior_work),
        ("table6", |_| exp::table6_node_setup()),
        ("table7", |s| exp::layout_results(NodeId::N7, s)),
        ("table8", exp::table8_pin_cap),
        ("table9", exp::table9_resistivity),
        ("table11", |_| exp::table11_7nm_cells()),
        ("table12", exp::table12_benchmarks),
        ("table15", exp::table15_wlm_impact),
        ("table16", |s| exp::table16_net_breakdown(NodeId::N45, s)),
        ("table17", exp::table17_metal_stack),
        ("fig3", |s| exp::fig3_circuit_character(NodeId::N45, s)),
        ("fig4", exp::fig4_clock_sweep),
        ("fig5", |_| exp::fig5_cell_inventory()),
        ("fig6", exp::fig6_wlm_curves),
        ("fig10", |s| exp::fig10_layer_usage(NodeId::N45, s)),
        ("fig11", exp::fig11_activity_sweep),
        ("s5", exp::fig_s5_blockage),
        ("gmi", monolith3d::gmi::gmi_comparison),
        ("summary", exp::summary_scorecard),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_accepts_positive_counts() {
        assert_eq!(cli::parse_jobs(Some("1")), Ok(1));
        assert_eq!(cli::parse_jobs(Some("4")), Ok(4));
        assert_eq!(cli::parse_jobs(Some("64")), Ok(64));
    }

    #[test]
    fn parse_jobs_rejects_zero_missing_and_junk() {
        assert_eq!(cli::parse_jobs(Some("0")), Err(cli::JobsError::Zero));
        assert_eq!(cli::parse_jobs(None), Err(cli::JobsError::MissingValue));
        assert!(matches!(
            cli::parse_jobs(Some("four")),
            Err(cli::JobsError::NotANumber(_))
        ));
        assert!(matches!(
            cli::parse_jobs(Some("-2")),
            Err(cli::JobsError::NotANumber(_))
        ));
        // The message names the offending value so the usage line that
        // wraps it is actionable.
        let msg = cli::parse_jobs(Some("four")).expect_err("junk").to_string();
        assert!(msg.contains("four"), "got: {msg}");
        let msg = cli::parse_jobs(Some("0")).expect_err("zero").to_string();
        assert!(msg.contains("at least one worker"), "got: {msg}");
    }

    fn names<D>(selected: &[(&'static str, D)]) -> Vec<&'static str> {
        selected.iter().map(|(n, _)| *n).collect()
    }

    fn wanted(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn select_keeps_registry_order_and_all_selects_everything() {
        let drivers = paper_drivers();
        let picked = cli::select(&drivers, &wanted(&["fig3", "table3"])).expect("known names");
        assert_eq!(names(&picked), ["table3", "fig3"]);
        let all = cli::select(&drivers, &wanted(&["all"])).expect("all");
        assert_eq!(names(&all), names(&drivers));
        // `all` next to a known name still selects everything, once.
        let all = cli::select(&drivers, &wanted(&["table3", "all"])).expect("all");
        assert_eq!(names(&all), names(&drivers));
    }

    #[test]
    fn select_rejects_any_unknown_name() {
        let drivers = paper_drivers();
        // A known name next to a typo must not run the known one alone.
        let err = cli::select(&drivers, &wanted(&["table3", "nope"])).expect_err("typo");
        assert_eq!(err.unknown, ["nope"]);
        assert_eq!(err.known, names(&drivers));
        let msg = err.to_string();
        assert!(msg.starts_with("unknown experiment(s)"), "got: {msg}");
        assert!(
            msg.contains("nope") && msg.contains("known: table1 table2"),
            "got: {msg}"
        );
        let err = cli::select(&drivers, &wanted(&["all", "fig99"])).expect_err("typo");
        assert_eq!(err.unknown, ["fig99"]);
    }

    #[test]
    fn node_selection_draws_from_the_node_registry() {
        let drivers = node_drivers();
        let picked = cli::select(&drivers, &wanted(&["fig10", "table4"])).expect("known");
        assert_eq!(names(&picked), ["table4", "fig10"]);
        let all = cli::select(&drivers, &wanted(&["all"])).expect("all");
        assert_eq!(names(&all), SMOKE_SUBSET);
        // Paper-only drivers are not in the `--node` registry.
        let err = cli::select(&drivers, &wanted(&["table4", "fig4"])).expect_err("fig4");
        assert_eq!(err.unknown, ["fig4"]);
        assert_eq!(err.known, SMOKE_SUBSET);
    }

    #[test]
    fn parse_deadline_accepts_positive_seconds() {
        use std::time::Duration;
        assert_eq!(cli::parse_deadline(Some("30")), Ok(Duration::from_secs(30)));
        assert_eq!(
            cli::parse_deadline(Some("0.5")),
            Ok(Duration::from_millis(500))
        );
    }

    #[test]
    fn parse_deadline_rejects_missing_junk_and_nonpositive() {
        assert_eq!(
            cli::parse_deadline(None),
            Err(cli::DeadlineError::MissingValue)
        );
        assert!(matches!(
            cli::parse_deadline(Some("soon")),
            Err(cli::DeadlineError::NotANumber(_))
        ));
        for bad in ["0", "-3", "inf", "NaN"] {
            assert!(
                matches!(
                    cli::parse_deadline(Some(bad)),
                    Err(cli::DeadlineError::NotPositive(_))
                ),
                "'{bad}' must be rejected as non-positive"
            );
        }
        // The message names the offending value so the usage line that
        // wraps it is actionable.
        let msg = cli::parse_deadline(Some("soon"))
            .expect_err("junk")
            .to_string();
        assert!(msg.contains("soon"), "got: {msg}");
        let msg = cli::parse_deadline(Some("0"))
            .expect_err("zero")
            .to_string();
        assert!(msg.contains("positive"), "got: {msg}");
    }

    #[test]
    fn smoke_subset_names_are_registered() {
        let drivers = paper_drivers();
        for name in SMOKE_SUBSET {
            assert!(
                drivers.iter().any(|(n, _)| *n == name),
                "subset driver '{name}' missing from the registry"
            );
        }
    }

    #[test]
    fn parse_node_resolves_every_registered_pdk() {
        for name in m3d_tech::PdkRegistry::global().names() {
            let id = cli::parse_node(Some(name)).expect("registered node parses");
            assert_eq!(id.label(), name);
        }
        assert_eq!(cli::parse_node(Some("45nm")), Ok(NodeId::N45));
        assert_eq!(cli::parse_node(Some("7nm")), Ok(NodeId::N7));
    }

    #[test]
    fn parse_node_rejects_missing_and_unknown_names() {
        assert_eq!(cli::parse_node(None), Err(cli::NodeError::MissingValue));
        let err = cli::parse_node(Some("3nm")).expect_err("unknown node");
        // The message names the bad input and lists every registered
        // PDK so the usage line that wraps it is actionable.
        let msg = err.to_string();
        assert!(msg.contains("3nm"), "got: {msg}");
        for name in m3d_tech::PdkRegistry::global().names() {
            assert!(msg.contains(name), "'{name}' not listed in: {msg}");
        }
    }

    #[test]
    fn node_drivers_mirror_the_smoke_subset() {
        let names: Vec<&str> = node_drivers().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, SMOKE_SUBSET);
    }
}
