//! Regenerates the paper's tables and figures.
//!
//! ```text
//! paper_tables [--small] [--subset] [--node NAME] [--jobs N] [--deadline-s N]
//!              [--cache-dir DIR] [--trace FILE] <experiment | all>
//! ```
//!
//! Experiments: table1 table2 table3 table4 table5 table6 table7 table8
//! table9 table11 table12 table15 table16 table17 fig3 fig4 fig5 fig6
//! fig10 fig11 s5 gmi (the G-MI extension study) summary (the
//! reproduction scorecard). A name outside the registry rejects the
//! whole run with exit status 2.
//!
//! `--small` runs the reduced benchmark circuits (seconds); the default
//! paper scale regenerates the full study (minutes). `--subset` selects
//! the flow-heavy smoke subset.
//!
//! `--node NAME` retargets the run to any PDK in the process-node
//! registry (`45nm`, `7nm`, `fdsoi-miv`, plus any plug-in). With
//! `--node` the experiment registry is the node-generic smoke subset;
//! at the two paper nodes its stdout is byte-identical to the classic
//! drivers, and any other backend renders generic tables for its node.
//!
//! `--jobs N` (default: the host's available parallelism) fans the
//! selected drivers' flow matrix out across N workers *before* the
//! drivers run: the workers pre-warm the process-wide `ArtifactCache`
//! through the `ParallelExecutor`, then each driver formats its table
//! from bit-identical cache hits. stdout is therefore
//! **byte-identical** for every `--jobs` value (`--jobs 1` skips the
//! fan-out entirely); all diagnostics — per-driver timings, executor
//! utilization, cache statistics — go to stderr.
//!
//! `--deadline-s N` puts the pre-warm fan-out under a whole-run
//! wall-clock budget, armed on the fan-out's run token: when the budget
//! expires the executor cancels cooperatively and returns whatever
//! points completed. stdout is still byte-identical — a driver whose
//! points were cancelled simply recomputes them serially — so the flag
//! bounds only the parallel leg, never the answer. Fractional seconds
//! are accepted. With `--jobs 1` there is no fan-out to govern and the
//! flag is a no-op.
//!
//! `--trace FILE` attaches a [`JsonlRecorder`] to the run: every flow
//! event (stage spans, cache and store traffic, a fired run token) is
//! appended to FILE as one JSON object per line. `trace_check FILE`
//! validates it and prints its span count and wall time per stage. The
//! trace is a diagnostic: stdout stays byte-identical whether or not it
//! is written.
//!
//! `--cache-dir DIR` attaches a persistent [`DiskStore`] under DIR: cell
//! libraries, flow results, SPICE tables and G-MI results survive the
//! process, so a second invocation with the same DIR re-characterizes,
//! re-simulates and re-partitions nothing and reprints
//! the same tables from verified disk hits. The store is self-checking —
//! a corrupt or truncated entry is quarantined and rebuilt, never
//! served — and any I/O trouble degrades the run back to the in-memory
//! tier, so `--cache-dir` can never change stdout, only the time it
//! takes to produce it.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use m3d_bench::{cli, node_drivers, paper_drivers, SMOKE_SUBSET};
use m3d_netlist::BenchScale;
use m3d_tech::NodeId;
use monolith3d::{
    experiments, ArtifactCache, CancelToken, DiskStore, ExperimentPlan, JsonlRecorder,
    ParallelExecutor, Recorder,
};

fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: paper_tables [--small] [--subset] [--node NAME] [--jobs N] \
         [--deadline-s N] [--cache-dir DIR] [--trace FILE] <experiment | all>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut small = false;
    let mut subset = false;
    let mut node: Option<NodeId> = None;
    let mut jobs = ParallelExecutor::default_workers();
    let mut deadline: Option<Duration> = None;
    let mut trace_path: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small" => small = true,
            "--subset" => subset = true,
            "--node" => {
                node = Some(
                    cli::parse_node(it.next().map(String::as_str))
                        .unwrap_or_else(|e| usage_exit(&e.to_string())),
                );
            }
            "--jobs" => {
                jobs = cli::parse_jobs(it.next().map(String::as_str))
                    .unwrap_or_else(|e| usage_exit(&e.to_string()));
            }
            "--deadline-s" => {
                deadline = Some(
                    cli::parse_deadline(it.next().map(String::as_str))
                        .unwrap_or_else(|e| usage_exit(&e.to_string())),
                );
            }
            "--cache-dir" => {
                cache_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage_exit("--cache-dir needs a directory"))
                        .clone(),
                );
            }
            "--trace" => {
                trace_path = Some(
                    it.next()
                        .unwrap_or_else(|| usage_exit("--trace needs a file path"))
                        .clone(),
                );
            }
            other => {
                if let Some(v) = other.strip_prefix("--node=") {
                    node = Some(
                        cli::parse_node(Some(v)).unwrap_or_else(|e| usage_exit(&e.to_string())),
                    );
                } else if let Some(v) = other.strip_prefix("--jobs=") {
                    jobs = cli::parse_jobs(Some(v)).unwrap_or_else(|e| usage_exit(&e.to_string()));
                } else if let Some(v) = other.strip_prefix("--deadline-s=") {
                    deadline = Some(
                        cli::parse_deadline(Some(v)).unwrap_or_else(|e| usage_exit(&e.to_string())),
                    );
                } else if let Some(v) = other.strip_prefix("--cache-dir=") {
                    cache_dir = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--trace=") {
                    trace_path = Some(v.to_string());
                } else if other.starts_with("--") {
                    usage_exit(&format!("unknown flag '{other}'"));
                } else {
                    wanted.push(other.to_string());
                }
            }
        }
    }

    // Attach the trace before any flow runs so it sees the whole
    // process, fan-out included. The executor and every supervisor
    // inherit the cache's recorder.
    let jsonl = trace_path.as_deref().map(|p| {
        Arc::new(
            JsonlRecorder::create(Path::new(p))
                .unwrap_or_else(|e| usage_exit(&format!("cannot create trace file '{p}': {e}"))),
        )
    });
    if let Some(j) = &jsonl {
        ArtifactCache::global().set_recorder(Arc::clone(j) as Arc<dyn Recorder>);
    }
    // The disk tier goes in after the recorder so its events land in the
    // same trace, and before the fan-out so the workers read and publish
    // through it. stdout is unaffected either way: a verified disk hit
    // is bit-identical to a rebuild, and a store that cannot be read or
    // written degrades back to the memory tier.
    if let Some(d) = &cache_dir {
        ArtifactCache::global().attach_disk(DiskStore::open(Path::new(d)));
        eprintln!("[persistent artifact store at {d}]");
    }

    let scale = if small {
        BenchScale::Small
    } else {
        BenchScale::Paper
    };
    if subset {
        wanted.extend(SMOKE_SUBSET.iter().map(|s| s.to_string()));
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }

    // Without `--node`, selection goes over the full classic registry
    // (stdout bytes pinned by the golden tests). With `--node`, it goes
    // over the node-generic smoke drivers retargeted to the chosen PDK.
    type Run = (&'static str, Box<dyn Fn() -> String>);
    let selected: Result<Vec<Run>, _> = match node {
        None => cli::select(&paper_drivers(), &wanted).map(|drivers| {
            drivers
                .into_iter()
                .map(|(name, driver)| (name, Box::new(move || driver(scale)) as _))
                .collect()
        }),
        Some(nid) => cli::select(&node_drivers(), &wanted).map(|drivers| {
            drivers
                .into_iter()
                .map(|(name, driver)| (name, Box::new(move || driver(nid, scale)) as _))
                .collect()
        }),
    };
    let selected = selected.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // Fan the selected drivers' flow matrix out first, so the serial
    // formatting pass below hits a warm cache. `--jobs 1` skips this:
    // the plan would run the exact same flows the drivers are about to
    // run, in the same order, for no gain.
    if jobs > 1 {
        let mut plan = ExperimentPlan::new();
        for (name, _) in &selected {
            plan.merge(experiments::plan_for_at(
                name,
                scale,
                node.unwrap_or(NodeId::N45),
            ));
        }
        if !plan.is_empty() {
            eprintln!(
                "[fanning {} flow points out across {jobs} workers]",
                plan.len()
            );
            // A budgeted fan-out cancels cooperatively on expiry and the
            // drivers below recompute whatever is missing serially, so
            // stdout never changes — only how much of the warm-up
            // finished in time.
            let tok = CancelToken::new();
            if let Some(budget) = deadline {
                tok.arm_deadline_in(budget);
            }
            let report = ParallelExecutor::new(jobs).run_governed(&plan, &tok);
            eprintln!(
                "[executor: {} of {} points in {:.1} s; worker utilization {}{}]",
                report.done_count(),
                plan.len(),
                report.wall_s,
                report
                    .utilization()
                    .iter()
                    .map(|u| format!("{:.0}%", u * 100.0))
                    .collect::<Vec<_>>()
                    .join(" "),
                if report.is_partial() {
                    "; budget expired, drivers recompute the rest"
                } else {
                    ""
                }
            );
            if let Some(e) = report.first_error() {
                // The responsible driver will hit the same failure
                // serially and panic with full context.
                eprintln!("[executor: a flow point failed: {e}]");
            }
        }
    }

    for (name, run) in &selected {
        let t = Instant::now();
        println!("==================== {name} ====================");
        println!("{}", run());
        eprintln!("[{name} took {:.1?}]", t.elapsed());
    }
    eprintln!("[artifact cache: {}]", ArtifactCache::global().stats());

    if let (Some(j), Some(p)) = (&jsonl, &trace_path) {
        match j.flush() {
            Ok(()) => eprintln!("[wrote event trace to {p}]"),
            Err(e) => eprintln!("[trace flush to {p} failed: {e}]"),
        }
    }
}
