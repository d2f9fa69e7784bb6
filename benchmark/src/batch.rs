//! The batch workloads: `paper_tables` run the way a user runs it, one
//! fresh process per repetition, stdout checked against the goldens.

use std::fs::File;
use std::process::{Command, Stdio};
use std::time::Instant;

use m3d_netlist::{BenchScale, Benchmark};

use crate::{child, golden, layers, serve, stats, Ctx, Record};

/// One batch workload.
pub struct Batch {
    /// `paper_tables` arguments of one repetition.
    args: &'static [&'static str],
    /// Its expected stdout.
    golden: &'static str,
    /// Repetitions replay a warm store that set-up publishes.
    warm_store: bool,
    /// The design the algorithm probes time, and how many calls each.
    probe: (Benchmark, BenchScale, usize),
    /// Rounds of set-up then repetitions per untraced run.
    rounds: usize,
}

/// The store directory, relative to the run's scratch directory.
const STORE: &str = "store";

pub const PAPER_SCALE: Batch = Batch {
    args: &["--jobs", "1", "fig3", "table16"],
    golden: golden::PAPER_SCALE,
    warm_store: false,
    probe: (Benchmark::Ldpc, BenchScale::Paper, 1),
    // One repetition of 5-8 s per round.
    rounds: 3,
};

pub const SMALL_SUITE: Batch = Batch {
    args: &["--small", "--jobs", "1", "all"],
    golden: golden::SMALL_ALL,
    warm_store: false,
    probe: (Benchmark::Aes, BenchScale::Small, 5),
    rounds: 5,
};

pub const WARM_RESTART: Batch = Batch {
    args: &["--small", "--jobs", "1", "--cache-dir", STORE, "all"],
    golden: golden::SMALL_ALL,
    warm_store: true,
    probe: (Benchmark::Aes, BenchScale::Small, 5),
    rounds: 3,
};

/// A cold batch run's set-up is the cold start every one of its
/// processes pays before its first flow: process start-up and the
/// characterization of the base cell libraries (45 nm 2D and T-MI, and
/// 7 nm scaled from 45 nm), here through the two drivers that print
/// them and run no flow. Start-up alone (about 1 ms) settles for a whole
/// run at one of two speeds 40 % apart; with the libraries it is steady.
const STARTUP_ARGS: &[&str] = &["--jobs", "1", "table11", "fig5"];
/// Cold-start samples per round for the cold workloads (each about
/// 15 ms).
const COLD_STARTS: usize = 7;

/// One finished `paper_tables` process.
struct Rep {
    exit: child::Exit,
    stderr: String,
    /// Why the repetition failed, if it did.
    problem: Option<String>,
}

/// Runs `paper_tables` once in the scratch directory and checks its
/// stdout against `want`.
fn run_tables(ctx: &Ctx, args: &[&str], want: &str) -> Rep {
    let run = || -> std::io::Result<(child::Exit, String, String)> {
        let out = ctx.tmp.join("stdout.txt");
        let err = ctx.tmp.join("stderr.txt");
        let exit = child::run(
            Command::new(&ctx.paper_tables)
                .args(args)
                .current_dir(&ctx.tmp)
                .stdin(Stdio::null())
                .stdout(File::create(&out)?)
                .stderr(File::create(&err)?),
        )?;
        Ok((
            exit,
            std::fs::read_to_string(out)?,
            std::fs::read_to_string(err)?,
        ))
    };
    let what = format!("paper_tables {}", args.join(" "));
    match run() {
        Err(e) => Rep {
            exit: child::Exit {
                wall_s: 0.0,
                success: false,
                maxrss_kib: 0,
            },
            stderr: String::new(),
            problem: Some(format!("{what}: {e}")),
        },
        Ok((exit, stdout, stderr)) => {
            let problem = if exit.success {
                let bad = golden::differing_sections(&stdout, want);
                (!bad.is_empty()).then(|| {
                    format!(
                        "{what}: stdout differs from the golden in {}",
                        bad.join(", ")
                    )
                })
            } else {
                Some(format!(
                    "{what} failed: {}",
                    stderr.lines().last().unwrap_or("")
                ))
            };
            Rep {
                exit,
                stderr,
                problem,
            }
        }
    }
}

/// A warm repetition must neither characterize a library nor find a
/// corrupt store entry.
fn warm_problem(stderr: &str) -> Option<String> {
    match layers::cache_counts(stderr) {
        None => Some("warm rep: no artifact-cache line on stderr".to_string()),
        Some(c) if c.library_builds != 0 || c.disk_quarantined != 0 => Some(format!(
            "warm rep built {} libraries and quarantined {} entries, want 0 and 0",
            c.library_builds, c.disk_quarantined
        )),
        Some(_) => None,
    }
}

/// Repeats `args` until `budget_s` has passed (at least once), each
/// repetition one attempt; `extra` adds a check after the golden one.
/// Stops early when `paper_tables` cannot be started.
fn reps(
    ctx: &Ctx,
    rec: &mut Record,
    b: &Batch,
    args: &[&str],
    budget_s: f64,
    extra: &dyn Fn(&Rep) -> Option<String>,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let mut rep = run_tables(ctx, args, b.golden);
        if rep.problem.is_none() {
            rep.problem = extra(&rep);
        }
        if rep.problem.is_none() && b.warm_store {
            rep.problem = warm_problem(&rep.stderr);
        }
        let spawned = rep.exit.wall_s > 0.0;
        rec.attempt(rep.problem.clone());
        out.push(rep);
        if !spawned {
            break;
        }
    }
    out
}

/// Runs the set-up and returns the seconds of each sample: for the
/// warm workload one cold publish of the small suite into an empty store
/// (which the repetitions then replay), for the cold ones
/// [`COLD_STARTS`] cold starts.
fn setup(ctx: &Ctx, rec: &mut Record, b: &Batch) -> Vec<f64> {
    let cold_start = cold_start_golden();
    let count = if b.warm_store { 1 } else { COLD_STARTS };
    let mut walls = Vec::new();
    for _ in 0..count {
        let rep = if b.warm_store {
            let _ = std::fs::remove_dir_all(ctx.tmp.join(STORE));
            run_tables(ctx, b.args, b.golden)
        } else {
            run_tables(ctx, STARTUP_ARGS, &cold_start)
        };
        walls.push(rep.exit.wall_s);
        rec.attempt(rep.problem);
    }
    walls
}

/// Stdout of the cold-start command: its two sections of the small
/// golden, neither of which depends on the benchmark scale.
fn cold_start_golden() -> String {
    golden::sections(golden::SMALL_ALL)
        .into_iter()
        .filter(|(n, _)| ["table11", "fig5"].contains(n))
        .map(|(n, body)| format!("==================== {n} ====================\n{body}"))
        .collect()
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.exit.wall_s).collect()
}

fn with_trace<'a>(args: &[&'a str], file: &'a str) -> Vec<&'a str> {
    args.iter().copied().chain(["--trace", file]).collect()
}

/// The untraced run: `b.rounds` rounds of set-up, then repetitions for
/// an equal share of `ctx.seconds`. The host runs code at one of two
/// speeds about 40 % apart and switches every few seconds, so set-up
/// samples taken in one burst all land in one of them; spread over the
/// run, like the repetitions, their median holds from run to run.
pub fn run(ctx: &Ctx, rec: &mut Record, b: &Batch) {
    let (mut setups, mut all) = (Vec::new(), Vec::new());
    for _ in 0..b.rounds {
        setups.extend(setup(ctx, rec, b));
        let share = ctx.seconds / b.rounds as f64;
        all.extend(reps(ctx, rec, b, b.args, share, &|_| None));
    }
    rec.set("lat_p50_ms", stats::median(&walls(&all)) * 1e3, all.len());
    let peak = all.iter().map(|r| r.exit.maxrss_kib).max().unwrap_or(0);
    rec.set("peak_rss_mb", peak as f64 / 1024.0, all.len());
    rec.set("setup_s", stats::median(&setups), setups.len());
}

/// The traced run: half the time untraced, half with the JSONL
/// recorder attached (`--trace`), each trace validated by
/// `trace_check`; then the serving probe and the direct layer probes.
pub fn run_traced(ctx: &Ctx, rec: &mut Record, b: &Batch) {
    let read = |file: &str| std::fs::read_to_string(ctx.tmp.join(file)).unwrap_or_default();
    // Warm repetitions run no flow, so this workload's stage spans are
    // those of a traced cold publish: the set-up they should move.
    let publish_spans = if b.warm_store {
        let _ = std::fs::remove_dir_all(ctx.tmp.join(STORE));
        let rep = run_tables(ctx, &with_trace(b.args, "publish.jsonl"), b.golden);
        rec.attempt(rep.problem.or_else(|| ctx.trace_check("publish.jsonl")));
        Some(layers::stage_totals(&read("publish.jsonl")))
    } else {
        setup(ctx, rec, b);
        None
    };
    let plain = reps(ctx, rec, b, b.args, ctx.seconds / 2.0, &|_| None);
    let traced = reps(
        ctx,
        rec,
        b,
        &with_trace(b.args, "trace.jsonl"),
        ctx.seconds / 2.0,
        &|_| ctx.trace_check("trace.jsonl"),
    );
    // Each traced rep overwrote the trace; the last one is on disk, and
    // every rep runs the same deterministic flows, so its spans and
    // counts stand for all of them.
    let t = layers::stage_totals(&read("trace.jsonl"));
    publish_spans.as_ref().unwrap_or(&t).record(rec);
    let last = traced.last().expect("at least one traced rep");
    let driver = |name| layers::driver_s(&last.stderr, name).unwrap_or(0.0);
    let attributed = t.total_s() + driver("table2") + driver("gmi");
    rec.set("flow.unattributed_s", last.exit.wall_s - attributed, 1);
    rec.set("flow.attributed_frac", attributed / last.exit.wall_s, 1);
    let c = layers::cache_counts(&last.stderr).unwrap_or_default();
    rec.set("cache.library_builds", c.library_builds as f64, 1);
    rec.set("cache.library_hits", c.library_hits as f64, 1);
    rec.set("cache.flow_misses", c.flow_misses as f64, 1);
    rec.set("cache.flow_hits", c.flow_hits as f64, 1);
    rec.set("cache.disk_hits", c.disk_hits as f64, 1);
    rec.set(
        "trace.overhead_frac",
        stats::median(&walls(&traced)) / stats::median(&walls(&plain)) - 1.0,
        traced.len(),
    );

    serve::probe_serving(ctx, rec, &mut serve::Rng::new(ctx.seed));
    let (bench, scale, k) = b.probe;
    ctx.probe_layers(rec, bench, scale, k);
}
