//! The repository benchmark (see `README.md` beside this package).
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! benchmark compare A.json... -- B.json...
//! ```
//!
//! Run it from the repository root, normally as
//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- …`.
//! It first builds `paper_tables`, `m3d_serve` and `trace_check` from
//! the checkout into its own target directory, then runs each selected
//! workload: end-to-end metrics untraced, or with `--trace 1` the
//! per-layer metrics of a traced run. Every metric is printed as
//! `workload metric value unit n=samples`; the last line of each
//! workload is its result object (`correct`, `attempted`, `failed`,
//! `metrics`). `--out FILE` also writes that object, with the workload,
//! seed and sample counts, for `compare`. The exit status is 0 only
//! when every output check passed.

mod batch;
mod child;
mod compare;
mod golden;
mod layers;
mod serve;
mod spec;
mod stats;

use std::fmt::Write as _;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use m3d_netlist::{BenchScale, Benchmark};
use spec::{Spec, END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 10.0;
/// A run that has not finished this long after its build is stopped.
const RUN_BUDGET: Duration = Duration::from_secs(170);
/// Samples of `proc.spawn_ms`.
const SPAWNS: usize = 20;

/// Everything a workload needs: where to work, what to run, how long.
pub struct Ctx {
    /// Scratch directory of this run, relative to the repository root
    /// (short, so unix socket paths inside it stay within their limit).
    pub tmp: PathBuf,
    pub paper_tables: PathBuf,
    pub m3d_serve: PathBuf,
    trace_check: PathBuf,
    pub seconds: f64,
    pub seed: u64,
}

impl Ctx {
    /// Validates the JSONL trace `rel` (in the scratch directory) with
    /// the repository's `trace_check`; the problem, if any.
    pub fn trace_check(&self, rel: &str) -> Option<String> {
        let err = self.tmp.join("trace_check.err");
        let exit = File::create(&err).and_then(|f| {
            child::run(
                Command::new(&self.trace_check)
                    .arg(rel)
                    .current_dir(&self.tmp)
                    .stdout(Stdio::null())
                    .stderr(f),
            )
        });
        match exit {
            Ok(e) if e.success => None,
            Ok(_) => Some(format!(
                "trace_check {rel}: {}",
                std::fs::read_to_string(err).unwrap_or_default().trim()
            )),
            Err(e) => Some(format!("trace_check {rel}: {e}")),
        }
    }

    /// The direct probes, run in every traced run: each algorithm layer
    /// on `bench` at `scale` (median of `k` calls), the cache-bypassing
    /// drivers and the store, and `proc.spawn_ms`, spawn to exit of a
    /// child that does nothing (this binary's `noop` mode), the floor
    /// under every per-repetition process.
    pub fn probe_layers(&self, rec: &mut Record, bench: Benchmark, scale: BenchScale, k: usize) {
        match layers::probe_algorithms(bench, scale, k) {
            Ok(probed) => {
                rec.attempt(None);
                for (name, v) in probed {
                    rec.set(name, v, k);
                }
            }
            Err(e) => rec.attempt(Some(format!("probe: {e}"))),
        }
        let store = self.tmp.join("probe-store");
        match layers::probe_drivers_and_store(&store, &self.tmp.join("probe-scratch")) {
            Ok(probed) => {
                rec.attempt(None);
                for (name, v) in probed {
                    rec.set(name, v, 1);
                }
            }
            Err(e) => rec.attempt(Some(format!("probe: {e}"))),
        }
        let exe = std::env::current_exe();
        let mut ms = Vec::new();
        for _ in 0..SPAWNS {
            let exit = exe.as_ref().map_err(|e| e.to_string()).and_then(|exe| {
                child::run(Command::new(exe).arg("noop")).map_err(|e| e.to_string())
            });
            match exit {
                Ok(e) if e.success => ms.push(e.wall_s * 1e3),
                other => {
                    rec.attempt(Some(format!("noop child: {other:?}")));
                    return;
                }
            }
        }
        rec.attempt(None);
        rec.set("proc.spawn_ms", stats::median(&ms), SPAWNS);
    }
}

/// The scratch directory goes however the run ends, a panic included
/// (printing to a closed stdout panics).
impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
        // Gone unless another run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// What one workload run attempted, what failed, and what it measured.
#[derive(Default)]
pub struct Record {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    values: Vec<(&'static Spec, f64, usize)>,
}

impl Record {
    /// One operation, failed when `problem` is set.
    pub fn attempt(&mut self, problem: Option<String>) {
        let failed = usize::from(problem.is_some());
        self.tally(1, failed, problem.into_iter().collect());
    }

    /// `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: usize, failed: usize, problems: Vec<String>) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        self.problems.extend(problems);
    }

    /// Sets metric `name` from `n` samples.
    ///
    /// # Panics
    ///
    /// On a name the metric tables do not list: a bug in the workload.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let spec = spec::find(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.retain(|(s, _, _)| s.name != name);
        self.values.push((spec, value, n));
    }
}

struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n       \
         benchmark compare A.json... -- B.json...\nworkloads: {}",
        WORKLOADS.map(|(n, _)| n).join(" ")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        workloads: WORKLOADS.map(|(n, _)| n).to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let w = value("--workload");
                o.workloads = match WORKLOADS.iter().find(|(n, _)| *n == w) {
                    Some((n, _)) => vec![*n],
                    None if w == "all" => o.workloads,
                    None => usage_exit(&format!("unknown workload '{w}'")),
                };
            }
            "--seed" => {
                o.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--seed needs a whole number"));
            }
            "--seconds" => {
                o.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage_exit("--seconds needs a positive number"));
            }
            "--trace" => {
                let v = it.peek().map(|s| s.as_str());
                o.trace = v != Some("0");
                if matches!(v, Some("0" | "1")) {
                    it.next();
                }
            }
            "--out" => o.out = Some(PathBuf::from(value("--out"))),
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    o
}

/// Builds the programs under test from the checkout into the target
/// directory this binary was built into, so one `cargo` cache serves
/// both; returns that `release` directory.
fn build(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let release = exe.parent().ok_or("benchmark binary has no directory")?;
    let target = release
        .parent()
        .ok_or("benchmark binary is not in a target directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "m3d-bench", "-p", "m3d-serve", "--target-dir"])
        .arg(target)
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building the programs under test failed ({status})"
        ));
    }
    Ok(release.to_path_buf())
}

fn run_workload(ctx: &Ctx, name: &str, trace: bool) -> Record {
    let mut rec = Record::default();
    let batch = match name {
        "paper-scale" => Some(&batch::PAPER_SCALE),
        "small-suite" => Some(&batch::SMALL_SUITE),
        "warm-restart" => Some(&batch::WARM_RESTART),
        _ => None,
    };
    match (batch, trace) {
        (Some(b), false) => batch::run(ctx, &mut rec, b),
        (Some(b), true) => batch::run_traced(ctx, &mut rec, b),
        (None, false) => serve::run(ctx, &mut rec),
        (None, true) => serve::run_traced(ctx, &mut rec),
    }
    rec
}

/// Prints one workload's metrics and result object, writes `out` if
/// asked, and says whether every check passed.
fn report(o: &Opts, workload: &str, rec: &Record) -> bool {
    let list: &[Spec] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let mut problems = rec.problems.clone();
    let mut entries = Vec::new();
    for spec in list {
        match rec.values.iter().find(|(s, _, _)| s.name == spec.name) {
            Some(&(_, v, n)) if v.is_finite() => entries.push((spec, v, n)),
            Some(&(_, v, _)) => problems.push(format!("{} measured as {v}", spec.name)),
            None => problems.push(format!("{} not measured", spec.name)),
        }
    }
    let failed = rec.failed + (problems.len() - rec.problems.len()) as u64;
    let correct = failed == 0;
    for p in &problems {
        eprintln!("{workload}: FAILED: {p}");
    }
    let (mut metrics, mut with_n) = (String::new(), String::new());
    for (i, (spec, v, n)) in entries.iter().enumerate() {
        println!("{workload} {} {v} {} n={n}", spec.name, spec.unit);
        let sep = if i == 0 { "" } else { "," };
        let head = format!(
            "{sep}\"{}\":{{\"value\":{v},\"unit\":\"{}\"",
            spec.name, spec.unit
        );
        let _ = write!(metrics, "{head}}}");
        let _ = write!(with_n, "{head},\"n\":{n}}}");
    }
    let attempted = rec.attempted.max(1);
    let result = |m: &str| {
        format!("\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{m}}}}}")
    };
    if let Some(path) = &o.out {
        let line = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},{}\n",
            o.seed,
            u8::from(o.trace),
            result(&with_n)
        );
        if let Err(e) = std::fs::write(path, line) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
    println!("{{{}", result(&metrics));
    correct
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("noop") => return,
        Some("compare") => match compare::run(&args[1..]) {
            Ok(clean) => std::process::exit(i32::from(!clean)),
            Err(e) => usage_exit(&e),
        },
        _ => {}
    }
    let o = parse(&args);
    let fail = |msg: String| -> ! {
        eprintln!("benchmark: {msg}");
        std::process::exit(2);
    };
    let root = std::env::current_dir().unwrap_or_else(|e| fail(format!("working directory: {e}")));
    if !root.join("crates").is_dir() || !root.join("Cargo.toml").is_file() {
        fail("run from the repository root: the programs under test are not here".into());
    }
    let release = build(&root).unwrap_or_else(|e| fail(e));
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)
        .unwrap_or_else(|e| fail(format!("create {}: {e}", tmp.display())));
    let ctx = Ctx {
        tmp,
        paper_tables: release.join("paper_tables"),
        m3d_serve: release.join("m3d_serve"),
        trace_check: release.join("trace_check"),
        seconds: o.seconds,
        seed: o.seed,
    };
    child::arm_deadline(RUN_BUDGET * o.workloads.len() as u32);
    let mut all_correct = true;
    for w in &o.workloads {
        let t = Instant::now();
        let rec = run_workload(&ctx, w, o.trace);
        eprintln!("[{w}: {:.1} s]", t.elapsed().as_secs_f64());
        all_correct &= report(&o, w, &rec);
    }
    drop(ctx);
    std::process::exit(i32::from(!all_correct));
}
