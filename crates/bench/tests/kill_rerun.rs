//! Crash recovery through the persistent store: a `paper_tables` run
//! killed mid-suite leaves only whole, verified entries behind, and a
//! rerun on the same `--cache-dir` prints the golden tables while
//! rebuilding no flow the killed run completed.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use m3d_bench::SMOKE_SUBSET;
use m3d_netlist::BenchScale;
use monolith3d::observe::validate_jsonl;
use monolith3d::{experiments, ExperimentPlan};

const GOLDEN: &str = include_str!("../../../tests/golden/paper_tables_subset_small.txt");

/// A fresh store directory for this test.
fn scratch_store() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("m3d-kill-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Published flow entries in a store directory (`flow/<shard>/*.m3d`).
fn flow_entries(store: &Path) -> usize {
    let Ok(shards) = std::fs::read_dir(store.join("flow")) else {
        return 0;
    };
    shards
        .flatten()
        .filter_map(|shard| std::fs::read_dir(shard.path()).ok())
        .flat_map(|files| files.flatten())
        .filter(|f| f.path().extension().is_some_and(|e| e == "m3d"))
        .count()
}

/// One counter of the `[artifact cache: …]` stderr line, e.g.
/// `("flows", "misses")` out of `flows: 10 stored, 8 hits, 10 misses`.
fn cache_counter(stderr: &str, section: &str, name: &str) -> u64 {
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("[artifact cache: "))
        .unwrap_or_else(|| panic!("no artifact cache line in:\n{stderr}"));
    line.split(';')
        .find_map(|part| part.trim().strip_prefix(&format!("{section}: ")))
        .and_then(|counters| {
            counters
                .split(", ")
                .find_map(|c| c.strip_suffix(&format!(" {name}")))
        })
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {section} {name} counter in {line:?}"))
}

#[test]
fn killed_run_reruns_from_its_store_without_rebuilding_a_completed_flow() {
    let store = scratch_store();
    let trace = store.with_extension("jsonl");
    let paper_tables = env!("CARGO_BIN_EXE_paper_tables");
    let args = ["--small", "--subset", "--jobs", "1", "--cache-dir"];

    // Kill the first run as soon as it has published a flow entry.
    let mut killed = Command::new(paper_tables)
        .args(args)
        .arg(&store)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("paper_tables starts");
    let t0 = Instant::now();
    while flow_entries(&store) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(300),
            "no flow entry appeared"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // SIGKILL on unix; an already-finished run has nothing to kill.
    let _ = killed.kill();
    killed.wait().expect("killed run is reaped");
    let present = flow_entries(&store);

    let rerun = Command::new(paper_tables)
        .args(args)
        .arg(&store)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("paper_tables reruns");
    let stderr = String::from_utf8_lossy(&rerun.stderr);
    assert!(rerun.status.success(), "rerun failed:\n{stderr}");
    assert!(
        String::from_utf8_lossy(&rerun.stdout) == GOLDEN,
        "rerun stdout differs from the golden subset"
    );

    // Every flow of the suite is either a verified store hit or rebuilt
    // by the rerun, and none of the killed run's entries is rebuilt.
    let mut plan = ExperimentPlan::new();
    for name in SMOKE_SUBSET {
        plan.merge(experiments::plan_for(name, BenchScale::Small));
    }
    assert!(present <= plan.len(), "the plan misses stored flows");
    let misses = cache_counter(&stderr, "flows", "misses");
    assert!(
        misses as usize <= plan.len() - present,
        "rerun rebuilt {misses} flows; {present} of {} were already stored",
        plan.len()
    );
    assert_eq!(cache_counter(&stderr, "disk", "quarantined"), 0);
    let quarantine = std::fs::read_dir(store.join("quarantine"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(quarantine, 0, "the kill left a corrupt entry behind");
    assert_eq!(
        flow_entries(&store),
        plan.len(),
        "the rerun left one flow entry per planned point"
    );
    let summary = validate_jsonl(&std::fs::read_to_string(&trace).expect("trace written"))
        .expect("the rerun's trace validates");
    assert!(summary.events > 0);

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&trace);
}
