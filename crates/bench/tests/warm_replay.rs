//! Table 2's SPICE decks, the G-MI study's implementations, Fig. 6's
//! wire-load models and Table 12's netlist statistics are persisted
//! artifacts: a second `paper_tables --cache-dir` process over the
//! first one's store prints the same section while simulating no
//! transistor deck, partitioning, placing and routing no G-MI design,
//! placing no preliminary layout and generating no netlist, and a
//! second in-process call is served from memory.

use std::path::{Path, PathBuf};
use std::process::Command;

use m3d_netlist::BenchScale;
use monolith3d::{experiments, gmi, ArtifactCache};

const GOLDEN: &str = include_str!("../../../benchmark/golden/small_all.txt");

/// Table 2 decks: INV, NAND2 and MUX2 at three corners in two styles.
const DECKS: u64 = 18;

/// G-MI points: AES and LDPC.
const GMI_POINTS: u64 = 2;

/// Fig. 6 curves: one 45 nm 2D wire-load model per benchmark.
const FIG6_WLMS: u64 = 5;

/// Table 12 rows: every benchmark's generated netlist at 45 and 7 nm.
const TABLE12_NETLISTS: u64 = 10;

/// The `name` section of the golden suite output, banner included.
fn golden_section(name: &str) -> String {
    let mut section = String::new();
    let mut inside = false;
    for line in GOLDEN.lines() {
        if let Some(banner) = line.strip_prefix("==================== ") {
            inside = banner.split(' ').next() == Some(name);
        }
        if inside {
            section.push_str(line);
            section.push('\n');
        }
    }
    assert!(!section.is_empty(), "golden has no {name} section");
    section
}

/// The `[artifact cache: …]` stderr line without its brackets.
fn cache_line(stderr: &str) -> &str {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix("[artifact cache: "))
        .and_then(|l| l.strip_suffix(']'))
        .unwrap_or_else(|| panic!("no artifact cache line in:\n{stderr}"))
}

/// One `paper_tables --small --jobs 1 --cache-dir <store> <experiment>`
/// run: (stdout, stderr).
fn run(store: &Path, experiment: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(["--small", "--jobs", "1", "--cache-dir"])
        .arg(store)
        .arg(experiment)
        .output()
        .expect("paper_tables runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "paper_tables failed:\n{stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

fn temp_store(tag: &str) -> PathBuf {
    let store = std::env::temp_dir().join(format!("m3d-warm-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    store
}

/// Runs `experiment` cold, then warm, over one fresh store. Both print
/// the golden section; the cold cache line contains `cold`, the warm
/// one every pattern of `warm` and no quarantined entry.
fn replay(experiment: &str, cold: &str, warm: &[&str]) {
    let store = temp_store(experiment);
    let want = golden_section(experiment);

    let (cold_out, cold_err) = run(&store, experiment);
    assert_eq!(cold_out, want, "cold stdout differs from the golden");
    let line = cache_line(&cold_err);
    assert!(line.contains(cold), "cold run: {line}");

    let (warm_out, warm_err) = run(&store, experiment);
    assert_eq!(warm_out, want, "warm stdout differs from the golden");
    let line = cache_line(&warm_err);
    for warm in warm {
        assert!(line.contains(warm), "warm run: {line}");
    }
    assert!(line.contains(" 0 quarantined"), "warm run: {line}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn a_warm_process_replays_table2_without_simulating() {
    replay(
        "table2",
        &format!("spice: {DECKS} built, 0 hits"),
        &[&format!("spice: 0 built, {DECKS} hits")],
    );
}

#[test]
fn a_warm_process_replays_gmi_without_partitioning() {
    replay(
        "gmi",
        &format!("gmi: {GMI_POINTS} built, 0 hits"),
        &[&format!("gmi: 0 built, {GMI_POINTS} hits")],
    );
}

#[test]
fn a_warm_process_replays_fig6_without_placing() {
    replay(
        "fig6",
        &format!("wlm: {FIG6_WLMS} built, 0 hits"),
        &[&format!("wlm: 0 built, {FIG6_WLMS} hits")],
    );
}

#[test]
fn a_warm_process_replays_table12_without_generating() {
    replay(
        "table12",
        &format!("netlist: {TABLE12_NETLISTS} built, 0 hits"),
        &[
            &format!("netlist: 0 built, {TABLE12_NETLISTS} hits"),
            "libraries: 0 built, 0 hits",
        ],
    );
}

#[test]
fn a_second_table2_in_one_process_simulates_nothing() {
    let cache = ArtifactCache::global();
    let first = experiments::table2_cell_timing_power();
    let before = cache.stats();
    let second = experiments::table2_cell_timing_power();
    let d = cache.stats().delta(&before);
    assert_eq!(first, second);
    assert_eq!((d.spice_builds, d.spice_hits), (0, DECKS));
}

#[test]
fn a_second_gmi_comparison_in_one_process_builds_nothing() {
    let cache = ArtifactCache::global();
    let first = gmi::gmi_comparison(BenchScale::Small);
    let before = cache.stats();
    let second = gmi::gmi_comparison(BenchScale::Small);
    let d = cache.stats().delta(&before);
    assert_eq!(first, second);
    assert_eq!((d.gmi_builds, d.gmi_hits), (0, GMI_POINTS));
}

#[test]
fn a_second_table12_in_one_process_builds_nothing() {
    let cache = ArtifactCache::global();
    let first = experiments::table12_benchmarks(BenchScale::Small);
    let before = cache.stats();
    let second = experiments::table12_benchmarks(BenchScale::Small);
    let d = cache.stats().delta(&before);
    assert_eq!(first, second);
    assert_eq!((d.netlist_builds, d.netlist_hits), (0, TABLE12_NETLISTS));
    assert_eq!(d.library_builds + d.library_hits, 0, "no library loaded");
}
