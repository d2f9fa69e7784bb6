//! Table 2's SPICE decks are persisted artifacts: a second
//! `paper_tables --cache-dir` process over the first one's store prints
//! the same table while simulating no transistor deck, and a second
//! in-process call is served from memory.

use std::path::PathBuf;
use std::process::Command;

use monolith3d::{experiments, ArtifactCache};

const GOLDEN: &str = include_str!("../../../benchmark/golden/small_all.txt");

/// Table 2 decks: INV, NAND2 and MUX2 at three corners in two styles.
const DECKS: u64 = 18;

/// The `table2` section of the golden suite output, banner included.
fn golden_table2() -> String {
    let mut section = String::new();
    let mut inside = false;
    for line in GOLDEN.lines() {
        if let Some(banner) = line.strip_prefix("==================== ") {
            inside = banner.starts_with("table2 ");
        }
        if inside {
            section.push_str(line);
            section.push('\n');
        }
    }
    assert!(!section.is_empty(), "golden has no table2 section");
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

/// One `paper_tables --small --jobs 1 --cache-dir <store> table2` run:
/// (stdout, stderr).
fn run_table2(store: &PathBuf) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(["--small", "--jobs", "1", "--cache-dir"])
        .arg(store)
        .arg("table2")
        .output()
        .expect("paper_tables runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "paper_tables failed:\n{stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

#[test]
fn a_warm_process_replays_table2_without_simulating() {
    let store = std::env::temp_dir().join(format!("m3d-warm-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let want = golden_table2();

    let (cold_out, cold_err) = run_table2(&store);
    assert_eq!(cold_out, want, "cold stdout differs from the golden");
    let cold = cache_line(&cold_err);
    assert!(
        cold.contains(&format!("spice: {DECKS} built, 0 hits")),
        "cold run: {cold}"
    );

    let (warm_out, warm_err) = run_table2(&store);
    assert_eq!(warm_out, want, "warm stdout differs from the golden");
    let warm = cache_line(&warm_err);
    assert!(
        warm.contains(&format!("spice: 0 built, {DECKS} hits")),
        "warm run: {warm}"
    );
    assert!(warm.contains(" 0 quarantined"), "warm run: {warm}");
    let _ = std::fs::remove_dir_all(&store);
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
