//! Golden-output regression test: the smoke-subset `paper_tables`
//! stdout is pinned byte-for-byte against a committed snapshot, so a
//! numeric drift anywhere in the flow (cell models, placement,
//! routing, power) fails CI instead of silently landing in the next
//! regenerated `paper_tables_output.txt`.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_tables
//! ```

use std::path::PathBuf;

use m3d_bench::{node_drivers, paper_drivers, SMOKE_SUBSET};
use m3d_netlist::BenchScale;
use m3d_tech::NodeId;

fn golden_path() -> PathBuf {
    golden_file("paper_tables_subset_small.txt")
}

fn golden_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Exactly what `paper_tables --small --subset` prints to stdout: the
/// registry-ordered subset drivers, each under its banner line. (The
/// binary's `--jobs` fan-out only pre-warms the cache; stdout is
/// byte-identical with or without it.)
fn render_subset() -> String {
    let mut out = String::new();
    for (name, driver) in paper_drivers() {
        if !SMOKE_SUBSET.contains(&name) {
            continue;
        }
        out.push_str(&format!(
            "==================== {name} ====================\n"
        ));
        out.push_str(&driver(BenchScale::Small).expect("driver renders"));
        out.push('\n');
    }
    out
}

/// Exactly what `paper_tables --small --subset --node NAME` prints:
/// the node-generic drivers in `SMOKE_SUBSET` order, retargeted to
/// `node`, each under its banner line.
fn render_subset_at(node: NodeId) -> String {
    let mut out = String::new();
    for (name, driver) in node_drivers() {
        out.push_str(&format!(
            "==================== {name} ====================\n"
        ));
        out.push_str(&driver(node, BenchScale::Small).expect("driver renders"));
        out.push('\n');
    }
    out
}

fn check_against_golden(got: &str, path: &PathBuf) {
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(path, got).expect("write golden snapshot");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); \
             run `UPDATE_GOLDEN=1 cargo test --test golden_tables` to create it",
            path.display()
        )
    });
    if got != want {
        // Point at the first divergent line rather than dumping both
        // multi-kilobyte documents.
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map(|i| i + 1);
        match line {
            Some(n) => {
                let g = got.lines().nth(n - 1).unwrap_or("<eof>");
                let w = want.lines().nth(n - 1).unwrap_or("<eof>");
                panic!(
                    "smoke-subset output drifted from the golden snapshot at line {n}:\n \
                     got:  {g}\n want: {w}\n\
                     If the change is intentional, regenerate with \
                     `UPDATE_GOLDEN=1 cargo test --test golden_tables`."
                );
            }
            None => panic!(
                "smoke-subset output drifted in length only: {} vs {} lines \
                 (trailing content changed). Regenerate with UPDATE_GOLDEN=1 if intended.",
                got.lines().count(),
                want.lines().count()
            ),
        }
    }
}

#[test]
fn smoke_subset_stdout_matches_the_committed_golden_snapshot() {
    check_against_golden(&render_subset(), &golden_path());
}

/// The `--node 45nm` path must render the *same bytes per driver* as
/// the classic registry: the node-generic drivers delegate to the
/// classic paper-titled functions at the 45 nm default.
#[test]
fn node_drivers_at_45nm_match_their_classic_counterparts() {
    let classic = paper_drivers();
    for (name, driver) in node_drivers() {
        let (_, classic_driver) = classic
            .iter()
            .find(|(n, _)| *n == name)
            .expect("node driver has a classic counterpart");
        assert_eq!(
            driver(NodeId::N45, BenchScale::Small),
            classic_driver(BenchScale::Small),
            "--node 45nm drifted from the classic '{name}' driver"
        );
    }
}

/// The 7 nm `--node` subset is pinned against its own committed
/// snapshot, the golden the CI node-matrix job compares the binary's
/// stdout to.
#[test]
fn node_subset_at_7nm_matches_the_committed_golden_snapshot() {
    check_against_golden(
        &render_subset_at(NodeId::N7),
        &golden_file("paper_tables_subset_small_7nm.txt"),
    );
}

/// Same pin for the 45 nm `--node` path: per-driver bytes are classic
/// (the test above), and the whole-document ordering/banners are
/// pinned here for the CI golden-stdout comparison.
#[test]
fn node_subset_at_45nm_matches_the_committed_golden_snapshot() {
    check_against_golden(
        &render_subset_at(NodeId::N45),
        &golden_file("paper_tables_subset_small_45nm.txt"),
    );
}
