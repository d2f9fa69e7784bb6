//! `--deadline-s` end to end: a budget that expires during the
//! pre-warm fan-out leaves it partial, the drivers recompute the
//! stopped points serially, and stdout is still the golden.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../tests/golden/paper_tables_subset_small.txt");

#[test]
fn an_expired_budget_changes_nothing_on_stdout() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args([
            "--small",
            "--subset",
            "--jobs",
            "2",
            "--deadline-s",
            "0.001",
        ])
        .output()
        .expect("paper_tables runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "paper_tables failed:\n{stderr}");
    assert!(
        stderr.contains("budget expired"),
        "a 1 ms budget must stop the fan-out:\n{stderr}"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout) == GOLDEN,
        "stdout differs from tests/golden/paper_tables_subset_small.txt"
    );
}
