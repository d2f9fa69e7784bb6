//! `trace_check` end to end: it accepts the trace a real
//! `paper_tables --trace` run writes and prints one line per stage whose
//! span counts add up to the summary's, rejects the same trace with an
//! open span, and rejects a missing argument as a usage error.

use std::path::Path;
use std::process::{Command, Output};

fn trace_check(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .args(args)
        .output()
        .expect("trace_check runs")
}

#[test]
fn trace_check_aggregates_a_real_trace_and_rejects_a_truncated_one() {
    let dir = std::env::temp_dir().join(format!("m3d-trace-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("subset.jsonl");
    let run = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(["--small", "--subset", "--jobs", "1", "--trace"])
        .arg(&trace)
        .output()
        .expect("paper_tables runs");
    assert!(
        run.status.success(),
        "paper_tables failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(&trace).expect("trace written");
    for cache in ["library", "flow", "wlm"] {
        let event = format!("\"kind\":\"cache_miss\",\"cache\":\"{cache}\"");
        assert!(text.contains(&event), "the subset misses the {cache} cache");
    }
    let out = trace_check(&[&trace]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "valid trace:\n{stdout}");
    let mut lines = stdout.lines();
    let total: usize = lines
        .next()
        .and_then(|l| l.split(", ").nth(1))
        .and_then(|f| f.strip_suffix(" stage spans"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no stage spans total in:\n{stdout}"));
    let mut stages = Vec::new();
    let mut spans = 0;
    for line in lines {
        let (stage, rest) = line
            .strip_prefix("  stage ")
            .and_then(|l| l.split_once(": "))
            .unwrap_or_else(|| panic!("not a per-stage line: {line:?}"));
        let (n, _) = rest.split_once(" spans, ").expect("span count");
        spans += n.parse::<usize>().expect("integer span count");
        stages.push(stage);
    }
    assert!(total > 0, "the subset opens stage spans");
    assert_eq!(spans, total, "per-stage spans add up to the total");
    for stage in ["library", "synth", "place", "route", "signoff"] {
        assert!(stages.contains(&stage), "no {stage} line in:\n{stdout}");
    }

    // The trace ends on the drivers' cache hits; cut it before its last
    // `stage_finished` so the run's final span stays open.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let last = text
        .rfind("\"kind\":\"stage_finished\"")
        .and_then(|at| text[..at].rfind('\n'))
        .expect("a stage_finished after the first line");
    let truncated = dir.join("truncated.jsonl");
    std::fs::write(&truncated, &text[..=last]).expect("truncated trace written");
    let out = trace_check(&[&truncated]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("open spans"));

    assert_eq!(trace_check(&[]).status.code(), Some(2), "no argument");
    let _ = std::fs::remove_dir_all(&dir);
}
