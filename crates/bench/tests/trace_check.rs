//! `trace_check` end to end: it accepts the trace a real
//! `paper_tables --trace` run writes and prints one line per stage whose
//! span counts add up to the summary's, then one line per cache kind
//! whose hit and miss counts add up to the summary's; it rejects the
//! same trace with an open span, and a missing argument as a usage
//! error.

use std::path::Path;
use std::process::{Command, Output};

use monolith3d::CacheKind;

/// A count printed by `trace_check`.
fn count(text: &str) -> usize {
    text.parse()
        .unwrap_or_else(|_| panic!("not a count: {text:?}"))
}

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
    let summary = lines.next().unwrap_or_default();
    let field = |suffix: &str| {
        summary
            .split(", ")
            .find_map(|f| f.strip_suffix(suffix))
            .unwrap_or_else(|| panic!("no {suffix:?} in:\n{stdout}"))
    };
    let total = count(field(" stage spans"));
    let (total_hits, total_misses) = field(" misses")
        .split_once(" cache hits / ")
        .map(|(h, m)| (count(h), count(m)))
        .unwrap_or_else(|| panic!("no cache totals in:\n{stdout}"));
    let mut stages = Vec::new();
    let mut caches = Vec::new();
    let (mut spans, mut hits, mut misses) = (0, 0, 0);
    for line in lines {
        if let Some((stage, rest)) = line
            .strip_prefix("  stage ")
            .and_then(|l| l.split_once(": "))
        {
            assert!(caches.is_empty(), "a stage line after the cache lines");
            let (n, _) = rest.split_once(" spans, ").expect("span count");
            spans += count(n);
            stages.push(stage);
        } else if let Some((kind, rest)) = line
            .strip_prefix("  cache ")
            .and_then(|l| l.split_once(": "))
        {
            let (h, m) = rest
                .strip_suffix(" misses")
                .and_then(|r| r.split_once(" hits, "))
                .unwrap_or_else(|| panic!("not a per-kind line: {line:?}"));
            hits += count(h);
            misses += count(m);
            caches.push(kind);
        } else {
            panic!("neither a per-stage nor a per-kind line: {line:?}");
        }
    }
    assert!(total > 0, "the subset opens stage spans");
    assert_eq!(spans, total, "per-stage spans add up to the total");
    for stage in ["library", "synth", "place", "route", "signoff"] {
        assert!(stages.contains(&stage), "no {stage} line in:\n{stdout}");
    }
    assert_eq!(
        (hits, misses),
        (total_hits, total_misses),
        "per-kind hits and misses add up to the totals"
    );
    let order: Vec<&str> = CacheKind::ALL
        .iter()
        .map(|k| k.key())
        .filter(|k| caches.contains(k))
        .collect();
    assert_eq!(caches, order, "one line per kind, in declaration order");
    for cache in ["library", "flow", "wlm"] {
        assert!(caches.contains(&cache), "no {cache} line in:\n{stdout}");
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
