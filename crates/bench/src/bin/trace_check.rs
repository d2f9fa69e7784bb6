//! Validates a JSONL event trace written by `JsonlRecorder`.
//!
//! ```text
//! trace_check <trace.jsonl>
//! ```
//!
//! Checks every line against the event schema: known `kind`, required
//! per-kind fields, strictly increasing sequence numbers, and balanced
//! stage spans (every `stage_started` paired with exactly one terminal
//! `stage_finished`). On success it prints a one-line summary, then one
//! line per stage key with its closed spans and their summed wall time,
//! then one line per cache kind the trace hits or misses, and exits 0:
//!
//! ```text
//! trace.jsonl: 1204 events, 245 stage spans, 131 cache hits / 112 misses
//!   stage place: 49 spans, 1.234567 s wall
//!   cache library: 51 hits, 12 misses
//! ```
//!
//! The per-stage span counts add up to the summary's stage spans, and
//! the per-kind hit and miss counts to the summary's totals. On a
//! violation it prints it and exits 1; a missing or unreadable file
//! exits 2. CI runs this over the trace the smoke subset emits, so a
//! schema drift between the recorder and the validator fails the build
//! rather than silently producing unparseable artifacts.

use monolith3d::observe::{validate_jsonl, CacheKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| {
        eprintln!("usage: trace_check <trace.jsonl>");
        std::process::exit(2);
    });
    if args.next().is_some() {
        eprintln!("usage: trace_check <trace.jsonl>");
        std::process::exit(2);
    }
    let trace = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("trace_check: cannot read '{path}': {e}");
        std::process::exit(2);
    });
    match validate_jsonl(&trace) {
        Ok(summary) => {
            println!(
                "{path}: {} events, {} stage spans, {} cache hits / {} misses",
                summary.events, summary.stage_spans, summary.cache_hits, summary.cache_misses,
            );
            for (stage, t) in &summary.stages {
                println!("  stage {stage}: {} spans, {:.6} s wall", t.spans, t.wall_s);
            }
            for (kind, t) in CacheKind::ALL.into_iter().zip(&summary.caches) {
                if t.hits + t.misses > 0 {
                    println!(
                        "  cache {}: {} hits, {} misses",
                        kind.key(),
                        t.hits,
                        t.misses
                    );
                }
            }
        }
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            std::process::exit(1);
        }
    }
}
