//! Validates a JSONL event trace written by `JsonlRecorder`.
//!
//! ```text
//! trace_check <trace.jsonl>
//! ```
//!
//! Checks every line against the event schema: known `kind`, required
//! per-kind fields, strictly increasing sequence numbers, and balanced
//! stage spans (every `stage_started` paired with exactly one terminal
//! `stage_finished`). Prints a one-line summary and exits 0 on success;
//! prints the violation and exits 1 otherwise. CI runs this over the
//! trace the smoke subset emits, so a schema drift between the recorder
//! and the validator fails the build rather than silently producing
//! unparseable artifacts.

use monolith3d::observe::validate_jsonl;

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
        }
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            std::process::exit(1);
        }
    }
}
