//! Golden-trace suite for the observability layer: the smoke-subset
//! flow plan runs under a `VecRecorder` and the resulting event stream
//! must replay the stage-graph topology exactly, balance every span,
//! agree with `CacheStats` on cache traffic, aggregate into the same
//! `MetricsRegistry` counters, survive a JSONL round trip through the
//! schema validator, and be order-normalized identical between
//! `--jobs 1` and `--jobs 4` runs. A separate test pins the event
//! shape of a failed stage against a fault plan.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

use m3d_bench::SMOKE_SUBSET;
use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::observe::validate_jsonl;
use monolith3d::{
    experiments, ArtifactCache, CacheKind, Event, EventKind, ExperimentPlan, FaultPlan, FlowConfig,
    FlowError, FlowStage, FlowSupervisor, JsonlRecorder, MetricsRegistry, ParallelExecutor,
    Recorder, RunReport, StageGraph, StageOutcome, Tee, VecRecorder,
};

fn cfg() -> FlowConfig {
    FlowConfig::new(NodeId::N45).scale(BenchScale::Small)
}

/// The exact flow matrix the smoke subset fans out.
fn subset_plan() -> ExperimentPlan {
    let mut plan = ExperimentPlan::new();
    for name in SMOKE_SUBSET {
        plan.merge(experiments::plan_for(name, BenchScale::Small));
    }
    assert!(!plan.is_empty(), "the smoke subset must plan flows");
    plan
}

/// An in-memory `Write` target for `JsonlRecorder`, shareable between
/// the recorder (which owns a boxed clone) and the test.
#[derive(Clone, Default, Debug)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf-8 trace")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Everything one instrumented plan run produced, across all sinks.
struct TraceRun {
    events: Vec<Event>,
    stats: monolith3d::CacheStats,
    report: RunReport,
    jsonl: String,
}

/// Runs `plan` on a fresh private cache with a `VecRecorder`, a
/// `MetricsRegistry` and a `JsonlRecorder` all teed onto the cache, so
/// one run feeds every assertion style.
fn run_plan_traced(plan: &ExperimentPlan, jobs: usize) -> TraceRun {
    let cache = Arc::new(ArtifactCache::default());
    let vec = Arc::new(VecRecorder::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlRecorder::new(Box::new(buf.clone())));
    let inner = Arc::new(Tee::new(
        Arc::clone(&metrics) as Arc<dyn Recorder>,
        Arc::clone(&jsonl) as Arc<dyn Recorder>,
    ));
    cache.set_recorder(Arc::new(Tee::new(
        Arc::clone(&vec) as Arc<dyn Recorder>,
        inner as Arc<dyn Recorder>,
    )));
    let report = ParallelExecutor::new(jobs)
        .with_cache(Arc::clone(&cache))
        .run(plan);
    assert!(
        report.first_error().is_none(),
        "plan failed: {:?}",
        report.first_error()
    );
    jsonl.flush().expect("trace flushes");
    TraceRun {
        events: vec.events(),
        stats: cache.stats(),
        report: metrics.report(),
        jsonl: buf.contents(),
    }
}

fn subset_jobs1() -> &'static TraceRun {
    static RUN: OnceLock<TraceRun> = OnceLock::new();
    RUN.get_or_init(|| run_plan_traced(&subset_plan(), 1))
}

fn subset_jobs4() -> &'static TraceRun {
    static RUN: OnceLock<TraceRun> = OnceLock::new();
    RUN.get_or_init(|| run_plan_traced(&subset_plan(), 4))
}

/// One stage-scoped event with scheduler-dependent stamps (seq, thread,
/// timestamps, durations) stripped. Derives `Ord` so multisets compare
/// by sorting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Norm {
    Started {
        stage: &'static str,
        consumes: &'static [&'static str],
    },
    Finished {
        stage: &'static str,
        outcome: &'static str,
    },
}

type Groups = BTreeMap<(&'static str, &'static str), Vec<Norm>>;
type CacheCounts = BTreeMap<(&'static str, &'static str), u64>;

/// Splits a trace into per-`(bench, style)` stage-event sequences plus
/// global cache-traffic counts. `CacheCoalesced` is a scheduling
/// artifact, not flow semantics, and is dropped — a coalesced wait
/// already reports its `CacheHit`, so hit/miss counts stay
/// schedule-independent.
fn normalize(events: &[Event]) -> (Groups, CacheCounts) {
    let mut groups: Groups = BTreeMap::new();
    let mut cache: CacheCounts = BTreeMap::new();
    for ev in events {
        let (key, norm) = match ev.kind {
            EventKind::StageStarted {
                bench,
                style,
                stage,
                consumes,
            } => (
                (bench.name(), style.label()),
                Norm::Started {
                    stage: stage.key(),
                    consumes,
                },
            ),
            EventKind::StageFinished {
                bench,
                style,
                stage,
                outcome,
                ..
            } => (
                (bench.name(), style.label()),
                Norm::Finished {
                    stage: stage.key(),
                    outcome: outcome.key(),
                },
            ),
            EventKind::CacheHit { kind } => {
                *cache.entry(("hit", kind.key())).or_insert(0) += 1;
                continue;
            }
            EventKind::CacheMiss { kind } => {
                *cache.entry(("miss", kind.key())).or_insert(0) += 1;
                continue;
            }
            EventKind::CacheEvicted { kind, count } => {
                *cache.entry(("evicted", kind.key())).or_insert(0) += count;
                continue;
            }
            EventKind::CacheCoalesced { .. } => continue,
            // Disk traffic is schedule- and persistence-dependent (a
            // warm --cache-dir legitimately changes it), so the
            // normalized trace identity excludes it, like coalescing.
            EventKind::DiskHit { .. }
            | EventKind::DiskMiss { .. }
            | EventKind::DiskEvicted { .. }
            | EventKind::DiskQuarantined { .. }
            | EventKind::StoreDegraded { .. } => continue,
            // Governance events describe the run's life-cycle, not the
            // flow semantics of any one point, so the normalized trace
            // identity excludes them too.
            EventKind::CancelRequested { .. }
            | EventKind::PointCancelled { .. }
            | EventKind::AdmissionRejected { .. }
            | EventKind::QuotaExhausted { .. } => continue,
        };
        groups.entry(key).or_default().push(norm);
    }
    (groups, cache)
}

/// Stage spans keyed by full identity, for balance checking. The same
/// identity can be open more than once at `--jobs 4` (two configs of
/// one `(bench, style)` pair racing), so this counts rather than flags.
fn open_span_counts(events: &[Event]) -> HashMap<(&'static str, &'static str, &'static str), i64> {
    let mut open = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::StageStarted {
                bench,
                style,
                stage,
                ..
            } => {
                *open
                    .entry((bench.name(), style.label(), stage.key()))
                    .or_insert(0) += 1;
            }
            EventKind::StageFinished {
                bench,
                style,
                stage,
                ..
            } => {
                let slot = open
                    .entry((bench.name(), style.label(), stage.key()))
                    .or_insert(0);
                *slot -= 1;
                assert!(
                    *slot >= 0,
                    "stage_finished before its stage_started: {}/{} {}",
                    bench.name(),
                    style.label(),
                    stage.key()
                );
            }
            _ => {}
        }
    }
    open
}

#[test]
fn every_stage_started_pairs_with_one_terminal_event() {
    let run = subset_jobs1();
    let started = run
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::StageStarted { .. }))
        .count();
    let finished = run
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::StageFinished { .. }))
        .count();
    assert!(started > 0, "the subset plan must open stage spans");
    assert_eq!(started, finished, "every span must terminate exactly once");
    for (span, open) in open_span_counts(&run.events) {
        assert_eq!(open, 0, "span left open or over-closed: {span:?}");
    }
    // Sequence numbers are strictly increasing in a VecRecorder dump.
    for pair in run.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq must be strictly monotonic");
    }
}

#[test]
fn event_stream_replays_the_stage_graph_topology() {
    let run = subset_jobs1();
    let graph = StageGraph::paper_pipeline();
    // Per-(bench, style) walk. At --jobs 1 the worker runs each flow
    // start-to-finish, so a pair's stream is a concatenation of whole
    // flows: each begins at the entry stage, then every hop is a legal
    // graph transition or a wrap-around from the exit stage into the
    // next flow of the same pair. Each walk holds the last stage seen.
    let mut walks: HashMap<(&str, &str), FlowStage> = HashMap::new();
    for ev in &run.events {
        if let EventKind::StageStarted {
            bench,
            style,
            stage,
            ..
        } = ev.kind
        {
            match walks.insert((bench.name(), style.label()), stage) {
                None => assert_eq!(
                    stage,
                    graph.entry_stage(),
                    "{}/{}: a trace must open at the entry stage",
                    bench.name(),
                    style.label()
                ),
                Some(prev) => {
                    let forward = graph.legal_transition(prev, stage);
                    let next_flow = prev == graph.exit_stage() && stage == graph.entry_stage();
                    assert!(
                        forward || next_flow,
                        "{}/{}: illegal hop {} -> {}",
                        bench.name(),
                        style.label(),
                        prev.key(),
                        stage.key()
                    );
                }
            }
        }
    }
    assert!(
        !walks.is_empty(),
        "the subset must cover some design points"
    );
    // Every pair's last span is the exit stage: all subset flows close.
    for ((bench, style), last) in &walks {
        assert_eq!(
            *last,
            graph.exit_stage(),
            "{bench}/{style}: the final span must be the exit stage"
        );
    }
}

#[test]
fn trace_cache_counters_equal_cache_stats() {
    let run = subset_jobs1();
    let mut hits = [0u64; 3]; // [library, flow, spice]
    let mut misses = [0u64; 3];
    let mut evicted = [0u64; 3];
    let mut coalesced = 0u64;
    for ev in &run.events {
        match ev.kind {
            EventKind::CacheHit { kind } => hits[kind as usize] += 1,
            EventKind::CacheMiss { kind } => misses[kind as usize] += 1,
            EventKind::CacheEvicted { kind, count } => evicted[kind as usize] += count,
            EventKind::CacheCoalesced { .. } => coalesced += 1,
            _ => {}
        }
    }
    let lib = CacheKind::Library as usize;
    let flow = CacheKind::Flow as usize;
    let s = &run.stats;
    assert_eq!(hits[lib], s.library_hits, "library hits: trace vs stats");
    assert_eq!(
        misses[lib], s.library_builds,
        "library builds: trace vs stats"
    );
    assert_eq!(evicted[lib], s.library_evictions);
    assert_eq!(hits[flow], s.flow_hits, "flow hits: trace vs stats");
    assert_eq!(misses[flow], s.flow_misses, "flow misses: trace vs stats");
    assert_eq!(evicted[flow], s.flow_evictions);
    let spice = CacheKind::Spice as usize;
    assert_eq!(hits[spice], s.spice_hits, "spice hits: trace vs stats");
    assert_eq!(
        misses[spice], s.spice_builds,
        "spice builds: trace vs stats"
    );
    assert_eq!(evicted[spice], s.spice_evictions);
    // Serial execution never coalesces: nothing is ever in flight twice.
    assert_eq!(coalesced, 0, "a --jobs 1 run cannot coalesce builds");
}

#[test]
fn metrics_registry_aggregates_exactly_the_recorded_events() {
    let run = subset_jobs1();
    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in &run.events {
        let (key, by) = match ev.kind {
            EventKind::StageStarted { .. } => ("stage_started", 1),
            EventKind::StageFinished { outcome, .. } => match outcome {
                StageOutcome::Ok => ("stage_finished_ok", 1),
                StageOutcome::Failed => ("stage_finished_failed", 1),
                StageOutcome::Panicked => ("stage_finished_panicked", 1),
                StageOutcome::TimedOut => ("stage_finished_timed_out", 1),
                StageOutcome::Cancelled => ("stage_finished_cancelled", 1),
            },
            EventKind::CacheHit { kind } => match kind {
                CacheKind::Library => ("cache_hit_library", 1),
                CacheKind::Flow => ("cache_hit_flow", 1),
                CacheKind::Spice => ("cache_hit_spice", 1),
            },
            EventKind::CacheMiss { kind } => match kind {
                CacheKind::Library => ("cache_miss_library", 1),
                CacheKind::Flow => ("cache_miss_flow", 1),
                CacheKind::Spice => ("cache_miss_spice", 1),
            },
            EventKind::CacheCoalesced { kind } => match kind {
                CacheKind::Library => ("cache_coalesced_library", 1),
                CacheKind::Flow => ("cache_coalesced_flow", 1),
                CacheKind::Spice => ("cache_coalesced_spice", 1),
            },
            EventKind::CacheEvicted { kind, count } => match kind {
                CacheKind::Library => ("cache_evicted_library", count),
                CacheKind::Flow => ("cache_evicted_flow", count),
                CacheKind::Spice => ("cache_evicted_spice", count),
            },
            EventKind::DiskHit { kind } => match kind {
                CacheKind::Library => ("disk_hit_library", 1),
                CacheKind::Flow => ("disk_hit_flow", 1),
                CacheKind::Spice => ("disk_hit_spice", 1),
            },
            EventKind::DiskMiss { kind } => match kind {
                CacheKind::Library => ("disk_miss_library", 1),
                CacheKind::Flow => ("disk_miss_flow", 1),
                CacheKind::Spice => ("disk_miss_spice", 1),
            },
            EventKind::DiskEvicted { kind, count, .. } => match kind {
                CacheKind::Library => ("disk_evicted_library", count),
                CacheKind::Flow => ("disk_evicted_flow", count),
                CacheKind::Spice => ("disk_evicted_spice", count),
            },
            EventKind::DiskQuarantined { .. } => ("disk_quarantined", 1),
            EventKind::StoreDegraded { .. } => ("store_degraded", 1),
            EventKind::CancelRequested { .. } => ("cancel_requested", 1),
            EventKind::PointCancelled { .. } => ("point_cancelled", 1),
            EventKind::AdmissionRejected { .. } => ("admission_rejected", 1),
            EventKind::QuotaExhausted { .. } => ("quota_exhausted", 1),
        };
        *expected.entry(key).or_insert(0) += by;
    }
    let got: BTreeMap<&str, u64> = run
        .report
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert_eq!(got, expected, "registry counters vs raw event stream");
    // The per-stage histograms account for every terminated span.
    let finished: u64 = ["ok", "failed", "panicked", "timed_out", "cancelled"]
        .iter()
        .map(|o| run.report.counter(&format!("stage_finished_{o}")))
        .sum();
    let histogrammed: u64 = run.report.stage_wall.iter().map(|(_, h)| h.count).sum();
    assert_eq!(histogrammed, finished, "histograms vs terminal events");
    // And the JSON rendering carries every counter verbatim.
    let json = run.report.to_json();
    for (k, v) in &run.report.counters {
        assert!(
            json.contains(&format!("\"{k}\": {v}")),
            "report JSON must carry {k}={v}"
        );
    }
}

#[test]
fn jsonl_trace_validates_and_matches_the_vec_recorder() {
    let run = subset_jobs1();
    let summary = validate_jsonl(&run.jsonl).expect("the emitted trace validates");
    assert_eq!(summary.events, run.events.len(), "one line per event");
    let started = run
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::StageStarted { .. }))
        .count();
    assert_eq!(summary.stage_spans, started);
    assert_eq!(
        summary.cache_hits,
        run.stats.library_hits + run.stats.flow_hits
    );
    assert_eq!(
        summary.cache_misses,
        run.stats.library_builds + run.stats.flow_misses
    );
}

#[test]
fn jobs1_and_jobs4_traces_are_order_normalized_identical() {
    let (groups1, cache1) = normalize(&subset_jobs1().events);
    let (groups4, cache4) = normalize(&subset_jobs4().events);
    assert_eq!(
        cache1, cache4,
        "cache traffic must be schedule-independent (coalesced waits count as hits)"
    );
    assert_eq!(
        groups1.keys().collect::<Vec<_>>(),
        groups4.keys().collect::<Vec<_>>(),
        "both runs cover the same design points"
    );
    // Two configs of one (bench, style) pair may interleave at --jobs 4,
    // so each pair's events compare as a sorted multiset.
    for (key, seq1) in &groups1 {
        let mut a = seq1.clone();
        let mut b = groups4[key].clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{key:?}: normalized event multisets diverge");
    }
}

/// Sharper ordering claim on a plan whose points all have distinct
/// `(bench, style)` pairs: with no intra-pair interleaving possible,
/// the normalized per-pair sequences must match **in order**, not just
/// as multisets.
#[test]
fn distinct_point_traces_are_identical_in_order_across_schedules() {
    let mut plan = ExperimentPlan::new();
    plan.push(Benchmark::Aes, DesignStyle::TwoD, cfg());
    plan.push(Benchmark::Aes, DesignStyle::Tmi, cfg());
    plan.push(Benchmark::Des, DesignStyle::TwoD, cfg());
    plan.push(Benchmark::Ldpc, DesignStyle::Tmi, cfg());
    let (groups1, _) = normalize(&run_plan_traced(&plan, 1).events);
    let (groups4, _) = normalize(&run_plan_traced(&plan, 4).events);
    assert_eq!(groups1.len(), 4);
    assert_eq!(groups1, groups4, "ordered per-point traces diverge");
}

/// A planted stage error is traced as exactly one failed span, and the
/// run ends there: no stage after it opens, and every span closes.
#[test]
fn failed_stage_is_traced_as_one_failed_span_that_ends_the_run() {
    let vec = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&vec) as Arc<dyn Recorder>);
    let err = FlowSupervisor::new(Benchmark::Aes, DesignStyle::TwoD, cfg())
        .with_cache(cache)
        .with_faults(FaultPlan::new().fail_stage("route", 1))
        .run()
        .expect_err("an injected routing failure ends the run");
    assert!(
        matches!(
            err,
            FlowError::Injected {
                stage: FlowStage::Routing,
                ..
            }
        ),
        "got {err}"
    );
    let events = vec.events();
    let last_span: Vec<&EventKind> = events
        .iter()
        .map(|e| &e.kind)
        .filter(|k| {
            matches!(
                k,
                EventKind::StageStarted { .. } | EventKind::StageFinished { .. }
            )
        })
        .collect();
    assert!(
        matches!(
            last_span.as_slice(),
            [
                ..,
                EventKind::StageStarted {
                    stage: FlowStage::Routing,
                    ..
                },
                EventKind::StageFinished {
                    stage: FlowStage::Routing,
                    outcome: StageOutcome::Failed,
                    ..
                }
            ]
        ),
        "the routing span is the last and closes failed: {last_span:?}"
    );
    for (span, open) in open_span_counts(&events) {
        assert_eq!(open, 0, "span left open: {span:?}");
    }
}
