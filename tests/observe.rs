//! Golden-trace suite for the observability layer: the smoke-subset
//! flow plan runs under a `VecRecorder` and the resulting event stream
//! must replay the pipeline topology exactly, balance every span,
//! agree with `CacheStats` on cache traffic, survive a JSONL round trip
//! through the schema validator with the same per-stage span counts and
//! wall times, and be order-normalized identical between
//! `--jobs 1` and `--jobs 4` runs. Separate tests pin the event shape
//! of a failed stage against a fault plan, and of a rejected config.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use m3d_bench::SMOKE_SUBSET;
use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::observe::{validate_jsonl, write_event_json};
use monolith3d::{
    experiments, ArtifactCache, CacheKind, ConfigError, Event, EventKind, ExperimentPlan,
    FaultPlan, Flow, FlowConfig, FlowError, FlowStage, FlowSupervisor, ParallelExecutor, Recorder,
    StageOutcome, VecRecorder,
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

/// Everything one instrumented plan run produced.
struct TraceRun {
    events: Vec<Event>,
    stats: monolith3d::CacheStats,
    /// The events rendered as the JSONL trace a `JsonlRecorder` writes.
    jsonl: String,
}

/// Runs `plan` on a fresh private cache with a `VecRecorder` attached,
/// so one run feeds every assertion style.
fn run_plan_traced(plan: &ExperimentPlan, jobs: usize) -> TraceRun {
    let cache = Arc::new(ArtifactCache::default());
    let vec = Arc::new(VecRecorder::new());
    cache.set_recorder(Arc::clone(&vec) as Arc<dyn Recorder>);
    let report = ParallelExecutor::new(jobs)
        .with_cache(Arc::clone(&cache))
        .run(plan);
    assert!(
        report.first_error().is_none(),
        "plan failed: {:?}",
        report.first_error()
    );
    let events = vec.events();
    let mut jsonl = String::new();
    for ev in &events {
        write_event_json(&mut jsonl, ev);
        jsonl.push('\n');
    }
    TraceRun {
        events,
        stats: cache.stats(),
        jsonl,
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

/// The stage a fault-free flow enters at.
const ENTRY: FlowStage = FlowStage::Library;

/// The stage a closed flow exits from.
const EXIT: FlowStage = FlowStage::SignOff;

/// Whether `from -> to` is a legal transition between *successful*
/// stage completions of one flow: the pipeline's forward edges, plus
/// the floorplan back edge — post-route optimization may return to
/// placement when the cell area drifted from the floorplan basis (the
/// two-round loop of paper Fig. 1).
fn legal_transition(from: FlowStage, to: FlowStage) -> bool {
    use FlowStage::*;
    matches!(
        (from, to),
        (Library, Synthesis)
            | (Synthesis, Placement)
            | (Placement, PreRouteOpt)
            | (PreRouteOpt, Routing)
            | (Routing, PostRouteOpt)
            | (PostRouteOpt, SignOff)
            | (PostRouteOpt, Placement)
    )
}

#[test]
fn legal_transitions_are_the_pipeline_plus_floorplan_back_edge() {
    assert_eq!(FlowStage::ALL.first(), Some(&ENTRY));
    assert_eq!(FlowStage::ALL.last(), Some(&EXIT));
    // Every adjacent pipeline pair is legal…
    for pair in FlowStage::ALL.windows(2) {
        assert!(
            legal_transition(pair[0], pair[1]),
            "{} -> {} must be legal",
            pair[0].key(),
            pair[1].key()
        );
    }
    // …plus exactly one back edge (the floorplan round).
    assert!(legal_transition(
        FlowStage::PostRouteOpt,
        FlowStage::Placement
    ));
    let mut legal = 0;
    for from in FlowStage::ALL {
        for to in FlowStage::ALL {
            legal += usize::from(legal_transition(from, to));
        }
    }
    assert_eq!(legal, 7, "6 forward edges + 1 back edge, nothing else");
    assert!(!legal_transition(FlowStage::SignOff, FlowStage::Library));
    assert!(!legal_transition(FlowStage::Library, FlowStage::Placement));
}

#[test]
fn event_stream_replays_the_stage_graph_topology() {
    let run = subset_jobs1();
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
                    ENTRY,
                    "{}/{}: a trace must open at the entry stage",
                    bench.name(),
                    style.label()
                ),
                Some(prev) => {
                    let forward = legal_transition(prev, stage);
                    let next_flow = prev == EXIT && stage == ENTRY;
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
            *last, EXIT,
            "{bench}/{style}: the final span must be the exit stage"
        );
    }
}

#[test]
fn trace_cache_counters_equal_cache_stats() {
    let run = subset_jobs1();
    let mut hits = [0u64; CacheKind::ALL.len()]; // indexed by CacheKind
    let mut misses = [0u64; CacheKind::ALL.len()];
    let mut evicted = [0u64; CacheKind::ALL.len()];
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
    let gmi = CacheKind::Gmi as usize;
    assert_eq!(hits[gmi], s.gmi_hits, "gmi hits: trace vs stats");
    assert_eq!(misses[gmi], s.gmi_builds, "gmi builds: trace vs stats");
    assert_eq!(evicted[gmi], s.gmi_evictions);
    let wlm = CacheKind::Wlm as usize;
    assert_eq!(hits[wlm], s.wlm_hits, "wlm hits: trace vs stats");
    assert_eq!(misses[wlm], s.wlm_builds, "wlm builds: trace vs stats");
    assert_eq!(evicted[wlm], s.wlm_evictions);
    let netlist = CacheKind::Netlist as usize;
    assert_eq!(
        hits[netlist], s.netlist_hits,
        "netlist hits: trace vs stats"
    );
    assert_eq!(
        misses[netlist], s.netlist_builds,
        "netlist builds: trace vs stats"
    );
    assert_eq!(evicted[netlist], s.netlist_evictions);
    // Serial execution never coalesces: nothing is ever in flight twice.
    assert_eq!(coalesced, 0, "a --jobs 1 run cannot coalesce builds");
}

#[test]
fn trace_stage_totals_match_the_recorded_spans() {
    let run = subset_jobs1();
    // Per stage: closed spans, the sum of `wall_s` as the trace prints
    // it (6 decimals), and the raw sum.
    let mut expected: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for ev in &run.events {
        if let EventKind::StageFinished { stage, wall_s, .. } = ev.kind {
            let e = expected.entry(stage.key()).or_default();
            e.0 += 1;
            e.1 += format!("{wall_s:.6}").parse::<f64>().expect("printed f64");
            e.2 += wall_s;
        }
    }
    let summary = validate_jsonl(&run.jsonl).expect("the emitted trace validates");
    assert_eq!(
        summary
            .stages
            .keys()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        expected.keys().copied().collect::<Vec<_>>(),
        "stage keys: trace vs events"
    );
    for (stage, (spans, printed, raw)) in &expected {
        let got = &summary.stages[*stage];
        assert_eq!(got.spans, *spans, "{stage}: span count");
        assert_eq!(
            format!("{:.6}", got.wall_s),
            format!("{printed:.6}"),
            "{stage}: wall_s sum at the trace's precision"
        );
        assert!(
            (got.wall_s - raw).abs() <= *spans as f64 * 0.5e-6 + 1e-9,
            "{stage}: summed {} vs raw {raw}",
            got.wall_s
        );
    }
    let spans: usize = summary.stages.values().map(|t| t.spans).sum();
    assert_eq!(spans, summary.stage_spans, "per-stage spans add up");
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
    // The trace's hit and miss totals span every cache kind.
    let s = &run.stats;
    let (mut hits, mut misses) = (0, 0);
    for kind in CacheKind::ALL {
        let (h, m) = match kind {
            CacheKind::Library => (s.library_hits, s.library_builds),
            CacheKind::Flow => (s.flow_hits, s.flow_misses),
            CacheKind::Spice => (s.spice_hits, s.spice_builds),
            CacheKind::Gmi => (s.gmi_hits, s.gmi_builds),
            CacheKind::Wlm => (s.wlm_hits, s.wlm_builds),
            CacheKind::Netlist => (s.netlist_hits, s.netlist_builds),
        };
        let totals = summary.caches[kind as usize];
        assert_eq!(
            (totals.hits, totals.misses),
            (h, m),
            "{} traffic",
            kind.key()
        );
        hits += h;
        misses += m;
    }
    assert_eq!(summary.cache_hits, hits);
    assert_eq!(summary.cache_misses, misses);
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

#[test]
fn rejected_config_is_traced_as_one_failed_library_span() {
    let vec = Arc::new(VecRecorder::new());
    let cache = Arc::new(ArtifactCache::default());
    cache.set_recorder(Arc::clone(&vec) as Arc<dyn Recorder>);
    let mut config = cfg();
    config.clock_ps = Some(f64::NAN);
    let err = Flow::new(Benchmark::Des, DesignStyle::Tmi, config)
        .try_run_with_cache(&cache)
        .expect_err("a NaN clock is rejected");
    assert!(
        matches!(err, FlowError::Config(ConfigError::BadClock(_))),
        "got {err}"
    );
    let kinds: Vec<EventKind> = vec.events().iter().map(|e| e.kind).collect();
    assert!(
        matches!(
            kinds.as_slice(),
            [
                EventKind::StageStarted {
                    bench: Benchmark::Des,
                    style: DesignStyle::Tmi,
                    stage: FlowStage::Library,
                    ..
                },
                EventKind::StageFinished {
                    bench: Benchmark::Des,
                    style: DesignStyle::Tmi,
                    stage: FlowStage::Library,
                    outcome: StageOutcome::Failed,
                    ..
                }
            ]
        ),
        "a rejected config leaves one failed library span: {kinds:?}"
    );
}
