//! Per-layer measurements for the traced run, all taken from outside
//! the programs: stage spans from the existing JSONL trace, driver and
//! cache figures from `paper_tables` stderr, and direct timed calls
//! into each layer's public functions.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use m3d_cells::CellLibrary;
use m3d_netlist::{BenchScale, Benchmark};
use m3d_place::Placer;
use m3d_power::{try_analyze_power, PowerConfig};
use m3d_route::Router;
use m3d_sta::{try_analyze, TimingConfig};
use m3d_synth::{try_synthesize, SynthConfig, WireLoadModel};
use m3d_tech::{DesignStyle, MetalStack, NodeId, TechNode};
use monolith3d::{
    default_clock_scale_at, experiments, json_raw_field, json_str_field, try_extraction_models,
    ArtifactCache, DiskStore, FlowConfig, FlowKey, LibraryKey, ParallelExecutor,
};

use crate::{stats, Record};

/// The flow stages, in pipeline order, by their trace key.
const STAGES: [&str; 7] = [
    "library",
    "synth",
    "place",
    "preroute",
    "route",
    "postroute",
    "signoff",
];

/// What the stage spans of one trace add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTotals {
    /// Summed `wall_s` of finished spans, per entry of [`STAGES`].
    pub wall_s: [f64; 7],
    /// `stage_started` events: every stage attempt.
    pub started: u64,
    /// Finished placement spans: one per floorplan round.
    pub place_count: u64,
}

impl StageTotals {
    /// All stage wall time.
    pub fn total_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// Sets the `stage.*` metrics.
    pub fn record(&self, rec: &mut Record) {
        for (stage, wall) in STAGES.iter().zip(self.wall_s) {
            rec.set(&format!("stage.{stage}.wall_s"), wall, 1);
        }
        rec.set("stage.started", self.started as f64, 1);
        rec.set("stage.place.count", self.place_count as f64, 1);
    }
}

/// Sums the stage spans of a JSONL trace.
pub fn stage_totals(jsonl: &str) -> StageTotals {
    let mut t = StageTotals::default();
    for line in jsonl.lines() {
        match json_str_field(line, "kind").as_deref() {
            Some("stage_started") => t.started += 1,
            Some("stage_finished") => {
                let stage = json_str_field(line, "stage").unwrap_or_default();
                let wall: f64 = json_raw_field(line, "wall_s")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0);
                if let Some(i) = STAGES.iter().position(|s| *s == stage) {
                    t.wall_s[i] += wall;
                }
                if stage == "place" {
                    t.place_count += 1;
                }
            }
            _ => {}
        }
    }
    t
}

/// Parses a `Duration` as its `Debug` form prints it (`27.5s`,
/// `154.1ms`, `12.3µs`, `800ns`) into seconds.
pub fn parse_debug_duration(s: &str) -> Option<f64> {
    let split = s.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (num, unit) = s.split_at(split);
    let v: f64 = num.parse().ok()?;
    let scale = match unit {
        "s" => 1.0,
        "ms" => 1e-3,
        "µs" | "us" => 1e-6,
        "ns" => 1e-9,
        _ => return None,
    };
    Some(v * scale)
}

/// Seconds `paper_tables` reports for driver `name` (its
/// `[name took …]` stderr line); `None` when the driver did not run.
pub fn driver_s(stderr: &str, name: &str) -> Option<f64> {
    let prefix = format!("[{name} took ");
    stderr.lines().find_map(|l| {
        l.strip_prefix(&prefix)?
            .strip_suffix(']')
            .and_then(parse_debug_duration)
    })
}

/// The cache counters of `paper_tables`' closing
/// `[artifact cache: …]` stderr line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub library_builds: u64,
    pub library_hits: u64,
    pub flow_hits: u64,
    pub flow_misses: u64,
    pub disk_hits: u64,
    pub disk_quarantined: u64,
}

/// Parses the `[artifact cache: …]` line: `;`-separated groups of
/// `group: N word, N word, …`.
pub fn cache_counts(stderr: &str) -> Option<CacheCounts> {
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("[artifact cache: "))?
        .strip_suffix(']')?;
    let mut c = CacheCounts::default();
    let mut seen = 0;
    for group in line.split(';') {
        let (name, items) = group.trim().split_once(": ")?;
        for item in items.split(", ") {
            let Some((n, word)) = item.split_once(' ') else {
                continue;
            };
            let slot = match (name, word) {
                ("libraries", "built") => &mut c.library_builds,
                ("libraries", "hits") => &mut c.library_hits,
                ("flows", "hits") => &mut c.flow_hits,
                ("flows", "misses") => &mut c.flow_misses,
                ("disk", "hits") => &mut c.disk_hits,
                ("disk", "quarantined") => &mut c.disk_quarantined,
                _ => continue,
            };
            *slot = n.parse().ok()?;
            seen += 1;
        }
    }
    (seen == 6).then_some(c)
}

/// Median seconds of `k` calls of `f`, each on a fresh `input()` built
/// outside the timed window, plus the last call's result.
fn timed<I, T>(k: usize, mut input: impl FnMut() -> I, mut f: impl FnMut(I) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k.max(1) {
        let x = input();
        let t = Instant::now();
        let out = black_box(f(black_box(x)));
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (stats::median(&times), last.expect("at least one call"))
}

/// Times each algorithm layer on one design (45 nm, 2D), calling the
/// same public entry points the flow stages call, in flow order: each
/// layer's output is the next layer's input. Returns metric name and
/// median seconds of `k` calls.
pub fn probe_algorithms(
    bench: Benchmark,
    scale: BenchScale,
    k: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let id = NodeId::N45;
    let node = TechNode::for_id(id);
    let (library_s, lib) = timed(
        k,
        || (),
        |()| {
            black_box(CellLibrary::build(&node, DesignStyle::Tmi));
            CellLibrary::build(&node, DesignStyle::TwoD)
        },
    );
    let clock_ps = bench.target_clock_ps(id) * default_clock_scale_at(bench, id);
    let utilization = bench.target_utilization();
    let (generate_s, raw) = timed(k, || (), |()| bench.generate(&lib, scale));
    let prelim = Placer::new(&lib)
        .utilization(utilization)
        .iterations(16)
        .try_place(&raw)
        .map_err(|e| format!("preliminary placement: {e}"))?;
    let wlm = WireLoadModel::from_placement(&raw, &prelim);
    let (synth_s, netlist) = timed(
        k,
        || raw.clone(),
        |n| try_synthesize(n, &lib, &wlm, &SynthConfig::new(clock_ps)),
    );
    let netlist = netlist.map_err(|e| format!("synthesis: {e}"))?;
    let placer = Placer::new(&lib)
        .utilization(utilization)
        .iterations(FlowConfig::new(id).scale(scale).place_iterations);
    let (place_s, placement) = timed(k, || (), |()| placer.try_place(&netlist));
    let placement = placement.map_err(|e| format!("placement: {e}"))?;
    let stack = MetalStack::new(&node, DesignStyle::TwoD.default_stack());
    let router = Router::new(&node, &stack);
    let (route_s, routed) = timed(k, || (), |()| router.try_route(&netlist, &placement, &lib));
    let routed = routed.map_err(|e| format!("routing: {e}"))?;
    let (extract_s, models) = timed(
        k,
        || (),
        |()| try_extraction_models(&netlist, &routed, &node),
    );
    let models = models.map_err(|e| format!("extraction: {e}"))?;
    let timing = TimingConfig::new(clock_ps);
    let (sta_s, report) = timed(k, || (), |()| try_analyze(&netlist, &lib, &models, &timing));
    report.map_err(|e| format!("timing: {e}"))?;
    let power_cfg = PowerConfig::new(clock_ps);
    let (power_s, power) = timed(
        k,
        || (),
        |()| try_analyze_power(&netlist, &lib, &models, &power_cfg),
    );
    power.map_err(|e| format!("power: {e}"))?;
    Ok(vec![
        ("probe.cells.library_build_s", library_s),
        ("probe.netlist.generate_s", generate_s),
        ("probe.synth.synthesize_s", synth_s),
        ("probe.place.place_s", place_s),
        ("probe.route.route_s", route_s),
        ("probe.extract.models_s", extract_s),
        ("probe.sta.analyze_s", sta_s),
        ("probe.power.analyze_s", power_s),
    ])
}

/// Calls per driver in [`probe_drivers_and_store`].
const DRIVER_CALLS: usize = 3;

/// Publishes the G-MI study's flow points (the small-scale Table 4
/// baselines) through the process-wide cache into a fresh store at
/// `store_dir`; times the two drivers whose SPICE work bypasses the
/// cache (their flows already cached, median of [`DRIVER_CALLS`]
/// calls); then probes the store as [`probe_store`] does.
pub fn probe_drivers_and_store(
    store_dir: &Path,
    scratch: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let cache = ArtifactCache::global();
    cache.attach_disk(DiskStore::open(store_dir));
    let report = ParallelExecutor::new(1).run(&experiments::plan_for("gmi", BenchScale::Small));
    cache.detach_disk();
    if let Some(e) = report.first_error() {
        return Err(format!("publishing the probe store: {e}"));
    }
    let (table2_s, _) = timed(
        DRIVER_CALLS,
        || (),
        |()| experiments::table2_cell_timing_power(),
    );
    let (gmi_s, _) = timed(
        DRIVER_CALLS,
        || (),
        |()| monolith3d::gmi::gmi_comparison(BenchScale::Small),
    );
    let mut out = vec![("driver.table2_s", table2_s), ("driver.gmi_s", gmi_s)];
    out.extend(probe_store(store_dir, scratch));
    Ok(out)
}

/// Times the persistent store from outside: loads every library and
/// flow entry the small suite can have published into `store_dir`, then
/// publishes what loaded into the empty directory `scratch`.
pub fn probe_store(store_dir: &Path, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut flow_keys: Vec<FlowKey> = Vec::new();
    let mut lib_keys: Vec<LibraryKey> = Vec::new();
    for (name, _) in m3d_bench::paper_drivers() {
        for p in experiments::plan_for(name, BenchScale::Small).points() {
            let c = &p.config;
            let fk = FlowKey::of(p.bench, p.style, c);
            if !flow_keys.contains(&fk) {
                flow_keys.push(fk);
            }
            // The stage's own library, and the 2D one Table 15's "-n"
            // rows synthesize T-MI designs against.
            for lk in [
                LibraryKey::new(c.node_id, p.style, c.lower_metal_rho, c.pin_cap_scale),
                LibraryKey::new(c.node_id, DesignStyle::TwoD, c.lower_metal_rho, 1.0),
            ] {
                if !lib_keys.contains(&lk) {
                    lib_keys.push(lk);
                }
            }
        }
    }
    let store = DiskStore::open(store_dir);
    let resident = store.resident_bytes();
    let (mut load_lib, mut load_flow) = (Vec::new(), Vec::new());
    let mut libs = Vec::new();
    for k in &lib_keys {
        let t = Instant::now();
        if let Some(lib) = store.load_library(k) {
            load_lib.push(t.elapsed().as_secs_f64());
            libs.push((*k, lib));
        }
    }
    let mut flows = Vec::new();
    for k in &flow_keys {
        let t = Instant::now();
        if let Some(r) = store.load_flow(k) {
            load_flow.push(t.elapsed().as_secs_f64());
            flows.push((*k, r));
        }
    }
    let out = DiskStore::open(scratch);
    let (mut store_lib, mut store_flow) = (Vec::new(), Vec::new());
    for (k, lib) in &libs {
        let t = Instant::now();
        out.store_library(k, lib);
        store_lib.push(t.elapsed().as_secs_f64());
    }
    for (k, r) in &flows {
        let t = Instant::now();
        out.store_flow(k, r);
        store_flow.push(t.elapsed().as_secs_f64());
    }
    vec![
        ("store.load_library_ms", stats::median(&load_lib) * 1e3),
        ("store.load_flow_us", stats::median(&load_flow) * 1e6),
        ("store.store_library_ms", stats::median(&store_lib) * 1e3),
        ("store.store_flow_us", stats::median(&store_flow) * 1e6),
        ("store.entries", (libs.len() + flows.len()) as f64),
        ("store.resident_bytes", resident as f64),
        ("store.quarantined", store.counters().quarantined as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_totals_sum_finished_spans_per_stage() {
        let trace = concat!(
            r#"{"seq":0,"thread":0,"t_s":0.0,"kind":"stage_started","bench":"AES","style":"2D","stage":"place","rung":0,"attempt":1,"consumes":[]}"#,
            "\n",
            r#"{"seq":1,"thread":1,"t_s":0.5,"kind":"stage_finished","bench":"AES","style":"2D","stage":"place","rung":0,"attempt":1,"outcome":"ok","wall_s":0.500000,"busy_s":0.4}"#,
            "\n",
            r#"{"seq":2,"thread":1,"t_s":0.7,"kind":"stage_finished","bench":"AES","style":"2D","stage":"route","rung":0,"attempt":1,"outcome":"ok","wall_s":0.250000,"busy_s":0.2}"#,
            "\n",
            r#"{"seq":3,"thread":0,"t_s":0.8,"kind":"cache_hit","cache":"flow"}"#,
        );
        let t = stage_totals(trace);
        assert_eq!(t.started, 1);
        assert_eq!(t.place_count, 1);
        assert_eq!(t.wall_s[2], 0.5);
        assert_eq!(t.wall_s[4], 0.25);
        assert_eq!(t.total_s(), 0.75);
    }

    #[test]
    fn debug_durations_parse_in_every_unit() {
        let close = |got: Option<f64>, want: f64| {
            got.is_some_and(|g| (g - want).abs() <= 1e-12 * want.max(1.0))
        };
        assert!(close(parse_debug_duration("27.5s"), 27.5));
        assert!(close(parse_debug_duration("154.1ms"), 0.1541));
        assert!(close(parse_debug_duration("12.5µs"), 12.5e-6));
        assert!(close(parse_debug_duration("800ns"), 800e-9));
        assert_eq!(parse_debug_duration("3 fortnights"), None);
        let stderr = "[table1 took 466.3µs]\n[table2 took 154.1ms]\n";
        assert!(close(driver_s(stderr, "table2"), 0.1541));
        assert_eq!(driver_s(stderr, "gmi"), None);
    }

    #[test]
    fn cache_line_parses_every_counter_it_names() {
        let stderr =
            "[table2 took 1ms]\n[artifact cache: libraries: 12 built, 57 hits, 0 evicted; \
                      flows: 56 stored, 54 hits, 56 misses, 0 evicted; disk: 3 hits, 0 misses, \
                      0 stored, 0 evicted, 1 quarantined; store degraded: 0]\n";
        assert_eq!(
            cache_counts(stderr),
            Some(CacheCounts {
                library_builds: 12,
                library_hits: 57,
                flow_hits: 54,
                flow_misses: 56,
                disk_hits: 3,
                disk_quarantined: 1,
            })
        );
        assert_eq!(cache_counts("[artifact cache: libraries: 1 built]\n"), None);
        assert_eq!(cache_counts("no cache line\n"), None);
    }
}
