//! What the benchmark measures: workloads and metrics, with the units,
//! directions and regression bounds `BENCHMARK.json` publishes (a test
//! keeps the two in step).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, with why each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper-scale",
        "Paper-scale LDPC and DES in 2D and T-MI (fig3, table16), serial and cold: large designs where place and route dominate",
    ),
    (
        "small-suite",
        "Every paper table at small scale, one cold process per rep: many small flows, cache sharing, SPICE and per-flow overhead",
    ),
    (
        "warm-restart",
        "Fresh processes replay the small suite from a warm on-disk store: store reads and uncached SPICE, no flows run",
    ),
    (
        "serve",
        "m3d_serve at its default settings, closed loop on 2 connections, all warm cache hits: serving overhead alone",
    ),
];

/// Metrics every untraced run reports, for every workload. The unit of
/// work differs by workload: one cold or warm `paper_tables` process, or
/// one `run` request.
pub const END_TO_END: [Spec; 3] = [
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Metrics every traced run reports, for every workload: the stage,
/// flow, cache and tracing figures from the workload itself, the rest
/// from direct probes of each layer.
pub const PER_LAYER: [Spec; 51] = [
    layer("stage.library.wall_s", "s", Lower),
    layer("stage.synth.wall_s", "s", Lower),
    layer("stage.place.wall_s", "s", Lower),
    layer("stage.preroute.wall_s", "s", Lower),
    layer("stage.route.wall_s", "s", Lower),
    layer("stage.postroute.wall_s", "s", Lower),
    layer("stage.signoff.wall_s", "s", Lower),
    layer("stage.started", "count", Lower),
    layer("stage.place.count", "count", Lower),
    layer("flow.unattributed_s", "s", Lower),
    layer("flow.attributed_frac", "frac", Higher),
    layer("driver.table2_s", "s", Lower),
    layer("driver.gmi_s", "s", Lower),
    layer("probe.cells.library_build_s", "s", Lower),
    layer("probe.netlist.generate_s", "s", Lower),
    layer("probe.synth.synthesize_s", "s", Lower),
    layer("probe.place.place_s", "s", Lower),
    layer("probe.route.route_s", "s", Lower),
    layer("probe.extract.models_s", "s", Lower),
    layer("probe.sta.analyze_s", "s", Lower),
    layer("probe.power.analyze_s", "s", Lower),
    layer("cache.library_builds", "count", Lower),
    layer("cache.library_hits", "count", Higher),
    layer("cache.flow_misses", "count", Lower),
    layer("cache.flow_hits", "count", Higher),
    layer("cache.disk_hits", "count", Higher),
    layer("store.load_library_ms", "ms", Lower),
    layer("store.load_flow_us", "us", Lower),
    layer("store.store_library_ms", "ms", Lower),
    layer("store.store_flow_us", "us", Lower),
    layer("store.entries", "count", Higher),
    layer("store.resident_bytes", "bytes", Lower),
    layer("store.quarantined", "count", Lower),
    layer("proc.spawn_ms", "ms", Lower),
    layer("serve.cpu_us_per_req.r1000", "us", Lower),
    layer("serve.cpu_us_per_req.r8000", "us", Lower),
    layer("serve.cpu_us_per_req.sat", "us", Lower),
    layer("serve.sat_rps", "1/s", Higher),
    layer("serve.lat_tail_us.sat", "us", Lower),
    layer("serve.lat_p50_us.r1000", "us", Lower),
    layer("serve.lat_tail_us.r1000", "us", Lower),
    layer("serve.lat_p50_us.r8000", "us", Lower),
    layer("serve.lat_tail_us.r8000", "us", Lower),
    layer("serve.backlog_max.r8000", "count", Lower),
    layer("serve.connect_ms", "ms", Lower),
    layer("serve.cold_run_ms", "ms", Lower),
    layer("serve.requests", "count", Higher),
    layer("serve.protocol_errors", "count", Lower),
    layer("gen.lag_tail_us.r1000", "us", Lower),
    layer("gen.lag_tail_us.r8000", "us", Lower),
    layer("trace.overhead_frac", "frac", Lower),
];

/// The metric named `name`, from either list.
pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` publishes exactly these workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, why) in WORKLOADS {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "missing workload entry {entry}");
        }
        for s in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let better = match s.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let mut entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                s.name, s.unit
            );
            if let Some(b) = s.bound {
                entry.push_str(&format!(", \"bound\": {b}"));
            }
            entry.push('}');
            assert!(json.contains(&entry), "missing metric entry {entry}");
        }
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|s| s.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!names[..i].contains(n), "{n} used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s"));
        let setup_bound = find("setup_s").and_then(|s| s.bound);
        for s in &END_TO_END {
            let b = s.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25 && Some(b) <= setup_bound);
        }
    }
}
