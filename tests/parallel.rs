//! Concurrency tests for the shared `ArtifactCache` and the
//! `ParallelExecutor`'s shared-cursor fan-out (DESIGN.md §10).
//!
//! Loom-style stress rather than model checking (the workspace vendors
//! no loom): threads line up on a `Barrier` so they genuinely race, and
//! the assertions are the protocol's invariants — one build per key,
//! no lost counter increments, bit-identical results versus serial.

use std::sync::{Arc, Barrier};
use std::thread;

use m3d_bench::{node_drivers, paper_drivers};
use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId, PdkRegistry};
use monolith3d::{
    experiments, ArtifactCache, ExperimentPlan, Flow, FlowConfig, FlowError, ParallelExecutor,
};

fn small_cfg() -> FlowConfig {
    FlowConfig::new(NodeId::N45).scale(BenchScale::Small)
}

/// N threads racing on one cold `LibraryKey` must coalesce into exactly
/// one characterization, every thread receiving the same artifact.
#[test]
fn racing_library_requests_build_exactly_once() {
    const THREADS: usize = 8;
    let cache = Arc::new(ArtifactCache::default());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                cache
                    .library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
                    .expect("library builds")
            })
        })
        .collect();
    let libs: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .collect();
    for lib in &libs[1..] {
        assert!(
            Arc::ptr_eq(&libs[0], lib),
            "every thread must share the one built artifact"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.library_builds, 1, "cold key characterized once");
    assert_eq!(
        stats.library_hits,
        (THREADS - 1) as u64,
        "every other request served from the coalesced build"
    );
}

/// Counter increments survive contention: over a mixed-key stress run,
/// `builds + hits` must equal the number of successful requests and
/// `builds` the number of distinct keys.
#[test]
fn library_stats_lose_no_increments_under_contention() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 5;
    let keys = [1.0, 0.9, 0.8];
    let cache = Arc::new(ArtifactCache::default());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for r in 0..ROUNDS {
                    let scale = keys[(t + r) % keys.len()];
                    cache
                        .library(NodeId::N45, DesignStyle::TwoD, false, scale)
                        .expect("library builds");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panic");
    }
    let stats = cache.stats();
    let requests = (THREADS * ROUNDS) as u64;
    assert_eq!(
        stats.library_builds + stats.library_hits,
        requests,
        "every request accounted for exactly once"
    );
    assert_eq!(
        stats.library_builds,
        keys.len() as u64,
        "one build per distinct key"
    );
    assert_eq!(cache.len().0, keys.len());
}

/// Racing full flows on one `FlowKey` return equal results and leave
/// the cache with a single coherent entry.
#[test]
fn racing_flow_runs_agree_bitwise() {
    const THREADS: usize = 4;
    let cache = Arc::new(ArtifactCache::default());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                Flow::new(Benchmark::Des, DesignStyle::TwoD, small_cfg())
                    .try_run_with_cache(&cache)
                    .expect("flow closes")
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .collect();
    for r in &results[1..] {
        // FlowResult's PartialEq compares every f64 exactly, so this is
        // a bit-identity check.
        assert_eq!(&results[0], r, "racing identical flows must agree");
    }
    assert_eq!(cache.len().1, 1, "one coherent entry for the shared key");
}

/// The executor's parallel fan-out must be indistinguishable from a
/// serial walk of the same plan: same results, bit for bit, in plan
/// order.
#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let mut plan = ExperimentPlan::new();
    plan.push_comparison(Benchmark::Des, &small_cfg());
    plan.push(Benchmark::Aes, DesignStyle::TwoD, small_cfg());

    let serial: Vec<_> = plan
        .points()
        .iter()
        .map(|p| {
            Flow::new(p.bench, p.style, p.config.clone())
                .try_run_with_cache(&Arc::new(ArtifactCache::default()))
                .expect("flow closes")
        })
        .collect();

    let report = ParallelExecutor::new(4)
        .with_cache(Arc::new(ArtifactCache::default()))
        .run(&plan);
    assert_eq!(report.outcomes.len(), serial.len());
    for (i, (par, ser)) in report.outcomes.iter().zip(&serial).enumerate() {
        let par = par.result().expect("parallel point closes");
        assert_eq!(par, &serial[i], "plan point {i} diverged from serial");
        assert_eq!(par.bench, ser.bench);
        assert_eq!(par.style, ser.style);
    }
}

/// Clears the global cache, pre-warms it from `plan` through a
/// two-worker fan-out, then runs `driver` and asserts it performed
/// zero flow misses — and, when the plan is nonempty, built no
/// library either.
fn assert_plan_covers(
    label: &str,
    plan: &ExperimentPlan,
    driver: impl FnOnce() -> Result<String, FlowError>,
) {
    let cache = ArtifactCache::global();
    cache.clear();
    let report = ParallelExecutor::new(2).run(plan);
    assert_eq!(
        report.done_count(),
        plan.len(),
        "{label}: prewarm closes every point"
    );
    let before = cache.stats();
    let text = driver().unwrap_or_else(|e| panic!("{label}: driver renders: {e}"));
    assert!(!text.is_empty(), "{label}: driver renders");
    let delta = cache.stats().delta(&before);
    assert_eq!(
        delta.flow_misses, 0,
        "{label}: a planned-and-prewarmed driver must only hit the cache"
    );
    if !plan.is_empty() {
        assert_eq!(
            delta.library_builds, 0,
            "{label}: prewarm built every library"
        );
    }
}

/// The per-driver plans must cover their drivers: after the executor
/// warms a cleared global cache from `plan_for` (`plan_for_at` for the
/// `--node` registry at a non-paper node), each driver performs zero
/// flow misses — plan and driver walk the same rows. Every registry
/// entry is checked on its own, so a point one driver forgets to plan
/// cannot hide behind another driver's plan. (Sole test in this binary
/// touching the global cache, so clearing it races nothing.)
#[test]
fn plans_cover_their_drivers() {
    for (name, driver) in paper_drivers() {
        let plan = experiments::plan_for(name, BenchScale::Small);
        assert_plan_covers(name, &plan, || driver(BenchScale::Small));
    }
    let fdsoi = PdkRegistry::global()
        .by_name("fdsoi-miv")
        .expect("fdsoi-miv is registered");
    for (name, driver) in node_drivers() {
        let plan = experiments::plan_for_at(name, BenchScale::Small, fdsoi);
        assert!(!plan.is_empty(), "--node driver '{name}' runs flows");
        assert_plan_covers(&format!("{name} at {fdsoi}"), &plan, || {
            driver(fdsoi, BenchScale::Small)
        });
    }
}
