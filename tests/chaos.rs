//! Chaos harness for the flow supervisor: randomly generated fault
//! plans — injected errors, panics, blind delays, wedged stages and
//! slow stages at random stages and invocations — driven through a
//! traced supervised run.
//!
//! Invariants asserted for every generated plan:
//!
//! * the supervisor never panics and always returns: either `Ok` with
//!   numerics bit-identical to the fault-free run, or a typed error
//!   naming a stage the plan planted a fault in;
//! * every stage span the run opened is closed, and the trace passes
//!   the JSONL schema validator.
//!
//! A second harness points the same seeded machinery at the persistent
//! artifact store: torn writes (a kill mid-publish), corrupted entries
//! and injected I/O failures, each followed by a restart — a fresh
//! store instance over the surviving directory. The invariant is the
//! store's whole contract: a faulted entry may cost a miss, but no
//! fault sequence may ever surface as a hit carrying wrong data, and a
//! fault-free repair epoch always converges the directory to warm.
//!
//! Case count defaults low for the local test suite; CI's seeded chaos
//! job raises it via `CHAOS_CASES` (the vendored proptest draws cases
//! deterministically from the test path, so a count is a full replay).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::observe::{validate_jsonl, write_event_json};
use monolith3d::{
    ArtifactCache, DiskStore, FaultPlan, FlowConfig, FlowKey, FlowResult, FlowStage,
    FlowSupervisor, Recorder, StageDeadlines, StoreFaultPlan, VecRecorder,
};
use proptest::prelude::*;

fn cfg() -> FlowConfig {
    FlowConfig::new(NodeId::N45).scale(BenchScale::Small)
}

/// Number of chaos cases: `CHAOS_CASES` (CI sets 256+), default 24.
fn chaos_cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn scratch_dir() -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let n = SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("m3d-chaos-{}-{n}", std::process::id()))
}

/// The flow cache every flow case runs on: one for this test, so the
/// cell library is characterized once, with a fresh recorder per case.
fn flow_cache() -> &'static Arc<ArtifactCache> {
    static CACHE: OnceLock<Arc<ArtifactCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(ArtifactCache::default()))
}

/// The fault-free reference run, computed once.
fn reference() -> &'static FlowResult {
    static REF: OnceLock<FlowResult> = OnceLock::new();
    REF.get_or_init(|| {
        FlowSupervisor::new(Benchmark::Aes, DesignStyle::TwoD, cfg())
            .with_cache(Arc::clone(flow_cache()))
            .run()
            .expect("reference run must close")
    })
}

/// Exact bit patterns of the run's numerics.
fn fingerprint(r: &FlowResult) -> Vec<u64> {
    vec![
        r.clock_ps.to_bits(),
        r.utilization.to_bits(),
        r.wns_ps.to_bits(),
        r.footprint_um2.to_bits(),
        r.wirelength_um.to_bits(),
        r.total_power_mw().to_bits(),
        r.cell_count as u64,
    ]
}

const STAGES: [&str; 7] = [
    "library",
    "synth",
    "place",
    "preroute",
    "route",
    "postroute",
    "signoff",
];

/// Budget of a stage planted with a wedged or slow fault: the wedge
/// parks until it passes, so it bounds each case.
const STALL_BUDGET_MS: u64 = 200;

/// Derives a random fault plan from one 64-bit seed (SplitMix64), with
/// the stage budgets it needs and the stages it planted faults in.
fn plan_from_seed(mut state: u64) -> (FaultPlan, StageDeadlines, Vec<FlowStage>) {
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut plan = FaultPlan::new();
    let mut deadlines = StageDeadlines::default();
    let mut planted = Vec::new();
    let faults = 1 + (next() % 4) as usize;
    for _ in 0..faults {
        let stage = STAGES[(next() % STAGES.len() as u64) as usize];
        let invocation = 1 + (next() % 3) as u32;
        plan = match next() % 5 {
            0 => plan.fail_stage(stage, invocation),
            1 => plan.panic_stage(stage, invocation),
            2 => plan.delay_stage(stage, invocation, Duration::from_millis(5)),
            3 => {
                deadlines = deadlines.with_stage(stage, STALL_BUDGET_MS);
                plan.stuck_stage(stage, invocation)
            }
            _ => {
                deadlines = deadlines.with_stage(stage, STALL_BUDGET_MS);
                plan.slow_stage(stage, invocation, Duration::from_millis(10))
            }
        };
        planted.extend(FlowStage::from_name(stage));
    }
    (plan, deadlines, planted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn any_fault_plan_closes_bit_identically_or_fails_typed_at_a_planted_stage(
        seed in 0u64..1_000_000_000,
    ) {
        let reference = fingerprint(reference());
        let (plan, deadlines, planted) = plan_from_seed(seed);
        let trace = Arc::new(VecRecorder::new());
        flow_cache().set_recorder(Arc::clone(&trace) as Arc<dyn Recorder>);
        let outcome = FlowSupervisor::new(Benchmark::Aes, DesignStyle::TwoD, cfg())
            .with_cache(Arc::clone(flow_cache()))
            .with_deadlines(deadlines)
            .with_faults(plan)
            .run();
        match &outcome {
            Ok(result) => prop_assert!(
                fingerprint(result) == reference,
                "seed {}: a closed run diverged from the fault-free one",
                seed
            ),
            Err(e) => {
                prop_assert!(
                    e.stage().is_some_and(|s| planted.contains(&s)),
                    "seed {}: {} names no planted stage ({:?})",
                    seed,
                    e,
                    planted
                );
            }
        }
        let mut jsonl = String::new();
        for ev in trace.events() {
            write_event_json(&mut jsonl, &ev);
            jsonl.push('\n');
        }
        let summary = validate_jsonl(&jsonl);
        prop_assert!(summary.is_ok(), "seed {}: trace rejected: {:?}", seed, summary);
    }
}

// ---------------------------------------------------------------------
// Persistent-store chaos: random torn writes (kills mid-publish),
// corrupted entries and injected I/O failures against the disk tier,
// with a "restart" (fresh store instance over the surviving directory)
// after every faulted epoch.
// ---------------------------------------------------------------------

/// The distinct flow keys the store chaos publishes — one per
/// benchmark, each with a deterministic expected value.
const STORE_BENCHES: [Benchmark; 5] = [
    Benchmark::Fpu,
    Benchmark::Aes,
    Benchmark::Ldpc,
    Benchmark::Des,
    Benchmark::M256,
];

fn store_key(bench: Benchmark) -> FlowKey {
    FlowKey::of(bench, DesignStyle::Tmi, &cfg())
}

/// The deterministic artifact for one key: what every publish writes
/// and therefore the only value any hit may ever carry.
fn store_value(bench: Benchmark, idx: usize) -> monolith3d::FlowResult {
    monolith3d::FlowResult {
        bench,
        style: DesignStyle::Tmi,
        node_id: NodeId::N45,
        clock_ps: 1250.0 + idx as f64,
        footprint_um2: 3321.5,
        core_um: (57.6, 57.66),
        cell_count: 1000 + idx,
        buffer_count: 87,
        utilization: 0.68,
        wirelength_um: 98_765.4,
        wns_ps: 3.25,
        hold_wns_ps: 1.5,
        power: m3d_power::PowerReport {
            cell_mw: 1.25,
            wire_mw: 0.75,
            pin_mw: 0.5,
            leakage_mw: 0.05,
            wire_cap_pf: 12.0,
            pin_cap_pf: 8.0,
        },
        layer_usage: m3d_route::LayerUsage {
            m1_um: 100.0,
            local_um: 5000.0,
            intermediate_um: 3000.0,
            global_um: 400.0,
            peak_utilization: [0.9, 0.7, 0.3],
            mean_utilization: [0.4, 0.3, 0.1],
            overflow_ratio: 0.0,
        },
        wlm_curve: vec![1.0, 1.5, 2.25],
    }
}

/// Derives a random store fault plan from one seed: 1-4 faults of
/// random kinds landing on random publishes of the epoch.
fn store_plan_from_seed(mut state: u64) -> StoreFaultPlan {
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut plan = StoreFaultPlan::new();
    let faults = 1 + (next() % 4) as u32;
    for _ in 0..faults {
        let publish = 1 + (next() % STORE_BENCHES.len() as u64) as u32;
        plan = match next() % 3 {
            0 => plan.torn_write_on(publish),
            1 => plan.corrupt_entry_on(publish),
            _ => plan.unwritable_on(publish),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    /// Kill-and-restart chaos for the disk tier: publish a batch of
    /// artifacts with random torn writes / corruptions / I/O failures
    /// injected, then "restart the process" — a fresh `DiskStore` over
    /// the surviving directory — and read everything back. A load may
    /// miss (the fault cost us the entry) but may NEVER return a value
    /// other than the one published for that key; a repair epoch with
    /// no faults must then converge the directory to fully warm.
    #[test]
    fn store_faults_never_surface_as_corrupt_hits(seed in 0u64..1_000_000_000) {
        let dir = scratch_dir();
        let faulted = DiskStore::with_faults(&dir, u64::MAX, store_plan_from_seed(seed));
        for (i, b) in STORE_BENCHES.iter().enumerate() {
            faulted.store_flow(&store_key(*b), &store_value(*b, i));
        }

        // Restart #1: whatever survived the faulted epoch must verify.
        let restarted = DiskStore::open(&dir);
        for (i, b) in STORE_BENCHES.iter().enumerate() {
            if let Some(got) = restarted.load_flow(&store_key(*b)) {
                prop_assert_eq!(got, store_value(*b, i));
            }
        }

        // Repair epoch: a fault-free process republishes every key...
        for (i, b) in STORE_BENCHES.iter().enumerate() {
            restarted.store_flow(&store_key(*b), &store_value(*b, i));
        }
        prop_assert!(!restarted.is_degraded(), "repair epoch saw no real I/O failure");

        // ...so restart #2 serves every key, bit-exactly.
        let warm = DiskStore::open(&dir);
        for (i, b) in STORE_BENCHES.iter().enumerate() {
            let got = warm.load_flow(&store_key(*b));
            prop_assert!(got.is_some(), "key {} must be warm after repair", i);
            prop_assert_eq!(got.expect("checked"), store_value(*b, i));
        }
        let c = warm.counters();
        prop_assert_eq!((c.hits, c.misses), (STORE_BENCHES.len() as u64, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
