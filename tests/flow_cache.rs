//! Cache behaviour of the flow: a cache-hit result must be bit-identical
//! to the cold run, and the flow key must track exactly the configuration
//! knobs the stages consume.

use std::sync::Arc;

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::{ArtifactCache, Flow, FlowConfig};

fn small(node: NodeId) -> FlowConfig {
    FlowConfig::new(node).scale(BenchScale::Small)
}

#[test]
fn cache_hit_is_bit_identical_to_the_cold_run_at_both_nodes() {
    for node in [NodeId::N45, NodeId::N7] {
        let cache = Arc::new(ArtifactCache::default());
        let flow = Flow::new(Benchmark::Aes, DesignStyle::TwoD, small(node));
        let cold = flow.try_run_with_cache(&cache).expect("cold run closes");
        assert_eq!(cache.stats().flow_hits, 0);
        assert_eq!(cache.stats().flow_stores, 1);
        let warm = flow.try_run_with_cache(&cache).expect("warm run closes");
        assert_eq!(cache.stats().flow_hits, 1, "second run must hit the cache");
        assert_eq!(cold, warm, "cache hit must be bit-identical at {node:?}");
    }
}

#[test]
fn consumed_knob_invalidates_the_key_and_unconsumed_knob_does_not() {
    let cache = Arc::new(ArtifactCache::default());
    let base = small(NodeId::N45);
    let cold = Flow::new(Benchmark::Des, DesignStyle::TwoD, base.clone())
        .try_run_with_cache(&cache)
        .expect("cold run closes");

    // A 2D flow never reads the T-MI WLM switch, so flipping it must
    // share the stored result instead of re-running.
    let mut unconsumed = base.clone();
    unconsumed.tmi_wlm = false;
    let shared = Flow::new(Benchmark::Des, DesignStyle::TwoD, unconsumed)
        .try_run_with_cache(&cache)
        .expect("shared run closes");
    assert_eq!(
        cache.stats().flow_hits,
        1,
        "unconsumed knob must not split the key"
    );
    assert_eq!(cold, shared);

    // pin_cap_scale is consumed (library build and every downstream
    // stage), so changing it must miss and re-run.
    let mut consumed = base;
    consumed.pin_cap_scale = 0.6;
    let rerun = Flow::new(Benchmark::Des, DesignStyle::TwoD, consumed)
        .try_run_with_cache(&cache)
        .expect("re-run closes");
    let stats = cache.stats();
    assert_eq!(stats.flow_hits, 1, "consumed-knob change must not hit");
    assert_eq!(stats.flow_stores, 2, "the re-run stored a distinct entry");
    assert_ne!(rerun, cold, "scaled pin caps change the sign-off result");
    assert!(
        stats.library_builds >= 2,
        "the scaled run characterized its own library"
    );
}

#[test]
fn cached_flows_share_one_library_build_per_key() {
    let cache = Arc::new(ArtifactCache::default());
    let cfg = small(NodeId::N45);
    for bench in [Benchmark::Aes, Benchmark::Des] {
        Flow::new(bench, DesignStyle::TwoD, cfg.clone())
            .try_run_with_cache(&cache)
            .expect("run closes");
    }
    let stats = cache.stats();
    assert_eq!(
        stats.library_builds, 1,
        "two 2D flows at one node share one library build"
    );
    assert!(stats.library_hits >= 1);
}
