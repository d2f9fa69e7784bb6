//! Property tests of the cache/store key discipline across the PDK
//! registry: every registered node's `LibraryKey`/`FlowKey` round-trips
//! its artifact bit-exactly through the `DiskStore` codec, and no two
//! distinct registered PDKs can ever serve each other's disk entries —
//! a 7 nm run over a 45 nm store directory (or an FDSOI run over
//! either) must miss cleanly and rebuild, never answer with the wrong
//! node's data.
//!
//! The registry is open: these tests iterate `PdkRegistry::global()`
//! rather than a hard-coded node list, so a future plug-in node is
//! covered the moment it registers.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use m3d_cells::CellLibrary;
use m3d_netlist::{BenchScale, Benchmark};
use m3d_power::PowerReport;
use m3d_route::LayerUsage;
use m3d_tech::{DesignStyle, NodeId, PdkRegistry, TechNode};
use monolith3d::{DiskStore, FlowConfig, FlowKey, FlowResult, LibraryKey};
use proptest::prelude::*;

fn temp_root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("m3d-pdk-keys-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn registered_nodes() -> Vec<NodeId> {
    let ids = PdkRegistry::global().ids();
    assert!(
        ids.len() >= 3,
        "expected at least the two paper nodes plus fdsoi-miv"
    );
    ids
}

/// Characterized libraries are expensive; build each registered node's
/// T-MI library once and share it across proptest cases.
fn library_for(id: NodeId) -> CellLibrary {
    static LIBS: OnceLock<Mutex<HashMap<NodeId, CellLibrary>>> = OnceLock::new();
    let libs = LIBS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut libs = libs.lock().expect("library cache lock");
    libs.entry(id)
        .or_insert_with(|| {
            let node = TechNode::try_for_id(id).expect("registered node has a TechNode");
            CellLibrary::try_build(&node, DesignStyle::Tmi).expect("registered node builds")
        })
        .clone()
}

/// A synthetic flow result stamped with the node it claims to be from,
/// so a cross-served entry would be observable.
fn result_for(id: NodeId, cell_count: usize) -> FlowResult {
    FlowResult {
        bench: Benchmark::Des,
        style: DesignStyle::Tmi,
        node_id: id,
        clock_ps: 1250.0,
        footprint_um2: 3321.5,
        core_um: (57.6, 57.66),
        cell_count,
        buffer_count: 87,
        utilization: 0.68,
        wirelength_um: 98_765.4,
        wns_ps: 3.25,
        hold_wns_ps: 1.5,
        power: PowerReport {
            cell_mw: 1.25,
            wire_mw: 0.75,
            pin_mw: 0.5,
            leakage_mw: 0.05,
            wire_cap_pf: 12.0,
            pin_cap_pf: 8.0,
        },
        layer_usage: LayerUsage {
            m1_um: 100.0,
            local_um: 5000.0,
            intermediate_um: 3000.0,
            global_um: 400.0,
            peak_utilization: [0.9, 0.7, 0.3],
            mean_utilization: [0.4, 0.3, 0.1],
            overflow_ratio: 0.0,
        },
        wlm_curve: vec![1.0, 1.5, 2.25, 3.375],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every registered PDK: its library round-trips bit-exactly
    /// under its own `LibraryKey`, and the same key re-targeted to any
    /// *other* registered node reads as a clean miss — never the first
    /// node's cells.
    #[test]
    fn library_keys_round_trip_and_never_cross_serve(
        node_idx in 0usize..16,
        rho_bit in 0u32..2,
        pin_scale_milli in 500u32..2000,
    ) {
        let ids = registered_nodes();
        let id = ids[node_idx % ids.len()];
        let rho = rho_bit == 1;
        let pin_scale = pin_scale_milli as f64 / 1000.0;
        let root = temp_root("lib");
        let store = DiskStore::open(&root);

        let lib = library_for(id);
        let key = LibraryKey::new(id, DesignStyle::Tmi, rho, pin_scale);
        store.store_library(&key, &lib);

        let back = store.load_library(&key).expect("own key hits");
        prop_assert_eq!(back.node().id, id);
        prop_assert_eq!(back.len(), lib.len());
        for ((name_a, a), (name_b, b)) in back.iter().zip(lib.iter()) {
            prop_assert_eq!(name_a, name_b);
            prop_assert_eq!(a, b);
        }

        for &other in ids.iter().filter(|&&o| o != id) {
            let foreign = LibraryKey::new(other, DesignStyle::Tmi, rho, pin_scale);
            prop_assert!(
                store.load_library(&foreign).is_none(),
                "{} must not serve a library stored by {}",
                other.label(),
                id.label()
            );
        }
        // Cross-node lookups are clean misses, not quarantines: the
        // keys address different entries, so nothing was damaged.
        prop_assert_eq!(store.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// Same discipline for flow results: every registered node's
    /// `FlowKey` round-trips its result bit-exactly, and re-keying the
    /// identical configuration to another registered node misses.
    #[test]
    fn flow_keys_round_trip_and_never_cross_serve(
        node_idx in 0usize..16,
        cell_count in 1usize..100_000,
        alpha_pct in 5u32..45,
    ) {
        let ids = registered_nodes();
        let id = ids[node_idx % ids.len()];
        let root = temp_root("flow");
        let store = DiskStore::open(&root);

        let mut cfg = FlowConfig::new(id).scale(BenchScale::Small);
        cfg.alpha_ff = alpha_pct as f64 / 100.0;
        let key = FlowKey::of(Benchmark::Des, DesignStyle::Tmi, &cfg);
        let want = result_for(id, cell_count);
        store.store_flow(&key, &want);

        let back = store.load_flow(&key).expect("own key hits");
        prop_assert_eq!(&back, &want);

        for &other in ids.iter().filter(|&&o| o != id) {
            let mut foreign_cfg = FlowConfig::new(other).scale(BenchScale::Small);
            foreign_cfg.alpha_ff = alpha_pct as f64 / 100.0;
            let foreign = FlowKey::of(Benchmark::Des, DesignStyle::Tmi, &foreign_cfg);
            prop_assert!(
                store.load_flow(&foreign).is_none(),
                "{} must not serve a flow stored by {}",
                other.label(),
                id.label()
            );
        }
        prop_assert_eq!(store.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&root);
    }
}

/// Exhaustive (non-random) pairing: every ordered pair of distinct
/// registered PDKs shares one store directory, each stores under its
/// own key, and each reads back only its own artifact.
#[test]
fn every_registered_pair_keeps_its_entries_apart() {
    let ids = registered_nodes();
    for &a in &ids {
        for &b in &ids {
            if a == b {
                continue;
            }
            let root = temp_root("pair");
            let store = DiskStore::open(&root);
            let key_a = FlowKey::of(
                Benchmark::Aes,
                DesignStyle::TwoD,
                &FlowConfig::new(a).scale(BenchScale::Small),
            );
            let key_b = FlowKey::of(
                Benchmark::Aes,
                DesignStyle::TwoD,
                &FlowConfig::new(b).scale(BenchScale::Small),
            );
            store.store_flow(&key_a, &result_for(a, 111));
            store.store_flow(&key_b, &result_for(b, 222));
            let got_a = store.load_flow(&key_a).expect("a hits");
            let got_b = store.load_flow(&key_b).expect("b hits");
            assert_eq!(got_a.node_id, a, "{} served foreign data", a.label());
            assert_eq!(got_b.node_id, b, "{} served foreign data", b.label());
            assert_eq!(got_a.cell_count, 111);
            assert_eq!(got_b.cell_count, 222);
            let _ = fs::remove_dir_all(&root);
        }
    }
}
