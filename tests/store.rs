//! Adversarial integration tests of the persistent content-addressed
//! artifact store: arbitrary single-byte corruption and truncation of
//! on-disk flow, SPICE and G-MI entries, quarantine naming, concurrent same-directory
//! instances (the multi-process stand-in), and graceful degradation
//! when the store directory cannot be written.
//!
//! The store's contract under attack is *miss, never lie*: a damaged
//! entry may cost a rebuild, but no sequence of byte-level corruption
//! may ever surface as a cache hit carrying wrong data, and no I/O
//! failure may ever fail a run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use m3d_cells::characterize::SpiceTables;
use m3d_cells::{CellFunction, CellLibrary, Nldm};
use m3d_netlist::{BenchScale, Benchmark};
use m3d_power::PowerReport;
use m3d_route::LayerUsage;
use m3d_tech::{DesignStyle, NodeId, TechNode};
use monolith3d::gmi::GmiResult;
use monolith3d::{
    DiskStore, EventKind, FlowConfig, FlowKey, FlowResult, LibraryKey, Recorder, SpiceKey,
    VecRecorder,
};
use proptest::prelude::*;

fn temp_root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("m3d-store-it-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sample_result(cell_count: usize) -> FlowResult {
    FlowResult {
        bench: Benchmark::Des,
        style: DesignStyle::Tmi,
        node_id: NodeId::N45,
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

fn flow_key() -> FlowKey {
    FlowKey::of(
        Benchmark::Des,
        DesignStyle::Tmi,
        &FlowConfig::new(NodeId::N45).scale(BenchScale::Small),
    )
}

fn spice_key() -> SpiceKey {
    SpiceKey::new(
        NodeId::N45,
        DesignStyle::TwoD,
        CellFunction::Mux2,
        1,
        &[7.5, 37.5, 150.0],
        &[0.8, 3.2],
    )
}

fn sample_spice() -> SpiceTables {
    let grid = |scale: f64| {
        let values = (0..6).map(|i| scale * (1.0 + i as f64)).collect();
        Nldm::new(vec![7.5, 37.5, 150.0], vec![0.8, 3.2], values)
    };
    SpiceTables {
        delay: grid(59.8),
        out_slew: grid(21.5),
        energy: grid(2.113),
    }
}

/// The G-MI entry's key: the 2D reference point of a small AES run.
fn gmi_key() -> FlowKey {
    FlowKey::of(
        Benchmark::Aes,
        DesignStyle::TwoD,
        &FlowConfig::new(NodeId::N45).scale(BenchScale::Small),
    )
}

fn sample_gmi() -> GmiResult {
    GmiResult {
        footprint_um2: 1661.25,
        wirelength_um: 48_321.5,
        miv_nets: 397,
        wns_ps: -37.125,
        total_power_mw: 0.4375,
    }
}

/// One entry of any kind the byte-level attacks cover.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Flow,
    Spice,
    Gmi,
}

impl Entry {
    fn of(tag: u8) -> Entry {
        match tag {
            0 => Entry::Flow,
            1 => Entry::Spice,
            _ => Entry::Gmi,
        }
    }

    fn publish(self, store: &DiskStore) {
        match self {
            Entry::Flow => store.store_flow(&flow_key(), &sample_result(4321)),
            Entry::Spice => store.store_spice(&spice_key(), &sample_spice()),
            Entry::Gmi => store.store_gmi(&gmi_key(), &sample_gmi()),
        }
    }

    /// Whether a load of the entry's key was served (a hit).
    fn hits(self, store: &DiskStore) -> bool {
        match self {
            Entry::Flow => store.load_flow(&flow_key()).is_some(),
            Entry::Spice => store.load_spice(&spice_key()).is_some(),
            Entry::Gmi => store.load_gmi(&gmi_key()).is_some(),
        }
    }
}

/// The one `.m3d` entry file under `root` (excluding quarantine).
fn entry_file(root: &Path) -> PathBuf {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "quarantine") {
                    continue;
                }
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "m3d") {
                out.push(p);
            }
        }
    }
    let mut found = Vec::new();
    walk(root, &mut found);
    assert_eq!(found.len(), 1, "expected exactly one entry under {root:?}");
    found.remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping ANY single byte of an on-disk flow, SPICE or G-MI entry —
    /// magic, length, checksum or payload — is never served as a hit:
    /// the entry is quarantined and the slot reports a miss, so callers
    /// rebuild.
    #[test]
    fn any_single_byte_flip_is_never_a_hit(
        pos in 0usize..1 << 20,
        flip in 0u8..255,
        kind in 0u8..3,
    ) {
        let root = temp_root("flip");
        let entry = Entry::of(kind);
        entry.publish(&DiskStore::open(&root));
        let path = entry_file(&root);
        let mut bytes = fs::read(&path).expect("entry readable");
        let i = pos % bytes.len();
        bytes[i] ^= flip.wrapping_add(1); // xor mask in 1..=255: the byte really changes
        fs::write(&path, &bytes).expect("corruption lands");

        // A fresh instance over the same directory — as a second
        // process would see it.
        let store = DiskStore::open(&root);
        prop_assert!(!entry.hits(&store), "{:?} byte {} flipped -> must miss", entry, i);
        let c = store.counters();
        prop_assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 1));
        prop_assert!(!store.is_degraded(), "corruption must not degrade the store");
        let _ = fs::remove_dir_all(&root);
    }

    /// Truncating an entry of any kind at ANY length (including zero)
    /// is never a hit either.
    #[test]
    fn any_truncation_is_never_a_hit(cut in 0usize..1 << 20, kind in 0u8..3) {
        let root = temp_root("trunc");
        let entry = Entry::of(kind);
        entry.publish(&DiskStore::open(&root));
        let path = entry_file(&root);
        let bytes = fs::read(&path).expect("entry readable");
        let keep = cut % bytes.len(); // 0..len, strictly shorter
        fs::write(&path, &bytes[..keep]).expect("truncation lands");

        let store = DiskStore::open(&root);
        prop_assert!(
            !entry.hits(&store),
            "{:?}: {} of {} bytes kept -> must miss",
            entry,
            keep,
            bytes.len()
        );
        prop_assert_eq!(store.counters().quarantined, 1);
        let _ = fs::remove_dir_all(&root);
    }
}

/// An entry whose header claims a payload of `u64::MAX` bytes — a
/// length field no cursor arithmetic may trust — is quarantined and
/// reads as a miss, never a panic.
#[test]
fn entry_claiming_a_u64_max_payload_is_quarantined_not_a_panic() {
    let root = temp_root("hugelen");
    let key = flow_key();
    let store = DiskStore::open(&root);
    store.store_flow(&key, &sample_result(4321));
    let path = entry_file(&root);
    let mut forged = b"M3DSTOR1".to_vec();
    forged.extend_from_slice(&u64::MAX.to_le_bytes());
    forged.extend_from_slice(&0u64.to_le_bytes());
    forged.extend_from_slice(&[0xAB; 64]);
    fs::write(&path, &forged).expect("forged entry lands");

    let before = store.counters().quarantined;
    assert_eq!(store.load_flow(&key), None);
    assert_eq!(store.counters().quarantined, before + 1);
    assert!(!store.is_degraded(), "a forged entry is not an I/O failure");
    let _ = fs::remove_dir_all(&root);
}

/// The quarantined copy keeps the key-hash filename, so an operator can
/// map a quarantined file back to the artifact that produced it.
#[test]
fn quarantined_file_preserves_the_entry_name() {
    let root = temp_root("qname");
    let key = flow_key();
    DiskStore::open(&root).store_flow(&key, &sample_result(4321));
    let path = entry_file(&root);
    let name = path.file_name().expect("entry has a name").to_owned();
    let mut bytes = fs::read(&path).expect("entry readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("corruption lands");

    let store = DiskStore::open(&root);
    assert_eq!(store.load_flow(&key), None);
    let quarantined: Vec<_> = fs::read_dir(store.quarantine_dir())
        .expect("quarantine dir exists")
        .flatten()
        .map(|e| e.file_name())
        .collect();
    assert_eq!(quarantined, vec![name]);
    assert!(!path.exists(), "corrupt entry removed from the live tree");
    let _ = fs::remove_dir_all(&root);
}

/// A library entry survives the trip through a *fresh process image*
/// (new store instance, no shared in-memory state) bit-exactly.
#[test]
fn library_survives_a_fresh_instance_bit_exactly() {
    let root = temp_root("librt");
    let key = LibraryKey::new(NodeId::N45, DesignStyle::Tmi, false, 1.0);
    let node = TechNode::for_id(NodeId::N45);
    let lib = CellLibrary::try_build(&node, DesignStyle::Tmi).expect("library builds");
    DiskStore::open(&root).store_library(&key, &lib);

    let fresh = DiskStore::open(&root);
    let back = fresh.load_library(&key).expect("warm instance hits");
    assert_eq!(back.len(), lib.len());
    for ((name_a, a), (name_b, b)) in back.iter().zip(lib.iter()) {
        assert_eq!(name_a, name_b);
        assert_eq!(a, b, "cell {name_a:?} differs after the disk trip");
    }
    let _ = fs::remove_dir_all(&root);
}

/// A SPICE entry is part of the store like any other: a fresh instance
/// serves it bit-exactly, counts its bytes, and evicts it under the
/// byte budget when it is the least recently used entry.
#[test]
fn spice_entries_count_toward_the_byte_budget() {
    let root = temp_root("spicebudget");
    Entry::Spice.publish(&DiskStore::open(&root));
    let spice_bytes = fs::metadata(entry_file(&root))
        .expect("spice entry on disk")
        .len();
    assert!(entry_file(&root).starts_with(root.join("spice")));

    let fresh = DiskStore::open(&root);
    assert_eq!(fresh.resident_bytes(), spice_bytes, "the scan counts it");
    assert_eq!(fresh.load_spice(&spice_key()), Some(sample_spice()));

    // Room for the flow entry alone: publishing it evicts the spice one.
    let flow_bytes = {
        let probe_root = temp_root("spicebudget-probe");
        let probe = DiskStore::open(&probe_root);
        Entry::Flow.publish(&probe);
        let _ = fs::remove_dir_all(&probe_root);
        probe.resident_bytes()
    };
    let tight = DiskStore::with_budget(&root, flow_bytes + spice_bytes - 1);
    Entry::Flow.publish(&tight);
    assert_eq!(tight.counters().evictions, 1);
    assert_eq!(tight.resident_bytes(), flow_bytes);
    assert!(
        !Entry::Spice.hits(&tight),
        "the evicted spice entry is gone"
    );
    assert!(Entry::Flow.hits(&tight));
    let _ = fs::remove_dir_all(&root);
}

/// Many store instances over one directory — the multi-process case —
/// publishing and reading the same key concurrently: every load is
/// either a miss or the correct value, never torn or mixed data, and
/// the directory ends healthy (a final fresh instance serves the key).
#[test]
fn concurrent_instances_over_one_directory_never_serve_torn_data() {
    let root = temp_root("mproc");
    let key = flow_key();
    let want = sample_result(4321);
    let threads = 8;
    let rounds = 25;

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // Each thread owns its own instance, as a separate
                // process would.
                let store = DiskStore::open(&root);
                for _ in 0..rounds {
                    store.store_flow(&key, &want);
                    if let Some(got) = store.load_flow(&key) {
                        assert_eq!(got, want, "a concurrent reader saw wrong data");
                    }
                    assert!(!store.is_degraded(), "contention is not an I/O failure");
                }
            });
        }
    });

    let fresh = DiskStore::open(&root);
    assert_eq!(fresh.load_flow(&key), Some(want), "directory ends healthy");
    assert_eq!(fresh.counters().quarantined, 0, "no entry was ever corrupt");
    let _ = fs::remove_dir_all(&root);
}

/// An unwritable store directory degrades the store to a traced no-op:
/// publishes are dropped, loads miss, exactly one `StoreDegraded` event
/// fires, and nothing panics. (The root's parent is a regular *file*,
/// which denies directory creation even when running as root — chmod
/// tricks don't, thanks to CAP_DAC_OVERRIDE.)
#[test]
fn unwritable_directory_degrades_gracefully_with_one_traced_event() {
    let blocker = temp_root("rofile");
    fs::create_dir_all(blocker.parent().expect("tmp parent")).expect("tmp exists");
    fs::write(&blocker, b"not a directory").expect("blocker file");
    let root = blocker.join("store"); // path *through* a regular file

    let store = DiskStore::open(&root); // opening never fails...
    let sink = Arc::new(VecRecorder::new());
    store.set_recorder(Arc::clone(&sink) as Arc<dyn Recorder>);
    let key = flow_key();
    assert_eq!(store.load_flow(&key), None, "cold miss, not an error");

    store.store_flow(&key, &sample_result(4321)); // ...the first write degrades
    assert!(store.is_degraded());
    store.store_flow(&key, &sample_result(4321)); // further ops are silent no-ops
    assert_eq!(store.load_flow(&key), None);

    let degraded = sink
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::StoreDegraded { .. }))
        .count();
    assert_eq!(degraded, 1, "exactly one StoreDegraded event");
    let _ = fs::remove_file(&blocker);
}
