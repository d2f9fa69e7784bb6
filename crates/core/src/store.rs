//! Persistent, content-addressed artifact store — the disk tier below
//! [`crate::ArtifactCache`].
//!
//! The paper's sweeps re-derive the same expensive artifacts across
//! *processes*: without a store, every fresh `paper_tables` invocation
//! re-characterizes the same cell libraries, re-simulates the same
//! SPICE decks, re-runs flows and G-MI implementations, re-places
//! preliminary layouts and re-generates netlists an earlier invocation
//! already ran. [`DiskStore`] persists all six artifact classes under
//! their cache keys so a warm directory turns a fresh process into a
//! cache hit.
//!
//! A class is one `impl` of the crate-private memo-class trait
//! (`memo::MemoClass`): its [`CacheKind`], its key bytes and its value
//! codec. The store has one generic `load::<C>`/`store::<C>` pair over
//! the verify-on-read protocol and the crash-only publish; the named
//! `load_*`/`store_*` methods are one-line calls into it. Adding a
//! class takes one `impl`, one [`CacheKind`] variant (with its `key`
//! and `dir` arms) and its [`crate::CacheStats`] fields.
//!
//! * **Layout** — entries are content-addressed by the FNV-1a 64 hash
//!   of the *encoded key bytes* (Rust's `std::hash` is not stable
//!   across processes), sharded by the hash's low byte:
//!   `<root>/lib/<2-hex>/<16-hex>.m3d`,
//!   `<root>/flow/<2-hex>/<16-hex>.m3d`,
//!   `<root>/spice/<2-hex>/<16-hex>.m3d`,
//!   `<root>/gmi/<2-hex>/<16-hex>.m3d` (keyed by the G-MI point's 2D
//!   reference [`FlowKey`]), `<root>/wlm/<2-hex>/<16-hex>.m3d`
//!   (wire-load models) and `<root>/netlist/<2-hex>/<16-hex>.m3d`
//!   (generated netlists' statistics), plus `<root>/quarantine/`. The
//!   store writes no other file: the only other names a directory may
//!   hold are the temp files of publishes in flight or killed.
//! * **Self-verification** — every entry is the durable frame built by
//!   `codec::frame` (DESIGN.md §9) under the `M3DSTOR1` magic, with a
//!   key section and an artifact section; embedding the encoded key
//!   lets a read confirm the entry answers the question that was asked.
//!   Every read re-verifies everything.
//! * **Quarantine, never a wrong answer** — a failed verification
//!   (torn file, flipped byte, semantic decode failure) moves the
//!   entry into `quarantine/` *preserving its key-hash filename* for
//!   post-mortems, counts it, emits
//!   [`EventKind::DiskQuarantined`], and reports a miss so the caller
//!   rebuilds. Corruption is never an error and never a hit.
//! * **Crash-only writes** — publishes go through `codec::write_atomic`;
//!   a kill at any byte leaves either the old state or the new entry,
//!   never a half-written visible file
//!   ([`StoreFaultKind::TornStoreWrite`] pins this in the chaos
//!   harness). A temp file that a killed publish left behind is
//!   deleted by the scan of a later open once it is 30 s old.
//! * **Multi-process safety** — there is no lock: each publisher, in
//!   whatever process or thread, writes its own temp file (named by pid
//!   and thread ordinal) and renames it into place. The rename is
//!   atomic, and the flow is deterministic, so racing publishers of one
//!   key rename byte-identical images (last-writer-wins idempotence).
//! * **Graceful degradation** — any entry-file I/O failure flips the
//!   store into a degraded mode (a one-way latch): a single
//!   [`EventKind::StoreDegraded`] is emitted with a stable reason and
//!   every later operation no-ops, so the memory tier carries the run
//!   to a correct (just slower) finish. Degradation is *never* an
//!   error.
//! * **Byte-budget LRU eviction** — an in-memory index, rebuilt from a
//!   directory scan at open, tracks per-entry sizes; publishes that
//!   push the store over its budget evict least-recently-used entries
//!   and emit [`EventKind::DiskEvicted`]. The scan orders entries by
//!   mtime, so across processes recency is "last published"; within a
//!   process every hit and publish bumps it. A read writes nothing, so
//!   a warm replay leaves the directory untouched.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, SystemTime};

use m3d_cells::characterize::SpiceTables;
use m3d_cells::CellLibrary;

use crate::cache::{FlowKey, LibraryKey, SpiceKey};
use crate::codec::{
    content_hash, flip_byte, frame, quarantine_file, temp_path, unframe, write_atomic, DecodeError,
};
use crate::error::StoreFailure;
use crate::faultinject::{StoreFaultKind, StoreFaultPlan};
use crate::flow::FlowResult;
use crate::gmi::GmiResult;
use crate::memo::{FlowClass, GmiClass, LibraryClass, MemoClass, SpiceClass};
use crate::observe::{self, CacheKind, EventKind, Recorder};

/// Store entry magic: any other file dropped into the store is
/// quarantined, not misparsed.
const MAGIC: &[u8; 8] = b"M3DSTOR1";

/// Section tags inside an entry payload.
const SEC_KEY: u8 = 1;
const SEC_ARTIFACT: u8 = 2;

/// Default byte budget: generous for the full paper reproduction
/// (a characterized library encodes to a few hundred KiB, a flow
/// result to ~1 KiB, one cell's SPICE tables, a G-MI result or a WLM
/// to well under that) while still bounding a pathological sweep.
const DEFAULT_BYTE_BUDGET: u64 = 1 << 30;

/// A publish temp file older than this belongs to a killed publisher
/// and is reclaimed by the scan at open.
const TEMP_STALE: Duration = Duration::from_secs(30);

/// Counter snapshot of one [`DiskStore`]'s traffic; the source the
/// cache's `disk_*` stats are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCounters {
    /// Reads served from a verified on-disk entry.
    pub hits: u64,
    /// Reads that found no (usable) entry.
    pub misses: u64,
    /// Entries published to disk.
    pub stores: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries that failed verification and were quarantined.
    pub quarantined: u64,
    /// 1 once the store has degraded to a no-op, else 0.
    pub degraded: u64,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    bytes: u64,
    last_used: u64,
}

/// The in-memory picture of what is on disk: sizes for the byte budget
/// and a logical recency clock for LRU eviction. Rebuilt from a
/// directory scan at open.
#[derive(Debug, Default)]
struct Index {
    entries: HashMap<(CacheKind, u64), IndexEntry>,
    total_bytes: u64,
    clock: u64,
}

impl Index {
    /// Accounts `bytes` for the entry and makes it the most recent. A
    /// hit calls it too, so an entry a peer published after this
    /// instance's scan joins the budget on first use.
    fn insert(&mut self, kind: CacheKind, hash: u64, bytes: u64) {
        self.clock += 1;
        if let Some(old) = self.entries.insert(
            (kind, hash),
            IndexEntry {
                bytes,
                last_used: self.clock,
            },
        ) {
            self.total_bytes = self.total_bytes.saturating_sub(old.bytes);
        }
        self.total_bytes += bytes;
    }

    fn remove(&mut self, kind: CacheKind, hash: u64) -> Option<IndexEntry> {
        let e = self.entries.remove(&(kind, hash));
        if let Some(e) = e {
            self.total_bytes = self.total_bytes.saturating_sub(e.bytes);
        }
        e
    }
}

/// The persistent artifact store. See the module docs for the layout,
/// multi-process and degradation contracts. Thread-safe; one instance is
/// meant to be shared (`Arc`) by every cache that fronts the same
/// directory, and *different processes* open their own instance over
/// the same directory.
pub struct DiskStore {
    root: PathBuf,
    byte_budget: u64,
    faults: StoreFaultPlan,
    publishes: AtomicU32,
    degraded: AtomicBool,
    recorder: RwLock<Arc<dyn Recorder>>,
    index: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("root", &self.root)
            .field("byte_budget", &self.byte_budget)
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl DiskStore {
    /// Opens (or initializes) a store rooted at `dir` with the default
    /// byte budget.
    ///
    /// Opening never fails: directories are created lazily on the
    /// first publish, so an unreadable or read-only `dir` surfaces as
    /// misses and (on the first write) graceful degradation — exactly
    /// the contract every other store operation follows.
    pub fn open(dir: impl Into<PathBuf>) -> Arc<DiskStore> {
        DiskStore::with_budget(dir, DEFAULT_BYTE_BUDGET)
    }

    /// Opens a store with an explicit byte budget (clamped to ≥ 1).
    pub fn with_budget(dir: impl Into<PathBuf>, byte_budget: u64) -> Arc<DiskStore> {
        DiskStore::with_faults(dir, byte_budget, StoreFaultPlan::new())
    }

    /// Opens a store with a fault-injection plan — the chaos harness's
    /// constructor. Faults fire on the Nth *publish* (1-based).
    pub fn with_faults(
        dir: impl Into<PathBuf>,
        byte_budget: u64,
        faults: StoreFaultPlan,
    ) -> Arc<DiskStore> {
        let root = dir.into();
        let index = scan(&root);
        Arc::new(DiskStore {
            root,
            byte_budget: byte_budget.max(1),
            faults,
            publishes: AtomicU32::new(0),
            degraded: AtomicBool::new(false),
            recorder: RwLock::new(observe::null()),
            index: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where quarantined entries land.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// True once an I/O failure has degraded the store to a no-op.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Attaches the event sink for this store's traffic
    /// ([`EventKind::DiskHit`]-family events). Pass
    /// [`observe::null()`] to detach.
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>) {
        *self.recorder.write().expect("recorder slot") = recorder;
    }

    /// Counter snapshot.
    pub fn counters(&self) -> DiskCounters {
        DiskCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            degraded: self.is_degraded() as u64,
        }
    }

    /// Bytes currently accounted by the index (ground truth at the
    /// last open plus this instance's publishes/evictions).
    pub fn resident_bytes(&self) -> u64 {
        self.index.lock().expect("store index lock").total_bytes
    }

    // -- artifact API -----------------------------------------------

    /// The persisted artifact of class `C` for `key`, if a verified
    /// entry exists. Never errors: any failure past "file exists"
    /// (magic, payload or section hash, a stored key other than the one
    /// requested, a failed semantic decode) quarantines the entry and
    /// reads as a miss, and an I/O failure degrades the store and reads
    /// as absent. The caller rebuilds.
    pub(crate) fn load<C: MemoClass>(&self, key: &C::Key) -> Option<C::Value> {
        if self.is_degraded() {
            return None;
        }
        let key_bytes = C::key_bytes(key);
        let hash = content_hash(&key_bytes);
        let path = self.entry_path(C::KIND, hash);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.miss(C::KIND);
                return None;
            }
            Err(e) => {
                self.degrade(StoreFailure::io("read store entry", &e));
                return None;
            }
        };
        let decoded =
            unframe(&bytes, MAGIC, [SEC_KEY, SEC_ARTIFACT]).and_then(|[stored_key, artifact]| {
                if stored_key != key_bytes {
                    return Err(DecodeError(
                        "entry answers a different key than requested".into(),
                    ));
                }
                C::decode(key, artifact)
            });
        match decoded {
            Ok(artifact) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.emit(|| EventKind::DiskHit { kind: C::KIND });
                self.index.lock().expect("store index lock").insert(
                    C::KIND,
                    hash,
                    bytes.len() as u64,
                );
                Some(artifact)
            }
            Err(_) => {
                self.quarantine_entry(C::KIND, hash, &path);
                self.miss(C::KIND);
                None
            }
        }
    }

    /// Publishes `value` under `key`. Never errors.
    pub(crate) fn store<C: MemoClass>(&self, key: &C::Key, value: &C::Value) {
        self.publish(C::KIND, &C::key_bytes(key), &C::encode(value));
    }

    /// The persisted library for `key`, if a verified entry exists.
    /// Never errors: a bad entry is quarantined and reads as a miss.
    pub fn load_library(&self, key: &LibraryKey) -> Option<CellLibrary> {
        self.load::<LibraryClass>(key)
    }

    /// Publishes a characterized library under `key`. Never errors.
    pub fn store_library(&self, key: &LibraryKey, lib: &CellLibrary) {
        self.store::<LibraryClass>(key, lib);
    }

    /// The persisted flow result for `key`, as [`DiskStore::load_library`].
    pub fn load_flow(&self, key: &FlowKey) -> Option<FlowResult> {
        self.load::<FlowClass>(key)
    }

    /// Publishes a completed flow result under `key`.
    pub fn store_flow(&self, key: &FlowKey, result: &FlowResult) {
        self.store::<FlowClass>(key, result);
    }

    /// The persisted SPICE tables for `key`, which must span exactly
    /// the key's grid, as [`DiskStore::load_library`].
    pub fn load_spice(&self, key: &SpiceKey) -> Option<SpiceTables> {
        self.load::<SpiceClass>(key)
    }

    /// Publishes one cell's SPICE tables under `key`.
    pub fn store_spice(&self, key: &SpiceKey, tables: &SpiceTables) {
        self.store::<SpiceClass>(key, tables);
    }

    /// The persisted G-MI result for the 2D reference point `key`, as
    /// [`DiskStore::load_library`].
    pub fn load_gmi(&self, key: &FlowKey) -> Option<GmiResult> {
        self.load::<GmiClass>(key)
    }

    /// Publishes a G-MI result under its 2D reference point's `key`.
    pub fn store_gmi(&self, key: &FlowKey, result: &GmiResult) {
        self.store::<GmiClass>(key, result);
    }

    fn miss(&self, kind: CacheKind) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.emit(|| EventKind::DiskMiss { kind });
    }

    // -- write path ---------------------------------------------------

    /// Publish umbrella: counts the publish for fault injection, runs
    /// the crash-only write, and converts any I/O failure into
    /// degradation instead of an error.
    fn publish(&self, kind: CacheKind, key_bytes: &[u8], artifact: &[u8]) {
        if self.is_degraded() {
            return;
        }
        let n = self.publishes.fetch_add(1, Ordering::Relaxed) + 1;
        let fault = self.faults.on_publish(n);
        match self.try_publish(kind, key_bytes, artifact, fault) {
            Ok(true) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                self.evict_to_budget(kind, content_hash(key_bytes));
            }
            Ok(false) => {} // a torn write
            Err(f) => self.degrade(f),
        }
    }

    /// The crash-only publish through [`write_atomic`]. Returns
    /// `Ok(true)` when the entry became visible, `Ok(false)` when the
    /// publish was torn by injection. A peer publishing the same key
    /// concurrently renames its own temp file: the flow is
    /// deterministic, so whichever rename lands last lands the same
    /// bytes.
    fn try_publish(
        &self,
        kind: CacheKind,
        key_bytes: &[u8],
        artifact: &[u8],
        fault: Option<StoreFaultKind>,
    ) -> Result<bool, StoreFailure> {
        let hash = content_hash(key_bytes);
        let final_path = self.entry_path(kind, hash);
        let shard_dir = final_path
            .parent()
            .expect("entry path always has a shard parent");
        fs::create_dir_all(shard_dir)
            .map_err(|e| StoreFailure::io("create store shard dir", &e))?;
        if fault == Some(StoreFaultKind::StoreDirUnwritable) {
            // Simulate losing write permission mid-run; routes through
            // the same classifier a real `EACCES` would.
            let e = io::Error::from(io::ErrorKind::PermissionDenied);
            return Err(StoreFailure::io("publish store entry", &e));
        }
        let bytes = frame(MAGIC, &[(SEC_KEY, key_bytes), (SEC_ARTIFACT, artifact)]);
        let visible = if fault == Some(StoreFaultKind::TornStoreWrite) {
            // A kill mid-publish: half the temp file reaches the disk and
            // the rename never happens. The torn temp file is left behind
            // on purpose — it is exactly what a crash leaves, and it must
            // never become visible.
            fs::File::create(temp_path(&final_path))
                .and_then(|mut f| {
                    f.write_all(&bytes[..bytes.len() / 2])?;
                    f.sync_all()
                })
                .map(|()| false)
        } else {
            write_atomic(&final_path, &bytes).map(|()| true)
        };
        if let Ok(true) = visible {
            if fault == Some(StoreFaultKind::CorruptStoreEntry) {
                flip_byte(&final_path);
            }
            self.index
                .lock()
                .expect("store index lock")
                .insert(kind, hash, bytes.len() as u64);
        }
        visible.map_err(|e| StoreFailure::io("write store entry", &e))
    }

    /// Evicts least-recently-used entries until the store fits its
    /// byte budget, never evicting the entry just published. File
    /// removal is best-effort; an entry that will not delete is
    /// dropped from the accounting anyway (the next open re-scans).
    fn evict_to_budget(&self, published_kind: CacheKind, published_hash: u64) {
        let mut idx = self.index.lock().expect("store index lock");
        if idx.total_bytes <= self.byte_budget {
            return;
        }
        let mut victims: Vec<((CacheKind, u64), IndexEntry)> = idx
            .entries
            .iter()
            .filter(|(&k, _)| k != (published_kind, published_hash))
            .map(|(&k, &e)| (k, e))
            .collect();
        victims.sort_by_key(|(_, e)| e.last_used);
        let mut freed: HashMap<CacheKind, (u64, u64)> = HashMap::new();
        for ((kind, hash), _) in victims {
            if idx.total_bytes <= self.byte_budget {
                break;
            }
            let _ = fs::remove_file(self.entry_path(kind, hash));
            if let Some(e) = idx.remove(kind, hash) {
                let f = freed.entry(kind).or_insert((0, 0));
                f.0 += 1;
                f.1 += e.bytes;
            }
        }
        drop(idx);
        for (kind, (count, bytes)) in freed {
            self.evictions.fetch_add(count, Ordering::Relaxed);
            self.emit(|| EventKind::DiskEvicted { kind, count, bytes });
        }
    }

    // -- corruption & degradation -------------------------------------

    /// Moves a failed entry into `quarantine/`, preserving its
    /// key-hash filename for post-mortems. When even the move fails
    /// the file is deleted outright — an unverifiable entry must never
    /// be served again.
    fn quarantine_entry(&self, kind: CacheKind, hash: u64, path: &Path) {
        if quarantine_file(path, &self.quarantine_dir()).is_err() {
            let _ = fs::remove_file(path);
        }
        self.index
            .lock()
            .expect("store index lock")
            .remove(kind, hash);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.emit(|| EventKind::DiskQuarantined { what: kind.key() });
    }

    /// One-way degradation latch: the first I/O failure emits a single
    /// [`EventKind::StoreDegraded`] with the classified reason; every
    /// later store operation no-ops. The run continues on the memory
    /// tier — degradation is never an error.
    fn degrade(&self, failure: StoreFailure) {
        if self
            .degraded
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.emit(|| EventKind::StoreDegraded {
                reason: failure.reason,
            });
        }
    }

    // -- plumbing -----------------------------------------------------

    fn entry_path(&self, kind: CacheKind, hash: u64) -> PathBuf {
        self.root
            .join(kind.dir())
            .join(format!("{:02x}", hash & 0xff))
            .join(format!("{hash:016x}.m3d"))
    }

    /// Records one event iff a live recorder is attached (the same
    /// hot-path guard the cache uses).
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        let rec = self.recorder.read().expect("recorder slot");
        if rec.enabled() {
            rec.record(kind());
        }
    }
}

/// Rebuilds the index from the directory tree: each entry's size for
/// the byte budget, and its recency from its mtime, oldest first (ties
/// broken by kind and hash, so the order is total). Any unreadable
/// directory is simply skipped: reads re-verify entries anyway.
fn scan(root: &Path) -> Index {
    let mut found: Vec<(SystemTime, CacheKind, u64, u64)> = Vec::new();
    for kind in CacheKind::ALL {
        let Ok(shards) = fs::read_dir(root.join(kind.dir())) else {
            continue;
        };
        for shard in shards.flatten() {
            let Ok(files) = fs::read_dir(shard.path()) else {
                continue;
            };
            for f in files.flatten() {
                let name = f.file_name();
                let name = name.to_string_lossy();
                let Some(hex) = name.strip_suffix(".m3d") else {
                    // A publish's temp file (`.<hash>.m3d.<pid>.<thread>.tmp`)
                    // is left behind only by a killed publisher: no
                    // rename will claim it and the budget never counts
                    // it, so reclaim it once it is stale. A younger one
                    // may be a live peer's publish.
                    if name.ends_with(".tmp") && is_stale(&f.path()) {
                        let _ = fs::remove_file(f.path());
                    }
                    continue;
                };
                let Ok(hash) = u64::from_str_radix(hex, 16) else {
                    continue;
                };
                let meta = f.metadata().ok();
                let bytes = meta.as_ref().map_or(0, |m| m.len());
                let mtime = meta
                    .and_then(|m| m.modified().ok())
                    .unwrap_or(SystemTime::UNIX_EPOCH);
                found.push((mtime, kind, hash, bytes));
            }
        }
    }
    found.sort_unstable_by_key(|&(mtime, kind, hash, _)| (mtime, kind.key(), hash));
    let mut idx = Index::default();
    for (_, kind, hash, bytes) in found {
        idx.insert(kind, hash, bytes);
    }
    idx
}

/// True when `path` was last modified more than [`TEMP_STALE`] ago: a
/// temp file that old belongs to a killed publisher.
fn is_stale(path: &Path) -> bool {
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age > TEMP_STALE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::NetlistKey;
    use crate::memo::{NetlistClass, WlmClass};
    use m3d_cells::{Cell, CellFunction, Nldm, Pin, PinDir, SeqSpec};
    use m3d_netlist::{BenchScale, Benchmark, NetlistStats};
    use m3d_power::PowerReport;
    use m3d_tech::{DesignStyle, NodeId, TechNode};
    use std::sync::atomic::AtomicU32 as TestCounter;

    fn temp_root(tag: &str) -> PathBuf {
        static N: TestCounter = TestCounter::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("m3d-store-unit-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Where `store` keeps the class-`C` entry for `key`.
    fn path_of<C: MemoClass>(store: &DiskStore, key: &C::Key) -> PathBuf {
        store.entry_path(C::KIND, content_hash(&C::key_bytes(key)))
    }

    fn sample_result() -> FlowResult {
        FlowResult {
            bench: Benchmark::Des,
            style: DesignStyle::Tmi,
            node_id: NodeId::N45,
            clock_ps: 1250.0,
            footprint_um2: 3321.5,
            core_um: (57.6, 57.66),
            cell_count: 4321,
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
            layer_usage: m3d_route::LayerUsage {
                m1_um: 100.0,
                local_um: 5000.0,
                intermediate_um: 3000.0,
                global_um: 400.0,
                peak_utilization: [0.9, 0.7, 0.3],
                mean_utilization: [0.4, 0.3, 0.1],
                overflow_ratio: 0.0,
            },
            wlm_curve: vec![1.0, 1.5, 2.25, -0.0],
        }
    }

    fn flow_key() -> FlowKey {
        FlowKey::of(
            Benchmark::Des,
            DesignStyle::Tmi,
            &crate::flow::FlowConfig::new(NodeId::N45),
        )
    }

    #[test]
    fn flow_result_round_trips_bit_exactly() {
        let r = sample_result();
        let back = FlowClass::decode(&flow_key(), &FlowClass::encode(&r)).expect("decodes");
        assert_eq!(back, r);
        // -0.0 survives as -0.0 (bit-exact, not value-equal).
        assert_eq!(back.wlm_curve[3].to_bits(), (-0.0f64).to_bits());
    }

    /// Pins the whole entry file image: any change to the frame, the key
    /// codec or the flow-result codec moves this hash.
    #[test]
    fn flow_entry_file_image_is_pinned() {
        let root = temp_root("pin");
        let store = DiskStore::open(&root);
        let key = flow_key();
        store.store_flow(&key, &sample_result());
        let path = path_of::<FlowClass>(&store, &key);
        let bytes = fs::read(&path).expect("entry on disk");
        assert_eq!(content_hash(&bytes), 0x0bd9_0ffd_8d7e_f2a9);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flow_store_round_trips_through_disk() {
        let root = temp_root("flowrt");
        let store = DiskStore::open(&root);
        let key = flow_key();
        assert_eq!(store.load_flow(&key), None, "cold store misses");
        store.store_flow(&key, &sample_result());
        assert_eq!(store.load_flow(&key), Some(sample_result()));
        // A *fresh instance over the same directory* — the cross-process
        // case — hits too.
        let reopened = DiskStore::open(&root);
        assert_eq!(reopened.load_flow(&key), Some(sample_result()));
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 1, 1));
        let _ = fs::remove_dir_all(&root);
    }

    /// Even a *forged* cross-node entry — one PDK's artifact copied to
    /// the disk slot another PDK's key addresses, as a key-hash
    /// collision would produce — is rejected by the read-back key
    /// equality check and quarantined, for every registered pair.
    #[test]
    fn forged_cross_node_entry_is_quarantined_not_served() {
        let ids = m3d_tech::PdkRegistry::global().ids();
        for &a in &ids {
            for &b in &ids {
                if a == b {
                    continue;
                }
                let root = temp_root("forge");
                let store = DiskStore::open(&root);
                let key_a = FlowKey::of(
                    Benchmark::Des,
                    DesignStyle::Tmi,
                    &crate::flow::FlowConfig::new(a).scale(BenchScale::Small),
                );
                let key_b = FlowKey::of(
                    Benchmark::Des,
                    DesignStyle::Tmi,
                    &crate::flow::FlowConfig::new(b).scale(BenchScale::Small),
                );
                store.store_flow(&key_a, &sample_result());
                let path_a = path_of::<FlowClass>(&store, &key_a);
                let path_b = path_of::<FlowClass>(&store, &key_b);
                fs::create_dir_all(path_b.parent().expect("entry dir")).expect("mkdir");
                fs::copy(&path_a, &path_b).expect("forge the entry");
                assert_eq!(
                    store.load_flow(&key_b),
                    None,
                    "{} must not serve an entry forged from {}",
                    b.label(),
                    a.label()
                );
                assert_eq!(store.counters().quarantined, 1);
                let _ = fs::remove_dir_all(&root);
            }
        }
    }

    #[test]
    fn corrupt_entry_is_quarantined_with_its_key_hash_name() {
        let root = temp_root("quar");
        let key = flow_key();
        let store =
            DiskStore::with_faults(&root, u64::MAX, StoreFaultPlan::new().corrupt_entry_on(1));
        store.store_flow(&key, &sample_result());
        assert_eq!(store.load_flow(&key), None, "corrupt entry must miss");
        assert!(!store.is_degraded(), "corruption is not an I/O failure");
        let c = store.counters();
        assert_eq!((c.quarantined, c.misses, c.hits), (1, 1, 0));
        // The quarantined file preserves the key-hash filename.
        let hash = content_hash(&FlowClass::key_bytes(&key));
        let want = format!("{hash:016x}.m3d");
        let names: Vec<String> = fs::read_dir(store.quarantine_dir())
            .expect("quarantine dir exists")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![want]);
        // The slot is rebuildable: a clean publish works again.
        store.store_flow(&key, &sample_result());
        assert_eq!(store.load_flow(&key), Some(sample_result()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_write_leaves_no_visible_entry_and_no_degradation() {
        let root = temp_root("torn");
        let key = flow_key();
        let store = DiskStore::with_faults(&root, u64::MAX, StoreFaultPlan::new().torn_write_on(1));
        store.store_flow(&key, &sample_result());
        assert_eq!(store.load_flow(&key), None);
        assert!(
            !store.is_degraded(),
            "a torn write is a crash, not an I/O error"
        );
        assert_eq!(store.counters().stores, 0);
        // The next publish (no fault) succeeds.
        store.store_flow(&key, &sample_result());
        assert_eq!(store.load_flow(&key), Some(sample_result()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unwritable_dir_degrades_once_and_never_errors() {
        let root = temp_root("degrade");
        let key = flow_key();
        let store = DiskStore::with_faults(&root, u64::MAX, StoreFaultPlan::new().unwritable_on(1));
        store.store_flow(&key, &sample_result());
        assert!(store.is_degraded());
        assert_eq!(store.counters().degraded, 1);
        // Degraded: every later operation no-ops.
        store.store_flow(&key, &sample_result());
        assert_eq!(store.load_flow(&key), None);
        assert_eq!(store.counters().stores, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// Backdates `path`'s mtime to `age` ago.
    fn backdate(path: &Path, age: Duration) {
        fs::File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_modified(SystemTime::now() - age))
            .expect("backdate the file");
    }

    fn n45_2d_key(bench: Benchmark) -> FlowKey {
        FlowKey::of(
            bench,
            DesignStyle::TwoD,
            &crate::flow::FlowConfig::new(NodeId::N45),
        )
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let root = temp_root("evict");
        let keys = [Benchmark::Des, Benchmark::Aes, Benchmark::Fpu].map(n45_2d_key);
        let entry_bytes = {
            let probe = DiskStore::open(temp_root("evict-probe"));
            probe.store_flow(&keys[0], &sample_result());
            probe.resident_bytes()
        };
        // Budget for two entries, not three.
        let store = DiskStore::with_budget(&root, entry_bytes * 2 + entry_bytes / 2);
        store.store_flow(&keys[0], &sample_result());
        store.store_flow(&keys[1], &sample_result());
        // Touch key 0 so key 1 is the LRU victim.
        assert!(store.load_flow(&keys[0]).is_some());
        store.store_flow(&keys[2], &sample_result());
        assert_eq!(store.counters().evictions, 1);
        assert!(
            store.load_flow(&keys[0]).is_some(),
            "recently used survives"
        );
        assert!(store.load_flow(&keys[1]).is_none(), "LRU entry evicted");
        assert!(store.load_flow(&keys[2]).is_some(), "new entry survives");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recency_across_reopen_follows_entry_mtime() {
        let root = temp_root("mtime");
        let keys = [Benchmark::Des, Benchmark::Aes].map(n45_2d_key);
        let store = DiskStore::open(&root);
        for k in &keys {
            store.store_flow(k, &sample_result());
        }
        let entry_bytes = store.resident_bytes() / 2;
        // Key 0 was published first, but its file is the newer one: a
        // fresh process orders recency by mtime, not by publish order,
        // so publishing a third entry under a two-entry budget must
        // evict key 1, not key 0.
        backdate(
            &path_of::<FlowClass>(&store, &keys[0]),
            Duration::from_secs(100),
        );
        backdate(
            &path_of::<FlowClass>(&store, &keys[1]),
            Duration::from_secs(200),
        );
        let store = DiskStore::with_budget(&root, entry_bytes * 2 + entry_bytes / 2);
        store.store_flow(&n45_2d_key(Benchmark::Fpu), &sample_result());
        assert_eq!(store.counters().evictions, 1);
        assert!(
            store.load_flow(&keys[0]).is_some(),
            "the newer entry survives"
        );
        assert!(store.load_flow(&keys[1]).is_none(), "the older is evicted");
        let _ = fs::remove_dir_all(&root);
    }

    /// An entry a peer publishes after this instance's scan joins its
    /// accounting on the first hit, so the byte budget can evict it.
    #[test]
    fn a_hit_on_a_peer_published_entry_counts_toward_the_budget() {
        let root = temp_root("peerhit");
        let [own, peers] = [Benchmark::Des, Benchmark::Aes].map(n45_2d_key);
        let entry_bytes = {
            let probe_root = temp_root("peerhit-probe");
            let probe = DiskStore::open(&probe_root);
            probe.store_flow(&peers, &sample_result());
            let _ = fs::remove_dir_all(&probe_root);
            probe.resident_bytes()
        };
        let a = DiskStore::with_budget(&root, entry_bytes + entry_bytes / 2);
        DiskStore::open(&root).store_flow(&peers, &sample_result());
        assert_eq!(a.load_flow(&peers), Some(sample_result()));
        assert_eq!(a.resident_bytes(), entry_bytes);
        a.store_flow(&own, &sample_result());
        assert_eq!(a.counters().evictions, 1);
        assert!(
            !path_of::<FlowClass>(&a, &peers).exists(),
            "peer's entry evicted"
        );
        assert_eq!(a.resident_bytes(), entry_bytes);
        let _ = fs::remove_dir_all(&root);
    }

    /// A `.lock` file that a publisher of the old store layout left
    /// behind when it was killed is never consulted: the next publish
    /// of that key lands, and a later instance hits it.
    #[test]
    fn a_killed_publishers_lock_does_not_block_the_next_publish() {
        let root = temp_root("killedlock");
        let key = flow_key();
        let entry = path_of::<FlowClass>(&DiskStore::open(&root), &key);
        fs::create_dir_all(entry.parent().expect("shard dir")).expect("mkdir");
        fs::write(entry.with_extension("lock"), "4242").expect("plant a fresh lock");
        let store = DiskStore::open(&root);
        store.store_flow(&key, &sample_result());
        assert_eq!(store.counters().stores, 1);
        assert_eq!(
            DiskStore::open(&root).load_flow(&key),
            Some(sample_result())
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn library_round_trips_through_disk() {
        let root = temp_root("librt");
        let key = LibraryKey::new(NodeId::N45, DesignStyle::TwoD, false, 1.0);
        let node = TechNode::for_id(NodeId::N45);
        let lib = CellLibrary::try_build(&node, DesignStyle::TwoD).expect("library builds");
        let store = DiskStore::open(&root);
        assert!(store.load_library(&key).is_none());
        store.store_library(&key, &lib);
        let back = store.load_library(&key).expect("disk hit");
        assert_eq!(back.len(), lib.len());
        for ((_, a), (_, b)) in back.iter().zip(lib.iter()) {
            assert_eq!(a, b, "persisted cell differs from characterized cell");
        }
        // A different key must not be answered by this entry.
        let other = LibraryKey::new(NodeId::N45, DesignStyle::TwoD, false, 0.6);
        assert!(store.load_library(&other).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    fn spice_key(function: CellFunction) -> SpiceKey {
        SpiceKey::new(
            NodeId::N45,
            DesignStyle::Tmi,
            function,
            1,
            &[7.5, 37.5],
            &[0.8],
        )
    }

    fn sample_spice() -> SpiceTables {
        let grid = |v: [f64; 2]| Nldm::new(vec![7.5, 37.5], vec![0.8], v.to_vec());
        SpiceTables {
            delay: grid([17.25, 51.125]),
            out_slew: grid([12.5, -0.0]),
            energy: grid([0.383, 0.362]),
        }
    }

    #[test]
    fn spice_tables_round_trip_bit_exactly() {
        let t = sample_spice();
        let back = SpiceClass::decode(&spice_key(CellFunction::Nand2), &SpiceClass::encode(&t))
            .expect("decodes");
        assert_eq!(back, t);
        assert_eq!(back.out_slew.values()[1].to_bits(), (-0.0f64).to_bits());

        let root = temp_root("spicert");
        let key = spice_key(CellFunction::Nand2);
        DiskStore::open(&root).store_spice(&key, &t);
        let fresh = DiskStore::open(&root);
        assert_eq!(fresh.load_spice(&key), Some(t));
        // The scan found the entry: it counts toward the index and the
        // byte budget like any library or flow entry.
        let bytes = fs::metadata(path_of::<SpiceClass>(&fresh, &key))
            .expect("entry on disk")
            .len();
        assert_eq!(fresh.resident_bytes(), bytes);
        assert_eq!(fresh.index.lock().expect("index").entries.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    /// Pins the SPICE entry file image: any change to the frame, the
    /// SPICE key codec or the NLDM codec moves this hash.
    #[test]
    fn spice_entry_file_image_is_pinned() {
        let root = temp_root("spicepin");
        let store = DiskStore::open(&root);
        let key = spice_key(CellFunction::Inv);
        store.store_spice(&key, &sample_spice());
        let path = path_of::<SpiceClass>(&store, &key);
        let bytes = fs::read(&path).expect("entry on disk");
        assert_eq!(content_hash(&bytes), 0x8870_1b4d_a443_4a85);
        let _ = fs::remove_dir_all(&root);
    }

    /// An entry copied into the slot of another deck's key — what a
    /// key-hash collision would produce — embeds the wrong key and is
    /// quarantined, never served; so is one whose tables span another
    /// grid than its key.
    #[test]
    fn forged_spice_entry_is_quarantined_not_served() {
        let root = temp_root("spiceforge");
        let store = DiskStore::open(&root);
        let (inv, nand) = (spice_key(CellFunction::Inv), spice_key(CellFunction::Nand2));
        store.store_spice(&inv, &sample_spice());
        let path = |k: &SpiceKey| path_of::<SpiceClass>(&store, k);
        fs::create_dir_all(path(&nand).parent().expect("entry dir")).expect("mkdir");
        fs::copy(path(&inv), path(&nand)).expect("forge the entry");
        assert_eq!(store.load_spice(&nand), None);
        assert_eq!(store.counters().quarantined, 1);
        assert!(!path(&nand).exists(), "forged entry left the live tree");
        assert_eq!(store.load_spice(&inv), Some(sample_spice()));

        let one_point = SpiceKey::new(
            NodeId::N45,
            DesignStyle::Tmi,
            CellFunction::Inv,
            1,
            &[7.5],
            &[0.8],
        );
        store.store_spice(&one_point, &sample_spice());
        assert_eq!(store.load_spice(&one_point), None);
        assert_eq!(store.counters().quarantined, 2);
        let _ = fs::remove_dir_all(&root);
    }

    fn gmi_key(bench: Benchmark) -> FlowKey {
        FlowKey::of(
            bench,
            DesignStyle::TwoD,
            &crate::flow::FlowConfig::new(NodeId::N45).scale(BenchScale::Small),
        )
    }

    fn sample_gmi() -> GmiResult {
        GmiResult {
            footprint_um2: 1661.25,
            wirelength_um: 48_321.5,
            miv_nets: 397,
            wns_ps: -37.125,
            total_power_mw: -0.0,
        }
    }

    #[test]
    fn gmi_result_round_trips_bit_exactly() {
        let r = sample_gmi();
        let back =
            GmiClass::decode(&gmi_key(Benchmark::Aes), &GmiClass::encode(&r)).expect("decodes");
        assert_eq!(back, r);
        assert_eq!(back.wns_ps.to_bits(), (-37.125f64).to_bits());
        // -0.0 survives as -0.0 (bit-exact, not value-equal).
        assert_eq!(back.total_power_mw.to_bits(), (-0.0f64).to_bits());

        let root = temp_root("gmirt");
        let key = gmi_key(Benchmark::Aes);
        let store = DiskStore::open(&root);
        assert_eq!(store.load_gmi(&key), None, "cold store misses");
        store.store_gmi(&key, &r);
        let fresh = DiskStore::open(&root);
        let back = fresh.load_gmi(&key).expect("a fresh instance hits");
        assert_eq!(back.total_power_mw.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, r);
        // The G-MI entry shares its key bytes with the flow entry of the
        // same 2D point but lives in its own directory: neither answers
        // for the other.
        assert_eq!(fresh.load_flow(&key), None);
        assert_eq!(fresh.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// Pins the G-MI entry file image: any change to the frame, the flow
    /// key codec or the G-MI result codec moves this hash.
    #[test]
    fn gmi_entry_file_image_is_pinned() {
        let root = temp_root("gmipin");
        let store = DiskStore::open(&root);
        let key = gmi_key(Benchmark::Aes);
        store.store_gmi(&key, &sample_gmi());
        let path = path_of::<GmiClass>(&store, &key);
        assert!(path.starts_with(root.join("gmi")));
        let bytes = fs::read(&path).expect("entry on disk");
        assert_eq!(content_hash(&bytes), 0x9f5b_2b39_4da2_60a3);
        let _ = fs::remove_dir_all(&root);
    }

    /// An entry copied into the slot of another point's key — what a
    /// key-hash collision would produce — embeds the wrong key and is
    /// quarantined, never served.
    #[test]
    fn forged_gmi_entry_is_quarantined_not_served() {
        let root = temp_root("gmiforge");
        let store = DiskStore::open(&root);
        let (aes, ldpc) = (gmi_key(Benchmark::Aes), gmi_key(Benchmark::Ldpc));
        store.store_gmi(&aes, &sample_gmi());
        let path = |k: &FlowKey| path_of::<GmiClass>(&store, k);
        fs::create_dir_all(path(&ldpc).parent().expect("entry dir")).expect("mkdir");
        fs::copy(path(&aes), path(&ldpc)).expect("forge the entry");
        assert_eq!(store.load_gmi(&ldpc), None);
        assert_eq!(store.counters().quarantined, 1);
        assert!(!path(&ldpc).exists(), "forged entry left the live tree");
        assert_eq!(store.load_gmi(&aes), Some(sample_gmi()));
        let _ = fs::remove_dir_all(&root);
    }

    fn wlm_key(bench: Benchmark) -> crate::cache::WlmKey {
        crate::cache::WlmKey::of(
            bench,
            DesignStyle::TwoD,
            &crate::flow::FlowConfig::new(NodeId::N45).scale(BenchScale::Small),
        )
    }

    fn sample_wlm() -> m3d_synth::WireLoadModel {
        let mut curve: Vec<f64> = (0..=m3d_synth::WireLoadModel::MAX_FANOUT)
            .map(|f| 2.5 + 0.75 * f as f64)
            .collect();
        curve[0] = -0.0;
        m3d_synth::WireLoadModel::from_parts(curve, 0.375).expect("a well-formed model")
    }

    /// The WLM bits: curve, then slope.
    fn wlm_bits(w: &m3d_synth::WireLoadModel) -> Vec<u64> {
        let mut bits: Vec<u64> = w.curve().iter().map(|v| v.to_bits()).collect();
        bits.push(w.slope_um().to_bits());
        bits
    }

    #[test]
    fn wlm_round_trips_bit_exactly() {
        let w = sample_wlm();
        let key = wlm_key(Benchmark::Aes);
        let back = WlmClass::decode(&key, &WlmClass::encode(&w)).expect("decodes");
        // -0.0 survives as -0.0 (bit-exact, not value-equal).
        assert_eq!(wlm_bits(&back), wlm_bits(&w));

        let root = temp_root("wlmrt");
        let store = DiskStore::open(&root);
        assert!(store.load::<WlmClass>(&key).is_none(), "cold store misses");
        store.store::<WlmClass>(&key, &w);
        let fresh = DiskStore::open(&root);
        let back = fresh.load::<WlmClass>(&key).expect("a fresh instance hits");
        assert_eq!(wlm_bits(&back), wlm_bits(&w));
        assert_eq!(fresh.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// Pins the WLM entry file image: any change to the frame, the WLM
    /// key codec (which embeds the library key's) or the curve codec
    /// moves this hash.
    #[test]
    fn wlm_entry_file_image_is_pinned() {
        let root = temp_root("wlmpin");
        let store = DiskStore::open(&root);
        let key = wlm_key(Benchmark::Aes);
        store.store::<WlmClass>(&key, &sample_wlm());
        let path = path_of::<WlmClass>(&store, &key);
        assert!(path.starts_with(root.join("wlm")));
        let bytes = fs::read(&path).expect("entry on disk");
        assert_eq!(content_hash(&bytes), 0x7acb_ead0_65f3_3f72);
        let _ = fs::remove_dir_all(&root);
    }

    /// A WLM entry copied into another key's slot, a truncated one, and
    /// well-framed ones whose curve is short or holds a non-finite
    /// number are each quarantined, never served.
    #[test]
    fn forged_or_truncated_wlm_entry_is_quarantined_not_served() {
        let root = temp_root("wlmforge");
        let store = DiskStore::open(&root);
        let (aes, ldpc) = (wlm_key(Benchmark::Aes), wlm_key(Benchmark::Ldpc));
        store.store::<WlmClass>(&aes, &sample_wlm());
        let path = |k: &crate::cache::WlmKey| path_of::<WlmClass>(&store, k);
        fs::create_dir_all(path(&ldpc).parent().expect("entry dir")).expect("mkdir");
        fs::copy(path(&aes), path(&ldpc)).expect("forge the entry");
        assert!(store.load::<WlmClass>(&ldpc).is_none());
        assert_eq!(store.counters().quarantined, 1);
        assert!(!path(&ldpc).exists(), "forged entry left the live tree");

        let bytes = fs::read(path(&aes)).expect("entry on disk");
        fs::write(path(&aes), &bytes[..bytes.len() - 3]).expect("truncate the entry");
        assert!(store.load::<WlmClass>(&aes).is_none());
        assert_eq!(store.counters().quarantined, 2);

        let w = sample_wlm();
        let mut nan = w.curve().to_vec();
        nan[7] = f64::NAN;
        for (i, (curve, slope)) in [(w.curve()[..3].to_vec(), 0.375), (nan, 0.375)]
            .into_iter()
            .enumerate()
        {
            let mut e = crate::codec::Enc::default();
            e.usize(curve.len());
            for v in curve {
                e.f64(v);
            }
            e.f64(slope);
            store.publish(CacheKind::Wlm, &WlmClass::key_bytes(&aes), &e.buf);
            assert!(store.load::<WlmClass>(&aes).is_none());
            assert_eq!(store.counters().quarantined, 3 + i as u64);
        }
        store.store::<WlmClass>(&aes, &w);
        let back = store
            .load::<WlmClass>(&aes)
            .expect("a clean publish serves again");
        assert_eq!(wlm_bits(&back), wlm_bits(&w));
        let _ = fs::remove_dir_all(&root);
    }

    fn netlist_key(bench: Benchmark) -> NetlistKey {
        let lib = LibraryKey::new(NodeId::N7, DesignStyle::TwoD, false, 1.0);
        NetlistKey::new(bench, BenchScale::Small, lib)
    }

    fn sample_stats() -> NetlistStats {
        NetlistStats {
            cell_count: 9694,
            cell_area_um2: 19123.25,
            net_count: 10012,
            average_fanout: -0.0,
            flop_count: 1024,
            buffer_count: 77,
        }
    }

    /// The statistics bits: counts, then each f64's bit pattern.
    fn stats_bits(s: &NetlistStats) -> [u64; 6] {
        [
            s.cell_count as u64,
            s.cell_area_um2.to_bits(),
            s.net_count as u64,
            s.average_fanout.to_bits(),
            s.flop_count as u64,
            s.buffer_count as u64,
        ]
    }

    #[test]
    fn netlist_stats_round_trip_bit_exactly() {
        let st = sample_stats();
        let key = netlist_key(Benchmark::Fpu);
        let back = NetlistClass::decode(&key, &NetlistClass::encode(&st)).expect("decodes");
        // -0.0 survives as -0.0 (bit-exact, not value-equal).
        assert_eq!(stats_bits(&back), stats_bits(&st));

        let root = temp_root("netrt");
        let store = DiskStore::open(&root);
        assert!(
            store.load::<NetlistClass>(&key).is_none(),
            "cold store misses"
        );
        store.store::<NetlistClass>(&key, &st);
        let fresh = DiskStore::open(&root);
        let back = fresh
            .load::<NetlistClass>(&key)
            .expect("a fresh instance hits");
        assert_eq!(stats_bits(&back), stats_bits(&st));
        assert_eq!(fresh.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// Pins the netlist entry file image: any change to the frame, the
    /// netlist key codec (which embeds the library key's) or the
    /// statistics codec moves this hash.
    #[test]
    fn netlist_entry_file_image_is_pinned() {
        let root = temp_root("netpin");
        let store = DiskStore::open(&root);
        let key = netlist_key(Benchmark::Fpu);
        store.store::<NetlistClass>(&key, &sample_stats());
        let path = path_of::<NetlistClass>(&store, &key);
        assert!(path.starts_with(root.join("netlist")));
        let bytes = fs::read(&path).expect("entry on disk");
        assert_eq!(content_hash(&bytes), 0x8fe3_d40f_8867_13f0);
        let _ = fs::remove_dir_all(&root);
    }

    /// A netlist entry copied into another key's slot, a truncated one,
    /// and well-framed ones with a NaN or negative area or an infinite
    /// fanout are each quarantined, never served.
    #[test]
    fn forged_truncated_or_implausible_netlist_entry_is_quarantined() {
        let root = temp_root("netforge");
        let store = DiskStore::open(&root);
        let (fpu, des) = (netlist_key(Benchmark::Fpu), netlist_key(Benchmark::Des));
        store.store::<NetlistClass>(&fpu, &sample_stats());
        let path = |k: &NetlistKey| path_of::<NetlistClass>(&store, k);
        fs::create_dir_all(path(&des).parent().expect("entry dir")).expect("mkdir");
        fs::copy(path(&fpu), path(&des)).expect("forge the entry");
        assert!(store.load::<NetlistClass>(&des).is_none());
        assert_eq!(store.counters().quarantined, 1);
        assert!(!path(&des).exists(), "forged entry left the live tree");

        let bytes = fs::read(path(&fpu)).expect("entry on disk");
        fs::write(path(&fpu), &bytes[..bytes.len() - 3]).expect("truncate the entry");
        assert!(store.load::<NetlistClass>(&fpu).is_none());
        assert_eq!(store.counters().quarantined, 2);

        let implausible = [(f64::NAN, 2.5), (-1.0, 2.5), (19123.25, f64::INFINITY)];
        for (i, (area, fanout)) in implausible.into_iter().enumerate() {
            let st = NetlistStats {
                cell_area_um2: area,
                average_fanout: fanout,
                ..sample_stats()
            };
            let key_bytes = NetlistClass::key_bytes(&fpu);
            store.publish(CacheKind::Netlist, &key_bytes, &NetlistClass::encode(&st));
            assert!(store.load::<NetlistClass>(&fpu).is_none());
            assert_eq!(store.counters().quarantined, 3 + i as u64);
        }
        store.store::<NetlistClass>(&fpu, &sample_stats());
        let back = store
            .load::<NetlistClass>(&fpu)
            .expect("a clean publish serves again");
        assert_eq!(stats_bits(&back), stats_bits(&sample_stats()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scale_key_changes_flow_key_bytes() {
        // BenchScale is part of the on-disk key: Paper- and Small-scale
        // runs of the same point must never share an entry.
        let mut small = crate::flow::FlowConfig::new(NodeId::N45);
        small.bench_scale = BenchScale::Small;
        let mut paper = crate::flow::FlowConfig::new(NodeId::N45);
        paper.bench_scale = BenchScale::Paper;
        let a = FlowClass::key_bytes(&FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &small));
        let b = FlowClass::key_bytes(&FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &paper));
        assert_ne!(content_hash(&a), content_hash(&b));
    }
    /// A small hand-built library: one cell per function (so it
    /// validates), with both pin directions and a sequential spec, so
    /// every branch of the cell codec is in the image. It does not
    /// depend on characterization, so only the codecs can move its pin.
    fn sample_library() -> CellLibrary {
        let grid = |base: f64| Nldm::new(vec![7.5, 37.5], vec![0.8], vec![base, 2.0 * base]);
        let cells = CellFunction::ALL
            .iter()
            .enumerate()
            .map(|(i, &function)| Cell {
                name: format!("{function:?}_X1"),
                function,
                drive: 1,
                width_nm: 190 * (i as i64 + 1),
                height_nm: 1400,
                pins: vec![
                    Pin {
                        name: "A".into(),
                        dir: PinDir::Input,
                        cap_ff: 0.5 + i as f64 / 8.0,
                    },
                    Pin {
                        name: "Z".into(),
                        dir: PinDir::Output,
                        cap_ff: 0.0,
                    },
                ],
                delay: grid(10.0 + i as f64),
                out_slew: grid(5.25),
                energy: grid(0.125),
                leakage_mw: 1e-5,
                seq: function.is_sequential().then_some(SeqSpec {
                    setup_ps: 20.0,
                    hold_ps: 5.0,
                    clk_energy_fj: 0.75,
                }),
                miv_count: i as u32 % 3,
                r_drive: 2.5,
            })
            .collect();
        CellLibrary::try_from_parts(TechNode::for_id(NodeId::N45), DesignStyle::Tmi, cells)
            .expect("sample library validates")
    }

    /// Pins the library entry file image: any change to the frame, the
    /// library key codec or the cell codec moves this hash. Also pins
    /// each class's entry directory.
    #[test]
    fn library_entry_file_image_is_pinned() {
        let root = temp_root("libpin");
        let store = DiskStore::open(&root);
        let key = LibraryKey::new(NodeId::N45, DesignStyle::Tmi, true, 0.6);
        let lib = sample_library();
        store.store_library(&key, &lib);
        let path = path_of::<LibraryClass>(&store, &key);
        let bytes = fs::read(&path).expect("entry on disk");
        assert_eq!(content_hash(&bytes), 0x590b_4a88_030c_46cd);
        let back = store.load_library(&key).expect("the entry loads back");
        assert!(back.iter().zip(lib.iter()).all(|((_, a), (_, b))| a == b));

        let flow = flow_key();
        let spice = spice_key(CellFunction::Inv);
        for (path, dir) in [
            (path, "lib"),
            (path_of::<FlowClass>(&store, &flow), "flow"),
            (path_of::<SpiceClass>(&store, &spice), "spice"),
            (path_of::<GmiClass>(&store, &flow), "gmi"),
            (path_of::<WlmClass>(&store, &wlm_key(Benchmark::Aes)), "wlm"),
            (
                path_of::<NetlistClass>(&store, &netlist_key(Benchmark::Aes)),
                "netlist",
            ),
        ] {
            assert!(
                path.starts_with(root.join(dir)),
                "{path:?} not under {dir}/"
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// A killed publish leaves its temp file behind; the scan of a later
    /// open deletes it once it is stale, and leaves a younger one
    /// (possibly a live peer's publish) alone.
    #[test]
    fn stale_publish_temp_files_are_reclaimed_on_open() {
        let root = temp_root("tmpgc");
        let keys = [Benchmark::Des, Benchmark::Aes].map(gmi_key);
        let temps = keys.map(|k| {
            let store =
                DiskStore::with_faults(&root, u64::MAX, StoreFaultPlan::new().torn_write_on(1));
            store.store_flow(&k, &sample_result());
            let tmp = temp_path(&path_of::<FlowClass>(&store, &k));
            assert!(tmp.exists(), "a torn write leaves its temp file");
            tmp
        });
        backdate(&temps[0], TEMP_STALE + Duration::from_secs(5));
        let store = DiskStore::open(&root);
        assert!(!temps[0].exists(), "stale temp file reclaimed");
        assert!(temps[1].exists(), "fresh temp file left alone");
        assert_eq!(store.resident_bytes(), 0);
        let _ = fs::remove_dir_all(&root);
    }
}
