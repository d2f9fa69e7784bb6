//! Persistent, content-addressed artifact store — the disk tier below
//! [`crate::ArtifactCache`].
//!
//! The paper's sweeps re-derive the same expensive artifacts across
//! *processes*: without a store, every fresh `paper_tables` invocation
//! re-characterizes the same cell libraries, re-simulates the same
//! SPICE decks and re-runs flows and G-MI implementations an earlier
//! invocation already signed off. [`DiskStore`] persists all four
//! artifact classes under their existing cache keys so a warm directory
//! turns a fresh process into a cache hit:
//!
//! * **Layout** — entries are content-addressed by the FNV-1a 64 hash
//!   of the *encoded key bytes* (Rust's `std::hash` is not stable
//!   across processes), sharded by the hash's low byte:
//!   `<root>/lib/<2-hex>/<16-hex>.m3d`,
//!   `<root>/flow/<2-hex>/<16-hex>.m3d`,
//!   `<root>/spice/<2-hex>/<16-hex>.m3d` and
//!   `<root>/gmi/<2-hex>/<16-hex>.m3d` (keyed by the G-MI point's 2D
//!   reference [`FlowKey`]), plus `<root>/quarantine/` and a recency
//!   journal `<root>/index.journal`.
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
//!   harness).
//! * **Multi-process safety** — publishers take a per-entry `.lock`
//!   file (`create_new`, stolen after [`LOCK_STALE`]); losers *skip*
//!   the publish, which is sound because the flow is deterministic and
//!   both writers would publish byte-identical payloads
//!   (last-writer-wins idempotence).
//! * **Graceful degradation** — any entry-file I/O failure flips the
//!   store into a degraded mode (a one-way latch): a single
//!   [`EventKind::StoreDegraded`] is emitted with a stable reason and
//!   every later operation no-ops, so the memory tier carries the run
//!   to a correct (just slower) finish. Degradation is *never* an
//!   error.
//! * **Byte-budget LRU eviction** — an in-memory index (rebuilt from a
//!   directory scan at open, with recency replayed from the journal)
//!   tracks per-entry sizes; publishes that push the store over its
//!   budget evict least-recently-used entries and emit
//!   [`EventKind::DiskEvicted`]. The journal is an *optimization*:
//!   corrupt lines are skipped, append failures are swallowed, and the
//!   directory scan remains ground truth.

use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use m3d_cells::characterize::SpiceTables;
use m3d_cells::{Cell, CellFunction, CellLibrary, Nldm, Pin, PinDir, SeqSpec};
use m3d_power::PowerReport;
use m3d_tech::{MetalClass, TechNode};

use crate::cache::{FlowKey, LibraryKey, SpiceKey};
use crate::codec::{
    content_hash, dec_benchmark, dec_layer_usage, dec_node, dec_style, enc_benchmark,
    enc_layer_usage, enc_node, enc_scale, enc_stack_kind, enc_style, flip_byte, frame,
    quarantine_file, temp_path, unframe, write_atomic, Dec, DecResult, DecodeError, Enc,
};
use crate::error::StoreFailure;
use crate::faultinject::{StoreFaultKind, StoreFaultPlan};
use crate::flow::FlowResult;
use crate::gmi::GmiResult;
use crate::observe::{self, CacheKind, EventKind, Recorder};

/// Store entry magic: any other file dropped into the store is
/// quarantined, not misparsed.
const MAGIC: &[u8; 8] = b"M3DSTOR1";

/// Section tags inside an entry payload.
const SEC_KEY: u8 = 1;
const SEC_ARTIFACT: u8 = 2;

/// Default byte budget: generous for the full paper reproduction
/// (a characterized library encodes to a few hundred KiB, a flow
/// result to ~1 KiB, one cell's SPICE tables or a G-MI result to well
/// under that) while still bounding a pathological sweep.
const DEFAULT_BYTE_BUDGET: u64 = 1 << 30;

/// A publisher's `.lock` older than this is presumed crashed and is
/// stolen.
const LOCK_STALE: Duration = Duration::from_secs(30);

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

/// The in-memory picture of what is on disk: sizes for the byte budget,
/// a logical recency clock for LRU eviction, and the journal length
/// (for compaction). Rebuilt from a directory scan at open.
#[derive(Debug, Default)]
struct Index {
    entries: HashMap<(CacheKind, u64), IndexEntry>,
    total_bytes: u64,
    clock: u64,
    journal_lines: u64,
}

impl Index {
    fn touch(&mut self, kind: CacheKind, hash: u64) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&(kind, hash)) {
            e.last_used = clock;
        }
    }

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
/// locking and degradation contracts. Thread-safe; one instance is
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

    // -- public artifact API ------------------------------------------

    /// The persisted library for `key`, if a verified entry exists.
    /// Never errors: corruption quarantines and reads as a miss; I/O
    /// failure degrades the store and reads as absent.
    pub fn load_library(&self, key: &LibraryKey) -> Option<CellLibrary> {
        let key_bytes = enc_library_key(key);
        let (node_id, style, rho) = (key.node_id, key.style, key.lower_metal_rho);
        self.load_verified(CacheKind::Library, &key_bytes, move |artifact| {
            let cells = dec_cells(artifact)?;
            let node = {
                let n = TechNode::try_for_id(node_id).ok_or_else(|| {
                    DecodeError(format!(
                        "library keyed to unregistered node '{}'",
                        node_id.label()
                    ))
                })?;
                if rho {
                    n.with_rho_scaled(&[MetalClass::Local, MetalClass::Intermediate], 0.5)
                } else {
                    n
                }
            };
            // The pin-cap scale is already baked into the persisted
            // cells; only the tech node is re-derived (it is pure
            // config, not a characterized artifact).
            CellLibrary::try_from_parts(node, style, cells)
                .map_err(|e| DecodeError(format!("library failed validation: {e}")))
        })
    }

    /// Publishes a characterized library under `key`. Never errors.
    pub fn store_library(&self, key: &LibraryKey, lib: &CellLibrary) {
        self.publish(CacheKind::Library, &enc_library_key(key), &enc_cells(lib));
    }

    /// The persisted flow result for `key`, if a verified entry
    /// exists. Same non-erroring contract as [`DiskStore::load_library`].
    pub fn load_flow(&self, key: &FlowKey) -> Option<FlowResult> {
        let key_bytes = enc_flow_key(key);
        self.load_verified(CacheKind::Flow, &key_bytes, dec_flow_result)
    }

    /// Publishes a completed flow result under `key`. Never errors.
    pub fn store_flow(&self, key: &FlowKey, result: &FlowResult) {
        self.publish(
            CacheKind::Flow,
            &enc_flow_key(key),
            &enc_flow_result(result),
        );
    }

    /// The persisted SPICE tables for `key`, if a verified entry exists
    /// whose tables span exactly the key's grid. Same non-erroring
    /// contract as [`DiskStore::load_library`].
    pub fn load_spice(&self, key: &SpiceKey) -> Option<SpiceTables> {
        let key_bytes = enc_spice_key(key);
        self.load_verified(CacheKind::Spice, &key_bytes, |artifact| {
            let tables = dec_spice_tables(artifact)?;
            let on_grid =
                |t: &Nldm| bits(t.slews()) == key.slew_bits && bits(t.loads()) == key.load_bits;
            if [&tables.delay, &tables.out_slew, &tables.energy]
                .into_iter()
                .all(on_grid)
            {
                Ok(tables)
            } else {
                Err(DecodeError("SPICE tables span another grid".into()))
            }
        })
    }

    /// Publishes one cell's SPICE tables under `key`. Never errors.
    pub fn store_spice(&self, key: &SpiceKey, tables: &SpiceTables) {
        self.publish(
            CacheKind::Spice,
            &enc_spice_key(key),
            &enc_spice_tables(tables),
        );
    }

    /// The persisted G-MI result for the 2D reference point `key`, if a
    /// verified entry exists. Same non-erroring contract as
    /// [`DiskStore::load_library`].
    pub fn load_gmi(&self, key: &FlowKey) -> Option<GmiResult> {
        let key_bytes = enc_flow_key(key);
        self.load_verified(CacheKind::Gmi, &key_bytes, dec_gmi_result)
    }

    /// Publishes a G-MI result under its 2D reference point's `key`.
    /// Never errors.
    pub fn store_gmi(&self, key: &FlowKey, result: &GmiResult) {
        self.publish(CacheKind::Gmi, &enc_flow_key(key), &enc_gmi_result(result));
    }

    // -- read path ----------------------------------------------------

    /// The whole verify-on-read protocol: read, check magic + payload
    /// hash + section hashes, check the stored key equals the
    /// requested key, and semantically decode the artifact. Any
    /// failure past "file exists" quarantines the entry and reports a
    /// miss; the caller rebuilds.
    fn load_verified<T>(
        &self,
        kind: CacheKind,
        key_bytes: &[u8],
        decode: impl FnOnce(&[u8]) -> DecResult<T>,
    ) -> Option<T> {
        if self.is_degraded() {
            return None;
        }
        let hash = content_hash(key_bytes);
        let path = self.entry_path(kind, hash);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.miss(kind);
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
                decode(artifact)
            });
        match decoded {
            Ok(artifact) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.emit(|| EventKind::DiskHit { kind });
                let mut idx = self.index.lock().expect("store index lock");
                idx.touch(kind, hash);
                self.journal(&mut idx, &format!("T {} {hash:016x}", kind.key()));
                Some(artifact)
            }
            Err(_) => {
                self.quarantine_entry(kind, hash, &path);
                self.miss(kind);
                None
            }
        }
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
            Ok(false) => {} // lost the lock race, or a torn write
            Err(f) => self.degrade(f),
        }
    }

    /// The crash-only publish: lock, then [`write_atomic`]. Returns
    /// `Ok(true)` when the entry became visible, `Ok(false)` when the
    /// publish was skipped (lock held by a live peer) or torn by
    /// injection.
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
            .expect("entry path always has a shard parent")
            .to_path_buf();
        fs::create_dir_all(&shard_dir)
            .map_err(|e| StoreFailure::io("create store shard dir", &e))?;
        if fault == Some(StoreFaultKind::StoreDirUnwritable) {
            // Simulate losing write permission mid-run; routes through
            // the same classifier a real `EACCES` would.
            let e = io::Error::from(io::ErrorKind::PermissionDenied);
            return Err(StoreFailure::io("publish store entry", &e));
        }
        let lock_path = shard_dir.join(format!("{hash:016x}.lock"));
        if !acquire_lock(&lock_path).map_err(|e| StoreFailure::io("take store lock", &e))? {
            // A live peer is publishing this key. The flow is
            // deterministic, so its bytes equal ours: skipping is the
            // idempotent last-writer-wins outcome.
            return Ok(false);
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
            let mut idx = self.index.lock().expect("store index lock");
            idx.insert(kind, hash, bytes.len() as u64);
            self.journal(
                &mut idx,
                &format!("P {} {hash:016x} {}", kind.key(), bytes.len()),
            );
        }
        let _ = fs::remove_file(&lock_path);
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
                self.journal(&mut idx, &format!("E {} {hash:016x}", kind.key()));
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
        let mut idx = self.index.lock().expect("store index lock");
        idx.remove(kind, hash);
        self.journal(&mut idx, &format!("Q {} {hash:016x}", kind.key()));
        drop(idx);
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
            .join(kind_dir(kind))
            .join(format!("{:02x}", hash & 0xff))
            .join(format!("{hash:016x}.m3d"))
    }

    /// Best-effort journal append (+ compaction). The journal only
    /// carries recency and byte accounting — losing a line degrades
    /// eviction *quality*, never correctness — so append failures are
    /// swallowed rather than degrading the store (which would turn a
    /// read-only warm directory from a hit source into a no-op).
    fn journal(&self, idx: &mut Index, line: &str) {
        idx.journal_lines += 1;
        let _ = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join("index.journal"))
            .and_then(|mut f| writeln!(f, "{line}"));
        let threshold = 1024u64.max(8 * idx.entries.len() as u64);
        if idx.journal_lines > threshold {
            self.compact_journal(idx);
        }
    }

    /// Rewrites the journal as one `P` line per live entry in recency
    /// order (so a replay reproduces the LRU order), via the same
    /// tmp+rename discipline as entries. Best-effort.
    fn compact_journal(&self, idx: &mut Index) {
        let mut live: Vec<((CacheKind, u64), IndexEntry)> =
            idx.entries.iter().map(|(&k, &e)| (k, e)).collect();
        live.sort_by_key(|(_, e)| e.last_used);
        let mut text = String::new();
        for ((kind, hash), e) in &live {
            text.push_str(&format!("P {} {hash:016x} {}\n", kind.key(), e.bytes));
        }
        let tmp = self.root.join(".index.journal.tmp");
        if fs::write(&tmp, text).is_ok()
            && fs::rename(&tmp, self.root.join("index.journal")).is_ok()
        {
            idx.journal_lines = live.len() as u64;
        } else {
            let _ = fs::remove_file(&tmp);
        }
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

/// The store subdirectory holding one kind's entries.
fn kind_dir(kind: CacheKind) -> &'static str {
    match kind {
        CacheKind::Library => "lib",
        CacheKind::Flow => "flow",
        CacheKind::Spice => "spice",
        CacheKind::Gmi => "gmi",
    }
}

/// Rebuilds the index from the directory tree (ground truth for
/// existence and sizes), then replays the journal for recency. Any
/// unreadable directory or corrupt journal line is simply skipped: the
/// index is an optimization, and reads re-verify entries anyway.
fn scan(root: &Path) -> Index {
    let mut idx = Index::default();
    for kind in CacheKind::ALL {
        let Ok(shards) = fs::read_dir(root.join(kind_dir(kind))) else {
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
                    continue;
                };
                let Ok(hash) = u64::from_str_radix(hex, 16) else {
                    continue;
                };
                let bytes = f.metadata().map(|m| m.len()).unwrap_or(0);
                idx.entries.insert(
                    (kind, hash),
                    IndexEntry {
                        bytes,
                        last_used: 0,
                    },
                );
                idx.total_bytes += bytes;
            }
        }
    }
    if let Ok(text) = fs::read_to_string(root.join("index.journal")) {
        for line in text.lines() {
            idx.journal_lines += 1;
            let mut parts = line.split_whitespace();
            let (Some(op), Some(kind), Some(hash)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Some(kind) = CacheKind::from_key(kind) else {
                continue;
            };
            let Ok(hash) = u64::from_str_radix(hash, 16) else {
                continue;
            };
            match op {
                // Publishes and touches both count as uses; eviction
                // and quarantine lines carry no recency (the scan
                // already decided existence).
                "P" | "T" => idx.touch(kind, hash),
                _ => {}
            }
        }
    }
    idx
}

/// Tries to create the `.lock` file. `Ok(true)` — acquired. `Ok(false)`
/// — a live peer holds it. Stale locks (crashed holders) are stolen.
fn acquire_lock(path: &Path) -> io::Result<bool> {
    for _ in 0..4 {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut f) => {
                let _ = write!(f, "{}", std::process::id());
                return Ok(true);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let stale = fs::metadata(path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > LOCK_STALE);
                if stale {
                    let _ = fs::remove_file(path);
                    continue; // retry the create_new
                }
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

// ---------------------------------------------------------------------
// Key codecs — the encoded bytes both address the entry (their FNV
// hash names the file) and are embedded for the read-back equality
// check, so the encoding must stay stable.
// ---------------------------------------------------------------------

fn enc_library_key(k: &LibraryKey) -> Vec<u8> {
    let mut e = Enc::default();
    enc_node(&mut e, k.node_id);
    enc_style(&mut e, k.style);
    e.bool(k.lower_metal_rho);
    e.u64(k.pin_cap_scale_bits);
    e.buf
}

fn enc_spice_key(k: &SpiceKey) -> Vec<u8> {
    let mut e = Enc::default();
    enc_node(&mut e, k.node_id);
    enc_style(&mut e, k.style);
    enc_function(&mut e, k.function);
    e.u8(k.drive);
    for axis in [&k.slew_bits, &k.load_bits] {
        e.usize(axis.len());
        for &b in axis {
            e.u64(b);
        }
    }
    e.buf
}

fn enc_flow_key(k: &FlowKey) -> Vec<u8> {
    let mut e = Enc::default();
    enc_benchmark(&mut e, k.bench);
    enc_style(&mut e, k.style);
    enc_node(&mut e, k.node_id);
    enc_scale(&mut e, k.bench_scale);
    enc_stack_kind(&mut e, k.stack_kind);
    e.opt(&k.clock_ps_bits, |e, v| e.u64(*v));
    e.opt(&k.utilization_bits, |e, v| e.u64(*v));
    e.bool(k.tmi_wlm);
    e.u64(k.pin_cap_scale_bits);
    e.bool(k.lower_metal_rho);
    e.u64(k.alpha_ff_bits);
    e.bool(k.mb1_routing);
    e.usize(k.opt_passes);
    e.usize(k.place_iterations);
    e.u64(k.clock_scale_bits);
    e.buf
}

// ---------------------------------------------------------------------
// Artifact codecs
// ---------------------------------------------------------------------

fn enc_f64s(e: &mut Enc, v: &[f64]) {
    e.usize(v.len());
    for &x in v {
        e.f64(x);
    }
}

fn dec_f64s(d: &mut Dec) -> DecResult<Vec<f64>> {
    let n = d.usize()?;
    if n > (1 << 24) {
        return Err(DecodeError(format!("implausible f64 vec length {n}")));
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.f64()?);
    }
    Ok(v)
}

fn enc_function(e: &mut Enc, f: CellFunction) {
    let idx = CellFunction::ALL
        .iter()
        .position(|&x| x == f)
        .expect("CellFunction::ALL enumerates every variant");
    e.u8(idx as u8);
}

fn dec_function(d: &mut Dec) -> DecResult<CellFunction> {
    let t = d.u8()?;
    CellFunction::ALL
        .get(t as usize)
        .copied()
        .ok_or_else(|| DecodeError(format!("bad CellFunction tag {t}")))
}

fn enc_nldm(e: &mut Enc, t: &Nldm) {
    enc_f64s(e, t.slews());
    enc_f64s(e, t.loads());
    enc_f64s(e, t.values());
}

/// Decodes an NLDM, *pre-validating* the invariants [`Nldm::new`]
/// asserts — a corrupt grid must surface as a typed decode failure
/// (⇒ quarantine), never a panic.
fn dec_nldm(d: &mut Dec) -> DecResult<Nldm> {
    let slews = dec_f64s(d)?;
    let loads = dec_f64s(d)?;
    let values = dec_f64s(d)?;
    if slews.is_empty() || loads.is_empty() {
        return Err(DecodeError("empty NLDM axis".into()));
    }
    let increasing = |a: &[f64]| a.windows(2).all(|w| w[0] < w[1]);
    if !increasing(&slews) || !increasing(&loads) {
        return Err(DecodeError("NLDM axis not strictly increasing".into()));
    }
    if values.len() != slews.len() * loads.len() {
        return Err(DecodeError(format!(
            "NLDM grid size {} != {}x{}",
            values.len(),
            slews.len(),
            loads.len()
        )));
    }
    Ok(Nldm::new(slews, loads, values))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn enc_spice_tables(t: &SpiceTables) -> Vec<u8> {
    let mut e = Enc::default();
    enc_nldm(&mut e, &t.delay);
    enc_nldm(&mut e, &t.out_slew);
    enc_nldm(&mut e, &t.energy);
    e.buf
}

fn dec_spice_tables(bytes: &[u8]) -> DecResult<SpiceTables> {
    let mut d = Dec::new(bytes);
    let tables = SpiceTables {
        delay: dec_nldm(&mut d)?,
        out_slew: dec_nldm(&mut d)?,
        energy: dec_nldm(&mut d)?,
    };
    d.finish()?;
    Ok(tables)
}

fn enc_pin(e: &mut Enc, p: &Pin) {
    e.str(&p.name);
    e.u8(match p.dir {
        PinDir::Input => 0,
        PinDir::Output => 1,
    });
    e.f64(p.cap_ff);
}

fn dec_pin(d: &mut Dec) -> DecResult<Pin> {
    let name = d.str()?;
    let dir = match d.u8()? {
        0 => PinDir::Input,
        1 => PinDir::Output,
        t => return Err(DecodeError(format!("bad PinDir tag {t}"))),
    };
    let cap_ff = d.f64()?;
    Ok(Pin { name, dir, cap_ff })
}

fn enc_cell(e: &mut Enc, c: &Cell) {
    e.str(&c.name);
    enc_function(e, c.function);
    e.u8(c.drive);
    e.i64(c.width_nm);
    e.i64(c.height_nm);
    e.usize(c.pins.len());
    for p in &c.pins {
        enc_pin(e, p);
    }
    enc_nldm(e, &c.delay);
    enc_nldm(e, &c.out_slew);
    enc_nldm(e, &c.energy);
    e.f64(c.leakage_mw);
    e.opt(&c.seq, |e, s| {
        e.f64(s.setup_ps);
        e.f64(s.hold_ps);
        e.f64(s.clk_energy_fj);
    });
    e.u32(c.miv_count);
    e.f64(c.r_drive);
}

fn dec_cell(d: &mut Dec) -> DecResult<Cell> {
    let name = d.str()?;
    let function = dec_function(d)?;
    let drive = d.u8()?;
    let width_nm = d.i64()?;
    let height_nm = d.i64()?;
    let n_pins = d.usize()?;
    if n_pins > 64 {
        return Err(DecodeError(format!("implausible pin count {n_pins}")));
    }
    let mut pins = Vec::with_capacity(n_pins);
    for _ in 0..n_pins {
        pins.push(dec_pin(d)?);
    }
    let delay = dec_nldm(d)?;
    let out_slew = dec_nldm(d)?;
    let energy = dec_nldm(d)?;
    let leakage_mw = d.f64()?;
    let seq = d.opt(|d| {
        Ok(SeqSpec {
            setup_ps: d.f64()?,
            hold_ps: d.f64()?,
            clk_energy_fj: d.f64()?,
        })
    })?;
    let miv_count = d.u32()?;
    let r_drive = d.f64()?;
    Ok(Cell {
        name,
        function,
        drive,
        width_nm,
        height_nm,
        pins,
        delay,
        out_slew,
        energy,
        leakage_mw,
        seq,
        miv_count,
        r_drive,
    })
}

/// Persists the library's cells in [`m3d_cells::CellId`] order, which
/// the rebuild preserves (the tech node is *not* persisted: it is pure
/// config and is re-derived from the key).
fn enc_cells(lib: &CellLibrary) -> Vec<u8> {
    let mut e = Enc::default();
    e.usize(lib.len());
    for (_, cell) in lib.iter() {
        enc_cell(&mut e, cell);
    }
    e.buf
}

fn dec_cells(bytes: &[u8]) -> DecResult<Vec<Cell>> {
    let mut d = Dec::new(bytes);
    let n = d.usize()?;
    if n > (1 << 16) {
        return Err(DecodeError(format!("implausible cell count {n}")));
    }
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        cells.push(dec_cell(&mut d)?);
    }
    d.finish()?;
    Ok(cells)
}

fn enc_flow_result(r: &FlowResult) -> Vec<u8> {
    let mut e = Enc::default();
    enc_benchmark(&mut e, r.bench);
    enc_style(&mut e, r.style);
    enc_node(&mut e, r.node_id);
    e.f64(r.clock_ps);
    e.f64(r.footprint_um2);
    e.f64(r.core_um.0);
    e.f64(r.core_um.1);
    e.usize(r.cell_count);
    e.usize(r.buffer_count);
    e.f64(r.utilization);
    e.f64(r.wirelength_um);
    e.f64(r.wns_ps);
    e.f64(r.hold_wns_ps);
    e.f64(r.power.cell_mw);
    e.f64(r.power.wire_mw);
    e.f64(r.power.pin_mw);
    e.f64(r.power.leakage_mw);
    e.f64(r.power.wire_cap_pf);
    e.f64(r.power.pin_cap_pf);
    enc_layer_usage(&mut e, &r.layer_usage);
    enc_f64s(&mut e, &r.wlm_curve);
    e.buf
}

fn dec_flow_result(bytes: &[u8]) -> DecResult<FlowResult> {
    let mut d = Dec::new(bytes);
    let bench = dec_benchmark(&mut d)?;
    let style = dec_style(&mut d)?;
    let node_id = dec_node(&mut d)?;
    let clock_ps = d.f64()?;
    let footprint_um2 = d.f64()?;
    let core_um = (d.f64()?, d.f64()?);
    let cell_count = d.usize()?;
    let buffer_count = d.usize()?;
    let utilization = d.f64()?;
    let wirelength_um = d.f64()?;
    let wns_ps = d.f64()?;
    let hold_wns_ps = d.f64()?;
    let power = PowerReport {
        cell_mw: d.f64()?,
        wire_mw: d.f64()?,
        pin_mw: d.f64()?,
        leakage_mw: d.f64()?,
        wire_cap_pf: d.f64()?,
        pin_cap_pf: d.f64()?,
    };
    let layer_usage = dec_layer_usage(&mut d)?;
    let wlm_curve = dec_f64s(&mut d)?;
    d.finish()?;
    Ok(FlowResult {
        bench,
        style,
        node_id,
        clock_ps,
        footprint_um2,
        core_um,
        cell_count,
        buffer_count,
        utilization,
        wirelength_um,
        wns_ps,
        hold_wns_ps,
        power,
        layer_usage,
        wlm_curve,
    })
}

fn enc_gmi_result(r: &GmiResult) -> Vec<u8> {
    let mut e = Enc::default();
    e.f64(r.footprint_um2);
    e.f64(r.wirelength_um);
    e.usize(r.miv_nets);
    e.f64(r.wns_ps);
    e.f64(r.total_power_mw);
    e.buf
}

fn dec_gmi_result(bytes: &[u8]) -> DecResult<GmiResult> {
    let mut d = Dec::new(bytes);
    let r = GmiResult {
        footprint_um2: d.f64()?,
        wirelength_um: d.f64()?,
        miv_nets: d.usize()?,
        wns_ps: d.f64()?,
        total_power_mw: d.f64()?,
    };
    d.finish()?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_tech::{DesignStyle, NodeId};
    use std::sync::atomic::AtomicU32 as TestCounter;

    fn temp_root(tag: &str) -> PathBuf {
        static N: TestCounter = TestCounter::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("m3d-store-unit-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
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
        let back = dec_flow_result(&enc_flow_result(&r)).expect("decodes");
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
        let path = store.entry_path(CacheKind::Flow, content_hash(&enc_flow_key(&key)));
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
                let path_a = store.entry_path(CacheKind::Flow, content_hash(&enc_flow_key(&key_a)));
                let path_b = store.entry_path(CacheKind::Flow, content_hash(&enc_flow_key(&key_b)));
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
        let hash = content_hash(&enc_flow_key(&key));
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

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let root = temp_root("evict");
        let keys: Vec<FlowKey> = [Benchmark::Des, Benchmark::Aes, Benchmark::Fpu]
            .iter()
            .map(|&b| {
                FlowKey::of(
                    b,
                    DesignStyle::TwoD,
                    &crate::flow::FlowConfig::new(NodeId::N45),
                )
            })
            .collect();
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
    fn journal_replay_restores_recency_across_reopen() {
        let root = temp_root("journal");
        let keys: Vec<FlowKey> = [Benchmark::Des, Benchmark::Aes]
            .iter()
            .map(|&b| {
                FlowKey::of(
                    b,
                    DesignStyle::TwoD,
                    &crate::flow::FlowConfig::new(NodeId::N45),
                )
            })
            .collect();
        let entry_bytes = {
            let store = DiskStore::open(&root);
            store.store_flow(&keys[0], &sample_result());
            store.store_flow(&keys[1], &sample_result());
            // Make key 0 the most recent.
            assert!(store.load_flow(&keys[0]).is_some());
            store.resident_bytes() / 2
        };
        // A fresh process inherits the recency: publishing a third entry
        // under a two-entry budget must evict key 1, not key 0.
        let store = DiskStore::with_budget(&root, entry_bytes * 2 + entry_bytes / 2);
        let third = FlowKey::of(
            Benchmark::Fpu,
            DesignStyle::TwoD,
            &crate::flow::FlowConfig::new(NodeId::N45),
        );
        store.store_flow(&third, &sample_result());
        assert!(
            store.load_flow(&keys[0]).is_some(),
            "journal kept key 0 warm"
        );
        assert!(store.load_flow(&keys[1]).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_lock_is_stolen_fresh_lock_is_respected() {
        let root = temp_root("lock");
        fs::create_dir_all(&root).expect("temp root");
        let lock = root.join("0000000000000001.lock");
        fs::write(&lock, "held").expect("write lock");
        // Fresh lock: not acquired.
        assert!(!acquire_lock(&lock).expect("no io error"));
        // Backdate it past the stale horizon and it is stolen. (Uses
        // filetime via touch -d; fall back to skip if unavailable.)
        let old = std::time::SystemTime::now() - LOCK_STALE - Duration::from_secs(5);
        let ft = std::fs::File::options()
            .write(true)
            .open(&lock)
            .and_then(|f| f.set_modified(old));
        if ft.is_ok() {
            assert!(
                acquire_lock(&lock).expect("no io error"),
                "stale lock stolen"
            );
        }
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
        let back = dec_spice_tables(&enc_spice_tables(&t)).expect("decodes");
        assert_eq!(back, t);
        assert_eq!(back.out_slew.values()[1].to_bits(), (-0.0f64).to_bits());

        let root = temp_root("spicert");
        let key = spice_key(CellFunction::Nand2);
        DiskStore::open(&root).store_spice(&key, &t);
        let fresh = DiskStore::open(&root);
        assert_eq!(fresh.load_spice(&key), Some(t));
        // The scan found the entry: it counts toward the index and the
        // byte budget like any library or flow entry.
        let bytes =
            fs::metadata(fresh.entry_path(CacheKind::Spice, content_hash(&enc_spice_key(&key))))
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
        let path = store.entry_path(CacheKind::Spice, content_hash(&enc_spice_key(&key)));
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
        let path =
            |k: &SpiceKey| store.entry_path(CacheKind::Spice, content_hash(&enc_spice_key(k)));
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
        let back = dec_gmi_result(&enc_gmi_result(&r)).expect("decodes");
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
        let path = store.entry_path(CacheKind::Gmi, content_hash(&enc_flow_key(&key)));
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
        let path = |k: &FlowKey| store.entry_path(CacheKind::Gmi, content_hash(&enc_flow_key(k)));
        fs::create_dir_all(path(&ldpc).parent().expect("entry dir")).expect("mkdir");
        fs::copy(path(&aes), path(&ldpc)).expect("forge the entry");
        assert_eq!(store.load_gmi(&ldpc), None);
        assert_eq!(store.counters().quarantined, 1);
        assert!(!path(&ldpc).exists(), "forged entry left the live tree");
        assert_eq!(store.load_gmi(&aes), Some(sample_gmi()));
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
        let a = enc_flow_key(&FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &small));
        let b = enc_flow_key(&FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &paper));
        assert_ne!(content_hash(&a), content_hash(&b));
    }
}
