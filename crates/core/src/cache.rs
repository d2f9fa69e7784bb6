//! Content-keyed memoization of flow artifacts.
//!
//! The paper's study is one pipeline evaluated under ~20 configuration
//! sweeps, and most sweeps share whole sub-problems: every 45 nm 2D run
//! characterizes the same cell library, and several tables re-run the
//! identical (benchmark, style, config) flow the previous table already
//! signed off. [`ArtifactCache`] shares those artifacts:
//!
//! * **Cell libraries** are built once per [`LibraryKey`] — the
//!   projection of a [`FlowConfig`] onto the fields a library build
//!   actually consumes: `(node_id, style, lower_metal_rho,
//!   pin_cap_scale)`.
//! * **Completed [`FlowResult`]s** are shared per [`FlowKey`] — the
//!   projection of `(benchmark, style, FlowConfig)` onto the knobs the
//!   stage graph consumes, with unconsumed knobs canonicalized away so
//!   they cannot split the key (a 2D flow never reads `tmi_wlm`;
//!   `stack_kind: None` resolves to the style default; `clock_scale: 0`
//!   resolves to the per-benchmark calibration).
//! * **SPICE characterizations** — the delay, output-slew and energy
//!   tables of one cell's transient runs — are shared per [`SpiceKey`]:
//!   `(node_id, style, function, drive, slews, loads)`, exactly what the
//!   deck reads.
//! * **G-MI sign-off results** ([`GmiResult`]) are shared per the
//!   [`FlowKey`] of their 2D reference point: every knob
//!   [`crate::gmi::run_gmi`] reads is one that key already holds.
//!
//! Keys canonicalize `f64` knobs to their bit patterns, so a cache hit
//! requires bit-equal configuration — there is no tolerance matching,
//! and a hit therefore returns a bit-identical result (the flow itself
//! is deterministic; `tests/flow_cache.rs` asserts both properties).
//!
//! One process-wide cache ([`ArtifactCache::global`]) serves
//! [`crate::Flow::try_run`], every `experiments::*` driver and the
//! `paper_tables` binary; fresh instances (`ArtifactCache::default`)
//! isolate tests and benchmarks that must measure cold runs.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};

use m3d_cells::characterize::{characterize_spice_tables, SpiceTables};
use m3d_cells::layout::generate_layout;
use m3d_cells::{CellFunction, CellLibrary, LibraryError, Topology};
use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, MetalClass, NodeId, StackKind, TechNode};

use crate::error::{FlowError, FlowStage};
use crate::flow::{FlowConfig, FlowResult};
use crate::gmi::GmiResult;
use crate::memo::{FlowClass, GmiClass, LibraryClass, MemoClass, SpiceClass};
use crate::observe::{self, CacheKind, EventKind, Recorder};
use crate::store::DiskStore;

/// Cache key of one characterized cell library: every [`FlowConfig`]
/// field the library build consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibraryKey {
    pub(crate) node_id: NodeId,
    pub(crate) style: DesignStyle,
    pub(crate) lower_metal_rho: bool,
    pub(crate) pin_cap_scale_bits: u64,
}

impl LibraryKey {
    /// Builds the key from the consumed fields.
    pub fn new(
        node_id: NodeId,
        style: DesignStyle,
        lower_metal_rho: bool,
        pin_cap_scale: f64,
    ) -> Self {
        LibraryKey {
            node_id,
            style,
            lower_metal_rho,
            pin_cap_scale_bits: pin_cap_scale.to_bits(),
        }
    }

    /// The tech node a library under this key is characterized on: the
    /// registered node, with the lower metals' resistivity halved when
    /// the key asks for it. `None` when the node names no registered PDK.
    pub(crate) fn node(&self) -> Option<TechNode> {
        let n = TechNode::try_for_id(self.node_id)?;
        Some(if self.lower_metal_rho {
            n.with_rho_scaled(&[MetalClass::Local, MetalClass::Intermediate], 0.5)
        } else {
            n
        })
    }
}

/// Cache key of one SPICE characterization: every input its transient
/// deck reads. The tech node comes from the PDK registry by id; the
/// layout is regenerated from `(node, function, style, drive)`; the grid
/// axes are kept as bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpiceKey {
    pub(crate) node_id: NodeId,
    pub(crate) style: DesignStyle,
    pub(crate) function: CellFunction,
    pub(crate) drive: u8,
    pub(crate) slew_bits: Vec<u64>,
    pub(crate) load_bits: Vec<u64>,
}

impl SpiceKey {
    /// Builds the key of `function` at `drive` in `style`, characterized
    /// over the `slews` x `loads` grid.
    pub fn new(
        node_id: NodeId,
        style: DesignStyle,
        function: CellFunction,
        drive: u8,
        slews: &[f64],
        loads: &[f64],
    ) -> Self {
        SpiceKey {
            node_id,
            style,
            function,
            drive,
            slew_bits: slews.iter().map(|s| s.to_bits()).collect(),
            load_bits: loads.iter().map(|l| l.to_bits()).collect(),
        }
    }

    /// The input-slew axis, ps.
    pub(crate) fn slews(&self) -> Vec<f64> {
        self.slew_bits.iter().map(|&b| f64::from_bits(b)).collect()
    }

    /// The output-load axis, fF.
    pub(crate) fn loads(&self) -> Vec<f64> {
        self.load_bits.iter().map(|&b| f64::from_bits(b)).collect()
    }
}

/// Cache key of one completed flow: the projection of
/// `(benchmark, style, FlowConfig)` onto the knobs the stage graph
/// consumes. Knobs a given flow never reads are canonicalized so they
/// cannot split the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    pub(crate) bench: Benchmark,
    pub(crate) style: DesignStyle,
    pub(crate) node_id: NodeId,
    pub(crate) bench_scale: BenchScale,
    /// Resolved: `stack_kind.unwrap_or(style.default_stack())`.
    pub(crate) stack_kind: StackKind,
    pub(crate) clock_ps_bits: Option<u64>,
    pub(crate) utilization_bits: Option<u64>,
    /// Canonicalized to `true` for 2D flows — only the T-MI synthesis
    /// path reads this switch (Table 15 "-n").
    pub(crate) tmi_wlm: bool,
    pub(crate) pin_cap_scale_bits: u64,
    pub(crate) lower_metal_rho: bool,
    pub(crate) alpha_ff_bits: u64,
    pub(crate) mb1_routing: bool,
    pub(crate) opt_passes: usize,
    pub(crate) place_iterations: usize,
    /// Resolved: `0.0` selects the per-benchmark calibration, so an
    /// explicit equal factor shares the entry.
    pub(crate) clock_scale_bits: u64,
}

impl FlowKey {
    /// Projects `(bench, style, config)` onto the consumed knobs.
    pub fn of(bench: Benchmark, style: DesignStyle, cfg: &FlowConfig) -> Self {
        FlowKey {
            bench,
            style,
            node_id: cfg.node_id,
            bench_scale: cfg.bench_scale,
            stack_kind: cfg.stack_kind.unwrap_or(style.default_stack()),
            clock_ps_bits: cfg.clock_ps.map(f64::to_bits),
            utilization_bits: cfg.utilization.map(f64::to_bits),
            tmi_wlm: cfg.tmi_wlm || style == DesignStyle::TwoD,
            pin_cap_scale_bits: cfg.pin_cap_scale.to_bits(),
            lower_metal_rho: cfg.lower_metal_rho,
            alpha_ff_bits: cfg.alpha_ff.to_bits(),
            mb1_routing: cfg.mb1_routing,
            opt_passes: cfg.opt_passes,
            place_iterations: cfg.place_iterations,
            clock_scale_bits: cfg.effective_clock_scale(bench).to_bits(),
        }
    }
}

/// A snapshot of the cache's hit/build/eviction counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cell libraries characterized from scratch.
    pub library_builds: u64,
    /// Library requests served from the cache.
    pub library_hits: u64,
    /// Cached libraries evicted by the LRU bound.
    pub library_evictions: u64,
    /// Completed flow results stored.
    pub flow_stores: u64,
    /// Flow lookups served from the cache.
    pub flow_hits: u64,
    /// Flow lookups that missed (and therefore ran the pipeline).
    pub flow_misses: u64,
    /// Cached flow results evicted by the LRU bound.
    pub flow_evictions: u64,
    /// Cells SPICE-characterized from scratch (transient decks run).
    pub spice_builds: u64,
    /// SPICE-table requests served from the memory or disk tier.
    pub spice_hits: u64,
    /// Cached SPICE tables evicted by the LRU bound.
    pub spice_evictions: u64,
    /// G-MI implementations run from scratch and stored.
    pub gmi_builds: u64,
    /// G-MI lookups served from the memory or disk tier.
    pub gmi_hits: u64,
    /// Cached G-MI results evicted by the LRU bound.
    pub gmi_evictions: u64,
    /// Disk-tier reads served from a verified on-disk entry.
    pub disk_hits: u64,
    /// Disk-tier reads that found no usable entry (including entries
    /// that failed verification and were quarantined).
    pub disk_misses: u64,
    /// Artifacts published to the disk tier.
    pub disk_stores: u64,
    /// Disk entries evicted by the store's byte budget.
    pub disk_evictions: u64,
    /// Disk entries that failed verification and were quarantined.
    pub disk_quarantined: u64,
    /// 1 once the disk tier has degraded to a no-op, else 0.
    pub store_degraded: u64,
}

impl CacheStats {
    /// Every counter as `(name, value)`, in declaration order. The names
    /// are the field names; `m3d_serve` serves its `stats` answer from
    /// this table.
    pub fn fields(&self) -> [(&'static str, u64); 19] {
        let mut s = *self;
        s.fields_mut().map(|(name, v)| (name, *v))
    }

    /// The one `(name, counter)` table: `cache::tests` pins it to the
    /// struct's declaration (names, order and count).
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 19] {
        [
            ("library_builds", &mut self.library_builds),
            ("library_hits", &mut self.library_hits),
            ("library_evictions", &mut self.library_evictions),
            ("flow_stores", &mut self.flow_stores),
            ("flow_hits", &mut self.flow_hits),
            ("flow_misses", &mut self.flow_misses),
            ("flow_evictions", &mut self.flow_evictions),
            ("spice_builds", &mut self.spice_builds),
            ("spice_hits", &mut self.spice_hits),
            ("spice_evictions", &mut self.spice_evictions),
            ("gmi_builds", &mut self.gmi_builds),
            ("gmi_hits", &mut self.gmi_hits),
            ("gmi_evictions", &mut self.gmi_evictions),
            ("disk_hits", &mut self.disk_hits),
            ("disk_misses", &mut self.disk_misses),
            ("disk_stores", &mut self.disk_stores),
            ("disk_evictions", &mut self.disk_evictions),
            ("disk_quarantined", &mut self.disk_quarantined),
            ("store_degraded", &mut self.store_degraded),
        ]
    }

    /// The change since an `earlier` snapshot: every counter reduced by
    /// its earlier value (saturating, so a `clear()` between snapshots
    /// reads as zero rather than wrapping). This is what per-phase
    /// reporting must use — the raw counters are cumulative over the
    /// process, so attributing them to the most recent phase misreports
    /// every phase after the first.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        let mut d = *self;
        for ((_, v), (_, e)) in d.fields_mut().into_iter().zip(earlier.fields()) {
            *v = v.saturating_sub(e);
        }
        d
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Every counter of the table, in declaration order, so the
        // logged summary always agrees with the served snapshot
        // (`cache::tests::display_round_trips_every_counter` pins this).
        let [lb, lh, le, fs, fh, fm, fe, sb, sh, se, gb, gh, ge, dh, dm, ds, de, dq, sd] =
            self.fields().map(|(_, v)| v);
        write!(
            f,
            "libraries: {lb} built, {lh} hits, {le} evicted; \
             flows: {fs} stored, {fh} hits, {fm} misses, {fe} evicted; \
             spice: {sb} built, {sh} hits, {se} evicted; \
             gmi: {gb} built, {gh} hits, {ge} evicted; \
             disk: {dh} hits, {dm} misses, {ds} stored, {de} evicted, \
             {dq} quarantined; store degraded: {sd}"
        )
    }
}

/// A capacity-bounded map with least-recently-used eviction.
///
/// Recency is a monotonic use counter per entry; eviction scans for the
/// minimum — O(capacity), which is fine at the tens-to-hundreds of
/// entries the artifact cache holds (one entry is a whole characterized
/// library or sign-off result; the map is never large, the *values*
/// are).
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    capacity: usize,
    tick: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Looks up and marks the entry most-recently used.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, used)| {
            *used = tick;
            &*v
        })
    }

    /// Inserts (or replaces) an entry, evicting the least-recently-used
    /// one when at capacity. Returns how many entries were evicted.
    fn insert(&mut self, key: K, value: V) -> u64 {
        self.tick += 1;
        let mut evicted = 0;
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.capacity {
                let Some(oldest) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                self.map.remove(&oldest);
                evicted += 1;
            }
        }
        self.map.insert(key, (value, self.tick));
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A lock-sharded [`Lru`]: keys hash to one of several independently
/// locked per-shard LRU maps, so concurrent lookups on different keys
/// proceed without contending on one map-wide mutex.
///
/// The shard count grows with the capacity (one shard per eight
/// entries, at most [`MAX_SHARDS`]), so small bounded caches — the unit
/// tests' two-entry ones included — stay single-sharded and keep exact
/// global LRU order, while the defaults spread across several shards.
/// A sharded cache's eviction order is exact only *per shard*; the
/// capacity bound still holds globally (each shard holds at most
/// `ceil(capacity / shards)` entries).
#[derive(Debug)]
struct ShardedLru<K, V> {
    shards: Vec<Mutex<Lru<K, V>>>,
}

const MAX_SHARDS: usize = 16;

impl<K: Hash + Eq + Clone, V> ShardedLru<K, V> {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let count = (capacity / 8).clamp(1, MAX_SHARDS);
        let per_shard = capacity.div_ceil(count);
        ShardedLru {
            shards: (0..count)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
        }
    }

    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key lives in. `DefaultHasher` is deterministic
    /// within a process, which is all shard routing needs.
    fn shard(&self, key: &K) -> &Mutex<Lru<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard(key)
            .lock()
            .expect("cache lock")
            .get(key)
            .cloned()
    }

    /// Inserts, returning how many entries the owning shard evicted.
    fn insert(&self, key: K, value: V) -> u64 {
        self.shard(&key)
            .lock()
            .expect("cache lock")
            .insert(key, value)
    }

    fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().expect("cache lock").clear();
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").len())
            .sum()
    }
}

/// The coalescing slot for one [`LibraryKey`]: a hand-rolled once-cell
/// whose initializer can fail. The first thread to find the slot `Idle`
/// claims the build and runs characterization *outside every lock*;
/// threads arriving meanwhile wait on the condvar instead of
/// duplicating the (hundreds-of-milliseconds) build. On success the
/// slot becomes `Ready` forever; on failure it reverts to `Idle` and a
/// waiter takes over the attempt, so an error never wedges the key.
#[derive(Debug)]
struct BuildCell {
    state: Mutex<BuildState>,
    ready: Condvar,
}

#[derive(Debug)]
enum BuildState {
    Idle,
    Building,
    Ready(Arc<CellLibrary>),
}

impl BuildCell {
    fn new() -> Self {
        BuildCell {
            state: Mutex::new(BuildState::Idle),
            ready: Condvar::new(),
        }
    }
}

/// How long a coalescing waiter sleeps between cancellation checks
/// while another thread builds the library it wants. The builder's
/// notify wakes it at once; the slice only bounds how late it sees its
/// own token fire.
const BUILD_WAIT_SLICE: std::time::Duration = std::time::Duration::from_millis(15);

/// Default LRU capacities: sized for the full paper reproduction (a
/// handful of distinct libraries, a few hundred distinct flow points)
/// with headroom, while still bounding a pathological sweep.
const DEFAULT_LIBRARY_CAPACITY: usize = 32;
const DEFAULT_RESULT_CAPACITY: usize = 512;
/// SPICE tables are small (one grid per cell); Table 2 holds 18.
const DEFAULT_SPICE_CAPACITY: usize = 64;
/// A G-MI result is five numbers; the study holds two per scale.
const DEFAULT_GMI_CAPACITY: usize = 16;

/// One class's memory tier: its LRU map and its kind's live counters.
/// `M` is what the map holds: the shared artifact, or the library
/// class's coalescing [`BuildCell`].
#[derive(Debug)]
struct Memo<C: MemoClass, M = Arc<<C as MemoClass>::Value>> {
    map: ShardedLru<C::Key, M>,
    /// Artifacts built (flows: stored) from scratch.
    built: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<C: MemoClass, M> Memo<C, M> {
    fn new(capacity: usize) -> Self {
        Memo {
            map: ShardedLru::new(capacity),
            built: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn counters(&self) -> [&AtomicU64; 4] {
        [&self.built, &self.hits, &self.misses, &self.evictions]
    }

    /// `[built, hits, misses, evictions]`.
    fn snapshot(&self) -> [u64; 4] {
        self.counters().map(|c| c.load(Ordering::Relaxed))
    }

    fn clear(&self) {
        self.map.clear();
        for c in self.counters() {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// The shared memo layer for cell libraries, completed flow results,
/// SPICE characterizations and G-MI sign-off results: one memo per
/// memo class (`memo::MemoClass`).
///
/// Every map is LRU-bounded ([`ArtifactCache::bounded`] sets the library
/// and result capacities; the SPICE and G-MI maps always hold
/// `DEFAULT_SPICE_CAPACITY` and `DEFAULT_GMI_CAPACITY` entries), so an
/// unbounded sweep cannot grow the process without limit — evictions are
/// counted in [`CacheStats`]. Thread-safe and built for the parallel
/// executor's fan-out: every map is lock-**sharded**, and each library
/// entry is a per-key once-cell, so N workers hitting the same cold
/// [`LibraryKey`] perform exactly **one** characterization — the first
/// claims the build, the rest block on the key's condvar and are served
/// the shared artifact (counted as hits). The other classes are *not*
/// coalesced: concurrent misses on one [`FlowKey`] each run the
/// (deterministic) flow and store bit-identical values — the
/// [`crate::ExperimentPlan`] dedups by `FlowKey` precisely so the
/// executor never schedules that race — and racing SPICE misses
/// simulate the same deterministic deck.
#[derive(Debug)]
pub struct ArtifactCache {
    libraries: Memo<LibraryClass, Arc<BuildCell>>,
    results: Memo<FlowClass>,
    spice: Memo<SpiceClass>,
    gmi: Memo<GmiClass>,
    /// The optional persistent tier ([`DiskStore`]): probed on memory
    /// misses, published to after builds/stores. `None` keeps the
    /// cache purely in-memory (the seed behavior).
    disk: RwLock<Option<Arc<DiskStore>>>,
    /// The event sink for this cache's traffic — and, by inheritance,
    /// for every supervisor and executor built over this cache (they
    /// resolve their recorder here unless explicitly overridden).
    /// Defaults to the disabled [`observe::NullRecorder`].
    recorder: RwLock<Arc<dyn Recorder>>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::bounded(DEFAULT_LIBRARY_CAPACITY, DEFAULT_RESULT_CAPACITY)
    }
}

impl ArtifactCache {
    /// The process-wide cache shared by [`crate::Flow::try_run`], the
    /// experiment drivers and `paper_tables`.
    pub fn global() -> Arc<ArtifactCache> {
        static GLOBAL: OnceLock<Arc<ArtifactCache>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(ArtifactCache::default())))
    }

    /// A cache bounded to at most `library_capacity` characterized
    /// libraries and `result_capacity` sign-off results (each clamped to
    /// at least 1). Least-recently-used entries are evicted on insert.
    pub fn bounded(library_capacity: usize, result_capacity: usize) -> ArtifactCache {
        ArtifactCache {
            libraries: Memo::new(library_capacity),
            results: Memo::new(result_capacity),
            spice: Memo::new(DEFAULT_SPICE_CAPACITY),
            gmi: Memo::new(DEFAULT_GMI_CAPACITY),
            disk: RwLock::new(None),
            recorder: RwLock::new(observe::null()),
        }
    }

    /// Attaches the event sink for this cache's traffic. Supervisors
    /// and executors built over this cache inherit it (unless they
    /// override with their own), so attaching here instruments a whole
    /// run. Pass [`observe::null()`] to detach.
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>) {
        *self.recorder.write().expect("recorder slot") = Arc::clone(&recorder);
        // The disk tier traces into the same sink.
        if let Some(d) = self.disk() {
            d.set_recorder(recorder);
        }
    }

    /// Attaches (or replaces) the persistent disk tier. The store
    /// inherits this cache's recorder, so its `disk_hit`/`disk_miss`/
    /// `store_degraded` traffic lands in the same trace as the memory
    /// tier's events.
    pub fn attach_disk(&self, store: Arc<DiskStore>) {
        store.set_recorder(self.recorder());
        *self.disk.write().expect("disk slot") = Some(store);
    }

    /// Detaches the disk tier; the memory tier keeps working and the
    /// store directory is left intact.
    pub fn detach_disk(&self) {
        *self.disk.write().expect("disk slot") = None;
    }

    /// The attached disk tier, if any.
    pub fn disk(&self) -> Option<Arc<DiskStore>> {
        self.disk.read().expect("disk slot").clone()
    }

    /// The currently attached recorder.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.recorder.read().expect("recorder slot"))
    }

    /// Records one event iff a live recorder is attached — the hot-path
    /// guard: with the default [`observe::NullRecorder`] this is one
    /// read-lock and one virtual call, no event construction.
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        let rec = self.recorder.read().expect("recorder slot");
        if rec.enabled() {
            rec.record(kind());
        }
    }

    /// Entries currently held: `(libraries, flow results)`. A library
    /// entry whose build is still in flight counts — the slot is
    /// resident even before its artifact is.
    pub fn len(&self) -> (usize, usize) {
        (self.libraries.map.len(), self.results.map.len())
    }

    /// True when every map (SPICE tables and G-MI results included) is
    /// empty.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0) && self.spice.map.len() == 0 && self.gmi.map.len() == 0
    }

    /// The generic lookup: memory, else a verified disk entry promoted
    /// into memory, else a miss. Hits and misses are counted and traced.
    /// A memory hit encodes no key and allocates nothing.
    fn lookup<C: MemoClass>(&self, memo: &Memo<C>, key: &C::Key) -> Option<Arc<C::Value>> {
        let hit = memo.map.get(key).or_else(|| {
            let v = Arc::new(self.disk()?.load::<C>(key)?);
            self.insert(memo, key, Arc::clone(&v));
            Some(v)
        });
        if hit.is_some() {
            memo.hits.fetch_add(1, Ordering::Relaxed);
            self.emit(|| EventKind::CacheHit { kind: C::KIND });
        } else {
            memo.misses.fetch_add(1, Ordering::Relaxed);
            self.emit(|| EventKind::CacheMiss { kind: C::KIND });
        }
        hit
    }

    /// The generic store of an artifact built from scratch: counts it,
    /// inserts it into memory and publishes it to disk.
    fn store<C: MemoClass>(&self, memo: &Memo<C>, key: &C::Key, value: Arc<C::Value>) {
        memo.built.fetch_add(1, Ordering::Relaxed);
        self.insert(memo, key, Arc::clone(&value));
        if let Some(d) = self.disk() {
            d.store::<C>(key, &value);
        }
    }

    fn insert<C: MemoClass, M>(&self, memo: &Memo<C, M>, key: &C::Key, value: M) {
        let evicted = memo.map.insert(key.clone(), value);
        self.note_evictions(memo, evicted);
    }

    /// Adds `evicted` LRU evictions to the memo's counter and traces
    /// them.
    fn note_evictions<C: MemoClass, M>(&self, memo: &Memo<C, M>, evicted: u64) {
        memo.evictions.fetch_add(evicted, Ordering::Relaxed);
        if evicted > 0 {
            self.emit(|| EventKind::CacheEvicted {
                kind: C::KIND,
                count: evicted,
            });
        }
    }

    /// The characterized library for the consumed knobs, built at most
    /// once per distinct [`LibraryKey`] — *including under concurrency*:
    /// racing requests on one cold key coalesce on the key's once-cell,
    /// so exactly one thread characterizes while the rest wait for (and
    /// share) its artifact. `library_builds` counts actual
    /// characterizations; every request served without building — warm
    /// or coalesced — counts as a `library_hits` increment, so
    /// `builds + hits` equals the number of successful requests.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Library`] when characterization or the
    /// pin-cap scaling fails. A failed build releases the key (waiters
    /// retry the build themselves); nothing is cached.
    pub fn library(
        &self,
        node_id: NodeId,
        style: DesignStyle,
        lower_metal_rho: bool,
        pin_cap_scale: f64,
    ) -> Result<Arc<CellLibrary>, FlowError> {
        let key = LibraryKey::new(node_id, style, lower_metal_rho, pin_cap_scale);
        let memo = &self.libraries;
        // Fetch-or-insert the key's coalescing slot under the shard
        // lock; the build itself never runs under it. An LRU eviction
        // can drop a slot mid-build — waiters hold their own `Arc` to
        // it, so they still coalesce; only future requests rebuild.
        let cell = {
            let mut shard = memo.map.shard(&key).lock().expect("cache lock");
            match shard.get(&key) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(BuildCell::new());
                    let evicted = shard.insert(key, Arc::clone(&c));
                    self.note_evictions(memo, evicted);
                    c
                }
            }
        };
        // Whether this request blocked on another thread's in-flight
        // build — a coalesced hit, traced distinctly from a warm one.
        let mut waited = false;
        let mut state = cell.state.lock().expect("build cell lock");
        loop {
            match &*state {
                BuildState::Ready(lib) => {
                    memo.hits.fetch_add(1, Ordering::Relaxed);
                    let lib = Arc::clone(lib);
                    drop(state);
                    self.emit(|| EventKind::CacheHit {
                        kind: CacheKind::Library,
                    });
                    if waited {
                        self.emit(|| EventKind::CacheCoalesced {
                            kind: CacheKind::Library,
                        });
                    }
                    return Ok(lib);
                }
                BuildState::Building => {
                    waited = true;
                    // A caller whose stage attempt installed a
                    // CancelToken must never hang behind a coalesced
                    // build: wait in bounded slices and unwind with a
                    // typed error once its token fires.
                    crate::govern::check(FlowStage::Library)?;
                    let (s, _) = cell
                        .ready
                        .wait_timeout(state, BUILD_WAIT_SLICE)
                        .expect("build cell lock");
                    state = s;
                }
                BuildState::Idle => {
                    *state = BuildState::Building;
                    drop(state);
                    // Two-level lookup: a verified disk entry skips
                    // characterization entirely. The store traces its
                    // own DiskHit; here it counts as a library hit —
                    // not a build, not a CacheMiss — so "zero
                    // `library_builds`" remains the warm-start
                    // acceptance signal.
                    let loaded = self.disk().and_then(|d| d.load::<LibraryClass>(&key));
                    let from_disk = loaded.is_some();
                    let built = match loaded {
                        Some(lib) => Ok(lib),
                        None => Self::build_library(&key),
                    };
                    let mut done = cell.state.lock().expect("build cell lock");
                    let lib = match built {
                        Ok(lib) => Arc::new(lib),
                        Err(e) => {
                            *done = BuildState::Idle;
                            cell.ready.notify_all();
                            return Err(e);
                        }
                    };
                    *done = BuildState::Ready(Arc::clone(&lib));
                    cell.ready.notify_all();
                    drop(done);
                    if from_disk {
                        memo.hits.fetch_add(1, Ordering::Relaxed);
                        self.emit(|| EventKind::CacheHit {
                            kind: CacheKind::Library,
                        });
                        return Ok(lib);
                    }
                    memo.built.fetch_add(1, Ordering::Relaxed);
                    self.emit(|| EventKind::CacheMiss {
                        kind: CacheKind::Library,
                    });
                    // Publish outside every lock: waiters are already
                    // served; the disk write must not stall them.
                    if let Some(d) = self.disk() {
                        d.store::<LibraryClass>(&key, &lib);
                    }
                    return Ok(lib);
                }
            }
        }
    }

    /// One actual characterization — the work the coalescing protocol
    /// exists to not duplicate.
    fn build_library(key: &LibraryKey) -> Result<CellLibrary, FlowError> {
        let node = key.node().ok_or_else(|| LibraryError::UnregisteredNode {
            node: key.node_id.label().to_string(),
        })?;
        let mut lib = CellLibrary::try_build(&node, key.style)?;
        let pin_cap_scale = f64::from_bits(key.pin_cap_scale_bits);
        if pin_cap_scale != 1.0 {
            lib = lib.try_with_pin_cap_scaled(pin_cap_scale)?;
        }
        Ok(lib)
    }

    /// The stored sign-off result for this flow point, if any.
    pub fn lookup_result(
        &self,
        bench: Benchmark,
        style: DesignStyle,
        cfg: &FlowConfig,
    ) -> Option<FlowResult> {
        let key = FlowKey::of(bench, style, cfg);
        self.lookup(&self.results, &key).map(|r| (*r).clone())
    }

    /// Stores a completed sign-off result under its consumed-knob key.
    pub fn store_result(
        &self,
        bench: Benchmark,
        style: DesignStyle,
        cfg: &FlowConfig,
        result: &FlowResult,
    ) {
        let key = FlowKey::of(bench, style, cfg);
        self.store(&self.results, &key, Arc::new(result.clone()));
    }

    /// The SPICE tables for `key`: from memory, else from a verified
    /// disk entry (promoted into memory), else simulated from the key
    /// and published to both tiers. `spice_builds` counts simulations;
    /// every request served without one counts as a `spice_hits`
    /// increment. A hit is bit-identical to a rebuild: the deck is
    /// deterministic and the key carries every input it reads.
    ///
    /// # Panics
    ///
    /// On a miss, as [`characterize_spice_tables`] does: for sequential
    /// or multi-output functions and on transient non-convergence.
    pub fn spice_tables(&self, key: &SpiceKey) -> Arc<SpiceTables> {
        self.lookup(&self.spice, key).unwrap_or_else(|| {
            let t = Arc::new(Self::simulate(key));
            self.store(&self.spice, key, Arc::clone(&t));
            t
        })
    }

    /// The stored G-MI result for the 2D reference point `key`: from
    /// memory, else from a verified disk entry (promoted into memory).
    /// A miss is traced; the caller runs [`crate::gmi::run_gmi`] and
    /// hands the result to [`ArtifactCache::store_gmi`].
    pub fn lookup_gmi(&self, key: &FlowKey) -> Option<GmiResult> {
        self.lookup(&self.gmi, key).map(|r| (*r).clone())
    }

    /// Stores a G-MI result run from scratch under its 2D reference
    /// point's key, in memory and on disk.
    pub fn store_gmi(&self, key: &FlowKey, result: &GmiResult) {
        self.store(&self.gmi, key, Arc::new(result.clone()));
    }

    /// One deck built from the key alone and simulated.
    fn simulate(key: &SpiceKey) -> SpiceTables {
        let node = TechNode::for_id(key.node_id);
        let topo = Topology::for_function(key.function);
        let geometry = generate_layout(&node, &topo, key.style, key.drive);
        characterize_spice_tables(
            &node,
            key.function,
            key.drive,
            &topo,
            &geometry,
            key.slews(),
            key.loads(),
        )
    }

    /// Drops every stored **memory-tier** artifact and resets the
    /// memory counters — the cold half of a cold/warm benchmark. The
    /// disk tier (if attached) is deliberately untouched: its entries
    /// and counters persist, so a post-`clear` lookup can still be a
    /// disk hit. Use [`ArtifactCache::detach_disk`] for a fully cold
    /// cache.
    pub fn clear(&self) {
        self.libraries.clear();
        self.results.clear();
        self.spice.clear();
        self.gmi.clear();
    }

    /// Counter snapshot. The `disk_*` counters are read live from the
    /// attached [`DiskStore`] (all zero when none is attached), so one
    /// snapshot covers both tiers coherently.
    pub fn stats(&self) -> CacheStats {
        let disk = self.disk().map(|d| d.counters()).unwrap_or_default();
        let [library_builds, library_hits, _, library_evictions] = self.libraries.snapshot();
        let [flow_stores, flow_hits, flow_misses, flow_evictions] = self.results.snapshot();
        let [spice_builds, spice_hits, _, spice_evictions] = self.spice.snapshot();
        let [gmi_builds, gmi_hits, _, gmi_evictions] = self.gmi.snapshot();
        CacheStats {
            library_builds,
            library_hits,
            library_evictions,
            flow_stores,
            flow_hits,
            flow_misses,
            flow_evictions,
            spice_builds,
            spice_hits,
            spice_evictions,
            gmi_builds,
            gmi_hits,
            gmi_evictions,
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_stores: disk.stores,
            disk_evictions: disk.evictions,
            disk_quarantined: disk.quarantined,
            store_degraded: disk.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg45() -> FlowConfig {
        FlowConfig::new(NodeId::N45)
    }

    #[test]
    fn consumed_knob_changes_the_flow_key() {
        let base = FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &cfg45());
        let mut scaled = cfg45();
        scaled.pin_cap_scale = 0.6;
        assert_ne!(
            base,
            FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &scaled)
        );
    }

    #[test]
    fn unconsumed_knob_shares_the_flow_key() {
        // A 2D flow never reads the T-MI WLM switch…
        let mut flipped = cfg45();
        flipped.tmi_wlm = false;
        assert_eq!(
            FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &cfg45()),
            FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &flipped)
        );
        // …while a T-MI flow does.
        assert_ne!(
            FlowKey::of(Benchmark::Des, DesignStyle::Tmi, &cfg45()),
            FlowKey::of(Benchmark::Des, DesignStyle::Tmi, &flipped)
        );
    }

    #[test]
    fn resolved_defaults_share_the_flow_key() {
        let mut explicit = cfg45();
        explicit.stack_kind = Some(DesignStyle::Tmi.default_stack());
        explicit.clock_scale = crate::default_clock_scale_at(Benchmark::Aes, NodeId::N45);
        assert_eq!(
            FlowKey::of(Benchmark::Aes, DesignStyle::Tmi, &cfg45()),
            FlowKey::of(Benchmark::Aes, DesignStyle::Tmi, &explicit)
        );
    }

    #[test]
    fn library_is_built_once_per_key() {
        let cache = ArtifactCache::default();
        let a = cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
            .expect("library builds");
        let b = cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
            .expect("library builds");
        assert!(Arc::ptr_eq(&a, &b), "second request must be a cache hit");
        let stats = cache.stats();
        assert_eq!(stats.library_builds, 1);
        assert_eq!(stats.library_hits, 1);

        // A consumed-knob change builds a distinct artifact.
        let c = cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 0.6)
            .expect("library builds");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().library_builds, 2);
    }

    #[test]
    fn library_on_an_unregistered_node_is_a_typed_error() {
        let cache = ArtifactCache::default();
        let err = cache
            .library(
                NodeId::intern("unregistered"),
                DesignStyle::TwoD,
                false,
                1.0,
            )
            .expect_err("no PDK, no library");
        assert!(
            matches!(
                err,
                FlowError::Library(LibraryError::UnregisteredNode { .. })
            ),
            "{err}"
        );
        assert_eq!(cache.stats().library_builds, 0);
    }

    fn temp_store_root(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("m3d-cache-disk-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_serves_a_fresh_cache_without_rebuilding() {
        let root = temp_store_root("warm");
        // First "process": builds once, publishing to disk.
        let warm = ArtifactCache::default();
        warm.attach_disk(DiskStore::open(&root));
        warm.library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
            .expect("library builds");
        let s = warm.stats();
        assert_eq!((s.library_builds, s.disk_stores), (1, 1));

        // Second "process": a brand-new cache over a fresh store
        // instance on the same directory must serve the library from
        // disk — zero characterizations, and a hit (not a miss) in the
        // memory-tier accounting.
        let fresh = ArtifactCache::default();
        fresh.attach_disk(DiskStore::open(&root));
        fresh
            .library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
            .expect("library loads");
        let s = fresh.stats();
        assert_eq!(s.library_builds, 0, "warm start must not characterize");
        assert_eq!((s.library_hits, s.disk_hits), (1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn flow_results_promote_from_disk_into_memory() {
        let root = temp_store_root("flow");
        let bench = Benchmark::Des;
        let cfg = cfg45();
        let result = {
            // Fabricate a stored result via a first cache.
            let first = ArtifactCache::default();
            first.attach_disk(DiskStore::open(&root));
            let r = sample_flow_result(bench);
            first.store_result(bench, DesignStyle::TwoD, &cfg, &r);
            r
        };
        let fresh = ArtifactCache::default();
        fresh.attach_disk(DiskStore::open(&root));
        // First lookup: disk hit, promoted into memory.
        assert_eq!(
            fresh.lookup_result(bench, DesignStyle::TwoD, &cfg),
            Some(result.clone())
        );
        let s = fresh.stats();
        assert_eq!((s.flow_hits, s.flow_misses, s.disk_hits), (1, 0, 1));
        // Second lookup: memory tier, no further disk traffic.
        assert_eq!(
            fresh.lookup_result(bench, DesignStyle::TwoD, &cfg),
            Some(result)
        );
        let s = fresh.stats();
        assert_eq!((s.flow_hits, s.disk_hits), (2, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    fn sample_flow_result(bench: Benchmark) -> FlowResult {
        FlowResult {
            bench,
            style: DesignStyle::TwoD,
            node_id: NodeId::N45,
            clock_ps: 1000.0,
            footprint_um2: 100.0,
            core_um: (10.0, 10.0),
            cell_count: 100,
            buffer_count: 3,
            utilization: 0.7,
            wirelength_um: 1234.5,
            wns_ps: 1.0,
            hold_wns_ps: 0.5,
            power: Default::default(),
            layer_usage: m3d_route::LayerUsage {
                m1_um: 1.0,
                local_um: 2.0,
                intermediate_um: 3.0,
                global_um: 4.0,
                peak_utilization: [0.1, 0.2, 0.3],
                mean_utilization: [0.1, 0.1, 0.1],
                overflow_ratio: 0.0,
            },
            wlm_curve: vec![1.0, 2.0],
        }
    }

    #[test]
    fn spice_tables_simulate_once_and_serve_a_fresh_cache_from_disk() {
        let root = temp_store_root("spice");
        let key = SpiceKey::new(
            NodeId::N45,
            DesignStyle::Tmi,
            CellFunction::Inv,
            1,
            &[7.5],
            &[0.8],
        );
        let first = ArtifactCache::default();
        first.attach_disk(DiskStore::open(&root));
        let a = first.spice_tables(&key);
        let b = first.spice_tables(&key);
        assert!(Arc::ptr_eq(&a, &b), "second request must be a memory hit");
        let s = first.stats();
        assert_eq!((s.spice_builds, s.spice_hits, s.disk_stores), (1, 1, 1));

        // A fresh cache over the same directory simulates nothing and
        // serves the bit-identical tables.
        let fresh = ArtifactCache::default();
        fresh.attach_disk(DiskStore::open(&root));
        assert_eq!(*fresh.spice_tables(&key), *a);
        let s = fresh.stats();
        assert_eq!((s.spice_builds, s.spice_hits, s.disk_hits), (0, 1, 1));

        // clear() drops the memory tier and its counters with the rest.
        fresh.detach_disk();
        fresh.clear();
        assert!(fresh.is_empty());
        assert_eq!(fresh.stats(), CacheStats::default());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gmi_results_serve_a_fresh_cache_from_disk() {
        let root = temp_store_root("gmi");
        let key = FlowKey::of(
            Benchmark::Aes,
            DesignStyle::TwoD,
            &cfg45().scale(BenchScale::Small),
        );
        let result = GmiResult {
            footprint_um2: 1234.5,
            wirelength_um: 6789.0,
            miv_nets: 42,
            wns_ps: -12.5,
            total_power_mw: 0.75,
        };
        let first = ArtifactCache::default();
        first.attach_disk(DiskStore::open(&root));
        assert_eq!(first.lookup_gmi(&key), None, "cold cache misses");
        first.store_gmi(&key, &result);
        assert_eq!(first.lookup_gmi(&key), Some(result.clone()));
        let s = first.stats();
        assert_eq!((s.gmi_builds, s.gmi_hits, s.disk_stores), (1, 1, 1));

        // A fresh cache over the same directory runs nothing: the first
        // lookup is a disk hit, promoted so the second stays in memory.
        let fresh = ArtifactCache::default();
        fresh.attach_disk(DiskStore::open(&root));
        assert_eq!(fresh.lookup_gmi(&key), Some(result.clone()));
        assert_eq!(fresh.lookup_gmi(&key), Some(result));
        let s = fresh.stats();
        assert_eq!((s.gmi_builds, s.gmi_hits, s.disk_hits), (0, 2, 1));

        fresh.detach_disk();
        fresh.clear();
        assert!(fresh.is_empty());
        assert_eq!(fresh.stats(), CacheStats::default());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn display_prints_every_counter() {
        // The logged summary must agree with the JSON snapshot: every
        // CacheStats field, in declaration order. This pins the exact
        // format (the old one dropped flow_misses).
        let s = CacheStats {
            library_builds: 1,
            library_hits: 2,
            library_evictions: 3,
            flow_stores: 4,
            flow_hits: 5,
            flow_misses: 6,
            flow_evictions: 7,
            spice_builds: 8,
            spice_hits: 9,
            spice_evictions: 10,
            gmi_builds: 11,
            gmi_hits: 12,
            gmi_evictions: 13,
            disk_hits: 14,
            disk_misses: 15,
            disk_stores: 16,
            disk_evictions: 17,
            disk_quarantined: 18,
            store_degraded: 19,
        };
        assert_eq!(
            s.to_string(),
            "libraries: 1 built, 2 hits, 3 evicted; \
             flows: 4 stored, 5 hits, 6 misses, 7 evicted; \
             spice: 8 built, 9 hits, 10 evicted; \
             gmi: 11 built, 12 hits, 13 evicted; \
             disk: 14 hits, 15 misses, 16 stored, 17 evicted, \
             18 quarantined; store degraded: 19"
        );
    }

    #[test]
    fn delta_subtracts_counterwise_and_saturates() {
        let earlier = CacheStats {
            library_builds: 2,
            library_hits: 8,
            library_evictions: 0,
            flow_stores: 10,
            flow_hits: 8,
            flow_misses: 10,
            flow_evictions: 0,
            spice_builds: 18,
            spice_hits: 0,
            spice_evictions: 0,
            gmi_builds: 2,
            gmi_hits: 0,
            gmi_evictions: 0,
            disk_hits: 3,
            disk_misses: 5,
            disk_stores: 2,
            disk_evictions: 0,
            disk_quarantined: 0,
            store_degraded: 0,
        };
        let later = CacheStats {
            library_builds: 2,
            library_hits: 16,
            library_evictions: 1,
            flow_stores: 10,
            flow_hits: 26,
            flow_misses: 10,
            flow_evictions: 2,
            spice_builds: 18,
            spice_hits: 18,
            spice_evictions: 1,
            gmi_builds: 2,
            gmi_hits: 2,
            gmi_evictions: 1,
            disk_hits: 9,
            disk_misses: 5,
            disk_stores: 2,
            disk_evictions: 1,
            disk_quarantined: 1,
            store_degraded: 1,
        };
        let d = later.delta(&earlier);
        assert_eq!(d.library_builds, 0);
        assert_eq!(d.library_hits, 8);
        assert_eq!(d.library_evictions, 1);
        assert_eq!(d.flow_stores, 0);
        assert_eq!(d.flow_hits, 18);
        assert_eq!(d.flow_misses, 0, "a fully-warm phase shows zero misses");
        assert_eq!(d.flow_evictions, 2);
        assert_eq!(d.spice_builds, 0, "a warm replay simulates nothing");
        assert_eq!(d.spice_hits, 18);
        assert_eq!(d.spice_evictions, 1);
        assert_eq!(d.gmi_builds, 0, "a warm replay partitions nothing");
        assert_eq!(d.gmi_hits, 2);
        assert_eq!(d.gmi_evictions, 1);
        assert_eq!(d.disk_hits, 6);
        assert_eq!(d.disk_misses, 0);
        assert_eq!(d.disk_stores, 0);
        assert_eq!(d.disk_evictions, 1);
        assert_eq!(d.disk_quarantined, 1);
        assert_eq!(d.store_degraded, 1, "degradation latched inside the window");
        // A clear() between snapshots drops counters below the earlier
        // snapshot; the delta saturates at zero instead of wrapping.
        assert_eq!(CacheStats::default().delta(&earlier), CacheStats::default());
    }

    #[test]
    fn delta_with_zero_elapsed_work_is_all_zero() {
        let cache = ArtifactCache::default();
        cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
            .expect("library builds");
        let snap = cache.stats();
        // No work between the snapshots: the delta must be exactly the
        // default (all-zero) stats, not merely "small".
        assert_eq!(cache.stats().delta(&snap), CacheStats::default());
        // And a snapshot's delta against itself likewise.
        assert_eq!(snap.delta(&snap), CacheStats::default());
    }

    #[test]
    fn delta_across_a_clear_saturates_per_counter() {
        let cache = ArtifactCache::default();
        for scale in [1.0, 0.9] {
            cache
                .library(NodeId::N45, DesignStyle::TwoD, false, scale)
                .expect("library builds");
        }
        let before = cache.stats();
        assert_eq!(before.library_builds, 2);
        // clear() resets the live counters below the snapshot; the
        // post-clear work is smaller than the pre-clear tally, so a
        // naive subtraction would wrap. Each counter saturates
        // independently instead.
        cache.clear();
        cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
            .expect("library builds");
        cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
            .expect("library builds");
        let d = cache.stats().delta(&before);
        assert_eq!(
            d.library_builds, 0,
            "1 post-clear build < 2 pre-clear: saturates"
        );
        assert_eq!(
            d.library_hits, 1,
            "1 post-clear hit > 0 pre-clear: survives"
        );
    }

    #[test]
    fn display_round_trips_every_counter() {
        let s = CacheStats {
            library_builds: 11,
            library_hits: 22,
            library_evictions: 33,
            flow_stores: 44,
            flow_hits: 55,
            flow_misses: 66,
            flow_evictions: 77,
            spice_builds: 88,
            spice_hits: 99,
            spice_evictions: 111,
            gmi_builds: 122,
            gmi_hits: 133,
            gmi_evictions: 144,
            disk_hits: 222,
            disk_misses: 333,
            disk_stores: 444,
            disk_evictions: 555,
            disk_quarantined: 666,
            store_degraded: 777,
        };
        // Parse the rendering back: the numbers must appear in
        // declaration order and reconstruct the struct exactly, so no
        // counter can be dropped or reordered without failing here.
        let text = s.to_string();
        let nums: Vec<u64> = text
            .split(|c: char| !c.is_ascii_digit())
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().expect("counter parses"))
            .collect();
        assert_eq!(
            nums,
            vec![
                11, 22, 33, 44, 55, 66, 77, 88, 99, 111, 122, 133, 144, 222, 333, 444, 555, 666,
                777
            ],
            "display must carry all 19 counters in declaration order: {text}"
        );
        let round_tripped = CacheStats {
            library_builds: nums[0],
            library_hits: nums[1],
            library_evictions: nums[2],
            flow_stores: nums[3],
            flow_hits: nums[4],
            flow_misses: nums[5],
            flow_evictions: nums[6],
            spice_builds: nums[7],
            spice_hits: nums[8],
            spice_evictions: nums[9],
            gmi_builds: nums[10],
            gmi_hits: nums[11],
            gmi_evictions: nums[12],
            disk_hits: nums[13],
            disk_misses: nums[14],
            disk_stores: nums[15],
            disk_evictions: nums[16],
            disk_quarantined: nums[17],
            store_degraded: nums[18],
        };
        assert_eq!(round_tripped, s);
    }

    #[test]
    fn fields_table_matches_the_struct() {
        // The derived Debug lists every field by name in declaration
        // order, so this pins the table's names, order and count.
        let s = CacheStats {
            library_builds: 1,
            flow_misses: 6,
            gmi_evictions: 13,
            store_degraded: 19,
            ..CacheStats::default()
        };
        let listed: Vec<String> = s
            .fields()
            .iter()
            .map(|(n, v)| format!("{n}: {v}"))
            .collect();
        assert_eq!(
            format!("{s:?}"),
            format!("CacheStats {{ {} }}", listed.join(", "))
        );
    }

    #[test]
    fn cache_events_mirror_the_counters() {
        use crate::observe::VecRecorder;
        /// (misses, hits, evicted) among the library events recorded.
        fn library_traffic(rec: &VecRecorder) -> (u64, u64, u64) {
            let mut t = (0, 0, 0);
            for ev in rec.events() {
                match ev.kind {
                    EventKind::CacheMiss {
                        kind: CacheKind::Library,
                    } => t.0 += 1,
                    EventKind::CacheHit {
                        kind: CacheKind::Library,
                    } => t.1 += 1,
                    EventKind::CacheEvicted {
                        kind: CacheKind::Library,
                        count,
                    } => t.2 += count,
                    _ => {}
                }
            }
            t
        }
        let cache = ArtifactCache::bounded(2, 2);
        let rec = Arc::new(VecRecorder::new());
        cache.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        for scale in [1.0, 0.9, 0.8, 1.0] {
            cache
                .library(NodeId::N45, DesignStyle::TwoD, false, scale)
                .expect("library builds");
        }
        let stats = cache.stats();
        let seen = library_traffic(&rec);
        assert_eq!(
            seen,
            (
                stats.library_builds,
                stats.library_hits,
                stats.library_evictions
            )
        );
        // Detaching restores the null recorder: traffic keeps counting
        // in stats but stops reaching the old sink.
        cache.set_recorder(observe::null());
        cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 0.8)
            .expect("library builds");
        assert_eq!(
            library_traffic(&rec),
            seen,
            "detached recorder sees no further events"
        );
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let map: ShardedLru<u64, u64> = ShardedLru::new(32);
        assert_eq!(map.shard_count(), 4);
        for k in 0..100u64 {
            let a = map.shard(&k) as *const _;
            let b = map.shard(&k) as *const _;
            assert_eq!(a, b, "same key must route to the same shard");
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one_shard() {
        let map: ShardedLru<&str, u32> = ShardedLru::new(0);
        assert_eq!(map.shard_count(), 1);
        map.insert("anything", 1);
        assert_eq!(map.get(&"anything"), Some(1));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn sharded_map_keeps_its_capacity_bound() {
        let map: ShardedLru<u64, u64> = ShardedLru::new(64);
        assert!(map.shard_count() > 1, "a 64-entry map should shard");
        for k in 0..1000u64 {
            map.insert(k, k);
        }
        let bound = map.shard_count() * 64usize.div_ceil(map.shard_count());
        assert!(
            map.len() <= bound,
            "{} entries resident, bound {bound}",
            map.len()
        );
        // A resident key is still retrievable after the churn.
        let present = (0..1000u64).filter(|k| map.get(k).is_some()).count();
        assert_eq!(present, map.len());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        assert_eq!(lru.insert(1, "one"), 0);
        assert_eq!(lru.insert(2, "two"), 0);
        // Touch 1 so 2 becomes the coldest entry...
        assert_eq!(lru.get(&1), Some(&"one"));
        // ...then a third insert evicts exactly it.
        assert_eq!(lru.insert(3, "three"), 1);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"one"));
        assert_eq!(lru.get(&3), Some(&"three"));
        assert_eq!(lru.len(), 2);
        // Replacing a resident key evicts nothing.
        assert_eq!(lru.insert(3, "III"), 0);
        assert_eq!(lru.get(&3), Some(&"III"));
    }

    #[test]
    fn bounded_cache_evicts_and_counts() {
        let cache = ArtifactCache::bounded(2, 2);
        for scale in [1.0, 0.9, 0.8] {
            cache
                .library(NodeId::N45, DesignStyle::TwoD, false, scale)
                .expect("library builds");
        }
        let stats = cache.stats();
        assert_eq!(stats.library_builds, 3);
        assert_eq!(stats.library_evictions, 1);
        assert_eq!(cache.len().0, 2);

        // The evicted (coldest) key was the first one: requesting it
        // again is a rebuild, not a hit.
        cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 1.0)
            .expect("library builds");
        let stats = cache.stats();
        assert_eq!(stats.library_builds, 4);
        assert_eq!(stats.library_hits, 0);
        assert_eq!(stats.library_evictions, 2);

        // A resident key is still a hit.
        cache
            .library(NodeId::N45, DesignStyle::TwoD, false, 0.8)
            .expect("library builds");
        assert_eq!(cache.stats().library_hits, 1);

        // clear() resets the eviction counters with the rest.
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
