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
//!   pin_cap_scale)`. Only a native library is characterized; a
//!   pin-cap variant and a scaled node's library are derived from their
//!   base library, which they fetch through this same memo.
//! * **Netlist statistics** — Table 12's cell, area, net, fanout and
//!   flop counts of one generated netlist — are computed once per
//!   [`NetlistKey`]: the benchmark, its scale and the library key, which
//!   is exactly what the generator reads.
//! * **Wire-load models** are measured once per [`WlmKey`] — the
//!   [`NetlistKey`] of the netlist the preliminary placement places at
//!   its benchmark's utilization (paper Fig. 6, §3.2).
//! * **Completed [`FlowResult`]s** are shared per [`FlowKey`] — the
//!   projection of `(benchmark, style, FlowConfig)` onto the knobs the
//!   stages consume, with unconsumed knobs canonicalized away so
//!   they cannot split the key (a 2D flow never reads `tmi_wlm`;
//!   `stack_kind: None` resolves to the style default).
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
//! Every class goes through one generic memo (`ArtifactCache::coalesce`):
//! one LRU map of per-key once-cells, so racing requests on one cold key
//! of any class — a whole flow included — run one build and share it.
//!
//! One process-wide cache ([`ArtifactCache::global`]) serves
//! [`crate::Flow::try_run`], every `experiments::*` driver and the
//! `paper_tables` binary; fresh instances (`ArtifactCache::default`)
//! isolate tests and benchmarks that must measure cold runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};

use m3d_cells::characterize::{characterize_spice_tables, SpiceTables};
use m3d_cells::layout::generate_layout;
use m3d_cells::{CellFunction, CellLibrary, LibraryError, Topology};
use m3d_netlist::{BenchScale, Benchmark, NetlistStats};
use m3d_synth::WireLoadModel;
use m3d_tech::{DesignStyle, LibraryRecipe, MetalClass, NodeId, PdkRegistry, StackKind, TechNode};

use crate::error::FlowError;
use crate::flow::{FlowConfig, FlowResult};
use crate::gmi::GmiResult;
use crate::memo::{
    FlowClass, GmiClass, LibraryClass, MemoClass, NetlistClass, SpiceClass, WlmClass,
};
use crate::observe::{self, EventKind, Recorder};
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

/// Cache key of one generated benchmark netlist: exactly what
/// [`Benchmark::generate`] reads — the benchmark, its scale and the
/// library it is generated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetlistKey {
    pub(crate) bench: Benchmark,
    pub(crate) bench_scale: BenchScale,
    pub(crate) lib: LibraryKey,
}

impl NetlistKey {
    /// The netlist `bench` generates at `bench_scale` on the library
    /// under `lib`.
    pub fn new(bench: Benchmark, bench_scale: BenchScale, lib: LibraryKey) -> Self {
        NetlistKey {
            bench,
            bench_scale,
            lib,
        }
    }
}

/// Cache key of one wire-load model: everything its preliminary layout
/// reads. The netlist generator reads the [`NetlistKey`]; the
/// 16-iteration placement reads its library and the benchmark's
/// utilization, which the netlist key already names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WlmKey {
    pub(crate) netlist: NetlistKey,
}

impl WlmKey {
    /// The WLM a `(bench, style, cfg)` flow synthesizes against: the one
    /// measured on its own library, or, for a T-MI flow with `tmi_wlm`
    /// off (Table 15 "-n"), the one measured on the 2D library at
    /// unscaled pin caps.
    pub fn of(bench: Benchmark, style: DesignStyle, cfg: &FlowConfig) -> Self {
        let lib = if cfg.tmi_wlm || style == DesignStyle::TwoD {
            LibraryKey::new(cfg.node_id, style, cfg.lower_metal_rho, cfg.pin_cap_scale)
        } else {
            LibraryKey::new(cfg.node_id, DesignStyle::TwoD, cfg.lower_metal_rho, 1.0)
        };
        WlmKey {
            netlist: NetlistKey::new(bench, cfg.bench_scale, lib),
        }
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
/// `(benchmark, style, FlowConfig)` onto the knobs the stages consume
/// ([`crate::FlowStage::consumes`]). Knobs a given flow never reads are
/// canonicalized so they cannot split the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    pub(crate) bench: Benchmark,
    pub(crate) style: DesignStyle,
    pub(crate) node_id: NodeId,
    pub(crate) bench_scale: BenchScale,
    /// Resolved: `stack_kind.unwrap_or(style.default_stack())`.
    pub(crate) stack_kind: StackKind,
    pub(crate) clock_ps_bits: Option<u64>,
    /// Canonicalized to `true` for 2D flows — only the T-MI synthesis
    /// path reads this switch (Table 15 "-n").
    pub(crate) tmi_wlm: bool,
    pub(crate) pin_cap_scale_bits: u64,
    pub(crate) lower_metal_rho: bool,
    pub(crate) alpha_ff_bits: u64,
    pub(crate) mb1_routing: bool,
    pub(crate) place_iterations: usize,
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
            tmi_wlm: cfg.tmi_wlm || style == DesignStyle::TwoD,
            pin_cap_scale_bits: cfg.pin_cap_scale.to_bits(),
            lower_metal_rho: cfg.lower_metal_rho,
            alpha_ff_bits: cfg.alpha_ff.to_bits(),
            mb1_routing: cfg.mb1_routing,
            place_iterations: cfg.place_iterations,
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
    /// Wire-load models measured from scratch (preliminary layouts
    /// placed).
    pub wlm_builds: u64,
    /// WLM requests served from the memory or disk tier.
    pub wlm_hits: u64,
    /// Cached WLMs evicted by the LRU bound.
    pub wlm_evictions: u64,
    /// Netlists generated from scratch for their statistics.
    pub netlist_builds: u64,
    /// Netlist-statistics requests served from the memory or disk tier.
    pub netlist_hits: u64,
    /// Cached netlist statistics evicted by the LRU bound.
    pub netlist_evictions: u64,
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
    pub fn fields(&self) -> [(&'static str, u64); 25] {
        let mut s = *self;
        s.fields_mut().map(|(name, v)| (name, *v))
    }

    /// The one `(name, counter)` table: `cache::tests` pins it to the
    /// struct's declaration (names, order and count).
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 25] {
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
            ("wlm_builds", &mut self.wlm_builds),
            ("wlm_hits", &mut self.wlm_hits),
            ("wlm_evictions", &mut self.wlm_evictions),
            ("netlist_builds", &mut self.netlist_builds),
            ("netlist_hits", &mut self.netlist_hits),
            ("netlist_evictions", &mut self.netlist_evictions),
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
        let [lb, lh, le, fs, fh, fm, fe, sb, sh, se, gb, gh, ge, wb, wh, we, nb, nh, ne, dh, dm, ds, de, dq, sd] =
            self.fields().map(|(_, v)| v);
        write!(
            f,
            "libraries: {lb} built, {lh} hits, {le} evicted; \
             flows: {fs} stored, {fh} hits, {fm} misses, {fe} evicted; \
             spice: {sb} built, {sh} hits, {se} evicted; \
             gmi: {gb} built, {gh} hits, {ge} evicted; \
             wlm: {wb} built, {wh} hits, {we} evicted; \
             netlist: {nb} built, {nh} hits, {ne} evicted; \
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

/// The coalescing slot for one key of any class: a hand-rolled
/// once-cell whose initializer can fail. The first
/// thread to find the slot `Idle` claims the build and runs it *outside
/// every lock*; threads arriving meanwhile wait on the condvar instead
/// of duplicating the build. On success the slot becomes `Ready`
/// forever; on failure (or a panic) it reverts to `Idle` and a waiter
/// takes over the attempt, so an error never wedges the key.
#[derive(Debug)]
struct BuildCell<V> {
    state: Mutex<BuildState<V>>,
    ready: Condvar,
}

#[derive(Debug)]
enum BuildState<V> {
    Idle,
    Building,
    /// The artifact, and whether a derivation built it with no caller
    /// charged for the build yet: the first caller request is, so a
    /// key's build counts once whichever request ran it.
    Ready(Arc<V>, bool),
}

impl<V> BuildCell<V> {
    fn new() -> Self {
        BuildCell {
            state: Mutex::new(BuildState::Idle),
            ready: Condvar::new(),
        }
    }

    /// Settles a claimed build: `Ready` on success, back to `Idle` on
    /// failure; wakes every waiter either way.
    fn settle(&self, next: BuildState<V>) {
        *self.state.lock().expect("build cell lock") = next;
        self.ready.notify_all();
    }
}

/// A claimed build: releases the slot to `Idle` if the build unwinds
/// before it settles.
struct Claim<'a, V>(&'a BuildCell<V>, bool);

impl<V> Drop for Claim<'_, V> {
    fn drop(&mut self) {
        if !self.1 {
            self.0.settle(BuildState::Idle);
        }
    }
}

/// Whether a coalesced request comes from a caller, and so counts as a
/// hit or a build, or from a derivation fetching its base library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Request {
    Caller,
    Derivation,
}

/// How long a coalescing waiter sleeps between cancellation checks
/// while another thread builds the artifact it wants. The builder's
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
/// A WLM is 22 numbers; the small suite measures 28.
const DEFAULT_WLM_CAPACITY: usize = 128;
/// Netlist statistics are six numbers; Table 12 reads ten per scale.
const DEFAULT_NETLIST_CAPACITY: usize = 32;

/// One class's LRU map of per-key once-cells.
type Cells<C> = Lru<<C as MemoClass>::Key, Arc<BuildCell<<C as MemoClass>::Value>>>;

/// One class's memory tier: one LRU map of per-key [`BuildCell`]s under
/// one mutex, and its kind's live counters. The mutex guards one map
/// operation at a time and is never held across a build.
#[derive(Debug)]
struct Memo<C: MemoClass> {
    map: Mutex<Cells<C>>,
    /// Artifacts built (flows: stored) from scratch.
    built: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<C: MemoClass> Memo<C> {
    fn new(capacity: usize) -> Self {
        Memo {
            map: Mutex::new(Lru::new(capacity)),
            built: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lru(&self) -> MutexGuard<'_, Cells<C>> {
        self.map.lock().expect("cache lock")
    }

    fn len(&self) -> usize {
        self.lru().len()
    }

    fn counters(&self) -> [&AtomicU64; 4] {
        [&self.built, &self.hits, &self.misses, &self.evictions]
    }

    /// `[built, hits, misses, evictions]`.
    fn snapshot(&self) -> [u64; 4] {
        self.counters().map(|c| c.load(Ordering::Relaxed))
    }

    fn clear(&self) {
        self.lru().clear();
        for c in self.counters() {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// The shared memo layer for cell libraries, completed flow results,
/// SPICE characterizations, G-MI sign-off results, wire-load models and
/// netlist statistics: one memo per memo class (`memo::MemoClass`).
///
/// Every map is LRU-bounded ([`ArtifactCache::bounded`] sets the library
/// and result capacities; the SPICE, G-MI, WLM and netlist maps always
/// hold `DEFAULT_SPICE_CAPACITY`, `DEFAULT_GMI_CAPACITY`,
/// `DEFAULT_WLM_CAPACITY` and `DEFAULT_NETLIST_CAPACITY` entries), so
/// an unbounded sweep cannot grow the process without limit —
/// evictions are counted in [`CacheStats`]. Thread-safe and built for
/// the parallel executor's and the server's fan-out: every entry of
/// every class is a per-key once-cell, so N requests racing on one
/// cold key perform exactly **one** build — the first claims it, the
/// rest block on the key's condvar and are served the shared artifact
/// (counted as hits). That holds for whole flows too: identical
/// concurrent [`FlowKey`]s run the pipeline once.
#[derive(Debug)]
pub struct ArtifactCache {
    libraries: Memo<LibraryClass>,
    results: Memo<FlowClass>,
    spice: Memo<SpiceClass>,
    gmi: Memo<GmiClass>,
    wlms: Memo<WlmClass>,
    netlists: Memo<NetlistClass>,
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

/// The typed error of a key whose node names no registered PDK.
fn unregistered(node_id: NodeId) -> LibraryError {
    LibraryError::UnregisteredNode {
        node: node_id.label().to_string(),
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
            wlms: Memo::new(DEFAULT_WLM_CAPACITY),
            netlists: Memo::new(DEFAULT_NETLIST_CAPACITY),
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

    /// Entries currently held: `(libraries, flow results)`. An entry
    /// whose build is still in flight (or failed and awaits a retry)
    /// counts — the slot is resident even before its artifact is.
    pub fn len(&self) -> (usize, usize) {
        (self.libraries.len(), self.results.len())
    }

    /// True when every map (SPICE tables, G-MI results, WLMs and
    /// netlist statistics included) is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
            && self.spice.len() == 0
            && self.gmi.len() == 0
            && self.wlms.len() == 0
            && self.netlists.len() == 0
    }

    /// The characterized library for the consumed knobs, built at most
    /// once per distinct [`LibraryKey`] — *including under concurrency*:
    /// racing requests on one cold key coalesce on the key's once-cell,
    /// so exactly one thread builds while the rest wait for (and share)
    /// its artifact. `library_builds` counts the requests that built a
    /// library (characterized, or derived from its base); every request
    /// served without building — warm or coalesced — counts as a
    /// `library_hits` increment, so `builds + hits` equals the number of
    /// successful requests. A derivation's fetch of its base library is
    /// not a request and counts as neither; a base it built counts as
    /// the build of the first request for that base.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Library`] when characterization, scaling or
    /// the pin-cap scaling fails. A failed build releases the key
    /// (waiters retry the build themselves); nothing is cached.
    pub fn library(
        &self,
        node_id: NodeId,
        style: DesignStyle,
        lower_metal_rho: bool,
        pin_cap_scale: f64,
    ) -> Result<Arc<CellLibrary>, FlowError> {
        let key = LibraryKey::new(node_id, style, lower_metal_rho, pin_cap_scale);
        self.library_for(&key, Request::Caller)
    }

    /// The library under `key`, as [`ArtifactCache::library`].
    pub(crate) fn library_for(
        &self,
        key: &LibraryKey,
        request: Request,
    ) -> Result<Arc<CellLibrary>, FlowError> {
        self.coalesce(&self.libraries, key, request, || self.build_library(key))
    }

    /// One library build. Only a native library at unscaled pin caps is
    /// characterized. A pin-cap key scales the pins of its unscaled
    /// library, and a [`LibraryRecipe::ScaledFrom`] node scales its base
    /// node's library (in the same style, at the base's own resistivity:
    /// ρ/2 applies to the target node only); either base comes through
    /// this memo, so it is characterized at most once.
    fn build_library(&self, key: &LibraryKey) -> Result<CellLibrary, FlowError> {
        let node = key.node().ok_or_else(|| unregistered(key.node_id))?;
        let pin_cap_scale = f64::from_bits(key.pin_cap_scale_bits);
        if pin_cap_scale != 1.0 {
            let unscaled = LibraryKey::new(key.node_id, key.style, key.lower_metal_rho, 1.0);
            let base = self.library_for(&unscaled, Request::Derivation)?;
            return Ok(base.try_with_pin_cap_scaled(pin_cap_scale)?);
        }
        let recipe = |id| {
            PdkRegistry::global()
                .get(id)
                .map(|pdk| pdk.library_recipe())
        };
        Ok(match recipe(key.node_id) {
            // `try_build` characterizes the base natively, which is the
            // memoized base library only when the base's own recipe is
            // native; any other chain builds from scratch.
            Some(LibraryRecipe::ScaledFrom { base })
                if recipe(base) == Some(LibraryRecipe::Native) =>
            {
                let base_key = LibraryKey::new(base, key.style, false, 1.0);
                let base = self.library_for(&base_key, Request::Derivation)?;
                CellLibrary::try_scaled_from(&base, &node)?
            }
            _ => CellLibrary::try_build(&node, key.style)?,
        })
    }

    /// The wire-load model under `key`, measured by `build` at most once
    /// per key, as [`ArtifactCache::flow`] runs a flow. `wlm_builds`
    /// counts builds and `wlm_hits` every other successful request.
    ///
    /// # Errors
    ///
    /// The error of `build`.
    pub(crate) fn wlm(
        &self,
        key: &WlmKey,
        build: impl FnOnce() -> Result<WireLoadModel, FlowError>,
    ) -> Result<Arc<WireLoadModel>, FlowError> {
        self.coalesce(&self.wlms, key, Request::Caller, build)
    }

    /// The statistics of the netlist under `key`, computed by `build` at
    /// most once per key, as [`ArtifactCache::flow`] runs a flow.
    /// `netlist_builds` counts builds and `netlist_hits` every other
    /// successful request.
    ///
    /// # Errors
    ///
    /// The error of `build`.
    pub(crate) fn netlist_stats(
        &self,
        key: &NetlistKey,
        build: impl FnOnce() -> Result<NetlistStats, FlowError>,
    ) -> Result<Arc<NetlistStats>, FlowError> {
        self.coalesce(&self.netlists, key, Request::Caller, build)
    }

    /// The signed-off result of the flow point under `key`, run by
    /// `build` at most once per key: from memory, else from a verified
    /// disk entry, else run and published to both tiers. Identical
    /// concurrent requests share one run, and a failed run stores
    /// nothing. `flow_misses` counts the requests that ran `build`,
    /// `flow_stores` the runs that closed and `flow_hits` every other
    /// successful request.
    ///
    /// A request waiting on another's run stops at its own installed
    /// cancel token ([`crate::govern::install`]) with
    /// [`FlowError::Cancelled`] naming the library stage: it never
    /// entered its own pipeline.
    ///
    /// # Errors
    ///
    /// The error of `build`, or of the wait.
    pub fn flow(
        &self,
        key: &FlowKey,
        build: impl FnOnce() -> Result<FlowResult, FlowError>,
    ) -> Result<Arc<FlowResult>, FlowError> {
        self.coalesce(&self.results, key, Request::Caller, build)
    }

    /// The G-MI result of the 2D reference point `key`, run by `build`
    /// at most once per key, as [`ArtifactCache::flow`] runs a flow.
    /// `gmi_builds` counts the runs and `gmi_hits` every other
    /// successful request.
    ///
    /// # Errors
    ///
    /// The error of `build`, or of the wait.
    pub fn gmi(
        &self,
        key: &FlowKey,
        build: impl FnOnce() -> Result<GmiResult, FlowError>,
    ) -> Result<Arc<GmiResult>, FlowError> {
        self.coalesce(&self.gmi, key, Request::Caller, build)
    }

    /// The SPICE tables for `key`, simulated from the key at most once
    /// per key, as [`ArtifactCache::flow`] runs a flow. `spice_builds`
    /// counts simulations and `spice_hits` every other successful
    /// request. A hit is bit-identical to a rebuild: the deck is
    /// deterministic and the key carries every input it reads.
    ///
    /// # Errors
    ///
    /// [`FlowError::Library`] when the key's node names no registered
    /// PDK, [`FlowError::Spice`] when a transient of the deck fails to
    /// converge.
    ///
    /// # Panics
    ///
    /// On a miss, as [`characterize_spice_tables`] does: for sequential
    /// or multi-output functions, and when the output never switches.
    pub fn spice_tables(&self, key: &SpiceKey) -> Result<Arc<SpiceTables>, FlowError> {
        self.coalesce(&self.spice, key, Request::Caller, || Self::simulate(key))
    }

    /// One deck built from the key alone and simulated.
    fn simulate(key: &SpiceKey) -> Result<SpiceTables, FlowError> {
        let node = TechNode::try_for_id(key.node_id).ok_or_else(|| unregistered(key.node_id))?;
        let topo = Topology::for_function(key.function);
        let geometry = generate_layout(&node, &topo, key.style, key.drive);
        Ok(characterize_spice_tables(
            &node,
            key.function,
            key.drive,
            &topo,
            &geometry,
            key.slews(),
            key.loads(),
        )?)
    }

    /// The one memo: the key's once-cell is fetched (or inserted) under
    /// the class's map lock, and the first request to find it `Idle`
    /// loads a verified disk entry or runs `build`, outside every lock,
    /// while later requests wait for its artifact. A caller's request
    /// that runs `build` counts and traces one miss, and one build when
    /// `build` succeeds; every other request it serves counts and
    /// traces one hit (a disk load is a hit: "zero builds" stays the
    /// warm-start signal), and a hit that waited also traces
    /// `cache_coalesced`. A derivation's request counts nothing, and a
    /// build it ran is charged to the key's first caller, so the
    /// counters do not depend on which request came first. A waiter
    /// checks its installed cancel token (its error names the class's
    /// `STAGE`) between bounded waits, so it never hangs behind another
    /// thread's build.
    ///
    /// Waits cannot deadlock: no lock is held across a build, and a
    /// build only ever waits on a key of a *different* class (a flow or
    /// G-MI run on WLMs and libraries, a WLM on libraries) or, within
    /// the library class, on a base library, and library derivations
    /// form a DAG (a pin-cap variant on its unscaled library, a scaled
    /// node on its native base). No wait can close a cycle.
    fn coalesce<C: MemoClass>(
        &self,
        memo: &Memo<C>,
        key: &C::Key,
        request: Request,
        build: impl FnOnce() -> Result<C::Value, FlowError>,
    ) -> Result<Arc<C::Value>, FlowError> {
        // An LRU eviction can drop a slot mid-build — waiters hold their
        // own `Arc` to it, so they still coalesce; only future requests
        // rebuild.
        let cell = {
            let mut map = memo.lru();
            match map.get(key) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(BuildCell::new());
                    let evicted = map.insert(key.clone(), Arc::clone(&c));
                    drop(map);
                    memo.evictions.fetch_add(evicted, Ordering::Relaxed);
                    if evicted > 0 {
                        self.emit(|| EventKind::CacheEvicted {
                            kind: C::KIND,
                            count: evicted,
                        });
                    }
                    c
                }
            }
        };
        let counted = request == Request::Caller;
        let miss = || {
            memo.misses.fetch_add(1, Ordering::Relaxed);
            self.emit(|| EventKind::CacheMiss { kind: C::KIND });
        };
        let built = || memo.built.fetch_add(1, Ordering::Relaxed);
        // Whether this request blocked on another thread's in-flight
        // build — a coalesced hit, traced distinctly from a warm one.
        let mut waited = false;
        let mut state = cell.state.lock().expect("build cell lock");
        loop {
            match &mut *state {
                BuildState::Ready(v, uncharged) => {
                    let v = Arc::clone(v);
                    let charge_build = counted && std::mem::take(uncharged);
                    drop(state);
                    if charge_build {
                        miss();
                        built();
                    } else if counted {
                        self.hit(memo, waited);
                    }
                    return Ok(v);
                }
                BuildState::Building => {
                    waited = true;
                    crate::govern::check(C::STAGE)?;
                    let (s, _) = cell
                        .ready
                        .wait_timeout(state, BUILD_WAIT_SLICE)
                        .expect("build cell lock");
                    state = s;
                }
                BuildState::Idle => {
                    *state = BuildState::Building;
                    drop(state);
                    let mut claim = Claim(&*cell, false);
                    let loaded = self.disk().and_then(|d| d.load::<C>(key));
                    let from_disk = loaded.is_some();
                    if counted && !from_disk {
                        miss();
                    }
                    let v = Arc::new(match loaded {
                        Some(v) => v,
                        None => build()?,
                    });
                    claim.1 = true;
                    let uncharged = !counted && !from_disk;
                    cell.settle(BuildState::Ready(Arc::clone(&v), uncharged));
                    if counted {
                        if from_disk {
                            self.hit(memo, false);
                        } else {
                            built();
                        }
                    }
                    // Publish outside every lock: waiters are already
                    // served; the disk write must not stall them.
                    if !from_disk {
                        if let Some(d) = self.disk() {
                            d.store::<C>(key, &v);
                        }
                    }
                    return Ok(v);
                }
            }
        }
    }

    /// Counts and traces one hit of class `C`; a hit that waited on
    /// another request's build also traces `cache_coalesced`.
    fn hit<C: MemoClass>(&self, memo: &Memo<C>, coalesced: bool) {
        memo.hits.fetch_add(1, Ordering::Relaxed);
        self.emit(|| EventKind::CacheHit { kind: C::KIND });
        if coalesced {
            self.emit(|| EventKind::CacheCoalesced { kind: C::KIND });
        }
    }

    /// The memo's lookup that never builds: the artifact under `key` iff
    /// its once-cell is `Ready` and its build already charged, served as
    /// [`ArtifactCache::coalesce`] serves a warm caller (the LRU touch,
    /// one counted and traced hit). Anything else is `None` with nothing
    /// inserted, loaded from disk, counted or waited for.
    fn if_ready<C: MemoClass>(&self, memo: &Memo<C>, key: &C::Key) -> Option<Arc<C::Value>> {
        let cell = Arc::clone(memo.lru().get(key)?);
        let v = match &*cell.state.lock().expect("build cell lock") {
            BuildState::Ready(v, false) => Arc::clone(v),
            _ => return None,
        };
        self.hit(memo, false);
        Some(v)
    }

    /// The flow result under `key` iff it is already in memory: a warm
    /// [`ArtifactCache::flow`] request that cannot run, load or wait.
    /// A hit counts in `flow_hits` as that request would; a miss, an
    /// in-flight run or an entry only on disk is `None` and counts
    /// nothing.
    pub fn flow_if_ready(&self, key: &FlowKey) -> Option<Arc<FlowResult>> {
        self.if_ready(&self.results, key)
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
        self.wlms.clear();
        self.netlists.clear();
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
        let [wlm_builds, wlm_hits, _, wlm_evictions] = self.wlms.snapshot();
        let [netlist_builds, netlist_hits, _, netlist_evictions] = self.netlists.snapshot();
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
            wlm_builds,
            wlm_hits,
            wlm_evictions,
            netlist_builds,
            netlist_hits,
            netlist_evictions,
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
    use crate::error::FlowStage;
    use crate::observe::CacheKind;

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
    fn resolved_default_stack_shares_the_flow_key() {
        let mut explicit = cfg45();
        explicit.stack_kind = Some(DesignStyle::Tmi.default_stack());
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

    /// A build that must not run: the request is served from a tier.
    fn unbuilt<V>() -> Result<V, FlowError> {
        panic!("a served request runs no build")
    }

    #[test]
    fn flow_results_promote_from_disk_into_memory() {
        let root = temp_store_root("flow");
        let bench = Benchmark::Des;
        let key = FlowKey::of(bench, DesignStyle::TwoD, &cfg45());
        let result = sample_flow_result(bench);
        {
            // Publish a result through a first cache.
            let first = ArtifactCache::default();
            first.attach_disk(DiskStore::open(&root));
            first
                .flow(&key, || Ok(result.clone()))
                .expect("the build closes");
            let s = first.stats();
            assert_eq!((s.flow_stores, s.flow_misses, s.disk_stores), (1, 1, 1));
        }
        let fresh = ArtifactCache::default();
        fresh.attach_disk(DiskStore::open(&root));
        // First request: disk hit, promoted into memory.
        assert_eq!(*fresh.flow(&key, unbuilt).expect("disk hit"), result);
        let s = fresh.stats();
        assert_eq!((s.flow_hits, s.flow_misses, s.disk_hits), (1, 0, 1));
        // Second request: memory tier, no further disk traffic.
        assert_eq!(*fresh.flow(&key, unbuilt).expect("memory hit"), result);
        let s = fresh.stats();
        assert_eq!((s.flow_hits, s.disk_hits), (2, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A failed build counts its miss, stores nothing and leaves the key
    /// to the next request, which runs its own build.
    #[test]
    fn a_failed_flow_build_stores_nothing_and_releases_the_key() {
        let cache = ArtifactCache::default();
        let key = FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &cfg45());
        let err = cache
            .flow(&key, || {
                Err(FlowError::Cancelled {
                    stage: FlowStage::Routing,
                })
            })
            .expect_err("the build fails");
        assert!(matches!(err, FlowError::Cancelled { .. }), "{err}");
        let s = cache.stats();
        assert_eq!((s.flow_stores, s.flow_hits, s.flow_misses), (0, 0, 1));
        let r = sample_flow_result(Benchmark::Des);
        assert_eq!(
            *cache.flow(&key, || Ok(r.clone())).expect("retry closes"),
            r
        );
        let s = cache.stats();
        assert_eq!((s.flow_stores, s.flow_hits, s.flow_misses), (1, 0, 2));
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
        let a = first.spice_tables(&key).expect("deck converges");
        let b = first.spice_tables(&key).expect("deck converges");
        assert!(Arc::ptr_eq(&a, &b), "second request must be a memory hit");
        let s = first.stats();
        assert_eq!((s.spice_builds, s.spice_hits, s.disk_stores), (1, 1, 1));

        // A fresh cache over the same directory simulates nothing and
        // serves the bit-identical tables.
        let fresh = ArtifactCache::default();
        fresh.attach_disk(DiskStore::open(&root));
        assert_eq!(*fresh.spice_tables(&key).expect("disk hit"), *a);
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
    fn spice_tables_on_an_unregistered_node_is_a_typed_error() {
        let cache = ArtifactCache::default();
        let key = SpiceKey::new(
            NodeId::intern("unregistered"),
            DesignStyle::TwoD,
            CellFunction::Inv,
            1,
            &[7.5],
            &[0.8],
        );
        let err = cache.spice_tables(&key).expect_err("no PDK, no deck");
        assert!(
            matches!(
                err,
                FlowError::Library(LibraryError::UnregisteredNode { .. })
            ),
            "{err}"
        );
        assert_eq!(cache.stats().spice_builds, 0);
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
        // A cold cache misses and runs the build; the next request hits.
        let built = first.gmi(&key, || Ok(result.clone())).expect("G-MI runs");
        assert_eq!(*built, result);
        assert_eq!(*first.gmi(&key, unbuilt).expect("memory hit"), result);
        let s = first.stats();
        assert_eq!((s.gmi_builds, s.gmi_hits, s.disk_stores), (1, 1, 1));

        // A fresh cache over the same directory runs nothing: the first
        // request is a disk hit, promoted so the second stays in memory.
        let fresh = ArtifactCache::default();
        fresh.attach_disk(DiskStore::open(&root));
        assert_eq!(*fresh.gmi(&key, unbuilt).expect("disk hit"), result);
        assert_eq!(*fresh.gmi(&key, unbuilt).expect("memory hit"), result);
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
            wlm_builds: 14,
            wlm_hits: 15,
            wlm_evictions: 16,
            netlist_builds: 17,
            netlist_hits: 18,
            netlist_evictions: 19,
            disk_hits: 20,
            disk_misses: 21,
            disk_stores: 22,
            disk_evictions: 23,
            disk_quarantined: 24,
            store_degraded: 25,
        };
        assert_eq!(
            s.to_string(),
            "libraries: 1 built, 2 hits, 3 evicted; \
             flows: 4 stored, 5 hits, 6 misses, 7 evicted; \
             spice: 8 built, 9 hits, 10 evicted; \
             gmi: 11 built, 12 hits, 13 evicted; \
             wlm: 14 built, 15 hits, 16 evicted; \
             netlist: 17 built, 18 hits, 19 evicted; \
             disk: 20 hits, 21 misses, 22 stored, 23 evicted, \
             24 quarantined; store degraded: 25"
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
            wlm_builds: 28,
            wlm_hits: 35,
            wlm_evictions: 0,
            netlist_builds: 10,
            netlist_hits: 0,
            netlist_evictions: 0,
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
            wlm_builds: 28,
            wlm_hits: 40,
            wlm_evictions: 1,
            netlist_builds: 10,
            netlist_hits: 10,
            netlist_evictions: 1,
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
        assert_eq!(
            d.wlm_builds, 0,
            "a warm replay places no preliminary layout"
        );
        assert_eq!(d.wlm_hits, 5);
        assert_eq!(d.wlm_evictions, 1);
        assert_eq!(d.netlist_builds, 0, "a warm replay generates no netlist");
        assert_eq!(d.netlist_hits, 10);
        assert_eq!(d.netlist_evictions, 1);
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
            wlm_builds: 155,
            wlm_hits: 166,
            wlm_evictions: 177,
            netlist_builds: 188,
            netlist_hits: 199,
            netlist_evictions: 211,
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
                11, 22, 33, 44, 55, 66, 77, 88, 99, 111, 122, 133, 144, 155, 166, 177, 188, 199,
                211, 222, 333, 444, 555, 666, 777
            ],
            "display must carry all 25 counters in declaration order: {text}"
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
            wlm_builds: nums[13],
            wlm_hits: nums[14],
            wlm_evictions: nums[15],
            netlist_builds: nums[16],
            netlist_hits: nums[17],
            netlist_evictions: nums[18],
            disk_hits: nums[19],
            disk_misses: nums[20],
            disk_stores: nums[21],
            disk_evictions: nums[22],
            disk_quarantined: nums[23],
            store_degraded: nums[24],
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
            wlm_hits: 15,
            netlist_evictions: 19,
            store_degraded: 25,
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
        // A zero capacity clamps to one entry, and churn never outgrows
        // the bound: the survivors are the latest keys, each retrievable.
        for (capacity, bound) in [(0, 1), (2, 2), (64, 64)] {
            let mut lru: Lru<u64, u64> = Lru::new(capacity);
            let evicted: u64 = (0..1000).map(|k| lru.insert(k, k)).sum();
            assert_eq!((lru.len(), evicted), (bound, 1000 - bound as u64));
            assert!((1000 - bound as u64..1000).all(|k| lru.get(&k) == Some(&k)));
        }
    }

    #[test]
    fn bounded_cache_evicts_and_counts() {
        // Three natively characterized keys: none is derived from
        // another, so only the requests below touch the LRU order.
        let native = [
            (DesignStyle::TwoD, false),
            (DesignStyle::Tmi, false),
            (DesignStyle::TwoD, true),
        ];
        let request = |cache: &ArtifactCache, (style, rho): (DesignStyle, bool)| {
            cache
                .library(NodeId::N45, style, rho, 1.0)
                .expect("library builds");
        };
        let cache = ArtifactCache::bounded(2, 2);
        for key in native {
            request(&cache, key);
        }
        let stats = cache.stats();
        assert_eq!(stats.library_builds, 3);
        assert_eq!(stats.library_evictions, 1);
        assert_eq!(cache.len().0, 2);

        // The evicted (coldest) key was the first one: requesting it
        // again is a rebuild, not a hit.
        request(&cache, native[0]);
        let stats = cache.stats();
        assert_eq!(stats.library_builds, 4);
        assert_eq!(stats.library_hits, 0);
        assert_eq!(stats.library_evictions, 2);

        // A resident key is still a hit.
        request(&cache, native[2]);
        assert_eq!(cache.stats().library_hits, 1);

        // clear() resets the eviction counters with the rest.
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    /// A derived library's base comes through the memo: it is built once
    /// and kept resident, its fetch is neither a hit nor a build, and
    /// each key's build counts once, at its first request.
    #[test]
    fn derivations_fetch_their_base_without_counting_it() {
        let cache = ArtifactCache::default();
        // A 7 nm pin-cap key derives from 7 nm, which derives from 45 nm:
        // one request, one counted build, three resident libraries.
        cache
            .library(NodeId::N7, DesignStyle::Tmi, false, 0.6)
            .expect("library builds");
        let s = cache.stats();
        assert_eq!((s.library_builds, s.library_hits), (1, 0));
        assert_eq!(cache.len().0, 3);
        // The first request for a base a derivation built is charged
        // that build, a second one is a hit, and deriving another
        // variant characterizes nothing new.
        for (node, pin_cap) in [
            (NodeId::N45, 1.0),
            (NodeId::N7, 1.0),
            (NodeId::N7, 1.0),
            (NodeId::N7, 0.8),
        ] {
            cache
                .library(node, DesignStyle::Tmi, false, pin_cap)
                .expect("library builds");
        }
        let s = cache.stats();
        assert_eq!((s.library_builds, s.library_hits), (4, 1));
        assert_eq!(cache.len().0, 4);
    }

    /// Racing requests on one cold WLM key run one build; a build that
    /// panics releases the key instead of wedging it.
    #[test]
    fn wlm_requests_coalesce_and_survive_a_panicking_build() {
        use std::sync::atomic::AtomicUsize;
        let cache = ArtifactCache::default();
        let key = WlmKey::of(Benchmark::Des, DesignStyle::TwoD, &cfg45());
        let runs = AtomicUsize::new(0);
        let build = || {
            runs.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(20));
            Ok(WireLoadModel::uniform(3.0, 0.5))
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| cache.wlm(&key, build).expect("WLM builds"));
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "one build per key");
        let st = cache.stats();
        assert_eq!((st.wlm_builds, st.wlm_hits), (1, 3));

        let other = WlmKey::of(Benchmark::Aes, DesignStyle::TwoD, &cfg45());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.wlm(&other, || panic!("planted"))
        }));
        assert!(unwound.is_err());
        let w = cache
            .wlm(&other, || Ok(WireLoadModel::uniform(1.0, 0.25)))
            .expect("the released key builds again");
        assert_eq!(w.estimate_um(1), 1.0);
        assert_eq!(cache.stats().wlm_builds, 2);
    }

    /// The LibraryClass bytes of `lib`: every cell, bit for bit.
    fn library_bytes(lib: &CellLibrary) -> Vec<u8> {
        LibraryClass::encode(lib)
    }

    /// Every derived library is bit-identical to a from-scratch build:
    /// `try_build` (which characterizes the scaled node's base again),
    /// then the pin-cap scaling where the key has one.
    #[test]
    fn derived_libraries_equal_from_scratch_builds() {
        let cache = ArtifactCache::default();
        let fdsoi = PdkRegistry::global()
            .by_name("fdsoi-miv")
            .expect("fdsoi-miv registered");
        for (node_id, style, rho, pin_cap) in [
            (NodeId::N7, DesignStyle::TwoD, false, 1.0),
            (NodeId::N7, DesignStyle::Tmi, false, 1.0),
            (fdsoi, DesignStyle::Tmi, false, 1.0),
            (NodeId::N7, DesignStyle::TwoD, true, 1.0),
            (NodeId::N7, DesignStyle::Tmi, true, 1.0),
            (NodeId::N45, DesignStyle::TwoD, false, 0.6),
            (NodeId::N45, DesignStyle::Tmi, true, 0.6),
            (NodeId::N7, DesignStyle::Tmi, false, 0.6),
        ] {
            let key = LibraryKey::new(node_id, style, rho, pin_cap);
            let node = key.node().expect("registered node");
            let mut reference = CellLibrary::try_build(&node, style).expect("reference builds");
            if pin_cap != 1.0 {
                reference = reference
                    .try_with_pin_cap_scaled(pin_cap)
                    .expect("pin caps scale");
            }
            let derived = cache
                .library(node_id, style, rho, pin_cap)
                .expect("derived library builds");
            assert_eq!(derived.node(), reference.node(), "{key:?}: tech node");
            assert_eq!(derived.style(), style, "{key:?}: style");
            assert!(
                library_bytes(&derived) == library_bytes(&reference),
                "{key:?}: derived library differs from a from-scratch build"
            );
        }
    }

    /// A named edit of one config knob.
    type Knob = (&'static str, fn(&mut FlowConfig));

    #[test]
    fn wlm_key_reads_exactly_what_the_preliminary_layout_reads() {
        let small = || cfg45().scale(BenchScale::Small);
        let key = |style: DesignStyle, cfg: &FlowConfig| WlmKey::of(Benchmark::Aes, style, cfg);
        for style in [DesignStyle::TwoD, DesignStyle::Tmi] {
            let base = key(style, &small());
            // Knobs the netlist generator or the preliminary placement
            // read split the key...
            let splits: [Knob; 4] = [
                ("node_id", |c| c.node_id = NodeId::N7),
                ("bench_scale", |c| c.bench_scale = BenchScale::Paper),
                ("pin_cap_scale", |c| c.pin_cap_scale = 0.6),
                ("lower_metal_rho", |c| c.lower_metal_rho = true),
            ];
            for (name, set) in splits {
                let mut c = small();
                set(&mut c);
                assert_ne!(key(style, &c), base, "{}: {name} must split", style.label());
            }
            // ...and every other knob shares one build.
            let shares: [Knob; 5] = [
                ("clock_ps", |c| c.clock_ps = Some(777.0)),
                ("alpha_ff", |c| c.alpha_ff = 0.3),
                ("stack_kind", |c| c.stack_kind = Some(StackKind::TmiPlusM)),
                ("mb1_routing", |c| c.mb1_routing = !c.mb1_routing),
                ("place_iterations", |c| c.place_iterations += 1),
            ];
            for (name, set) in shares {
                let mut c = small();
                set(&mut c);
                assert_eq!(key(style, &c), base, "{}: {name} must share", style.label());
            }
        }
        // The WLM switch splits only a T-MI key: "-n" measures on the
        // 2D library at unscaled pin caps, which a 2D flow shares.
        let mut no_tmi_wlm = small();
        no_tmi_wlm.tmi_wlm = false;
        assert_eq!(
            key(DesignStyle::TwoD, &no_tmi_wlm),
            key(DesignStyle::TwoD, &small())
        );
        assert_ne!(
            key(DesignStyle::Tmi, &no_tmi_wlm),
            key(DesignStyle::Tmi, &small())
        );
        no_tmi_wlm.pin_cap_scale = 0.6;
        assert_eq!(
            key(DesignStyle::Tmi, &no_tmi_wlm),
            key(DesignStyle::TwoD, &small())
        );
        // Every knob the key splits on is one a pre-synthesis stage
        // consumes, so the WLM key never outgrows the flow key.
        let read: Vec<&str> = [FlowStage::Library, FlowStage::Synthesis]
            .iter()
            .flat_map(|s| s.consumes().iter().copied())
            .collect();
        for knob in [
            "node_id",
            "bench_scale",
            "pin_cap_scale",
            "lower_metal_rho",
            "tmi_wlm",
        ] {
            assert!(read.contains(&knob), "no pre-synthesis stage reads {knob}");
        }
    }
}
