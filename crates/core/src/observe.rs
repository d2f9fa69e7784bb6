//! Structured observability for the flow engine: typed events, JSONL
//! traces and their validator (DESIGN.md §11).
//!
//! The supervisor, cache and executor emit typed [`EventKind`]s at every
//! decision point — stage spans, cache and store traffic, governance
//! decisions — into whatever [`Recorder`] the run attached. Recorders
//! are deliberately dumb sinks:
//!
//! * [`NullRecorder`] — the default; `enabled()` is `false`, so emit
//!   sites skip even event construction. Zero overhead by construction.
//! * [`VecRecorder`] — in-memory, for tests. The golden-trace suite
//!   (`tests/observe.rs`) replays its event stream against the stage
//!   graph topology.
//! * [`JsonlRecorder`] — one event per line, each stamped with a
//!   monotonic sequence number, a stable thread ordinal and seconds
//!   since recorder creation. The format is pinned by
//!   [`validate_jsonl`], which CI runs over every trace it records.
//!
//! The trace is the one sink: per-stage span counts and wall time are
//! aggregated from it after the run ([`TraceSummary::stages`], printed
//! by `trace_check`), not by a second in-process recorder.
//!
//! Hot-path discipline: [`EventKind`] is `Copy` and built from
//! `&'static str`s and small enums — constructing and recording one
//! event allocates nothing. Emit sites guard on [`Recorder::enabled`],
//! so a disabled recorder costs one virtual call.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use m3d_netlist::Benchmark;
use m3d_tech::DesignStyle;

use crate::error::{FlowError, FlowStage};

/// Which cache a [`EventKind::CacheHit`]-family event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// The characterized-cell-library cache.
    Library,
    /// The completed-flow-result cache.
    Flow,
    /// The SPICE-characterization cache (one cell's transient tables).
    Spice,
    /// The G-MI sign-off cache (one gate-level 3D implementation).
    Gmi,
    /// The wire-load-model cache (one preliminary layout's WLM).
    Wlm,
    /// The netlist-statistics cache (one generated netlist's Table 12
    /// statistics).
    Netlist,
}

impl CacheKind {
    /// Every kind, in declaration order.
    pub const ALL: [CacheKind; 6] = [
        CacheKind::Library,
        CacheKind::Flow,
        CacheKind::Spice,
        CacheKind::Gmi,
        CacheKind::Wlm,
        CacheKind::Netlist,
    ];

    /// Stable lowercase name used in JSONL.
    pub fn key(self) -> &'static str {
        match self {
            CacheKind::Library => "library",
            CacheKind::Flow => "flow",
            CacheKind::Spice => "spice",
            CacheKind::Gmi => "gmi",
            CacheKind::Wlm => "wlm",
            CacheKind::Netlist => "netlist",
        }
    }

    /// The store subdirectory holding this kind's entries.
    pub(crate) fn dir(self) -> &'static str {
        match self {
            CacheKind::Library => "lib",
            CacheKind::Flow => "flow",
            CacheKind::Spice => "spice",
            CacheKind::Gmi => "gmi",
            CacheKind::Wlm => "wlm",
            CacheKind::Netlist => "netlist",
        }
    }

    /// The kind whose [`CacheKind::key`] is `key`.
    pub fn from_key(key: &str) -> Option<CacheKind> {
        CacheKind::ALL.into_iter().find(|k| k.key() == key)
    }
}

/// How a stage span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageOutcome {
    /// The stage ran to completion.
    Ok,
    /// The stage returned a flow error.
    Failed,
    /// The stage worker panicked and was contained.
    Panicked,
    /// The stage overran its deadline budget and was stopped.
    TimedOut,
    /// The stage was cancelled cooperatively (an explicit cancel or a
    /// run deadline): the span opened normally and closes here.
    Cancelled,
}

impl StageOutcome {
    /// Every outcome, in declaration order.
    pub const ALL: [StageOutcome; 5] = [
        StageOutcome::Ok,
        StageOutcome::Failed,
        StageOutcome::Panicked,
        StageOutcome::TimedOut,
        StageOutcome::Cancelled,
    ];

    /// Stable lowercase name used in JSONL.
    pub fn key(self) -> &'static str {
        match self {
            StageOutcome::Ok => "ok",
            StageOutcome::Failed => "failed",
            StageOutcome::Panicked => "panicked",
            StageOutcome::TimedOut => "timed_out",
            StageOutcome::Cancelled => "cancelled",
        }
    }

    /// Classifies a stage error for the span's terminal event.
    pub(crate) fn of_error(err: &FlowError) -> StageOutcome {
        match err {
            FlowError::StagePanicked { .. } => StageOutcome::Panicked,
            FlowError::DeadlineExceeded { .. } => StageOutcome::TimedOut,
            FlowError::Cancelled { .. } => StageOutcome::Cancelled,
            _ => StageOutcome::Failed,
        }
    }
}

/// One typed observation from the flow engine. `Copy`, built entirely
/// from `&'static str`s and small enums — recording allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A stage span opened: the supervisor is about to run `stage` for
    /// `(bench, style)`. `consumes` lists the artifact names the stage
    /// declares it reads — the consumed-key fields of the span.
    StageStarted {
        bench: Benchmark,
        style: DesignStyle,
        stage: FlowStage,
        consumes: &'static [&'static str],
    },
    /// The span's terminal event: same identity fields as the start,
    /// plus how it ended and both durations — `wall_s` as the
    /// supervisor saw it (includes any injected stall), `busy_s` as
    /// measured around the stage body alone.
    StageFinished {
        bench: Benchmark,
        style: DesignStyle,
        stage: FlowStage,
        outcome: StageOutcome,
        wall_s: f64,
        busy_s: f64,
    },
    /// A cache request was served from a resident (or freshly
    /// coalesced) artifact.
    CacheHit { kind: CacheKind },
    /// A cache request found nothing and the caller performed the work.
    CacheMiss { kind: CacheKind },
    /// A request coalesced onto another thread's in-flight build
    /// instead of duplicating it (always accompanied by a `CacheHit`;
    /// schedule-dependent, so trace normalization drops it).
    CacheCoalesced { kind: CacheKind },
    /// The LRU bound evicted `count` entries on one insert.
    CacheEvicted { kind: CacheKind, count: u64 },
    /// A request missed the in-memory tier but was served from the
    /// persistent store's disk tier (entry re-verified on read).
    DiskHit { kind: CacheKind },
    /// The disk tier held no valid entry for the key (the caller
    /// rebuilds and publishes).
    DiskMiss { kind: CacheKind },
    /// The store's byte-budget LRU evicted `count` entries, freeing
    /// `bytes` on disk.
    DiskEvicted {
        kind: CacheKind,
        count: u64,
        bytes: u64,
    },
    /// A durable file failed verification and was moved into
    /// `quarantine/` instead of being served (`what` names the payload:
    /// a [`CacheKind::key`]).
    DiskQuarantined { what: &'static str },
    /// The persistent store hit an I/O failure and degraded to the
    /// in-memory tier for the rest of the run (emitted once per store;
    /// `reason` is a stable failure class, not free text).
    StoreDegraded { reason: &'static str },
    /// A fan-out's run token fired: emitted once per run, by the
    /// collector after the workers join. `reason` is `"explicit"`
    /// (someone called cancel) or `"deadline"` (the whole-run budget
    /// passed).
    CancelRequested { reason: &'static str },
    /// A plan point the run token stopped before it started; `outcome`
    /// is the point's terminal key: `"cancelled"` or
    /// `"deadline_exceeded"`.
    PointCancelled {
        bench: Benchmark,
        style: DesignStyle,
        outcome: &'static str,
    },
    /// The admission queue refused a submission (`reason` is
    /// `"queue_full"` or `"draining"`).
    AdmissionRejected { client: u64, reason: &'static str },
    /// A client hit its per-client quota of queued points.
    QuotaExhausted { client: u64 },
}

impl EventKind {
    /// Stable snake_case discriminant name: the JSONL `kind` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::StageStarted { .. } => "stage_started",
            EventKind::StageFinished { .. } => "stage_finished",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::CacheCoalesced { .. } => "cache_coalesced",
            EventKind::CacheEvicted { .. } => "cache_evicted",
            EventKind::DiskHit { .. } => "disk_hit",
            EventKind::DiskMiss { .. } => "disk_miss",
            EventKind::DiskEvicted { .. } => "disk_evicted",
            EventKind::DiskQuarantined { .. } => "disk_quarantined",
            EventKind::StoreDegraded { .. } => "store_degraded",
            EventKind::CancelRequested { .. } => "cancel_requested",
            EventKind::PointCancelled { .. } => "point_cancelled",
            EventKind::AdmissionRejected { .. } => "admission_rejected",
            EventKind::QuotaExhausted { .. } => "quota_exhausted",
        }
    }
}

/// A recorded event with its stamps: `seq` is monotonic per recorder,
/// `thread` a small stable ordinal of the emitting thread, `t_s`
/// seconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub thread: u64,
    pub t_s: f64,
    pub kind: EventKind,
}

/// A sink for engine events.
///
/// Guarantees every implementation must keep:
/// * `record` is safe to call from any thread, concurrently.
/// * `record` never panics and never blocks on engine locks (it may
///   take its own).
/// * `enabled() == false` promises the recorder ignores events; emit
///   sites use it to skip event construction entirely.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Whether emit sites should bother constructing events.
    fn enabled(&self) -> bool {
        true
    }
    /// Accepts one event. Stamping (seq / thread / time) is the
    /// recorder's job so disabled recorders pay for none of it.
    fn record(&self, kind: EventKind);
}

/// The do-nothing default recorder.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _kind: EventKind) {}
}

/// A shared [`NullRecorder`] handle — the default for every cache.
pub fn null() -> Arc<dyn Recorder> {
    static NULL: std::sync::OnceLock<Arc<NullRecorder>> = std::sync::OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(NullRecorder))) as Arc<dyn Recorder>
}

/// Stamp source shared by the recording implementations: a monotonic
/// per-recorder sequence, a stable small ordinal per OS thread, and
/// seconds since recorder creation.
#[derive(Debug)]
struct Stamps {
    seq: AtomicU64,
    start: Instant,
}

impl Stamps {
    fn new() -> Self {
        Stamps {
            seq: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    fn stamp(&self, kind: EventKind) -> Event {
        Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            thread: thread_ordinal(),
            t_s: self.start.elapsed().as_secs_f64(),
            kind,
        }
    }
}

/// A process-stable small integer per OS thread (the main thread is
/// whichever asked first). Thread *names* are not stamped: they would
/// bloat every event line, and the ordinal already tells threads apart.
/// The store's publish temp files carry it too, so two threads of one
/// process never write the same temp file.
pub(crate) fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    }
    ORDINAL.with(|c| match c.get() {
        Some(n) => n,
        None => {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(Some(n));
            n
        }
    })
}

/// In-memory recorder for tests: collects stamped events in order.
#[derive(Debug)]
pub struct VecRecorder {
    stamps: Stamps,
    events: Mutex<Vec<Event>>,
}

impl Default for VecRecorder {
    fn default() -> Self {
        VecRecorder::new()
    }
}

impl VecRecorder {
    pub fn new() -> Self {
        VecRecorder {
            stamps: Stamps::new(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of everything recorded so far, in sequence order.
    pub fn events(&self) -> Vec<Event> {
        let mut evs = self.events.lock().expect("recorder lock").clone();
        evs.sort_by_key(|e| e.seq);
        evs
    }

    /// Drops everything recorded so far (stamps keep counting).
    pub fn clear(&self) {
        self.events.lock().expect("recorder lock").clear();
    }
}

impl Recorder for VecRecorder {
    fn record(&self, kind: EventKind) {
        let ev = self.stamps.stamp(kind);
        self.events.lock().expect("recorder lock").push(ev);
    }
}

/// Streams one JSON object per event to a writer, newline-delimited.
///
/// The schema is flat: the stamp fields (`seq`, `thread`, `t_s`), the
/// discriminant (`kind`), then the variant's fields. Every string the
/// engine emits is a static identifier (stage keys, bench names,
/// outcome keys), so values are written verbatim — [`validate_jsonl`]
/// and the `trace_check` binary parse this exact shape back.
pub struct JsonlRecorder {
    stamps: Stamps,
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Records into any writer (buffer it yourself if it matters).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlRecorder {
            stamps: Stamps::new(),
            out: Mutex::new(out),
        }
    }

    /// Creates (truncates) `path` and records into it, buffered.
    ///
    /// # Errors
    ///
    /// The underlying `File::create` error when the file cannot be
    /// created.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlRecorder::new(Box::new(BufWriter::new(file))))
    }

    /// Flushes the underlying writer (also done on drop).
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("recorder lock").flush()
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, kind: EventKind) {
        // Stamp *under* the writer lock: the seq counter is atomic, so
        // stamping first would let two threads claim 104/105 and write
        // them in swapped order — validate_jsonl requires the file's
        // seq column to be strictly increasing.
        let mut out = self.out.lock().expect("recorder lock");
        let ev = self.stamps.stamp(kind);
        let mut line = String::with_capacity(160);
        write_event_json(&mut line, &ev);
        line.push('\n');
        // A torn write surfaces at validate time as a malformed line;
        // recorders must not panic, so the error is swallowed here.
        let _ = out.write_all(line.as_bytes());
    }
}

/// Appends `s` to `buf` as the *body* of a JSON string (no surrounding
/// quotes), escaping the minimal set JSON requires: `"` and `\` get a
/// backslash, the common control characters use their short forms
/// (`\n`, `\r`, `\t`), and every other control byte below 0x20 becomes
/// a `\u00XX` sequence. Everything else — including non-ASCII — passes
/// through verbatim.
///
/// This is the one escaping routine for every JSON string the engine
/// emits: the trace recorder and the `m3d-serve` wire protocol both
/// write through it, and [`unescape_json`] is its exact inverse (the
/// unit tests pin the round trip on hostile inputs).
pub fn escape_json_into(buf: &mut String, s: &str) {
    // Fast path: most values are clean static identifiers.
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        buf.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// Decodes a JSON string body (the text between the quotes) back to the
/// value [`escape_json_into`] encoded. Accepts the full JSON escape
/// repertoire (`\" \\ \/ \b \f \n \r \t \uXXXX`, including surrogate
/// pairs), so it also decodes strings other writers produced. Returns
/// `None` on a malformed escape — truncated, unknown, or a lone
/// surrogate — never panics.
pub fn unescape_json(s: &str) -> Option<String> {
    if !s.contains('\\') {
        return Some(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'b' => out.push('\u{0008}'),
            'f' => out.push('\u{000c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hi = hex4(&mut chars)?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a \uXXXX low half must follow.
                    if chars.next()? != '\\' || chars.next()? != 'u' {
                        return None;
                    }
                    let lo = hex4(&mut chars)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return None;
                    }
                    let v = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    out.push(char::from_u32(v)?);
                } else {
                    out.push(char::from_u32(hi)?);
                }
            }
            _ => return None,
        }
    }
    Some(out)
}

fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut v = 0u32;
    for _ in 0..4 {
        v = (v << 4) | chars.next()?.to_digit(16)?;
    }
    Some(v)
}

/// Writes `,"name":"value"` with the value escaped — the one way every
/// string payload field reaches an event line.
fn kv_str(buf: &mut String, name: &str, value: &str) {
    let _ = write!(buf, ",\"{name}\":\"");
    escape_json_into(buf, value);
    buf.push('"');
}

/// Serializes one stamped event as a single flat JSON object (no
/// trailing newline). Field order is fixed: stamps, kind, payload.
/// Every string value is escaped via [`escape_json_into`]; the engine's
/// own values are static identifiers today, but nothing here trusts
/// that — a bench name or outcome key carrying `"`, `\` or a control
/// character serializes to a valid line instead of corrupting the
/// trace.
pub fn write_event_json(buf: &mut String, ev: &Event) {
    buf.push_str("{\"seq\":");
    let _ = write!(
        buf,
        "{},\"thread\":{},\"t_s\":{:.6}",
        ev.seq, ev.thread, ev.t_s
    );
    kv_str(buf, "kind", ev.kind.name());
    match ev.kind {
        EventKind::StageStarted {
            bench,
            style,
            stage,
            consumes,
        } => {
            kv_str(buf, "bench", bench.name());
            kv_str(buf, "style", style.label());
            kv_str(buf, "stage", stage.key());
            buf.push_str(",\"consumes\":[");
            for (i, c) in consumes.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                buf.push('"');
                escape_json_into(buf, c);
                buf.push('"');
            }
            buf.push(']');
        }
        EventKind::StageFinished {
            bench,
            style,
            stage,
            outcome,
            wall_s,
            busy_s,
        } => {
            kv_str(buf, "bench", bench.name());
            kv_str(buf, "style", style.label());
            kv_str(buf, "stage", stage.key());
            kv_str(buf, "outcome", outcome.key());
            let _ = write!(buf, ",\"wall_s\":{wall_s:.6},\"busy_s\":{busy_s:.6}");
        }
        EventKind::CacheHit { kind }
        | EventKind::CacheMiss { kind }
        | EventKind::CacheCoalesced { kind } => {
            kv_str(buf, "cache", kind.key());
        }
        EventKind::CacheEvicted { kind, count } => {
            kv_str(buf, "cache", kind.key());
            let _ = write!(buf, ",\"count\":{count}");
        }
        EventKind::DiskHit { kind } | EventKind::DiskMiss { kind } => {
            kv_str(buf, "cache", kind.key());
        }
        EventKind::DiskEvicted { kind, count, bytes } => {
            kv_str(buf, "cache", kind.key());
            let _ = write!(buf, ",\"count\":{count},\"bytes\":{bytes}");
        }
        EventKind::DiskQuarantined { what } => {
            kv_str(buf, "what", what);
        }
        EventKind::StoreDegraded { reason } => {
            kv_str(buf, "reason", reason);
        }
        EventKind::CancelRequested { reason } => {
            kv_str(buf, "reason", reason);
        }
        EventKind::PointCancelled {
            bench,
            style,
            outcome,
        } => {
            kv_str(buf, "bench", bench.name());
            kv_str(buf, "style", style.label());
            kv_str(buf, "outcome", outcome);
        }
        EventKind::AdmissionRejected { client, reason } => {
            let _ = write!(buf, ",\"client\":{client}");
            kv_str(buf, "reason", reason);
        }
        EventKind::QuotaExhausted { client } => {
            let _ = write!(buf, ",\"client\":{client}");
        }
    }
    buf.push('}');
}

/// Why a JSONL trace failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Line is not one flat JSON object of the recorder's shape.
    Malformed { line: usize, reason: String },
    /// `seq` values must be strictly increasing line over line.
    SequenceNotIncreasing { line: usize, prev: u64, seq: u64 },
    /// `kind` is not one of the engine's event names.
    UnknownKind { line: usize, kind: String },
    /// A `stage_finished` with no matching open `stage_started`.
    UnbalancedFinish { line: usize, span: String },
    /// End of trace with stage spans still open.
    UnclosedSpans { spans: Vec<String> },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed { line, reason } => {
                write!(f, "line {line}: malformed event: {reason}")
            }
            TraceError::SequenceNotIncreasing { line, prev, seq } => {
                write!(f, "line {line}: seq {seq} not above previous {prev}")
            }
            TraceError::UnknownKind { line, kind } => {
                write!(f, "line {line}: unknown event kind {kind:?}")
            }
            TraceError::UnbalancedFinish { line, span } => {
                write!(f, "line {line}: stage_finished without start: {span}")
            }
            TraceError::UnclosedSpans { spans } => {
                write!(f, "trace ended with open spans: {}", spans.join(", "))
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The closed spans of one stage in a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTotals {
    /// `stage_finished` events that closed a span of this stage.
    pub spans: usize,
    /// The sum of those events' `wall_s`, as printed in the trace.
    pub wall_s: f64,
}

/// One cache kind's traffic in a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheTotals {
    /// `cache_hit` events of the kind.
    pub hits: u64,
    /// `cache_miss` events of the kind.
    pub misses: u64,
}

/// What a validated trace contained.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Total event lines.
    pub events: usize,
    /// Completed stage spans (started and finished).
    pub stage_spans: usize,
    /// Completed spans and their wall time per stage key, sorted by
    /// key; the span counts add up to `stage_spans`.
    pub stages: BTreeMap<String, StageTotals>,
    /// `cache_hit` events (every cache kind).
    pub cache_hits: u64,
    /// `cache_miss` events (every cache kind).
    pub cache_misses: u64,
    /// `cache_hit` and `cache_miss` events per cache kind, indexed in
    /// [`CacheKind::ALL`] order; they add up to `cache_hits` and
    /// `cache_misses`.
    pub caches: [CacheTotals; CacheKind::ALL.len()],
    /// `disk_hit` events (every cache kind).
    pub disk_hits: u64,
    /// `disk_miss` events (every cache kind).
    pub disk_misses: u64,
    /// `disk_quarantined` events (every cache kind).
    pub disk_quarantined: u64,
    /// `store_degraded` events (at most one per store instance).
    pub store_degraded: u64,
}

/// Every event name the engine emits, for schema validation.
const KNOWN_KINDS: [&str; 15] = [
    "stage_started",
    "stage_finished",
    "cache_hit",
    "cache_miss",
    "cache_coalesced",
    "cache_evicted",
    "disk_hit",
    "disk_miss",
    "disk_evicted",
    "disk_quarantined",
    "store_degraded",
    "cancel_requested",
    "point_cancelled",
    "admission_rejected",
    "quota_exhausted",
];

/// Extracts the raw text of `"field":<value>` from a recorder-shaped
/// line: quoted values lose their quotes but keep their escapes
/// (decode with [`unescape_json`]), numbers/arrays come verbatim. The
/// quoted scan honors backslash escapes, so a value containing `\"`
/// extracts to the real closing quote instead of truncating at the
/// first escaped one.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(stripped) = rest.strip_prefix('"') {
        scan_string_body(stripped)
    } else {
        let mut depth = 0usize;
        let mut end = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '[' => depth += 1,
                ']' if depth > 0 => depth -= 1,
                ',' | '}' | ']' if depth == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        Some(rest[..end].trim())
    }
}

/// Scans a JSON string body (text after the opening quote) to its
/// unescaped closing quote and returns the still-escaped body slice.
/// `None` when the line ends before the string closes.
fn scan_string_body(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some(&s[..i]),
            // Skip the escaped character; a backslash at end-of-input
            // runs off the slice and falls through to None.
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    None
}

/// Wire-protocol view of the trace codec's field reader: the raw text of `"name":<value>`
/// in a flat single-line JSON object. Quoted values lose their quotes
/// but keep their escapes; numbers/arrays come verbatim. `m3d-serve`
/// frames parse through this so the trace codec and the wire protocol
/// cannot drift apart.
pub fn json_raw_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    field(line, name)
}

/// Extracts and unescapes the quoted string field `"name":"…"` from a
/// flat single-line JSON object. `None` when the field is missing, not
/// a string, unterminated, or carries an invalid escape.
pub fn json_str_field(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)? + pat.len();
    let body = scan_string_body(line[at..].strip_prefix('"')?)?;
    unescape_json(body)
}

fn u64_field(line: &str, name: &str, lineno: usize) -> Result<u64, TraceError> {
    let raw = field(line, name).ok_or_else(|| TraceError::Malformed {
        line: lineno,
        reason: format!("missing field {name:?}"),
    })?;
    raw.parse().map_err(|_| TraceError::Malformed {
        line: lineno,
        reason: format!("field {name:?} not an integer: {raw:?}"),
    })
}

fn str_field<'a>(line: &'a str, name: &str, lineno: usize) -> Result<&'a str, TraceError> {
    field(line, name).ok_or_else(|| TraceError::Malformed {
        line: lineno,
        reason: format!("missing field {name:?}"),
    })
}

/// A numeric field that must be finite and non-negative (a time). A
/// quoted value is a string, not a number, even when its text parses.
fn seconds_field(line: &str, name: &str, lineno: usize) -> Result<f64, TraceError> {
    let raw = str_field(line, name, lineno)?;
    let quoted = line.contains(&format!("\"{name}\":\""));
    match raw.parse::<f64>() {
        Ok(v) if !quoted && v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(TraceError::Malformed {
            line: lineno,
            reason: format!("field {name:?} not a finite non-negative number: {raw:?}"),
        }),
    }
}

/// [`str_field`] plus unescaping: the decoded value of a string field,
/// rejecting invalid escape sequences as [`TraceError::Malformed`].
fn string_field(line: &str, name: &str, lineno: usize) -> Result<String, TraceError> {
    let raw = str_field(line, name, lineno)?;
    unescape_json(raw).ok_or_else(|| TraceError::Malformed {
        line: lineno,
        reason: format!("field {name:?} has an invalid JSON escape: {raw:?}"),
    })
}

/// The `"cache"` field, which must name a [`CacheKind`].
fn cache_field(line: &str, lineno: usize) -> Result<CacheKind, TraceError> {
    let name = string_field(line, "cache", lineno)?;
    CacheKind::from_key(&name).ok_or_else(|| TraceError::Malformed {
        line: lineno,
        reason: format!("unknown cache {name:?}"),
    })
}

/// Validates a JSONL trace against the recorder's schema: every line
/// parses, `seq` strictly increases, every `kind` is known, required
/// per-kind fields are present (a `cache` field names a [`CacheKind`],
/// an `outcome` a [`StageOutcome`]; `t_s`, `wall_s` and `busy_s` are
/// finite and non-negative), and stage spans balance — each
/// `stage_finished` closes a matching open `stage_started` (keyed by
/// bench/style/stage) and nothing stays open at the end. The summary
/// aggregates the closed spans per stage.
///
/// # Errors
///
/// The first violation, as a [`TraceError`].
pub fn validate_jsonl(trace: &str) -> Result<TraceSummary, TraceError> {
    let mut summary = TraceSummary::default();
    let mut prev_seq: Option<u64> = None;
    // Open span keys -> count: concurrent flows of one (bench, style)
    // pair can hold the same stage open at once, so this is a multiset.
    let mut open: HashMap<String, u64> = HashMap::new();
    for (i, line) in trace.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(TraceError::Malformed {
                line: lineno,
                reason: "not a JSON object".to_string(),
            });
        }
        summary.events += 1;
        let seq = u64_field(line, "seq", lineno)?;
        if let Some(prev) = prev_seq {
            if seq <= prev {
                return Err(TraceError::SequenceNotIncreasing {
                    line: lineno,
                    prev,
                    seq,
                });
            }
        }
        prev_seq = Some(seq);
        u64_field(line, "thread", lineno)?;
        seconds_field(line, "t_s", lineno)?;
        let kind = string_field(line, "kind", lineno)?;
        if !KNOWN_KINDS.contains(&kind.as_str()) {
            return Err(TraceError::UnknownKind { line: lineno, kind });
        }
        match kind.as_str() {
            "stage_started" | "stage_finished" => {
                let stage = string_field(line, "stage", lineno)?;
                let span = format!(
                    "{}/{}/{stage}",
                    string_field(line, "bench", lineno)?,
                    string_field(line, "style", lineno)?,
                );
                if kind == "stage_started" {
                    str_field(line, "consumes", lineno)?;
                    *open.entry(span).or_insert(0) += 1;
                } else {
                    let outcome = string_field(line, "outcome", lineno)?;
                    if !StageOutcome::ALL.iter().any(|o| o.key() == outcome) {
                        return Err(TraceError::Malformed {
                            line: lineno,
                            reason: format!("unknown outcome {outcome:?}"),
                        });
                    }
                    let wall_s = seconds_field(line, "wall_s", lineno)?;
                    seconds_field(line, "busy_s", lineno)?;
                    match open.get_mut(&span) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            if *n == 0 {
                                open.remove(&span);
                            }
                            summary.stage_spans += 1;
                            let totals = summary.stages.entry(stage).or_default();
                            totals.spans += 1;
                            totals.wall_s += wall_s;
                        }
                        _ => return Err(TraceError::UnbalancedFinish { line: lineno, span }),
                    }
                }
            }
            "cache_hit" | "cache_miss" | "cache_coalesced" => {
                let totals = &mut summary.caches[cache_field(line, lineno)? as usize];
                match kind.as_str() {
                    "cache_hit" => {
                        summary.cache_hits += 1;
                        totals.hits += 1;
                    }
                    "cache_miss" => {
                        summary.cache_misses += 1;
                        totals.misses += 1;
                    }
                    _ => {}
                }
            }
            "cache_evicted" => {
                cache_field(line, lineno)?;
                u64_field(line, "count", lineno)?;
            }
            "disk_hit" | "disk_miss" => {
                cache_field(line, lineno)?;
                match kind.as_str() {
                    "disk_hit" => summary.disk_hits += 1,
                    _ => summary.disk_misses += 1,
                }
            }
            "disk_evicted" => {
                cache_field(line, lineno)?;
                u64_field(line, "count", lineno)?;
                u64_field(line, "bytes", lineno)?;
            }
            "disk_quarantined" => {
                string_field(line, "what", lineno)?;
                summary.disk_quarantined += 1;
            }
            "store_degraded" => {
                string_field(line, "reason", lineno)?;
                summary.store_degraded += 1;
            }
            "cancel_requested" => {
                string_field(line, "reason", lineno)?;
            }
            "point_cancelled" => {
                string_field(line, "bench", lineno)?;
                string_field(line, "style", lineno)?;
                string_field(line, "outcome", lineno)?;
            }
            "admission_rejected" => {
                u64_field(line, "client", lineno)?;
                string_field(line, "reason", lineno)?;
            }
            "quota_exhausted" => {
                u64_field(line, "client", lineno)?;
            }
            _ => unreachable!("kind checked against KNOWN_KINDS"),
        }
    }
    if !open.is_empty() {
        let mut spans: Vec<String> = open.into_keys().collect();
        spans.sort();
        return Err(TraceError::UnclosedSpans { spans });
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(stage: FlowStage) -> EventKind {
        EventKind::StageStarted {
            bench: Benchmark::Des,
            style: DesignStyle::TwoD,
            stage,
            consumes: &["netlist", "wlm"],
        }
    }

    fn finished(stage: FlowStage, outcome: StageOutcome) -> EventKind {
        EventKind::StageFinished {
            bench: Benchmark::Des,
            style: DesignStyle::TwoD,
            stage,
            outcome,
            wall_s: 0.25,
            busy_s: 0.125,
        }
    }

    #[test]
    fn vec_recorder_stamps_monotonic_sequence() {
        let rec = VecRecorder::new();
        rec.record(started(FlowStage::Synthesis));
        rec.record(EventKind::CacheHit {
            kind: CacheKind::Library,
        });
        rec.record(finished(FlowStage::Synthesis, StageOutcome::Ok));
        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert!(ev.t_s >= 0.0);
        }
        assert_eq!(evs[0].kind.name(), "stage_started");
        assert_eq!(evs[2].kind.name(), "stage_finished");
    }

    #[test]
    fn null_recorder_is_disabled() {
        assert!(!NullRecorder.enabled());
        assert!(!null().enabled());
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let rec = VecRecorder::new();
        rec.record(started(FlowStage::Synthesis));
        rec.record(EventKind::CacheMiss {
            kind: CacheKind::Flow,
        });
        rec.record(finished(FlowStage::Synthesis, StageOutcome::Failed));
        rec.record(started(FlowStage::Synthesis));
        rec.record(finished(FlowStage::Synthesis, StageOutcome::Ok));
        rec.record(EventKind::CacheEvicted {
            kind: CacheKind::Library,
            count: 2,
        });
        rec.record(EventKind::DiskHit {
            kind: CacheKind::Library,
        });
        rec.record(EventKind::DiskMiss {
            kind: CacheKind::Flow,
        });
        rec.record(EventKind::CacheHit {
            kind: CacheKind::Spice,
        });
        rec.record(EventKind::DiskHit {
            kind: CacheKind::Spice,
        });
        rec.record(EventKind::CacheHit {
            kind: CacheKind::Gmi,
        });
        rec.record(EventKind::CacheMiss {
            kind: CacheKind::Wlm,
        });
        rec.record(EventKind::DiskHit {
            kind: CacheKind::Wlm,
        });
        rec.record(EventKind::CacheMiss {
            kind: CacheKind::Netlist,
        });
        rec.record(EventKind::CacheHit {
            kind: CacheKind::Netlist,
        });
        rec.record(EventKind::DiskEvicted {
            kind: CacheKind::Flow,
            count: 1,
            bytes: 8192,
        });
        rec.record(EventKind::DiskQuarantined { what: "library" });
        rec.record(EventKind::StoreDegraded {
            reason: "read_only",
        });
        rec.record(EventKind::CancelRequested { reason: "explicit" });
        rec.record(EventKind::PointCancelled {
            bench: Benchmark::Des,
            style: DesignStyle::TwoD,
            outcome: "cancelled",
        });
        rec.record(EventKind::AdmissionRejected {
            client: 7,
            reason: "queue_full",
        });
        rec.record(EventKind::QuotaExhausted { client: 7 });
        let mut trace = String::new();
        for ev in rec.events() {
            write_event_json(&mut trace, &ev);
            trace.push('\n');
        }
        let summary = validate_jsonl(&trace).expect("trace validates");
        assert_eq!(summary.events, 22);
        assert_eq!(summary.stage_spans, 2);
        assert_eq!(summary.cache_hits, 3);
        assert_eq!(summary.cache_misses, 3);
        let per_kind = |hits, misses| CacheTotals { hits, misses };
        assert_eq!(
            summary.caches,
            [
                per_kind(0, 0),
                per_kind(0, 1),
                per_kind(1, 0),
                per_kind(1, 0),
                per_kind(0, 1),
                per_kind(1, 1),
            ],
            "per-kind totals in CacheKind::ALL order"
        );
        assert_eq!(summary.disk_hits, 3);
        assert_eq!(summary.disk_misses, 1);
        assert_eq!(summary.disk_quarantined, 1);
        assert_eq!(summary.store_degraded, 1);
        let synth = StageTotals {
            spans: 2,
            wall_s: 0.5,
        };
        assert_eq!(
            summary.stages.into_iter().collect::<Vec<_>>(),
            [("synth".to_string(), synth)],
            "both synth spans, failed one included, aggregate under one key"
        );
    }

    #[test]
    fn validator_rejects_schema_violations() {
        // Non-increasing seq.
        let trace = "\
{\"seq\":0,\"thread\":0,\"t_s\":0.000001,\"kind\":\"cache_hit\",\"cache\":\"library\"}
{\"seq\":0,\"thread\":0,\"t_s\":0.000002,\"kind\":\"cache_hit\",\"cache\":\"library\"}
";
        assert!(matches!(
            validate_jsonl(trace),
            Err(TraceError::SequenceNotIncreasing {
                prev: 0,
                seq: 0,
                ..
            })
        ));
        // A cache no CacheKind names.
        let trace =
            "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"cache_hit\",\"cache\":\"tile\"}\n";
        assert!(matches!(
            validate_jsonl(trace),
            Err(TraceError::Malformed { .. })
        ));
        // Unknown kind.
        let trace = "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"rebooted\"}\n";
        assert!(matches!(
            validate_jsonl(trace),
            Err(TraceError::UnknownKind { .. })
        ));
        // Finish without start.
        let rec = VecRecorder::new();
        rec.record(finished(FlowStage::Routing, StageOutcome::Ok));
        let mut trace = String::new();
        write_event_json(&mut trace, &rec.events()[0]);
        trace.push('\n');
        assert!(matches!(
            validate_jsonl(&trace),
            Err(TraceError::UnbalancedFinish { .. })
        ));
        // Start without finish.
        let rec = VecRecorder::new();
        rec.record(started(FlowStage::Routing));
        let mut trace = String::new();
        write_event_json(&mut trace, &rec.events()[0]);
        trace.push('\n');
        assert!(matches!(
            validate_jsonl(&trace),
            Err(TraceError::UnclosedSpans { .. })
        ));
        // Not JSON at all.
        assert!(matches!(
            validate_jsonl("stage_started synth\n"),
            Err(TraceError::Malformed { .. })
        ));
        // A span whose durations are not finite non-negative numbers,
        // or whose outcome no StageOutcome names.
        let rec = VecRecorder::new();
        rec.record(started(FlowStage::Routing));
        rec.record(finished(FlowStage::Routing, StageOutcome::Ok));
        let mut trace = String::new();
        for ev in rec.events() {
            write_event_json(&mut trace, &ev);
            trace.push('\n');
        }
        validate_jsonl(&trace).expect("the unedited span validates");
        for (from, to) in [
            ("\"wall_s\":0.250000", "\"wall_s\":-1"),
            ("\"wall_s\":0.250000", "\"wall_s\":NaN"),
            ("\"wall_s\":0.250000", "\"wall_s\":\"x\""),
            ("\"wall_s\":0.250000", "\"wall_s\":\"0.25\""),
            ("\"busy_s\":0.125000", "\"busy_s\":inf"),
            ("\"outcome\":\"ok\"", "\"outcome\":\"fine\""),
        ] {
            assert!(trace.contains(from), "fixture carries {from}");
            assert!(
                matches!(
                    validate_jsonl(&trace.replace(from, to)),
                    Err(TraceError::Malformed { line: 2, .. })
                ),
                "accepted {to}"
            );
        }
    }

    /// The corpus every escaping test drives: quotes, backslashes, the
    /// named control shorts, raw control bytes, non-ASCII, and the
    /// pathological combinations (trailing backslash-ish shapes,
    /// escape-like literals).
    const HOSTILE: &[&str] = &[
        "plain",
        "",
        "with \"quotes\" inside",
        "back\\slash",
        "trailing backslash \\",
        "\\\"",
        "line\nbreak\r\ttab",
        "\u{0000}\u{0001}\u{001f}",
        "unicode: caf\u{e9} \u{65e5}\u{672c} \u{1f600}",
        "looks like an escape: \\n \\u0041",
        "\"}{\"seq\":999,\"kind\":\"fake\"",
    ];

    #[test]
    fn escape_unescape_round_trips_hostile_strings() {
        for &s in HOSTILE {
            let mut buf = String::new();
            escape_json_into(&mut buf, s);
            // The encoded body is safe to embed: no raw control
            // byte, and every quote sits behind a backslash.
            assert!(buf.bytes().all(|b| b >= 0x20), "raw control in {buf:?}");
            assert_eq!(
                scan_string_body(&format!("{buf}\"")),
                Some(buf.as_str()),
                "a quote terminates the string early for {s:?}: {buf:?}"
            );
            assert_eq!(
                unescape_json(&buf).as_deref(),
                Some(s),
                "round trip broke for {s:?} via {buf:?}"
            );
        }
    }

    #[test]
    fn unescape_accepts_full_json_repertoire_and_rejects_garbage() {
        // Escapes our writer never emits but JSON allows.
        assert_eq!(unescape_json("a\\/b").as_deref(), Some("a/b"));
        assert_eq!(
            unescape_json("\\b\\f\\u0041").as_deref(),
            Some("\u{0008}\u{000c}A")
        );
        assert_eq!(
            unescape_json("\\ud83d\\ude00").as_deref(),
            Some("\u{1f600}")
        );
        // Malformed escapes decode to None, never panic.
        for bad in [
            "\\",
            "\\q",
            "\\u",
            "\\u12",
            "\\u12g4",
            "\\ud800",
            "\\ud800x",
            "\\ud800\\u0041",
            "\\udc00",
            "tail\\",
        ] {
            assert_eq!(unescape_json(bad), None, "accepted invalid escape {bad:?}");
        }
    }

    #[test]
    fn hostile_payload_strings_round_trip_through_writer_and_validator() {
        for &s in HOSTILE {
            // Payload strings are &'static str by design; leak per
            // iteration to exercise the writer with hostile values.
            let reason: &'static str = Box::leak(s.to_string().into_boxed_str());
            let rec = VecRecorder::new();
            rec.record(EventKind::StoreDegraded { reason });
            rec.record(EventKind::DiskQuarantined { what: reason });
            let mut trace = String::new();
            for ev in rec.events() {
                write_event_json(&mut trace, &ev);
                trace.push('\n');
            }
            let (line_a, rest) = trace.split_once('\n').unwrap();
            let line_b = rest.trim_end();
            // Each event is one line no matter what the payload held.
            assert_eq!(trace.lines().count(), 2, "payload {s:?} split a line");
            // The validator accepts the trace and the readers recover
            // the exact original value.
            let summary = validate_jsonl(&trace).unwrap_or_else(|e| {
                panic!("validator rejected hostile payload {s:?}: {e}");
            });
            assert_eq!(summary.events, 2);
            assert_eq!(json_str_field(line_a, "reason").as_deref(), Some(s));
            assert_eq!(json_str_field(line_b, "what").as_deref(), Some(s));
        }
    }

    #[test]
    fn validator_rejects_invalid_escapes_in_string_fields() {
        let trace = "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"store_degraded\",\"reason\":\"bad\\q\"}\n";
        assert!(matches!(
            validate_jsonl(trace),
            Err(TraceError::Malformed { .. })
        ));
        // An unterminated string (escaped closing quote) is a missing
        // field, not a bogus extraction.
        let trace = "{\"seq\":0,\"thread\":0,\"t_s\":0.0,\"kind\":\"store_degraded\",\"reason\":\"oops\\\"}\n";
        assert!(matches!(
            validate_jsonl(trace),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn json_field_accessors_honor_escapes() {
        let line = "{\"n\":7,\"name\":\"a\\\"b\\\\c\",\"arr\":[1,2]}";
        assert_eq!(json_raw_field(line, "n"), Some("7"));
        assert_eq!(json_raw_field(line, "name"), Some("a\\\"b\\\\c"));
        assert_eq!(json_str_field(line, "name").as_deref(), Some("a\"b\\c"));
        assert_eq!(json_raw_field(line, "arr"), Some("[1,2]"));
        assert_eq!(json_str_field(line, "arr"), None);
        assert_eq!(json_str_field(line, "missing"), None);
    }

    #[test]
    fn thread_ordinals_are_stable_and_distinct() {
        let here = super::thread_ordinal();
        assert_eq!(here, super::thread_ordinal(), "stable within a thread");
        let other =
            std::thread::scope(|s| s.spawn(super::thread_ordinal).join()).expect("no panic");
        assert_ne!(here, other, "distinct across threads");
    }
}
