//! The m3d-serve wire protocol: JSONL frames over a byte stream
//! (DESIGN.md §15).
//!
//! One request is one line — a flat JSON object, newline-terminated —
//! and every request gets exactly one response line. The codec reuses
//! the trace recorder's JSON conventions end to end: string values are
//! escaped with [`monolith3d::escape_json_into`] and read back with
//! [`monolith3d::json_str_field`]/[`monolith3d::json_raw_field`], the
//! same helpers `validate_jsonl` trusts, so the trace format and the
//! wire format cannot drift apart and hostile strings (quotes,
//! backslashes, control bytes) round-trip instead of corrupting a
//! frame.
//!
//! Request shape (`id` is echoed verbatim in the response):
//!
//! ```text
//! {"id":1,"op":"ping"}
//! {"id":2,"op":"run","bench":"DES","style":"3D","scale":"small","priority":"high","deadline_ms":30000}
//! {"id":3,"op":"table","name":"table4","scale":"small"}
//! {"id":4,"op":"stats"}
//! {"id":5,"op":"shutdown"}
//! ```
//!
//! Responses carry `"ok":true` plus an op-specific payload, or
//! `"ok":false` with a typed `"error"` class from [`ErrorClass`] and a
//! human-readable `"detail"`. A frame longer than [`MAX_FRAME`] bytes
//! is answered with an `oversized` error and the connection is closed.

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId, PdkRegistry};
use monolith3d::{
    escape_json_into, json_raw_field, json_str_field, CacheStats, FlowConfig, FlowResult, PlanPoint,
};

use std::fmt::Write as _;

use crate::queue::Priority;

/// Hard cap on one frame (request or response line), bytes. A reader
/// that hits the cap answers `oversized` and disconnects rather than
/// buffering without bound.
pub const MAX_FRAME: usize = 64 * 1024;

/// Typed failure classes of the wire protocol. The `key` is the
/// `"error"` field of an error response; clients dispatch on it, never
/// on `"detail"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The line is not a parseable frame (not JSON, bad `id`, missing
    /// `op`, invalid escapes).
    BadFrame,
    /// The frame parsed but names an unknown op / bench / style /
    /// node / scale / priority / table.
    BadRequest,
    /// The line exceeded [`MAX_FRAME`]; the server disconnects after
    /// this response.
    Oversized,
    /// The admission queue is at capacity.
    QueueFull,
    /// The connection hit its per-client quota of queued points.
    QuotaExhausted,
    /// The server is draining (shutdown in progress); the request was
    /// not run and may be resubmitted to a live server.
    Draining,
    /// The request was cancelled (server shutdown raced it).
    Cancelled,
    /// The request's deadline passed before it completed.
    DeadlineExceeded,
    /// The flow itself failed; `detail` carries the typed flow error.
    Failed,
}

impl ErrorClass {
    /// Stable wire name of the class.
    pub fn key(self) -> &'static str {
        match self {
            ErrorClass::BadFrame => "bad_frame",
            ErrorClass::BadRequest => "bad_request",
            ErrorClass::Oversized => "oversized",
            ErrorClass::QueueFull => "queue_full",
            ErrorClass::QuotaExhausted => "quota_exhausted",
            ErrorClass::Draining => "draining",
            ErrorClass::Cancelled => "cancelled",
            ErrorClass::DeadlineExceeded => "deadline_exceeded",
            ErrorClass::Failed => "failed",
        }
    }
}

/// A typed protocol error: the class plus a detail string for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub class: ErrorClass,
    pub detail: String,
}

impl WireError {
    fn bad_frame(detail: impl Into<String>) -> WireError {
        WireError {
            class: ErrorClass::BadFrame,
            detail: detail.into(),
        }
    }

    fn bad_request(detail: impl Into<String>) -> WireError {
        WireError {
            class: ErrorClass::BadRequest,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.class.key(), self.detail)
    }
}

impl std::error::Error for WireError {}

/// A parsed request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered immediately.
    Ping,
    /// One flow point through admission → executor → cache.
    Run {
        point: PlanPoint,
        priority: Priority,
        deadline_ms: Option<u64>,
    },
    /// Render a named experiment driver (the `paper_tables` registry).
    Table {
        name: String,
        node: Option<NodeId>,
        scale: BenchScale,
    },
    /// Cache + server counters snapshot.
    Stats,
    /// Begin a graceful drain: finish in-flight points, answer queued
    /// ones `draining`, stop admitting.
    Shutdown,
}

/// Extracts the request id of a frame, `0` when absent or unparseable
/// — error responses still need an id slot to echo.
pub fn frame_id(line: &str) -> u64 {
    json_raw_field(line, "id")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn parse_bench(name: &str) -> Result<Benchmark, WireError> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            WireError::bad_request(format!("unknown bench {name:?} (FPU/AES/LDPC/DES/M256)"))
        })
}

fn parse_style(label: &str) -> Result<DesignStyle, WireError> {
    match label.to_ascii_uppercase().as_str() {
        "2D" => Ok(DesignStyle::TwoD),
        "3D" | "TMI" => Ok(DesignStyle::Tmi),
        _ => Err(WireError::bad_request(format!(
            "unknown style {label:?} (2D/3D)"
        ))),
    }
}

fn parse_scale(line: &str) -> Result<BenchScale, WireError> {
    match json_str_field(line, "scale").as_deref() {
        None => Ok(BenchScale::Small),
        Some("small") => Ok(BenchScale::Small),
        Some("paper") => Ok(BenchScale::Paper),
        Some(other) => Err(WireError::bad_request(format!(
            "unknown scale {other:?} (small/paper)"
        ))),
    }
}

fn parse_node(line: &str) -> Result<Option<NodeId>, WireError> {
    match json_str_field(line, "node") {
        None => {
            if json_raw_field(line, "node").is_some() {
                return Err(WireError::bad_frame("field \"node\" is not a string"));
            }
            Ok(None)
        }
        Some(label) => PdkRegistry::global()
            .by_name(&label)
            .map(Some)
            .ok_or_else(|| {
                WireError::bad_request(format!(
                    "unknown node {label:?} (known: {})",
                    PdkRegistry::global().names().join(", ")
                ))
            }),
    }
}

fn parse_priority(line: &str) -> Result<Priority, WireError> {
    match json_str_field(line, "priority").as_deref() {
        None => Ok(Priority::Normal),
        Some("high") => Ok(Priority::High),
        Some("normal") => Ok(Priority::Normal),
        Some("low") => Ok(Priority::Low),
        Some(other) => Err(WireError::bad_request(format!(
            "unknown priority {other:?} (high/normal/low)"
        ))),
    }
}

fn required_str(line: &str, name: &str) -> Result<String, WireError> {
    json_str_field(line, name).ok_or_else(|| {
        if json_raw_field(line, name).is_some() {
            WireError::bad_frame(format!("field {name:?} is not a valid string"))
        } else {
            WireError::bad_frame(format!("missing field {name:?}"))
        }
    })
}

/// Parses one request line into a [`Request`].
///
/// # Errors
///
/// [`WireError`] with class `bad_frame` for lines that do not parse as
/// a frame and `bad_request` for frames naming unknown operations or
/// operands. Never panics, whatever the bytes.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let line = line.trim();
    if !(line.starts_with('{') && line.ends_with('}')) {
        return Err(WireError::bad_frame("not a JSON object"));
    }
    let id_raw =
        json_raw_field(line, "id").ok_or_else(|| WireError::bad_frame("missing field \"id\""))?;
    if id_raw.parse::<u64>().is_err() {
        return Err(WireError::bad_frame(format!(
            "field \"id\" not a u64: {id_raw:?}"
        )));
    }
    let op = required_str(line, "op")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "run" => {
            let bench = parse_bench(&required_str(line, "bench")?)?;
            let style = parse_style(&required_str(line, "style")?)?;
            let scale = parse_scale(line)?;
            let node = parse_node(line)?.unwrap_or(NodeId::N45);
            let deadline_ms = match json_raw_field(line, "deadline_ms") {
                None => None,
                Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
                    WireError::bad_frame(format!("field \"deadline_ms\" not a u64: {raw:?}"))
                })?),
            };
            Ok(Request::Run {
                point: PlanPoint {
                    bench,
                    style,
                    config: FlowConfig::new(node).scale(scale),
                },
                priority: parse_priority(line)?,
                deadline_ms,
            })
        }
        "table" => Ok(Request::Table {
            name: required_str(line, "name")?,
            node: parse_node(line)?,
            scale: parse_scale(line)?,
        }),
        other => Err(WireError::bad_request(format!("unknown op {other:?}"))),
    }
}

// ---------------------------------------------------------------------
// Response writers (no trailing newline; the transport appends it)
// ---------------------------------------------------------------------

fn kv_str(buf: &mut String, name: &str, value: &str) {
    let _ = write!(buf, ",\"{name}\":\"");
    escape_json_into(buf, value);
    buf.push('"');
}

fn open_ok(buf: &mut String, id: u64, op: &str) {
    let _ = write!(buf, "{{\"id\":{id},\"ok\":true,\"op\":\"{op}\"");
}

/// `{"id":N,"ok":false,"error":"<class>","detail":"…"}`
pub fn write_error(buf: &mut String, id: u64, class: ErrorClass, detail: &str) {
    let _ = write!(
        buf,
        "{{\"id\":{id},\"ok\":false,\"error\":\"{}\"",
        class.key()
    );
    kv_str(buf, "detail", detail);
    buf.push('}');
}

/// The `ping` response.
pub fn write_pong(buf: &mut String, id: u64) {
    open_ok(buf, id, "ping");
    buf.push('}');
}

/// The `run` success response: the point's identity plus the sign-off
/// numbers a client needs to reproduce the paper's comparisons. Floats
/// use Rust's shortest round-trip form, so two bit-identical
/// [`FlowResult`]s serialize to byte-identical payloads.
pub fn write_run_done(buf: &mut String, id: u64, r: &FlowResult) {
    open_ok(buf, id, "run");
    kv_str(buf, "bench", r.bench.name());
    kv_str(buf, "style", r.style.label());
    kv_str(buf, "node", r.node_id.label());
    let _ = write!(
        buf,
        ",\"clock_ps\":{},\"cell_count\":{},\"buffer_count\":{},\"footprint_um2\":{},\"wirelength_um\":{},\"wns_ps\":{},\"total_power_mw\":{}}}",
        r.clock_ps, r.cell_count, r.buffer_count, r.footprint_um2, r.wirelength_um, r.wns_ps,
        r.total_power_mw()
    );
}

/// The `table` success response; `text` is the driver's rendered table,
/// escaped as one JSON string.
pub fn write_table(buf: &mut String, id: u64, name: &str, text: &str) {
    open_ok(buf, id, "table");
    kv_str(buf, "name", name);
    kv_str(buf, "text", text);
    buf.push('}');
}

/// The `stats` response: every [`CacheStats`] counter, in declaration
/// order, plus server-side request accounting.
pub fn write_stats(
    buf: &mut String,
    id: u64,
    s: &CacheStats,
    requests: u64,
    protocol_errors: u64,
    draining: bool,
) {
    // Full destructuring, as `CacheStats`'s `Display` does: a counter
    // added to the struct without a field here refuses to compile.
    let CacheStats {
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
        disk_hits,
        disk_misses,
        disk_stores,
        disk_evictions,
        disk_quarantined,
        store_degraded,
    } = *s;
    open_ok(buf, id, "stats");
    let _ = write!(
        buf,
        ",\"library_builds\":{library_builds},\"library_hits\":{library_hits},\
         \"library_evictions\":{library_evictions},\"flow_stores\":{flow_stores},\
         \"flow_hits\":{flow_hits},\"flow_misses\":{flow_misses},\
         \"flow_evictions\":{flow_evictions},\"spice_builds\":{spice_builds},\
         \"spice_hits\":{spice_hits},\"spice_evictions\":{spice_evictions},\
         \"disk_hits\":{disk_hits},\"disk_misses\":{disk_misses},\
         \"disk_stores\":{disk_stores},\"disk_evictions\":{disk_evictions},\
         \"disk_quarantined\":{disk_quarantined},\"store_degraded\":{store_degraded},\
         \"requests\":{requests},\"protocol_errors\":{protocol_errors},\
         \"draining\":{draining}}}"
    );
}

/// The `shutdown` response: drain finished, `pending` queued requests
/// answered `draining` without running.
pub fn write_shutdown(buf: &mut String, id: u64, pending: u64) {
    open_ok(buf, id, "shutdown");
    let _ = write!(buf, ",\"pending\":{pending}}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_request_shapes() {
        assert_eq!(
            parse_request("{\"id\":1,\"op\":\"ping\"}"),
            Ok(Request::Ping)
        );
        assert_eq!(
            parse_request("{\"id\":4,\"op\":\"stats\"}"),
            Ok(Request::Stats)
        );
        assert_eq!(
            parse_request("{\"id\":5,\"op\":\"shutdown\"}"),
            Ok(Request::Shutdown)
        );
        let run = parse_request(
            "{\"id\":2,\"op\":\"run\",\"bench\":\"DES\",\"style\":\"3D\",\"scale\":\"small\",\"priority\":\"high\",\"deadline_ms\":30000}",
        )
        .expect("parses");
        match run {
            Request::Run {
                point,
                priority,
                deadline_ms,
            } => {
                assert_eq!(point.bench, Benchmark::Des);
                assert_eq!(point.style, DesignStyle::Tmi);
                assert_eq!(point.config.bench_scale, BenchScale::Small);
                assert_eq!(priority, Priority::High);
                assert_eq!(deadline_ms, Some(30_000));
            }
            other => panic!("wrong request: {other:?}"),
        }
        let table =
            parse_request("{\"id\":3,\"op\":\"table\",\"name\":\"table4\"}").expect("parses");
        assert_eq!(
            table,
            Request::Table {
                name: "table4".to_string(),
                node: None,
                scale: BenchScale::Small,
            }
        );
    }

    #[test]
    fn rejects_garbage_with_typed_classes() {
        let cases: [(&str, ErrorClass); 8] = [
            ("", ErrorClass::BadFrame),
            ("not json", ErrorClass::BadFrame),
            ("{\"op\":\"ping\"}", ErrorClass::BadFrame),
            ("{\"id\":-3,\"op\":\"ping\"}", ErrorClass::BadFrame),
            ("{\"id\":1}", ErrorClass::BadFrame),
            ("{\"id\":1,\"op\":\"reboot\"}", ErrorClass::BadRequest),
            (
                "{\"id\":1,\"op\":\"run\",\"bench\":\"Z80\",\"style\":\"2D\"}",
                ErrorClass::BadRequest,
            ),
            (
                "{\"id\":1,\"op\":\"run\",\"bench\":\"DES\",\"style\":\"4D\"}",
                ErrorClass::BadRequest,
            ),
        ];
        for (line, class) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.class, class, "line {line:?} -> {err}");
        }
    }

    #[test]
    fn hostile_strings_in_frames_parse_or_reject_cleanly() {
        // An escaped quote inside a value must not derail field
        // extraction (the shared codec handles it).
        let line = "{\"id\":9,\"op\":\"table\",\"name\":\"ta\\\"ble4\"}";
        match parse_request(line).expect("parses") {
            Request::Table { name, .. } => assert_eq!(name, "ta\"ble4"),
            other => panic!("wrong request: {other:?}"),
        }
        // An invalid escape is a bad frame, not a panic.
        let err = parse_request("{\"id\":9,\"op\":\"ta\\qble\"}").expect_err("invalid escape");
        assert_eq!(err.class, ErrorClass::BadFrame);
    }

    #[test]
    fn error_responses_escape_their_detail() {
        let mut buf = String::new();
        write_error(&mut buf, 7, ErrorClass::BadFrame, "a \"quoted\"\nreason");
        assert_eq!(frame_id(&buf), 7);
        assert_eq!(buf.lines().count(), 1, "one frame stays one line");
        assert_eq!(
            json_str_field(&buf, "detail").as_deref(),
            Some("a \"quoted\"\nreason")
        );
        assert_eq!(json_raw_field(&buf, "ok"), Some("false"));
        assert_eq!(json_str_field(&buf, "error").as_deref(), Some("bad_frame"));
    }
}
