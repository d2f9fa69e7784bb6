//! Integration tests for the m3d-serve experiment server: protocol
//! robustness under hostile frames, the frame cap and pipelined
//! frames, cross-connection coalescing, warm runs answered without the
//! queue, served tables identical to the batch binary, per-client
//! quotas and typed admission events, instant deadline rejection,
//! graceful drain with exactly one answer per request, and the TCP
//! listener answering like the unix socket.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use m3d_bench::{paper_drivers, SMOKE_SUBSET};
use m3d_netlist::{BenchScale, Benchmark};
use m3d_serve::client::{response_error, response_ok, ClientStream};
use m3d_serve::{
    AdmissionError, AdmissionQueue, Listen, Priority, Server, ServerConfig, MAX_FRAME,
};
use m3d_tech::{DesignStyle, NodeId};
use monolith3d::{
    json_raw_field, json_str_field, ArtifactCache, CancelToken, EventKind, FlowConfig,
    ParallelExecutor, PlanPoint, PointOutcome, Recorder, VecRecorder,
};
use proptest::prelude::*;

fn scratch_dir(label: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("m3d-serve-{label}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A server on its own unix socket with its own cache (never the
/// global one — these tests count builds).
fn start(
    label: &str,
    cfg_tune: impl FnOnce(&mut ServerConfig),
) -> (Server, PathBuf, Arc<ArtifactCache>) {
    let cache = Arc::new(ArtifactCache::bounded(16, 64));
    let (server, sock) = start_on(label, Arc::clone(&cache), cfg_tune);
    (server, sock, cache)
}

/// [`start`] on a given cache, e.g. one [`prewarm`]ed in-process.
fn start_on(
    label: &str,
    cache: Arc<ArtifactCache>,
    cfg_tune: impl FnOnce(&mut ServerConfig),
) -> (Server, PathBuf) {
    let sock = scratch_dir(label).join("m3d.sock");
    let mut cfg = ServerConfig {
        listen: vec![Listen::Unix(sock.clone())],
        dispatchers: 2,
        ..ServerConfig::default()
    };
    cfg_tune(&mut cfg);
    let server = Server::start_on(cfg, cache).expect("server starts");
    (server, sock)
}

/// The point [`RUN_DES_3D`] asks for.
fn des_3d() -> PlanPoint {
    PlanPoint {
        bench: Benchmark::Des,
        style: DesignStyle::Tmi,
        config: FlowConfig::new(NodeId::N45).scale(BenchScale::Small),
    }
}

/// Runs `point` into `cache` in-process, the way a dispatcher runs it,
/// so a server on `cache` finds its result in memory.
fn prewarm(cache: &Arc<ArtifactCache>, point: &PlanPoint) {
    let outcome = ParallelExecutor::new(1)
        .with_cache(Arc::clone(cache))
        .run_point(point, &CancelToken::new());
    assert!(
        matches!(outcome, PointOutcome::Done(_)),
        "prewarm: {outcome:?}"
    );
}

fn connect(sock: &std::path::Path) -> ClientStream {
    // The accept loop may not have bound by the time the test connects.
    let t0 = Instant::now();
    loop {
        match ClientStream::connect_unix(sock) {
            Ok(c) => return c,
            Err(e) if t0.elapsed() < Duration::from_secs(5) => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("cannot connect to {}: {e}", sock.display()),
        }
    }
}

const RUN_DES_3D: &str =
    "{\"id\":1,\"op\":\"run\",\"bench\":\"DES\",\"style\":\"3D\",\"scale\":\"small\"}";

#[test]
fn ping_and_stats_round_trip() {
    let (server, sock, _cache) = start("ping", |_| {});
    let mut c = connect(&sock);
    let pong = c.request("{\"id\":7,\"op\":\"ping\"}").expect("pong");
    assert!(response_ok(&pong), "{pong}");
    assert_eq!(json_raw_field(&pong, "id"), Some("7"));
    let stats = c.request("{\"id\":8,\"op\":\"stats\"}").expect("stats");
    assert!(response_ok(&stats), "{stats}");
    assert_eq!(json_raw_field(&stats, "draining"), Some("false"));
    assert_eq!(json_raw_field(&stats, "requests"), Some("2"));
    // Every `CacheStats` counter is on the wire, as a number.
    for field in [
        "library_builds",
        "library_hits",
        "library_evictions",
        "flow_stores",
        "flow_hits",
        "flow_misses",
        "flow_evictions",
        "spice_builds",
        "spice_hits",
        "spice_evictions",
        "gmi_builds",
        "gmi_hits",
        "gmi_evictions",
        "wlm_builds",
        "wlm_hits",
        "wlm_evictions",
        "netlist_builds",
        "netlist_hits",
        "netlist_evictions",
        "disk_hits",
        "disk_misses",
        "disk_stores",
        "disk_evictions",
        "disk_quarantined",
        "store_degraded",
        "protocol_errors",
    ] {
        let v = json_raw_field(&stats, field).unwrap_or_else(|| panic!("{field}: {stats}"));
        assert!(v.parse::<u64>().is_ok(), "{field} = {v}");
    }
    drop(c);
    server.shutdown();
    server.join();
}

#[test]
fn garbage_frames_get_typed_errors_and_the_connection_survives() {
    let (server, sock, _cache) = start("garbage", |_| {});
    let mut c = connect(&sock);
    let cases: [(&str, &str); 5] = [
        ("not json at all", "bad_frame"),
        ("{\"id\":12}", "bad_frame"),
        ("{\"op\":\"ping\"}", "bad_frame"),
        ("{\"id\":1,\"op\":\"reboot\"}", "bad_request"),
        (
            "{\"id\":1,\"op\":\"run\",\"bench\":\"Z80\",\"style\":\"2D\"}",
            "bad_request",
        ),
    ];
    for (line, class) in cases {
        let resp = c.request(line).expect("typed error, not a hangup");
        assert!(!response_ok(&resp), "{line:?} -> {resp}");
        assert_eq!(
            response_error(&resp).as_deref(),
            Some(class),
            "{line:?} -> {resp}"
        );
    }
    // The same connection still serves valid requests afterwards.
    let pong = c.request("{\"id\":99,\"op\":\"ping\"}").expect("pong");
    assert!(response_ok(&pong), "{pong}");
    drop(c);
    server.shutdown();
    server.join();
}

#[test]
fn oversized_frames_answer_typed_error_then_disconnect() {
    let (server, sock, _cache) = start("oversized", |_| {});
    let mut c = connect(&sock);
    let huge = vec![b'a'; MAX_FRAME + 64];
    c.send_raw(&huge).expect("send");
    let resp = c.recv_line().expect("read").expect("one error frame");
    assert_eq!(
        response_error(&resp).as_deref(),
        Some("oversized"),
        "{resp}"
    );
    assert_eq!(c.recv_line().expect("read"), None, "server hangs up after");
    // Other connections are unaffected.
    let mut c2 = connect(&sock);
    let pong = c2.request("{\"id\":1,\"op\":\"ping\"}").expect("pong");
    assert!(response_ok(&pong), "{pong}");
    drop((c, c2));
    server.shutdown();
    server.join();
}

#[test]
fn truncated_frames_and_abrupt_disconnects_leave_the_server_healthy() {
    let (server, sock, _cache) = start("truncated", |_| {});
    for _ in 0..3 {
        let mut c = connect(&sock);
        // Half a frame, no newline, then vanish.
        c.send_raw(b"{\"id\":3,\"op\":\"ru").expect("send");
        drop(c);
    }
    // Non-UTF-8 bytes get a typed bad_frame before the hangup.
    let mut c = connect(&sock);
    c.send_raw(&[0xff, 0xfe, 0x80, b'\n']).expect("send");
    let resp = c.recv_line().expect("read").expect("one error frame");
    assert_eq!(
        response_error(&resp).as_deref(),
        Some("bad_frame"),
        "{resp}"
    );
    drop(c);
    let mut c2 = connect(&sock);
    let pong = c2.request("{\"id\":1,\"op\":\"ping\"}").expect("pong");
    assert!(response_ok(&pong), "{pong}");
    drop(c2);
    server.shutdown();
    server.join();
}

/// The frame cap is inclusive: a frame of exactly `MAX_FRAME` bytes
/// (newline excluded) is served, one byte more is `oversized`.
#[test]
fn a_frame_of_exactly_max_frame_bytes_is_served() {
    let (server, sock, _cache) = start("max-frame", |_| {});
    let mut c = connect(&sock);
    let ping = "{\"id\":6,\"op\":\"ping\"}";
    // The parser trims surrounding whitespace, so padding keeps the
    // frame a valid ping.
    let mut frame = " ".repeat(MAX_FRAME - ping.len()) + ping;
    assert_eq!(frame.len(), MAX_FRAME);
    let pong = c.request(&frame).expect("pong");
    assert!(response_ok(&pong), "{pong}");
    assert_eq!(json_raw_field(&pong, "id"), Some("6"));
    frame.insert(0, ' ');
    let resp = c.request(&frame).expect("one error frame");
    assert_eq!(
        response_error(&resp).as_deref(),
        Some("oversized"),
        "{resp}"
    );
    assert_eq!(c.recv_line().expect("read"), None, "server hangs up after");
    drop(c);
    server.shutdown();
    server.join();
}

#[test]
fn two_frames_in_one_write_get_two_responses_in_order() {
    let (server, sock, _cache) = start("pipelined", |_| {});
    let mut c = connect(&sock);
    c.send_raw(b"{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"stats\"}\n")
        .expect("send");
    for (id, op) in [("1", "ping"), ("2", "stats")] {
        let resp = c.recv_line().expect("read").expect("a response");
        assert!(response_ok(&resp), "{resp}");
        assert_eq!(json_raw_field(&resp, "id"), Some(id), "{resp}");
        assert_eq!(json_str_field(&resp, "op").as_deref(), Some(op), "{resp}");
    }
    drop(c);
    server.shutdown();
    server.join();
}

#[test]
fn identical_concurrent_runs_coalesce_to_one_flow_run() {
    let (server, sock, cache) = start("coalesce", |cfg| {
        cfg.dispatchers = 4;
    });
    const N: usize = 6;
    let barrier = Arc::new(Barrier::new(N));
    let mut handles = Vec::new();
    for _ in 0..N {
        let sock = sock.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut c = connect(&sock);
            barrier.wait();
            c.request(RUN_DES_3D).expect("run response")
        }));
    }
    let responses: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for r in &responses {
        assert!(response_ok(r), "{r}");
    }
    // Every submitter sees the same science, byte for byte (ids match
    // because every connection numbered its first request 1).
    for r in &responses[1..] {
        assert_eq!(r, &responses[0]);
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.library_builds, stats.flow_stores),
        (1, 1),
        "{N} identical concurrent runs must run one flow on one library: {stats:?}"
    );
    server.shutdown();
    server.join();
}

/// The server serves the same science as the batch binary: the smoke
/// subset rendered through `table` requests, in registry order under
/// `paper_tables`' banners, is byte-identical to the golden that pins
/// `paper_tables --small --subset`.
#[test]
fn served_smoke_subset_matches_the_batch_golden() {
    let (server, sock, _cache) = start("tables", |_| {});
    let mut c = connect(&sock);
    let mut out = String::new();
    for (name, _) in paper_drivers() {
        if !SMOKE_SUBSET.contains(&name) {
            continue;
        }
        let id = c.fresh_id();
        let resp = c
            .request(&format!(
                "{{\"id\":{id},\"op\":\"table\",\"name\":\"{name}\",\"scale\":\"small\"}}"
            ))
            .expect("table response");
        assert!(response_ok(&resp), "table {name}: {resp}");
        let text = json_str_field(&resp, "text").expect("table response carries text");
        out.push_str(&format!(
            "==================== {name} ====================\n{text}\n"
        ));
    }
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/paper_tables_subset_small.txt");
    let want = std::fs::read_to_string(&golden).expect("golden snapshot");
    // Name the first divergent line rather than dumping both documents.
    let first_diff = out.lines().zip(want.lines()).position(|(g, w)| g != w);
    assert!(
        out == want,
        "served tables drifted from {} (first differing line: {:?})",
        golden.display(),
        first_diff.map(|i| i + 1)
    );
    drop(c);
    server.shutdown();
    server.join();
}

/// A raw unix connection whose reads give up after `timeout`: a test
/// against a server with no dispatchers cannot wait for a queued `run`.
struct TimedConn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl TimedConn {
    fn open(sock: &std::path::Path, timeout: Duration) -> TimedConn {
        // `Server::start_on` binds before it returns.
        let writer = UnixStream::connect(sock).expect("connects");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        let c = TimedConn { reader, writer };
        c.set_timeout(timeout);
        c
    }

    fn set_timeout(&self, timeout: Duration) {
        self.writer
            .set_read_timeout(Some(timeout))
            .expect("read timeout");
    }

    fn send(&mut self, frame: &str) {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("send");
    }

    /// The next answer, or `None` when none arrives within the timeout.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => panic!("server hung up"),
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
            Err(e) => panic!("read: {e}"),
        }
    }

    fn request(&mut self, frame: &str) -> String {
        self.send(frame);
        self.recv()
            .unwrap_or_else(|| panic!("no answer to {frame} within the timeout"))
    }
}

/// The `run` frame for a point with no result in any test's cache
/// before the test runs it.
const RUN_FPU_2D: &str =
    "{\"id\":2,\"op\":\"run\",\"bench\":\"FPU\",\"style\":\"2D\",\"scale\":\"small\"}";

/// A `run` whose result is in memory is answered on the connection
/// thread — here with no dispatcher at all — byte-identically to a
/// dispatcher's answer and counted as one flow hit, while a cold key
/// on the same connection stays queued until the drain answers it.
#[test]
fn a_warm_run_is_answered_without_a_dispatcher() {
    let (server, sock, _cache) = start("warm-reference", |_| {});
    let want = connect(&sock).request(RUN_DES_3D).expect("run answer");
    assert!(response_ok(&want), "{want}");
    server.shutdown();
    server.join();

    let cache = Arc::new(ArtifactCache::bounded(16, 64));
    prewarm(&cache, &des_3d());
    let before = cache.stats();
    let (server, sock) = start_on("warm", Arc::clone(&cache), |cfg| cfg.dispatchers = 0);
    let mut c = TimedConn::open(&sock, Duration::from_secs(10));
    assert_eq!(
        c.request(RUN_DES_3D),
        want,
        "a warm answer is a dispatcher's"
    );
    let after = cache.stats();
    assert_eq!(after.flow_hits, before.flow_hits + 1, "{after:?}");
    assert_eq!(after.flow_stores, before.flow_stores, "{after:?}");

    // A cold key is queued, and no dispatcher runs it...
    c.send(RUN_FPU_2D);
    c.set_timeout(Duration::from_millis(200));
    assert_eq!(c.recv(), None, "a cold run waits in the queue");
    // ...while a warm one behind it on the same connection is answered.
    c.set_timeout(Duration::from_secs(10));
    let again = RUN_DES_3D.replace("\"id\":1", "\"id\":3");
    assert!(response_ok(&c.request(&again)));
    assert_eq!(cache.stats().flow_hits, before.flow_hits + 2);
    assert_eq!(server.shutdown(), 1, "only the cold run was queued");
    let drained = c.recv().expect("drain answer");
    assert_eq!(json_raw_field(&drained, "id"), Some("2"), "{drained}");
    assert_eq!(
        response_error(&drained).as_deref(),
        Some("draining"),
        "{drained}"
    );
    server.join();
}

/// The expired-deadline rejection still comes first for a warm key.
#[test]
fn a_warm_run_with_a_zero_deadline_is_still_rejected() {
    let cache = Arc::new(ArtifactCache::bounded(16, 64));
    prewarm(&cache, &des_3d());
    let hits = cache.stats().flow_hits;
    let (server, sock) = start_on("warm-deadline0", Arc::clone(&cache), |cfg| {
        cfg.dispatchers = 0;
    });
    let mut c = TimedConn::open(&sock, Duration::from_secs(10));
    let resp = c.request(
        "{\"id\":4,\"op\":\"run\",\"bench\":\"DES\",\"style\":\"3D\",\"scale\":\"small\",\"deadline_ms\":0}",
    );
    assert_eq!(
        response_error(&resp).as_deref(),
        Some("deadline_exceeded"),
        "{resp}"
    );
    assert_eq!(cache.stats().flow_hits, hits, "a rejection is not a hit");
    server.shutdown();
    server.join();
}

/// A warm answer takes no quota: a client whose one slot holds a
/// queued cold run still gets its warm run answered, and its next cold
/// run is still over quota.
#[test]
fn a_client_at_quota_still_gets_warm_runs_answered() {
    let cache = Arc::new(ArtifactCache::bounded(16, 64));
    prewarm(&cache, &des_3d());
    let (server, sock) = start_on("warm-quota", cache, |cfg| {
        cfg.dispatchers = 0;
        cfg.quota = Some(1);
    });
    let mut c = TimedConn::open(&sock, Duration::from_secs(10));
    c.send(RUN_FPU_2D);
    assert!(response_ok(&c.request(RUN_DES_3D)));
    let over = c.request(&RUN_FPU_2D.replace("\"id\":2", "\"id\":5"));
    assert_eq!(
        response_error(&over).as_deref(),
        Some("quota_exhausted"),
        "{over}"
    );
    assert_eq!(server.shutdown(), 1);
    server.join();
}

#[test]
fn per_client_quota_rejects_and_drain_answers_every_queued_request() {
    let (server, sock, _cache) = start("quota-drain", |cfg| {
        // No dispatchers: admitted points stay queued until the drain,
        // so quota and drain behaviour is deterministic.
        cfg.dispatchers = 0;
        cfg.quota = Some(1);
    });
    let mut a = connect(&sock);
    let mut b = connect(&sock);
    // A's first point is admitted (no response until the drain); the
    // second trips the per-connection quota.
    a.send_line(RUN_DES_3D).expect("send");
    let resp = a
        .request("{\"id\":2,\"op\":\"run\",\"bench\":\"DES\",\"style\":\"3D\",\"scale\":\"small\"}")
        .expect("quota error");
    assert_eq!(
        response_error(&resp).as_deref(),
        Some("quota_exhausted"),
        "{resp}"
    );
    // B is a different client: the identical point is admitted.
    b.send_line(RUN_DES_3D).expect("send");
    // Give both submits time to land before draining.
    std::thread::sleep(Duration::from_millis(100));
    let pending = server.shutdown();
    assert_eq!(pending, 2, "both queued requests are answered draining");
    // Both queued requests get a typed drain response.
    for (c, who) in [(&mut a, "a"), (&mut b, "b")] {
        let resp = c.recv_line().expect("read").expect("drain response");
        assert_eq!(
            response_error(&resp).as_deref(),
            Some("draining"),
            "client {who}: {resp}"
        );
        assert!(resp.contains("not run"), "client {who}: {resp}");
    }
    assert_eq!(server.shutdown(), 0, "a second drain finds nothing");
    server.join();
}

/// Every pipelined `run` id gets exactly one answer across a drain,
/// whichever side of it its frame lands on: a warm point is answered
/// from the cache until the drain starts, queued requests are answered
/// `draining` by the drain, and the rest are rejected at admission
/// (quota, capacity, or the drain itself). Frames sent while the drain
/// runs may go unread, but none is answered twice.
#[test]
fn every_pipelined_run_is_answered_exactly_once_across_a_drain() {
    const CONNS: usize = 4;
    const RUNS: u64 = 8;
    /// Frames sent before the drain can start; the rest race it.
    const EARLY: u64 = 5;
    const BENCHES: [&str; 5] = ["FPU", "AES", "LDPC", "DES", "M256"];
    let point = |conn: usize, id: u64| {
        let bench = BENCHES[(conn + id as usize) % BENCHES.len()];
        let style = if id.is_multiple_of(3) { "2D" } else { "3D" };
        (bench, style)
    };
    let frame = move |conn: usize, id: u64| {
        let (bench, style) = point(conn, id);
        let priority = ["high", "normal", "low"][(conn + id as usize) % 3];
        format!(
            "{{\"id\":{id},\"op\":\"run\",\"bench\":\"{bench}\",\"style\":\"{style}\",\
             \"scale\":\"small\",\"priority\":\"{priority}\"}}\n"
        )
    };
    // DES 3D is the warm point: ids 2 and 7 of connection 1, 1 of
    // connection 2, 5 of connection 3 and 8 of connection 0.
    let cache = Arc::new(ArtifactCache::bounded(16, 64));
    prewarm(&cache, &des_3d());
    for round in 0..8u64 {
        let (server, sock) = start_on("exactly-once", Arc::clone(&cache), |cfg| {
            // No dispatchers: nothing runs, so every answer comes from
            // the cache, admission or the drain.
            cfg.dispatchers = 0;
            cfg.queue_capacity = 12;
            cfg.quota = Some(4);
        });
        let barrier = Arc::new(Barrier::new(CONNS + 1));
        let clients: Vec<_> = (0..CONNS)
            .map(|conn| {
                let sock = sock.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut c = connect(&sock);
                    // The pong proves the server reads this connection,
                    // so every frame sent before the barrier is read
                    // before it hangs up; the later ones race the drain
                    // and may never be read.
                    let pong = c.request("{\"id\":0,\"op\":\"ping\"}").expect("pong");
                    assert!(response_ok(&pong), "{pong}");
                    let send = |c: &mut ClientStream, ids: std::ops::RangeInclusive<u64>| {
                        let frames: String = ids.map(|id| frame(conn, id)).collect();
                        c.send_raw(frames.as_bytes())
                    };
                    send(&mut c, 1..=EARLY).expect("send");
                    barrier.wait();
                    // The server may already have hung up.
                    let _ = send(&mut c, EARLY + 1..=RUNS);
                    let mut answered = Vec::new();
                    // Reading stops at the hangup, which is a reset when
                    // late frames were left unread.
                    while let Ok(Some(resp)) = c.recv_line() {
                        let id = json_raw_field(&resp, "id").and_then(|v| v.parse::<u64>().ok());
                        let id = id.expect("an id");
                        if response_ok(&resp) {
                            assert_eq!(point(conn, id), ("DES", "3D"), "{resp}");
                        } else {
                            let class = response_error(&resp).expect("a typed error");
                            assert!(
                                ["draining", "quota_exhausted", "queue_full"]
                                    .contains(&class.as_str()),
                                "{resp}"
                            );
                        }
                        answered.push(id);
                    }
                    answered
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(Duration::from_millis(round));
        server.shutdown();
        server.join();
        for (conn, h) in clients.into_iter().enumerate() {
            let mut answered = h.join().expect("client thread");
            answered.sort_unstable();
            let mut once = answered.clone();
            once.dedup();
            assert_eq!(
                answered, once,
                "round {round}, connection {conn}: an id answered twice"
            );
            assert!(
                (1..=EARLY).all(|id| answered.contains(&id))
                    && answered.iter().all(|id| (1..=RUNS).contains(id)),
                "round {round}, connection {conn}: answered {answered:?}"
            );
        }
    }
}

#[test]
fn zero_deadline_rejects_before_any_queue_wait() {
    let (server, sock, _cache) = start("deadline0", |cfg| {
        // No dispatchers: if the request were queued it would never be
        // answered, so a response at all proves pre-queue rejection.
        cfg.dispatchers = 0;
    });
    let mut c = connect(&sock);
    let t0 = Instant::now();
    let resp = c
        .request(
            "{\"id\":4,\"op\":\"run\",\"bench\":\"DES\",\"style\":\"3D\",\"scale\":\"small\",\"deadline_ms\":0}",
        )
        .expect("instant rejection");
    let elapsed = t0.elapsed();
    assert_eq!(
        response_error(&resp).as_deref(),
        Some("deadline_exceeded"),
        "{resp}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "a dead-on-arrival deadline must not wait a wake slice: {elapsed:?}"
    );
    drop(c);
    server.shutdown();
    server.join();
}

#[test]
fn wire_shutdown_reports_pending_and_stops_the_server() {
    let (server, sock, _cache) = start("wire-shutdown", |_| {});
    let mut c = connect(&sock);
    let resp = c.request("{\"id\":5,\"op\":\"shutdown\"}").expect("ack");
    assert!(response_ok(&resp), "{resp}");
    assert_eq!(json_raw_field(&resp, "pending"), Some("0"));
    assert!(server.is_draining());
    server.join();
}

/// The TCP listener speaks the same protocol as the unix socket: a
/// plain `TcpStream` gets byte-identical responses to the same frames.
#[test]
fn tcp_listener_answers_byte_identically_to_the_unix_socket() {
    use std::io::{BufRead, BufReader, Write};
    let (server, sock, _cache) = start("tcp", |cfg| {
        cfg.listen.push(Listen::Tcp("127.0.0.1:0".to_string()));
    });
    let addr = *server.tcp_addrs().first().expect("tcp listener bound");
    assert_ne!(
        addr.port(),
        0,
        "the bound port is reported, not the requested 0"
    );
    let frames = ["{\"id\":3,\"op\":\"ping\"}", RUN_DES_3D];

    let mut unix = connect(&sock);
    let via_unix: Vec<String> = frames
        .iter()
        .map(|f| unix.request(f).expect("unix response") + "\n")
        .collect();

    let stream = std::net::TcpStream::connect(addr).expect("tcp connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    for (frame, want) in frames.iter().zip(&via_unix) {
        writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("tcp send");
        let mut got = String::new();
        reader.read_line(&mut got).expect("tcp response");
        assert!(response_ok(&got), "{frame} -> {got}");
        assert_eq!(&got, want, "tcp and unix answers differ for {frame}");
    }
    drop((unix, reader, writer));
    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------
// Property: no byte stream panics the server or wedges the connection.
// ---------------------------------------------------------------------

fn fuzz_server() -> &'static (Server, PathBuf) {
    static SRV: OnceLock<(Server, PathBuf)> = OnceLock::new();
    SRV.get_or_init(|| {
        let (server, sock, _cache) = start("fuzz", |cfg| {
            cfg.dispatchers = 1;
        });
        (server, sock)
    })
}

/// Seeded garbage: printable runs, quotes, backslashes, braces, and
/// raw control/high bytes — newline-free so it arrives as one frame.
fn garbage(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let alphabet: &[u8] = b"{}[]\":\\,id op run bench style\x00\x01\x1f\x7f\x80\xff";
    (0..len)
        .map(|_| {
            let b = alphabet[(rnd() % alphabet.len() as u64) as usize];
            if b == b'\n' {
                b' '
            } else {
                b
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_frames_never_wedge_the_server(seed in 0u64..1_000_000, len in 1usize..300) {
        let (_, sock) = fuzz_server();
        let mut c = connect(sock);
        let mut frame = garbage(seed, len);
        frame.push(b'\n');
        c.send_raw(&frame).expect("send");
        // The server answers with a typed error frame or hangs up
        // cleanly (the non-UTF-8 path); nothing else.
        if let Some(resp) = c.recv_line().expect("no transport corruption") {
            prop_assert!(!response_ok(&resp), "garbage accepted: {resp}");
            prop_assert!(response_error(&resp).is_some(), "untyped error: {resp}");
            prop_assert!(json_str_field(&resp, "detail").is_some(), "no detail: {resp}");
        }
        drop(c);
        // Whatever just happened, the server still serves.
        let mut probe = connect(sock);
        let pong = probe.request("{\"id\":1,\"op\":\"ping\"}").expect("pong");
        prop_assert!(response_ok(&pong), "{pong}");
    }
}

/// Admission decisions trace through the recorder with typed reasons —
/// quota exhaustion, a full queue and a draining queue — and every
/// rejected submission hands its request back to be answered.
#[test]
fn admission_queue_emits_typed_rejection_events() {
    let recorder = Arc::new(VecRecorder::new());
    let queue = AdmissionQueue::new(1)
        .with_quota(1)
        .with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    queue
        .submit(7, Priority::Normal, 1u64)
        .expect("first submission admits");
    assert_eq!(
        queue.submit(7, Priority::Normal, 2),
        Err((
            AdmissionError::QuotaExhausted {
                client: 7,
                quota: 1
            },
            2
        ))
    );
    assert_eq!(
        queue.submit(8, Priority::High, 3),
        Err((AdmissionError::QueueFull { capacity: 1 }, 3))
    );
    assert_eq!(
        queue.drain(),
        vec![(7, 1)],
        "drain hands back the queued request"
    );
    assert_eq!(
        queue.submit(9, Priority::Low, 4),
        Err((AdmissionError::Draining, 4))
    );
    let kinds: Vec<_> = recorder.events().iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        kinds,
        vec![
            "quota_exhausted",
            "admission_rejected",
            "admission_rejected"
        ],
        "each rejection traces exactly once"
    );
    let reasons: Vec<_> = recorder
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::AdmissionRejected { client, reason } => Some((client, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(reasons, vec![(8, "queue_full"), (9, "draining")]);
}
