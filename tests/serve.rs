//! Integration tests for the m3d-serve experiment server: protocol
//! robustness under hostile frames, cross-connection coalescing,
//! served tables identical to the batch binary, per-client quotas,
//! instant deadline rejection, and graceful drain with remainder
//! persistence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use m3d_bench::{paper_drivers, SMOKE_SUBSET};
use m3d_serve::client::{response_error, response_ok, ClientStream};
use m3d_serve::{Listen, Server, ServerConfig, MAX_FRAME};
use monolith3d::{
    json_raw_field, json_str_field, load_remainder, ArtifactCache, Backpressure, REMAINDER_FILE,
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
    let dir = scratch_dir(label);
    let sock = dir.join("m3d.sock");
    let cache = Arc::new(ArtifactCache::bounded(16, 64));
    let mut cfg = ServerConfig {
        listen: vec![Listen::Unix(sock.clone())],
        dispatchers: 2,
        ..ServerConfig::default()
    };
    cfg_tune(&mut cfg);
    let server = Server::start_on(cfg, Arc::clone(&cache)).expect("server starts");
    (server, sock, cache)
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

#[test]
fn identical_concurrent_runs_coalesce_to_one_library_build() {
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
        stats.library_builds, 1,
        "{N} identical concurrent runs must characterize one library: {stats:?}"
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

#[test]
fn per_client_quota_rejects_and_drain_persists_a_deduplicated_remainder() {
    let dir = scratch_dir("drain-remainder");
    let (server, sock, _cache) = start("quota-drain", |cfg| {
        // No dispatchers: admitted points stay queued until the drain,
        // so quota and remainder behaviour is deterministic.
        cfg.dispatchers = 0;
        cfg.quota = Some(1);
        cfg.backpressure = Backpressure::Reject;
        cfg.remainder_dir = Some(dir.clone());
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
    assert_eq!(pending, 1, "two identical queued points dedup to one");
    // Both queued requests get a typed drain response.
    for (c, who) in [(&mut a, "a"), (&mut b, "b")] {
        let resp = c.recv_line().expect("read").expect("drain response");
        assert_eq!(
            response_error(&resp).as_deref(),
            Some("draining"),
            "client {who}: {resp}"
        );
    }
    let plan = load_remainder(&dir.join(REMAINDER_FILE)).expect("remainder loads");
    assert_eq!(plan.len(), 1);
    server.join();
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
        // cleanly; nothing else.
        match c.recv_line().expect("no transport corruption") {
            Some(resp) => {
                prop_assert!(!response_ok(&resp), "garbage accepted: {resp}");
                prop_assert!(response_error(&resp).is_some(), "untyped error: {resp}");
                prop_assert!(json_str_field(&resp, "detail").is_some(), "no detail: {resp}");
            }
            None => {} // clean disconnect (non-UTF-8 path)
        }
        drop(c);
        // Whatever just happened, the server still serves.
        let mut probe = connect(sock);
        let pong = probe.request("{\"id\":1,\"op\":\"ping\"}").expect("pong");
        prop_assert!(response_ok(&pong), "{pong}");
    }
}
