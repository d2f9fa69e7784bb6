//! The long-running experiment server (DESIGN.md §15).
//!
//! Architecture: each accepted connection is a *client* with a fresh
//! identity. A reader thread per connection parses JSONL frames;
//! control ops (`ping`, `stats`, `shutdown`), `table` renders and every
//! `run` whose result is already in memory
//! ([`ArtifactCache::flow_if_ready`]) are answered on that thread. Any
//! other `run` request — its id, cancel token, response writer and
//! point — goes whole into the [`AdmissionQueue`] (per-client quotas,
//! priority classes, every rejection handed back and answered with a
//! typed error) and a pool of dispatcher threads pops and executes it
//! over [`ParallelExecutor::run_point`] against the process-wide
//! [`ArtifactCache`]: misses, runs in flight and entries only on disk
//! all take the queue. Identical concurrent submissions from different
//! connections therefore coalesce on the cache's per-key build cell
//! and run the flow exactly once; every waiter gets its own response,
//! and a waiter whose own deadline passes first gets its own typed
//! `deadline_exceeded`.
//!
//! Shutdown (the `shutdown` op, or [`Server::shutdown`] from a SIGTERM
//! handler) routes through [`AdmissionQueue::drain`]: in-flight points
//! finish and respond normally, and the queued-but-unstarted requests
//! it hands back are answered with a typed `draining` error: they were
//! not run, nothing is written for them, and a client resubmits them to
//! a live server. Per-request deadlines ride
//! the [`CancelToken`] hierarchy: each `run` gets a child of the
//! server's root token, armed at admission, so a deadline of zero
//! rejects before any queue wait and an in-flight overrun comes back
//! as a typed `deadline_exceeded`.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use m3d_bench::{node_drivers, paper_drivers};
use m3d_netlist::BenchScale;
use m3d_tech::NodeId;
use monolith3d::{
    ArtifactCache, CancelCause, CancelToken, FlowError, FlowKey, ParallelExecutor, PlanPoint,
    PointOutcome, Recorder,
};

use crate::protocol::{
    frame_id, parse_request, write_error, write_pong, write_run_done, write_shutdown, write_stats,
    write_table, ErrorClass, Request, MAX_FRAME,
};
use crate::queue::{AdmissionError, AdmissionQueue};

/// How often a connection's blocked read re-checks the drain flag.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// Where the server listens. A config may carry several (e.g. one unix
/// socket and one TCP port).
#[derive(Debug, Clone)]
pub enum Listen {
    /// A unix domain socket at this path (removed and re-bound).
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7333` (or `:0` for tests).
    Tcp(String),
}

/// Server tuning; [`ServerConfig::default`] is sized for tests.
#[derive(Clone)]
pub struct ServerConfig {
    /// Listeners to bind.
    pub listen: Vec<Listen>,
    /// Dispatcher threads executing admitted `run` points. `0` is
    /// legal (tests use it to observe queue states deterministically);
    /// admitted points then wait until shutdown drains them.
    pub dispatchers: usize,
    /// Admission queue capacity (total queued points).
    pub queue_capacity: usize,
    /// Per-client quota of queued points, if bounded.
    pub quota: Option<u32>,
    /// Event sink for admission decisions (and, via the cache's own
    /// recorder, everything else).
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: Vec::new(),
            dispatchers: 2,
            queue_capacity: 64,
            quota: None,
            recorder: None,
        }
    }
}

type ConnWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// One admitted `run` request: the point, the token it executes
/// under, and where its one response goes.
struct Queued {
    id: u64,
    tok: CancelToken,
    conn: ConnWriter,
    point: PlanPoint,
}

struct Inner {
    cache: Arc<ArtifactCache>,
    executor: ParallelExecutor,
    queue: AdmissionQueue<Queued>,
    root: CancelToken,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    next_client: AtomicU64,
    /// An address reaching each listener: shutdown connects to each
    /// once to wake its blocked `accept`.
    wake: Vec<Listen>,
}

/// A running server; dropping it does *not* stop it — call
/// [`Server::shutdown`] (or send the `shutdown` op) then
/// [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
    tcp_addrs: Vec<SocketAddr>,
}

impl Server {
    /// Binds every listener in `cfg` and starts accepting. The
    /// process-wide [`ArtifactCache::global`] backs all requests, so
    /// `run` points, `table` renders and any in-process batch work
    /// coalesce on the same build cells: one flow run per distinct
    /// point, one build per distinct library.
    ///
    /// # Errors
    ///
    /// Any bind failure, verbatim.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        Server::start_on(cfg, ArtifactCache::global())
    }

    /// [`Server::start`] on an explicit cache — tests isolate here.
    pub fn start_on(cfg: ServerConfig, cache: Arc<ArtifactCache>) -> io::Result<Server> {
        let mut queue = AdmissionQueue::new(cfg.queue_capacity);
        if let Some(q) = cfg.quota {
            queue = queue.with_quota(q);
        }
        if let Some(rec) = &cfg.recorder {
            queue = queue.with_recorder(Arc::clone(rec));
        }
        let mut listeners = Vec::new();
        let mut wake = Vec::new();
        let mut tcp_addrs = Vec::new();
        for l in &cfg.listen {
            match l {
                Listen::Unix(path) => {
                    // A stale socket file from a previous run blocks
                    // the bind; replace it.
                    let _ = std::fs::remove_file(path);
                    listeners.push(AnyListener::Unix(UnixListener::bind(path)?));
                    wake.push(l.clone());
                }
                Listen::Tcp(addr) => {
                    let listener = TcpListener::bind(addr)?;
                    let bound = listener.local_addr()?;
                    tcp_addrs.push(bound);
                    let mut reach = bound;
                    if reach.ip().is_unspecified() {
                        reach.set_ip(match bound {
                            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                        });
                    }
                    listeners.push(AnyListener::Tcp(listener));
                    wake.push(Listen::Tcp(reach.to_string()));
                }
            }
        }
        let inner = Arc::new(Inner {
            executor: ParallelExecutor::new(1).with_cache(Arc::clone(&cache)),
            cache,
            queue,
            root: CancelToken::new(),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            next_client: AtomicU64::new(1),
            wake,
        });
        let mut threads = Vec::new();
        for listener in listeners {
            let name = match listener {
                AnyListener::Unix(_) => "m3d-serve-accept-unix",
                AnyListener::Tcp(_) => "m3d-serve-accept-tcp",
            };
            let inner = Arc::clone(&inner);
            threads.push(spawn_named(name, move || accept_loop(&inner, &listener)));
        }
        for i in 0..cfg.dispatchers {
            let inner = Arc::clone(&inner);
            threads.push(spawn_named(&format!("m3d-serve-dispatch-{i}"), move || {
                dispatch_loop(&inner);
            }));
        }
        Ok(Server {
            inner,
            threads,
            tcp_addrs,
        })
    }

    /// The bound TCP addresses, in `listen` order — how a test finds
    /// the ephemeral port behind `127.0.0.1:0`.
    pub fn tcp_addrs(&self) -> &[SocketAddr] {
        &self.tcp_addrs
    }

    /// Whether a drain has started (via [`Server::shutdown`] or the
    /// wire `shutdown` op).
    pub fn is_draining(&self) -> bool {
        self.inner.queue.is_draining()
    }

    /// Initiates a graceful drain (idempotent): stop admitting, finish
    /// in-flight points, answer queued-but-unstarted requests with
    /// `draining`. Returns the number of requests answered `draining`
    /// (zero on every call after the first).
    pub fn shutdown(&self) -> u64 {
        shutdown_inner(&self.inner)
    }

    /// Waits for the accept and dispatcher threads to exit (they do
    /// after [`Server::shutdown`]).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawning a server thread")
}

enum AnyListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum AnyStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl AnyStream {
    fn split(self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            AnyStream::Unix(s) => {
                s.set_read_timeout(Some(POLL_SLICE))?;
                let w = s.try_clone()?;
                Ok((Box::new(s), Box::new(w)))
            }
            AnyStream::Tcp(s) => {
                s.set_read_timeout(Some(POLL_SLICE))?;
                s.set_nodelay(true)?;
                let w = s.try_clone()?;
                Ok((Box::new(s), Box::new(w)))
            }
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &AnyListener) {
    loop {
        let accepted = match listener {
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| AnyStream::Tcp(s)),
        };
        // Shutdown wakes this blocked accept by connecting once; that
        // connection (or any racing it) is dropped unserved.
        if inner.queue.is_draining() {
            return;
        }
        let Ok(stream) = accepted else {
            return;
        };
        let client = inner.next_client.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::clone(inner);
        // Connection threads are detached: they hold their own
        // Arc<Inner> and exit when the client disconnects or the
        // server drains.
        let _ = spawn_named(&format!("m3d-serve-conn-{client}"), move || {
            connection_loop(&inner, client, stream);
        });
    }
}

/// One read frame: a line, clean EOF, or a protocol-fatal condition.
enum ReadFrame {
    Line(String),
    Eof,
    Oversized,
    NotUtf8,
}

fn utf8_line(buf: &mut Vec<u8>) -> ReadFrame {
    match String::from_utf8(std::mem::take(buf)) {
        Ok(s) => ReadFrame::Line(s),
        Err(_) => ReadFrame::NotUtf8,
    }
}

/// Reads one newline-terminated frame of at most [`MAX_FRAME`] bytes
/// (newline excluded). A final unterminated frame before EOF still
/// counts; a partial frame survives read timeouts, which end the
/// connection only between frames once the server is draining.
fn read_frame(r: &mut impl BufRead, draining: &dyn Fn() -> bool, buf: &mut Vec<u8>) -> ReadFrame {
    buf.clear();
    loop {
        let chunk = match r.fill_buf() {
            Ok([]) if buf.is_empty() => return ReadFrame::Eof,
            Ok([]) => return utf8_line(buf),
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if buf.is_empty() && draining() {
                    return ReadFrame::Eof;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return ReadFrame::Eof,
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > MAX_FRAME {
            return ReadFrame::Oversized;
        }
        buf.extend_from_slice(&chunk[..take]);
        match newline {
            Some(i) => {
                r.consume(i + 1);
                return utf8_line(buf);
            }
            None => r.consume(take),
        }
    }
}

/// Consumes whatever the peer already sent before a protocol-fatal
/// close: closing with unread bytes in the receive queue resets the
/// connection and can destroy the error frame in flight. Bounded so a
/// firehose peer cannot pin the thread.
fn drain_input(r: &mut impl Read) {
    let mut scratch = [0u8; 4096];
    let mut budget = 4 * MAX_FRAME;
    loop {
        match r.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => {
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    return;
                }
            }
            // WouldBlock / TimedOut: the peer went quiet; good enough.
            Err(_) => return,
        }
    }
}

/// Writes one frame: `line` and its newline in one `write`, so the
/// peer never wakes on half a frame. Takes the buffer to append to it.
fn send_line(conn: &ConnWriter, mut line: String) {
    line.push('\n');
    let mut w = conn.lock().expect("connection writer lock");
    // A dead peer is not the server's problem; drop the response.
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

fn send_error(conn: &ConnWriter, id: u64, class: ErrorClass, detail: &str) {
    let mut buf = String::new();
    write_error(&mut buf, id, class, detail);
    send_line(conn, buf);
}

fn connection_loop(inner: &Arc<Inner>, client: u64, stream: AnyStream) {
    let Ok((reader, writer)) = stream.split() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    let conn: ConnWriter = Arc::new(Mutex::new(writer));
    let mut buf = Vec::new();
    loop {
        let draining = || inner.queue.is_draining();
        let line = match read_frame(&mut reader, &draining, &mut buf) {
            ReadFrame::Eof => return,
            ReadFrame::Oversized => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_error(
                    &conn,
                    0,
                    ErrorClass::Oversized,
                    &format!("frame exceeds {MAX_FRAME} bytes"),
                );
                drain_input(&mut reader);
                return; // clean disconnect; other connections unaffected
            }
            ReadFrame::NotUtf8 => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_error(&conn, 0, ErrorClass::BadFrame, "frame is not UTF-8");
                drain_input(&mut reader);
                return;
            }
            ReadFrame::Line(l) => l,
        };
        if line.trim().is_empty() {
            continue;
        }
        let id = frame_id(&line);
        match parse_request(&line) {
            Err(e) => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_error(&conn, id, e.class, &e.detail);
            }
            Ok(req) => {
                inner.requests.fetch_add(1, Ordering::Relaxed);
                if !handle_request(inner, client, &conn, id, req) {
                    return;
                }
            }
        }
    }
}

/// Handles one parsed request; `false` ends the connection loop (the
/// server is shutting down).
fn handle_request(
    inner: &Arc<Inner>,
    client: u64,
    conn: &ConnWriter,
    id: u64,
    req: Request,
) -> bool {
    match req {
        Request::Ping => {
            let mut buf = String::new();
            write_pong(&mut buf, id);
            send_line(conn, buf);
            true
        }
        Request::Stats => {
            let mut buf = String::new();
            write_stats(
                &mut buf,
                id,
                &inner.cache.stats(),
                inner.requests.load(Ordering::Relaxed),
                inner.protocol_errors.load(Ordering::Relaxed),
                inner.queue.is_draining(),
            );
            send_line(conn, buf);
            true
        }
        Request::Shutdown => {
            let pending = shutdown_inner(inner);
            let mut buf = String::new();
            write_shutdown(&mut buf, id, pending);
            send_line(conn, buf);
            false
        }
        Request::Table { name, node, scale } => {
            if inner.queue.is_draining() {
                send_error(conn, id, ErrorClass::Draining, "server is draining");
                return true;
            }
            // Rendered inline on the connection thread: the drivers
            // run their flow points against the shared cache, so
            // concurrent table requests (and any `run` traffic for the
            // same points) coalesce on its build cells.
            let answer = table_answer(id, &name, render_table(&name, node, scale));
            send_line(conn, answer);
            true
        }
        Request::Run {
            point,
            priority,
            deadline_ms,
        } => {
            let tok = inner.root.child();
            if let Some(ms) = deadline_ms {
                tok.arm_deadline_in(Duration::from_millis(ms));
            }
            // An already-expired deadline rejects before any queue
            // wait — instantly, not after a wake slice (the zero-
            // deadline pin of the cancellation substrate).
            if let Some(cause) = tok.cause() {
                let class = match cause {
                    CancelCause::Cancelled => ErrorClass::Cancelled,
                    CancelCause::DeadlineExceeded => ErrorClass::DeadlineExceeded,
                };
                send_error(conn, id, class, "deadline expired before admission");
                return true;
            }
            // A result already in memory is answered here, as a `ping`
            // is: no queue slot, no quota, no dispatcher wake-up. A
            // served point's config is built from a known node and a
            // scale alone, so it always validates, and the answer is
            // the one a dispatcher would send.
            if !inner.queue.is_draining() {
                let key = FlowKey::of(point.bench, point.style, &point.config);
                if let Some(result) = inner.cache.flow_if_ready(&key) {
                    let mut buf = String::new();
                    write_run_done(&mut buf, id, &result);
                    send_line(conn, buf);
                    return true;
                }
            }
            let run = Queued {
                id,
                tok,
                conn: Arc::clone(conn),
                point,
            };
            if let Err((e, run)) = inner.queue.submit(client, priority, run) {
                let class = match e {
                    AdmissionError::QueueFull { .. } => ErrorClass::QueueFull,
                    AdmissionError::QuotaExhausted { .. } => ErrorClass::QuotaExhausted,
                    AdmissionError::Draining => ErrorClass::Draining,
                };
                send_error(&run.conn, run.id, class, &e.to_string());
            }
            true
        }
    }
}

/// Runs the named driver; `None` when no driver has that name.
fn render_table(
    name: &str,
    node: Option<NodeId>,
    scale: BenchScale,
) -> Option<Result<String, FlowError>> {
    match node {
        None => paper_drivers()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, driver)| driver(scale)),
        Some(nid) => node_drivers()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, driver)| driver(nid, scale)),
    }
}

/// The one answer a `table` request gets: the rendered text, a
/// `failed` error carrying the driver's [`FlowError`], or a
/// `bad_request` for a name outside the registry.
fn table_answer(id: u64, name: &str, rendered: Option<Result<String, FlowError>>) -> String {
    let mut buf = String::new();
    match rendered {
        Some(Ok(text)) => write_table(&mut buf, id, name, &text),
        Some(Err(e)) => write_error(&mut buf, id, ErrorClass::Failed, &e.to_string()),
        None => write_error(
            &mut buf,
            id,
            ErrorClass::BadRequest,
            &format!("unknown table {name:?}"),
        ),
    }
    buf
}

fn dispatch_loop(inner: &Arc<Inner>) {
    while let Some((_, run)) = inner.queue.pop() {
        let mut buf = String::new();
        match inner.executor.run_point(&run.point, &run.tok) {
            PointOutcome::Done(result) => write_run_done(&mut buf, run.id, &result),
            PointOutcome::Failed(e) => {
                write_error(&mut buf, run.id, ErrorClass::Failed, &e.to_string())
            }
            PointOutcome::Cancelled => {
                write_error(&mut buf, run.id, ErrorClass::Cancelled, "request cancelled")
            }
            PointOutcome::DeadlineExceeded => write_error(
                &mut buf,
                run.id,
                ErrorClass::DeadlineExceeded,
                "request deadline exceeded",
            ),
        }
        send_line(&run.conn, buf);
    }
}

/// Drains the queue (the first call only finds anything to drain):
/// answers every queued request `draining` once and wakes the accept
/// threads. Returns the number of requests answered `draining`.
fn shutdown_inner(inner: &Inner) -> u64 {
    let mut pending = 0;
    for (_, run) in inner.queue.drain() {
        send_error(
            &run.conn,
            run.id,
            ErrorClass::Draining,
            "server draining; request was not run and may be resubmitted",
        );
        pending += 1;
    }
    for l in &inner.wake {
        // A refused connect means that accept thread is already gone.
        let _ = match l {
            Listen::Unix(path) => UnixStream::connect(path).map(drop),
            Listen::Tcp(addr) => TcpStream::connect(addr.as_str()).map(drop),
        };
    }
    pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use monolith3d::{json_str_field, ConfigError};

    #[test]
    fn a_failed_table_is_one_failed_answer_carrying_the_flow_error() {
        let err = FlowError::Config(ConfigError::BadClock(-1.0));
        let answer = table_answer(7, "table4", Some(Err(err.clone())));
        assert_eq!(answer.lines().count(), 1, "one frame: {answer}");
        assert!(answer.starts_with("{\"id\":7,\"ok\":false,"), "{answer}");
        assert_eq!(json_str_field(&answer, "error").as_deref(), Some("failed"));
        assert_eq!(json_str_field(&answer, "detail"), Some(err.to_string()));
        // A name outside the registry stays a request error.
        let answer = table_answer(8, "nope", None);
        assert_eq!(
            json_str_field(&answer, "error").as_deref(),
            Some("bad_request")
        );
    }
}
