//! The `serve` workload: `m3d_serve` at its default queue and quota
//! under a closed loop of seeded `run` requests on two connections, and
//! (in the traced run, against a deeper queue) seeded open-loop Poisson
//! arrivals at fixed offered rates. Every timed request is a warm cache
//! hit, so serving is the only layer under load.
//!
//! Load comes from this process only, on at most two connections and
//! two threads at a time: one thread per connection for the closed
//! loop, a sender and a reader thread on one pipelined connection for
//! the open loop.
//!
//! The bounded figure is the closed loop's latency, as a median over
//! half-second windows. Open-loop latency at a fixed rate is dominated
//! by thread wake-ups, which on a small shared host swing by a fifth
//! from one run to the next, so it is reported per layer only.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use m3d_netlist::{BenchScale, Benchmark};
use monolith3d::json_raw_field;

use crate::{child, layers, stats, Ctx, Record};

const BENCHES: [&str; 5] = ["FPU", "AES", "LDPC", "DES", "M256"];
const STYLES: [&str; 2] = ["2D", "3D"];
const NODES: [&str; 3] = ["45nm", "7nm", "fdsoi-miv"];
/// Every small-scale (bench, style, node) point: the warm working set.
const KEYS: usize = BENCHES.len() * STYLES.len() * NODES.len();
/// Rounds of spawn, prewarm and closed loop per untraced run; `setup_s`
/// is the median of their spawn-and-prewarm times.
const ROUNDS: usize = 5;
/// Connections of the closed loop, each with one request outstanding.
const CONNECTIONS: usize = 2;
/// Window length of the windowed medians, seconds.
const WINDOW_S: f64 = 0.5;
/// A response still missing this long after it was due, or after its
/// phase ends, is a failure.
const GRACE: Duration = Duration::from_secs(2);
/// How long one cold prewarm request may take.
const PREWARM_TIMEOUT: Duration = Duration::from_secs(30);
/// Server arguments for the open-loop probe. At 8000/s a host stall of
/// a few milliseconds queues more requests than the default admission
/// queue of 64 holds, and the server answers `queue_full` (a traced run
/// saw 107 outstanding); a deeper queue keeps the probe measuring
/// latency, not rejections. The closed loop, with at most two requests
/// outstanding, runs against the default queue.
const OPEN_LOOP_QUEUE: [&str; 2] = ["--queue", "4096"];
/// Fresh-connection samples for `serve.connect_ms`.
const CONNECTS: usize = 20;

/// The `run` frame for key `key`.
fn frame(id: u64, key: usize) -> String {
    let (node, rest) = (NODES[key / 10], key % 10);
    format!(
        "{{\"id\":{id},\"op\":\"run\",\"bench\":\"{}\",\"style\":\"{}\",\"scale\":\"small\",\"node\":\"{node}\"}}",
        BENCHES[rest / 2],
        STYLES[rest % 2]
    )
}

/// A response without its echoed id: what must repeat bit for bit.
fn body(line: &str) -> Option<&str> {
    line.strip_prefix("{\"id\":")?
        .split_once(',')
        .map(|(_, b)| b)
}

/// Whether a response reports success.
fn ok(line: &str) -> bool {
    json_raw_field(line, "ok") == Some("true")
}

/// The request index (0-based) a response answers, if it names one
/// below `n`.
fn answered_index(line: &str, n: usize) -> Option<usize> {
    json_raw_field(line, "id")
        .and_then(|v| v.parse::<usize>().ok())
        .and_then(|id| id.checked_sub(1))
        .filter(|&i| i < n)
}

/// SplitMix64: a small, seedable generator for arrival times and keys.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seeded Poisson arrivals at `rate` per second over `secs`: each
/// request's due offset (seconds) and key.
pub fn poisson_schedule(rate: f64, secs: f64, keys: usize, rng: &mut Rng) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push((t, rng.below(keys)));
    }
}

/// Microseconds from when something was due to `at`. Open-loop latency
/// and generator lag are both measured this way, so a late generator or
/// a stalled server counts against every request queued behind it.
pub fn since_due_us(due: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(due).as_secs_f64() * 1e6
}

/// Groups `(t_s, value)` samples into [`WINDOW_S`] windows by `t_s`.
fn windows(samples: &[(f64, f64)]) -> BTreeMap<u64, Vec<f64>> {
    let mut w: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        w.entry((t / WINDOW_S) as u64).or_default().push(v);
    }
    w
}

/// Each window's median.
fn window_p50s(samples: &[(f64, f64)]) -> Vec<f64> {
    windows(samples)
        .values()
        .map(|w| stats::median(w))
        .collect()
}

/// The median over windows of each window's median: a burst of host
/// noise moves a few windows, not the figure.
fn windowed_p50(samples: &[(f64, f64)]) -> f64 {
    stats::median(&window_p50s(samples))
}

/// The latencies (second element) of `samples`, ascending.
fn latencies(samples: &[(f64, f64)]) -> Vec<f64> {
    stats::sorted(&samples.iter().map(|a| a.1).collect::<Vec<_>>())
}

/// One blocking connection to the server: a request is one line out and
/// one line back.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connects; a read that waits longer than `timeout` fails.
    fn open(sock: &Path, timeout: Duration) -> io::Result<Conn> {
        let s = UnixStream::connect(sock)?;
        s.set_read_timeout(Some(timeout))?;
        Ok(Conn {
            writer: s.try_clone()?,
            reader: BufReader::new(s),
        })
    }

    /// Sends `line` and returns the response line, without its newline.
    fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(resp.trim_end().to_string())
    }
}

/// What one open-loop level measured.
#[derive(Debug, Default)]
pub struct Level {
    /// Each correctly answered request: its due offset (s) and its
    /// due-time latency (µs).
    pub answered: Vec<(f64, f64)>,
    /// How late the generator sent each request, µs.
    pub lag_us: Vec<f64>,
    /// Most requests sent and not yet answered at any send.
    pub backlog_max: usize,
    /// Requests sent.
    pub sent: usize,
    /// Requests without a correct answer: an error response, a wrong
    /// body, or none within [`GRACE`] of the level's end.
    pub failed: usize,
    /// What went wrong, for the report.
    pub problems: Vec<String>,
}

/// Drives one open-loop level on a fresh pipelined connection to
/// `sock`: a sender thread writes each request at its due time, a
/// reader thread times each response from that due time.
/// `expected[key]` is the response body every request for `key` must
/// return.
pub fn open_loop(
    sock: &Path,
    expected: &[String],
    rate: f64,
    secs: f64,
    rng: &mut Rng,
) -> io::Result<Level> {
    let schedule = poisson_schedule(rate, secs, expected.len(), rng);
    let n = schedule.len();
    let stream = UnixStream::connect(sock)?;
    let mut writer = stream.try_clone()?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let received = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + Duration::from_secs_f64(schedule[i].0);
    let deadline = t0 + Duration::from_secs_f64(secs) + GRACE;

    let (sent, (lat, mut problems)) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> io::Result<(Vec<f64>, usize)> {
            child::tighten_timer_slack();
            let mut lag = Vec::with_capacity(n);
            let mut backlog_max = 0;
            let mut buf = String::new();
            let mut i = 0;
            while i < n {
                let now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                    continue;
                }
                // Everything due by now goes out in one write.
                buf.clear();
                while i < n && due(i) <= now {
                    buf.push_str(&frame(i as u64 + 1, schedule[i].1));
                    buf.push('\n');
                    lag.push(since_due_us(due(i), now));
                    let answered = received.load(Ordering::Relaxed);
                    backlog_max = backlog_max.max((i + 1).saturating_sub(answered));
                    i += 1;
                }
                writer.write_all(buf.as_bytes())?;
            }
            Ok((lag, backlog_max))
        });
        let reader = s.spawn(|| {
            let mut r = BufReader::new(&stream);
            let mut lat: Vec<Option<f64>> = vec![None; n];
            let mut problems = Vec::new();
            let mut line = Vec::new();
            let mut got = 0;
            while got < n {
                match r.read_until(b'\n', &mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with(b"\n") => {
                        let now = Instant::now();
                        let text = String::from_utf8_lossy(&line);
                        let text = text.trim_end();
                        match answered_index(text, n).filter(|&i| lat[i].is_none()) {
                            Some(i) if body(text) == Some(expected[schedule[i].1].as_str()) => {
                                lat[i] = Some(since_due_us(due(i), now));
                            }
                            _ if problems.len() < 5 => {
                                problems.push(format!("unexpected response: {text}"));
                            }
                            _ => {}
                        }
                        line.clear();
                        got += 1;
                        received.store(got, Ordering::Relaxed);
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        if Instant::now() > deadline {
                            break;
                        }
                    }
                    Err(e) => {
                        problems.push(format!("read: {e}"));
                        break;
                    }
                }
            }
            (lat, problems)
        });
        let reader = reader.join().expect("open-loop reader thread");
        (sender.join().expect("open-loop sender thread"), reader)
    });
    let (lag_us, backlog_max) = sent?;
    let failed = lat.iter().filter(|l| l.is_none()).count();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {n} requests without a correct answer {GRACE:?} after the level"
        ));
    }
    Ok(Level {
        answered: lat
            .iter()
            .zip(&schedule)
            .filter_map(|(l, (due_s, _))| l.map(|l| (*due_s, l)))
            .collect(),
        lag_us,
        backlog_max,
        sent: n,
        failed,
        problems,
    })
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Each correct answer: when it arrived (seconds from the loop's
    /// start) and how long after its request was sent (µs).
    pub answered: Vec<(f64, f64)>,
    /// Requests sent.
    pub sent: usize,
    /// Requests without a correct answer.
    pub failed: usize,
    pub problems: Vec<String>,
    secs: f64,
}

impl ClosedLoop {
    /// Median over the loop's whole windows of answers per second.
    pub fn windowed_rate(&self) -> f64 {
        let whole = (self.secs / WINDOW_S) as u64;
        let w = windows(&self.answered);
        let rates: Vec<f64> = (0..whole)
            .map(|i| w.get(&i).map_or(0, Vec::len) as f64 / WINDOW_S)
            .collect();
        stats::median(&rates)
    }
}

/// One connection of the closed loop: sends a seeded `run` request,
/// waits for its answer, and repeats until `end`. A wrong answer is a
/// failure; a missing one ends the connection's loop.
fn closed_connection(
    sock: &Path,
    expected: &[String],
    start: Instant,
    end: Instant,
    seed: u64,
) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let mut conn = match Conn::open(sock, GRACE) {
        Ok(c) => c,
        Err(e) => {
            out.problems.push(format!("connect: {e}"));
            return out;
        }
    };
    let mut rng = Rng::new(seed);
    let mut id = 0;
    while Instant::now() < end {
        id += 1;
        let key = rng.below(expected.len());
        out.sent += 1;
        let sent_at = Instant::now();
        match conn.request(&frame(id, key)) {
            Ok(resp) if resp == format!("{{\"id\":{id},{}", expected[key]) => {
                let now = Instant::now();
                let lat = since_due_us(sent_at, now);
                out.answered.push(((now - start).as_secs_f64(), lat));
            }
            Ok(resp) => {
                if out.problems.len() < 5 {
                    out.problems.push(format!("unexpected response: {resp}"));
                }
            }
            Err(e) => {
                out.problems.push(format!("request {id}: {e}"));
                break;
            }
        }
    }
    out
}

/// The closed loop: [`CONNECTIONS`] connections, each on its own thread
/// with one request outstanding, for `secs`.
pub fn closed_loop(sock: &Path, expected: &[String], secs: f64, rng: &mut Rng) -> ClosedLoop {
    let seeds: Vec<u64> = (0..CONNECTIONS).map(|_| rng.next_u64()).collect();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let parts: Vec<ClosedLoop> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| s.spawn(move || closed_connection(sock, expected, start, end, seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    let mut all = ClosedLoop {
        secs,
        ..ClosedLoop::default()
    };
    for p in parts {
        all.answered.extend(p.answered);
        all.sent += p.sent;
        all.problems.extend(p.problems);
    }
    all.failed = all.sent - all.answered.len();
    all
}

/// A running `m3d_serve`.
struct Server {
    proc: child::Running,
    sock: PathBuf,
}

impl Server {
    /// Spawns the server on a fresh socket with `extra` arguments and
    /// waits for its first pong; returns the connection that got it,
    /// so the prewarm waits for the accept loop only once. `--jobs 2`
    /// pins the dispatcher count, which otherwise follows the host's
    /// core count.
    fn start(ctx: &Ctx, tag: &str, extra: &[&str]) -> Result<(Server, Conn), String> {
        let sock_name = format!("{tag}.sock");
        let mut cmd = Command::new(&ctx.m3d_serve);
        cmd.args(["--unix", &sock_name, "--jobs", "2"])
            .args(extra)
            .current_dir(&ctx.tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        let err = File::create(ctx.tmp.join(format!("{tag}.err"))).map_err(|e| e.to_string())?;
        let proc =
            child::Running::spawn(cmd.stderr(err)).map_err(|e| format!("spawn m3d_serve: {e}"))?;
        let server = Server {
            proc,
            sock: ctx.tmp.join(sock_name),
        };
        let start = Instant::now();
        loop {
            if let Ok(mut conn) = Conn::open(&server.sock, PREWARM_TIMEOUT) {
                if conn
                    .request("{\"id\":1,\"op\":\"ping\"}")
                    .is_ok_and(|pong| ok(&pong))
                {
                    return Ok((server, conn));
                }
            }
            if start.elapsed() > Duration::from_secs(10) {
                return Err("m3d_serve did not answer a ping within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One request on a fresh connection.
    fn request(&self, line: &str) -> io::Result<String> {
        Conn::open(&self.sock, GRACE)?.request(line)
    }

    /// Peak resident set of the server so far, KiB.
    fn peak_rss_kib(&self) -> f64 {
        child::peak_rss_kib(self.proc.pid()).unwrap_or(0) as f64
    }

    /// Drains the server through the wire `shutdown` op and reaps it.
    fn shutdown(self) -> Result<child::Exit, String> {
        let resp = self.request("{\"id\":1,\"op\":\"shutdown\"}");
        let exit = self
            .proc
            .wait()
            .map_err(|e| format!("reap m3d_serve: {e}"))?;
        match resp {
            Ok(r) if ok(&r) && exit.success => Ok(exit),
            Ok(r) => Err(format!("shutdown: {r}; server exit ok: {}", exit.success)),
            Err(e) => Err(format!("shutdown: {e}")),
        }
    }
}

/// One cold `run` per key, serially on `c`: the response bodies every
/// later request must repeat, and each request's milliseconds.
fn prewarm(c: &mut Conn) -> Result<(Vec<String>, Vec<f64>), String> {
    let (mut bodies, mut ms) = (Vec::new(), Vec::new());
    for key in 0..KEYS {
        let t = Instant::now();
        let resp = c
            .request(&frame(key as u64 + 1, key))
            .map_err(|e| format!("prewarm: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        match body(&resp) {
            Some(b) if ok(&resp) => bodies.push(b.to_string()),
            _ => return Err(format!("prewarm of key {key} failed: {resp}")),
        }
    }
    Ok((bodies, ms))
}

/// A server started and prewarmed.
struct Ready {
    server: Server,
    /// Spawn to last prewarm answer, seconds.
    setup_s: f64,
    /// The prewarm response body of each key.
    expected: Vec<String>,
    /// Each cold prewarm request, ms.
    cold_ms: Vec<f64>,
}

/// Starts a server with `extra` arguments and prewarms it; one attempt
/// per prewarm request.
fn ready(ctx: &Ctx, rec: &mut Record, tag: &str, extra: &[&str]) -> Option<Ready> {
    let t = Instant::now();
    let (server, mut conn) = match Server::start(ctx, tag, extra) {
        Ok(s) => s,
        Err(e) => {
            rec.attempt(Some(e));
            return None;
        }
    };
    match prewarm(&mut conn) {
        Ok((expected, cold_ms)) => {
            rec.tally(KEYS, 0, Vec::new());
            Some(Ready {
                server,
                setup_s: t.elapsed().as_secs_f64(),
                expected,
                cold_ms,
            })
        }
        Err(e) => {
            rec.attempt(Some(e));
            None
        }
    }
}

/// One load phase, with the server CPU it cost per request (µs).
enum Phase {
    Open(&'static str, Level, f64),
    Closed(ClosedLoop, f64),
}

/// Runs the open-loop levels `rates` then the closed loop, `secs` each,
/// recording every request as an attempt.
fn load(
    r: &Ready,
    rec: &mut Record,
    rates: &[(&'static str, f64)],
    secs: f64,
    rng: &mut Rng,
) -> Vec<Phase> {
    let pid = r.server.proc.pid();
    let cpu = || child::cpu_us(pid).unwrap_or(0.0);
    let mut phases = Vec::new();
    for &(name, rate) in rates {
        let cpu0 = cpu();
        match open_loop(&r.server.sock, &r.expected, rate, secs, rng) {
            Ok(level) => {
                let per_req = (cpu() - cpu0) / level.sent.max(1) as f64;
                rec.tally(level.sent, level.failed, level.problems.clone());
                phases.push(Phase::Open(name, level, per_req));
            }
            Err(e) => rec.attempt(Some(format!("{name}: {e}"))),
        }
    }
    let cpu0 = cpu();
    let closed = closed_loop(&r.server.sock, &r.expected, secs, rng);
    let per_req = (cpu() - cpu0) / closed.sent.max(1) as f64;
    let mut problems = closed.problems.clone();
    // A loop that got no answer at all failed, even if it sent nothing.
    let failed = if closed.answered.is_empty() {
        closed.sent.max(1)
    } else {
        closed.failed
    };
    if failed > 0 {
        problems.push(format!(
            "{failed} of {} closed-loop requests without a correct answer",
            closed.sent
        ));
    }
    rec.tally(closed.sent.max(1), failed, problems);
    phases.push(Phase::Closed(closed, per_req));
    phases
}

fn closed(phases: &[Phase]) -> Option<&ClosedLoop> {
    phases.iter().find_map(|p| match p {
        Phase::Closed(c, _) => Some(c),
        Phase::Open(..) => None,
    })
}

/// The untraced run: [`ROUNDS`] rounds, each spawning and prewarming a
/// server, running the closed loop against it for an equal share of
/// `ctx.seconds`, and shutting it down through the wire. Rounds spread
/// the set-up samples over the run, as `batch::run` does, and average
/// over servers.
pub fn run(ctx: &Ctx, rec: &mut Record) {
    let mut rng = Rng::new(ctx.seed);
    let (mut setups, mut rss_kib, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut answered = 0;
    let mut first: Option<Vec<String>> = None;
    for i in 0..ROUNDS {
        let Some(r) = ready(ctx, rec, &format!("serve{i}"), &[]) else {
            return;
        };
        setups.push(r.setup_s);
        rss_kib.push(r.server.peak_rss_kib());
        match &first {
            None => first = Some(r.expected.clone()),
            Some(f) => rec.attempt(
                (*f != r.expected).then(|| "prewarm responses differ between server starts".into()),
            ),
        }
        let phases = load(&r, rec, &[], ctx.seconds / ROUNDS as f64, &mut rng);
        rss_kib.push(r.server.peak_rss_kib());
        if let Err(e) = r.server.shutdown() {
            rec.attempt(Some(e));
        }
        if let Some(c) = closed(&phases) {
            p50s.extend(window_p50s(&c.answered));
            answered += c.answered.len();
        }
    }
    rec.set("lat_p50_ms", stats::median(&p50s) / 1e3, answered);
    // Which dispatcher thread's allocator arena a cold flow lands in
    // varies, so a single server's peak swings by a tenth; the highest
    // of the servers, each sampled after its prewarm and after its load,
    // is the peak the program reaches.
    let peak = rss_kib.iter().copied().fold(0.0, f64::max);
    rec.set("peak_rss_mb", peak / 1024.0, rss_kib.len());
    rec.set("setup_s", stats::median(&setups), setups.len());
}

/// Seconds of each load phase in a traced run: a quarter of the run, so
/// the probe's three phases and the traced server's closed loop fill it.
fn phase_secs(ctx: &Ctx) -> f64 {
    ctx.seconds / 4.0
}

/// The serving layer probed directly, in every traced run: an untraced
/// server prewarmed, then loaded at 1000/s, 8000/s and the closed loop
/// for [`phase_secs`] each, then pinged on 20 fresh connections. Sets
/// the `serve.*` and `gen.*` metrics; returns the server's closing
/// `stats` response and its windowed closed-loop latency (µs).
pub fn probe_serving(ctx: &Ctx, rec: &mut Record, rng: &mut Rng) -> Option<(String, f64)> {
    const RATES: [(&str, f64); 2] = [("r1000", 1000.0), ("r8000", 8000.0)];
    let plain = ready(ctx, rec, "plain", &OPEN_LOOP_QUEUE)?;
    let phases = load(&plain, rec, &RATES, phase_secs(ctx), rng);
    let mut connect_ms = Vec::new();
    for _ in 0..CONNECTS {
        let t = Instant::now();
        let pong = plain.server.request("{\"id\":1,\"op\":\"ping\"}");
        connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rec.attempt(match pong {
            Ok(p) if ok(&p) => None,
            Ok(p) => Some(format!("ping: {p}")),
            Err(e) => Some(format!("ping: {e}")),
        });
    }
    let stats_line = plain
        .server
        .request("{\"id\":1,\"op\":\"stats\"}")
        .unwrap_or_default();
    if let Err(e) = plain.server.shutdown() {
        rec.attempt(Some(e));
    }
    for (metric, field) in [
        ("serve.requests", "requests"),
        ("serve.protocol_errors", "protocol_errors"),
    ] {
        let v = stats_field(rec, &stats_line, field);
        rec.set(metric, v, 1);
    }
    for phase in &phases {
        match phase {
            Phase::Open(name, lv, cpu) => {
                let lat = latencies(&lv.answered);
                rec.set(&format!("serve.cpu_us_per_req.{name}"), *cpu, lv.sent);
                rec.set(
                    &format!("serve.lat_p50_us.{name}"),
                    windowed_p50(&lv.answered),
                    lat.len(),
                );
                rec.set(
                    &format!("serve.lat_tail_us.{name}"),
                    stats::tail(&lat).value,
                    lat.len(),
                );
                let lag = stats::sorted(&lv.lag_us);
                rec.set(
                    &format!("gen.lag_tail_us.{name}"),
                    stats::tail(&lag).value,
                    lag.len(),
                );
                if *name == "r8000" {
                    rec.set("serve.backlog_max.r8000", lv.backlog_max as f64, lv.sent);
                }
            }
            Phase::Closed(c, cpu) => {
                let lat = latencies(&c.answered);
                rec.set("serve.cpu_us_per_req.sat", *cpu, c.sent);
                rec.set("serve.sat_rps", c.windowed_rate(), lat.len());
                rec.set("serve.lat_tail_us.sat", stats::tail(&lat).value, lat.len());
            }
        }
    }
    rec.set("serve.connect_ms", stats::median(&connect_ms), CONNECTS);
    rec.set("serve.cold_run_ms", stats::median(&plain.cold_ms), KEYS);
    let p50 = windowed_p50(&closed(&phases)?.answered);
    Some((stats_line, p50))
}

/// A numeric field of a `stats` response; a missing one is a failure.
fn stats_field(rec: &mut Record, stats_line: &str, field: &str) -> f64 {
    let v = json_raw_field(stats_line, field).and_then(|v| v.parse().ok());
    rec.attempt(
        v.is_none()
            .then(|| format!("stats response lacks {field}: {stats_line}")),
    );
    v.unwrap_or(0.0)
}

/// The traced run: the serving probe, whose server's counters are this
/// workload's cache figures; then a server with the JSONL recorder
/// attached (`--trace`), whose prewarm gives the stage spans and whose
/// closed-loop latency, against the probe's, the tracing overhead. The
/// trace is validated by `trace_check`. Then the direct layer probes.
pub fn run_traced(ctx: &Ctx, rec: &mut Record) {
    let mut rng = Rng::new(ctx.seed);
    let Some((stats_line, plain_p50)) = probe_serving(ctx, rec, &mut rng) else {
        return;
    };
    for (metric, field) in [
        ("cache.library_builds", "library_builds"),
        ("cache.library_hits", "library_hits"),
        ("cache.flow_misses", "flow_misses"),
        ("cache.flow_hits", "flow_hits"),
        ("cache.disk_hits", "disk_hits"),
    ] {
        let v = stats_field(rec, &stats_line, field);
        rec.set(metric, v, 1);
    }
    let Some(traced) = ready(ctx, rec, "traced", &["--trace", "serve.jsonl"]) else {
        return;
    };
    let traced_phases = load(&traced, rec, &[], phase_secs(ctx), &mut rng);
    let prewarm_s = traced.cold_ms.iter().sum::<f64>() / 1e3;
    if let Err(e) = traced.server.shutdown() {
        rec.attempt(Some(e));
    }
    rec.attempt(ctx.trace_check("serve.jsonl"));
    let trace = std::fs::read_to_string(ctx.tmp.join("serve.jsonl")).unwrap_or_default();
    let t = layers::stage_totals(&trace);
    t.record(rec);
    // Serving, cache and supervision time of the cold prewarm requests.
    rec.set("flow.unattributed_s", prewarm_s - t.total_s(), KEYS);
    rec.set("flow.attributed_frac", t.total_s() / prewarm_s, KEYS);
    if let Some(c) = closed(&traced_phases) {
        rec.set(
            "trace.overhead_frac",
            windowed_p50(&c.answered) / plain_p50 - 1.0,
            c.answered.len(),
        );
    }
    ctx.probe_layers(rec, Benchmark::Aes, BenchScale::Small, 5);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;

    #[test]
    fn schedule_is_seeded_poisson() {
        let a = poisson_schedule(1000.0, 5.0, KEYS, &mut Rng::new(1));
        let b = poisson_schedule(1000.0, 5.0, KEYS, &mut Rng::new(1));
        let c = poisson_schedule(1000.0, 5.0, KEYS, &mut Rng::new(2));
        assert_eq!(a, b, "same seed, same arrivals and keys");
        assert_ne!(a, c, "another seed, other arrivals");
        // 5000 expected arrivals; a Poisson count's sd is ~71.
        assert!((4700..5300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(a.iter().all(|&(t, k)| t < 5.0 && k < KEYS));
        // Every key is drawn.
        assert!((0..KEYS).all(|k| a.iter().any(|&(_, key)| key == k)));
    }

    #[test]
    fn due_time_measures_include_lateness() {
        let due = Instant::now();
        assert_eq!(since_due_us(due, due), 0.0);
        let late = due + Duration::from_micros(1500);
        assert!((since_due_us(due, late) - 1500.0).abs() < 1e-6);
        // Early is never negative.
        assert_eq!(since_due_us(late, due), 0.0);
    }

    #[test]
    fn windowed_figures_shrug_off_one_noisy_window() {
        // Four windows at 100 µs, one swamped at 5 ms.
        let mut answered = Vec::new();
        for w in 0..5 {
            let lat = if w == 2 { 5000.0 } else { 100.0 };
            for k in 0..20 {
                answered.push((w as f64 * WINDOW_S + k as f64 * 0.01, lat));
            }
        }
        assert_eq!(windowed_p50(&answered), 100.0);
        // Two whole windows of 100 answers and one starved one.
        let mut answered: Vec<(f64, f64)> = (0..200).map(|i| (i as f64 * 0.005, 50.0)).collect();
        answered.push((1.2, 9000.0));
        let closed = ClosedLoop {
            answered,
            secs: 1.5,
            ..ClosedLoop::default()
        };
        assert_eq!(closed.windowed_rate(), 200.0);
        assert_eq!(windowed_p50(&closed.answered), 50.0);
    }

    #[test]
    fn frames_and_bodies_round_trip() {
        let f = frame(7, 13);
        assert_eq!(
            f,
            "{\"id\":7,\"op\":\"run\",\"bench\":\"AES\",\"style\":\"3D\",\"scale\":\"small\",\"node\":\"7nm\"}"
        );
        assert_eq!(
            body("{\"id\":12,\"ok\":true,\"x\":1}"),
            Some("\"ok\":true,\"x\":1}")
        );
        assert_eq!(body("garbage"), None);
        assert!(ok("{\"id\":1,\"ok\":true}"));
        assert!(!ok("{\"id\":1,\"ok\":false,\"error\":\"queue_full\"}"));
        assert_eq!(answered_index("{\"id\":3,\"ok\":true}", 5), Some(2));
        assert_eq!(answered_index("{\"id\":0,\"ok\":true}", 5), None);
        assert_eq!(answered_index("{\"id\":6,\"ok\":true}", 5), None);
    }

    /// A fake `m3d_serve` on a temporary socket, serving `conns`
    /// connections at once: answers every request with `answer`,
    /// sleeping `stall` before answering request `stall_id`.
    fn fake_server(
        tag: &str,
        conns: usize,
        answer: &'static str,
        stall_id: u64,
        stall: Duration,
    ) -> (PathBuf, std::thread::JoinHandle<()>) {
        let sock =
            std::env::temp_dir().join(format!("m3d-benchmark-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).expect("bind test socket");
        let handle = std::thread::spawn(move || {
            std::thread::scope(|s| {
                for _ in 0..conns {
                    let (conn, _) = listener.accept().expect("accept");
                    s.spawn(move || {
                        let mut w = conn.try_clone().expect("clone");
                        for line in BufReader::new(conn).lines() {
                            let line = line.expect("read frame");
                            let id: u64 = json_raw_field(&line, "id")
                                .and_then(|v| v.parse().ok())
                                .expect("id");
                            if id == stall_id {
                                std::thread::sleep(stall);
                            }
                            if writeln!(w, "{{\"id\":{id},{answer}").is_err() {
                                return;
                            }
                        }
                    });
                }
            });
        });
        (sock, handle)
    }

    /// Every request queued behind a stall must show the stall in its
    /// due-time latency, even though each was answered immediately once
    /// read.
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let (sock, server) = fake_server(
            "open",
            1,
            "\"ok\":true,\"same\":1}",
            20,
            Duration::from_millis(40),
        );
        let expected = vec!["\"ok\":true,\"same\":1}".to_string(); KEYS];
        let level = open_loop(&sock, &expected, 1000.0, 0.2, &mut Rng::new(3)).expect("open loop");
        server.join().expect("fake server thread");
        let _ = std::fs::remove_file(&sock);
        assert_eq!(level.failed, 0, "{:?}", level.problems);
        assert_eq!(level.answered.len(), level.sent);
        assert_eq!(level.lag_us.len(), level.sent);
        assert!(level.sent > 150);
        let lat = latencies(&level.answered);
        // The stall shows in the stalled request and the ones due in
        // the next ~40 ms behind it (about 40 at 1000/s).
        let stalled = lat.iter().filter(|&&l| l >= 10_000.0).count();
        assert!(stalled >= 10, "only {stalled} requests saw the stall");
        assert!(lat[lat.len() - 1] >= 35_000.0);
        assert!(level.backlog_max >= 10);
        // Most requests are not behind the stall.
        assert!(stats::median(&lat) < 10_000.0);
    }

    #[test]
    fn closed_loop_uses_every_connection_and_checks_every_answer() {
        let (sock, server) = fake_server(
            "closed",
            CONNECTIONS,
            "\"ok\":true,\"same\":1}",
            0,
            Duration::ZERO,
        );
        let expected = vec!["\"ok\":true,\"same\":1}".to_string(); KEYS];
        let c = closed_loop(&sock, &expected, 0.3, &mut Rng::new(4));
        server.join().expect("fake server thread");
        let _ = std::fs::remove_file(&sock);
        assert_eq!(c.failed, 0, "{:?}", c.problems);
        assert!(c.sent > 2 * CONNECTIONS);
        assert_eq!(c.answered.len(), c.sent);
        // One request outstanding per connection, each answered at once.
        assert!(c.answered.iter().all(|&(_, lat)| lat < 1e6));
        // A wrong body is a failure, not a throughput sample.
        let (sock, server) = fake_server(
            "closed-bad",
            CONNECTIONS,
            "\"ok\":true,\"other\":1}",
            0,
            Duration::ZERO,
        );
        let c = closed_loop(&sock, &expected, 0.05, &mut Rng::new(4));
        server.join().expect("fake server thread");
        let _ = std::fs::remove_file(&sock);
        assert!(c.sent > 0);
        assert_eq!(c.failed, c.sent);
        assert!(c.answered.is_empty());
    }
}
