//! The monolith3d experiment server.
//!
//! ```text
//! m3d_serve [--unix PATH] [--tcp ADDR] [--jobs N] [--queue N] [--quota N]
//!           [--cache-dir DIR] [--trace FILE]
//! ```
//!
//! At least one of `--unix` / `--tcp` is required. `--jobs N` sizes the
//! dispatcher pool (default: the host's available parallelism);
//! `--queue N` the admission queue capacity (a full queue answers a
//! typed `queue_full`); `--quota N` the per-connection cap on queued
//! points.
//!
//! `--cache-dir DIR` attaches the persistent artifact store, so results
//! survive server restarts.
//! `--trace FILE` appends every flow and admission event as JSONL —
//! the same format `trace_check` validates.
//!
//! SIGTERM and SIGINT trigger the same graceful drain as the wire
//! `shutdown` op: in-flight requests finish and respond, queued ones
//! get a typed `draining` error without running, and nothing is
//! written for them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use m3d_bench::cli;
use m3d_serve::{Listen, Server, ServerConfig};
use monolith3d::{ArtifactCache, DiskStore, JsonlRecorder, Recorder};

static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: set the flag, let main poll it.
    SIGNALLED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // Hand-rolled registration against the C runtime std already links;
    // the workspace deliberately carries no libc crate.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: m3d_serve [--unix PATH] [--tcp ADDR] [--jobs N] [--queue N] \
         [--quota N] [--cache-dir DIR] [--trace FILE]"
    );
    std::process::exit(2);
}

fn parse_count(flag: &str, value: Option<&str>) -> usize {
    let v = value.unwrap_or_else(|| usage_exit(&format!("{flag} needs a number")));
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => usage_exit(&format!("{flag} needs a positive number, got '{v}'")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServerConfig {
        dispatchers: std::thread::available_parallelism().map_or(2, |n| n.get()),
        ..ServerConfig::default()
    };
    let mut cache_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, mut inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let mut value = |flag: &str| {
            inline
                .take()
                .or_else(|| it.next().cloned())
                .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        match flag {
            "--unix" => cfg
                .listen
                .push(Listen::Unix(PathBuf::from(value("--unix")))),
            "--tcp" => cfg.listen.push(Listen::Tcp(value("--tcp"))),
            "--jobs" => {
                cfg.dispatchers = cli::parse_jobs(Some(&value("--jobs")))
                    .unwrap_or_else(|e| usage_exit(&e.to_string()));
            }
            "--queue" => cfg.queue_capacity = parse_count("--queue", Some(&value("--queue"))),
            "--quota" => {
                cfg.quota = Some(parse_count("--quota", Some(&value("--quota"))) as u32);
            }
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            "--trace" => trace_path = Some(value("--trace")),
            other => usage_exit(&format!("unknown flag '{other}'")),
        }
    }
    if cfg.listen.is_empty() {
        usage_exit("nothing to listen on: give --unix PATH and/or --tcp ADDR");
    }

    // Sinks attach to the global cache before the first request, same
    // order as paper_tables: recorder first so the disk tier's events
    // land in the trace too. The global cache is never dropped, so the
    // buffered trace is flushed explicitly once the server has drained.
    let trace = trace_path.as_ref().map(|p| {
        let rec = JsonlRecorder::create(Path::new(p))
            .unwrap_or_else(|e| usage_exit(&format!("cannot create trace file '{p}': {e}")));
        let rec = Arc::new(rec);
        ArtifactCache::global().set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        cfg.recorder = Some(Arc::clone(&rec) as Arc<dyn Recorder>);
        rec
    });
    if let Some(d) = &cache_dir {
        ArtifactCache::global().attach_disk(DiskStore::open(Path::new(d)));
        eprintln!("[persistent artifact store at {d}]");
    }

    install_signal_handlers();
    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => usage_exit(&format!("cannot start server: {e}")),
    };
    for l in &cfg.listen {
        match l {
            Listen::Unix(p) => eprintln!("[listening on unix socket {}]", p.display()),
            Listen::Tcp(_) => {}
        }
    }
    for a in server.tcp_addrs() {
        eprintln!("[listening on tcp {a}]");
    }

    // Park until a signal lands or a wire shutdown drains the server.
    while !SIGNALLED.load(Ordering::SeqCst) && !server.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let pending = server.shutdown();
    if pending > 0 {
        eprintln!("[drained; {pending} queued requests answered draining, not run]");
    } else {
        eprintln!("[drained; no pending work]");
    }
    server.join();
    if let Some(rec) = &trace {
        if let Err(e) = rec.flush() {
            eprintln!("[trace flush failed: {e}]");
        }
    }
}
