//! Child processes of the benchmark: spawn, reap with the kernel's
//! resource usage (peak RSS), read a live child's CPU time from
//! `/proc`, and stop every child when the run overruns its deadline.
//!
//! Linux only: the resource-usage layout below is the 64-bit Linux
//! `struct rusage`, and the CPU clock comes from `/proc/<pid>/stat`.

use std::io;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Children spawned and not yet reaped; the deadline kills these.
static LIVE: Mutex<Vec<i32>> = Mutex::new(Vec::new());

/// 64-bit Linux `struct rusage`: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

/// Opaque `siginfo_t` (128 bytes on Linux).
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

const P_PID: u32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;
const PR_SET_TIMERSLACK: i32 = 29;
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn waitid(idtype: u32, id: u32, infop: *mut SigInfo, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// Exited with status 0.
    pub success: bool,
    /// Peak resident set (the kernel's `VmHWM`), KiB.
    pub maxrss_kib: u64,
}

/// A spawned child, registered with the deadline until reaped. One
/// dropped without [`Running::wait`] is killed and reaped, so an early
/// return never leaves a process behind.
pub struct Running {
    pid: i32,
    start: Instant,
    reaped: bool,
}

impl Running {
    /// Spawns `cmd` and starts its wall clock.
    pub fn spawn(cmd: &mut Command) -> io::Result<Running> {
        let start = Instant::now();
        let pid = i32::try_from(cmd.spawn()?.id()).expect("Linux pids fit in i32");
        LIVE.lock().expect("child registry").push(pid);
        Ok(Running {
            pid,
            start,
            reaped: false,
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> i32 {
        self.pid
    }

    /// Blocks until the child exits, then reaps it with its resource
    /// usage.
    pub fn wait(mut self) -> io::Result<Exit> {
        self.reap()
    }

    fn reap(&mut self) -> io::Result<Exit> {
        let pid = self.pid;
        // Wait without reaping first: the exited child keeps its pid
        // until `wait4` below, so the deadline can never signal a
        // recycled pid that belongs to someone else.
        let mut info = SigInfo([0; 128]);
        loop {
            // SAFETY: `info` is a writable siginfo_t-sized buffer that
            // outlives the call; the other arguments are plain integers.
            if unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) } == 0 {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        let wall_s = self.start.elapsed().as_secs_f64();
        LIVE.lock().expect("child registry").retain(|&p| p != pid);
        let mut status = 0i32;
        let mut ru = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `status` and `ru` are writable, correctly sized for
        // the 64-bit Linux ABI, and outlive the call.
        if unsafe { wait4(pid, &mut status, 0, &mut ru) } != pid {
            return Err(io::Error::last_os_error());
        }
        self.reaped = true;
        Ok(Exit {
            wall_s,
            success: status == 0,
            maxrss_kib: u64::try_from(ru.maxrss).unwrap_or(0),
        })
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.reaped {
            // SAFETY: plain syscall on our own child, not yet reaped, so
            // the pid cannot have been recycled.
            unsafe { kill(self.pid, SIGKILL) };
            let _ = self.reap();
        }
    }
}

/// Spawns `cmd` and waits for it.
pub fn run(cmd: &mut Command) -> io::Result<Exit> {
    Running::spawn(cmd)?.wait()
}

/// Stops the whole run once `budget` has passed: kills and reaps every
/// live child, then exits with status 3 without printing a result. The
/// thread is detached on purpose — it must outlive whatever it guards.
pub fn arm_deadline(budget: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(budget);
        let live = LIVE.lock().expect("child registry");
        for &pid in live.iter() {
            // SAFETY: plain syscall on a pid this process spawned and
            // has not reaped, so it cannot have been recycled.
            unsafe { kill(pid, SIGKILL) };
        }
        for &pid in live.iter() {
            let mut status = 0i32;
            // SAFETY: null rusage is allowed; `status` is writable.
            unsafe { wait4(pid, &mut status, 0, std::ptr::null_mut()) };
        }
        eprintln!(
            "benchmark: run exceeded its {:.0} s budget; stopped {} child process(es)",
            budget.as_secs_f64(),
            live.len()
        );
        std::process::exit(3);
    });
}

/// Asks the kernel to wake the calling thread's sleeps on time (1 ns
/// timer slack instead of the default 50 µs), so the open-loop
/// generator's lateness measures scheduling, not timer coalescing.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer and affects only the
    // calling thread.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from its last closing parenthesis.
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set, KiB) from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim_end()
        .parse()
        .ok()
}

/// Peak resident set of a live process so far, KiB.
pub fn peak_rss_kib(pid: i32) -> Option<u64> {
    vm_hwm_kib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// CPU time a live process has used so far, microseconds.
pub fn cpu_us(pid: i32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // SAFETY: sysconf takes an integer and returns one.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    let ticks = stat_cpu_ticks(&stat)?;
    (hz > 0).then(|| ticks as f64 * 1e6 / hz as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_fields_after_the_command_name() {
        // Field 14 (utime) = 250, field 15 (stime) = 17; the command
        // name carries a space and a parenthesis.
        let stat = "4242 (m3d (serve) x) S 1 4242 4242 0 -1 4194560 3120 0 0 0 \
                    250 17 0 0 20 0 5 0 123456 123456789 2048 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Some(267));
        assert_eq!(stat_cpu_ticks("4242 (cut) S 1 2"), None);
        assert_eq!(stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_parser_reads_the_peak_resident_set() {
        let status =
            "Name:\tm3d_serve\nVmPeak:\t  123456 kB\nVmHWM:\t   10512 kB\nVmRSS:\t    9000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(10512));
        assert_eq!(vm_hwm_kib("Name:\tx\nVmRSS:\t 9 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn own_proc_files_parse() {
        let pid = i32::try_from(std::process::id()).expect("pid fits");
        assert!(cpu_us(pid).is_some());
        assert!(peak_rss_kib(pid).is_some_and(|k| k > 0));
    }

    #[test]
    fn reaped_child_reports_status_and_peak_rss() {
        let exe = std::env::current_exe().expect("test binary path");
        // `--list` makes the test harness print and exit 0 at once.
        let exit = run(Command::new(&exe)
            .arg("--list")
            .stdout(std::process::Stdio::null()))
        .expect("spawn test binary");
        assert!(exit.success);
        assert!(exit.maxrss_kib > 0);
        assert!(exit.wall_s > 0.0);
        let exit = run(Command::new(&exe)
            .arg("--no-such-flag")
            .stderr(std::process::Stdio::null()))
        .expect("spawn test binary");
        assert!(!exit.success);
    }
}
