//! Resource governance for the parallel flow engine: cooperative
//! cancellation, run/point deadline budgets, and graceful drain
//! (DESIGN.md §14). Admission control for served requests lives with
//! its one caller, `m3d-serve` (DESIGN.md §15).
//!
//! The flow-as-a-service direction (ROADMAP) needs whole *runs* to be
//! governable the way PR 3 made individual stages crash-safe: a launched
//! [`crate::ExperimentPlan`] must be stoppable, boundable and drainable
//! without wedging a worker or tearing the caches. The pieces:
//!
//! * [`CancelToken`] — a shared cancellation point (atomic flag +
//!   condvar wakeup + optional deadline). Every deadline in the engine
//!   lives on one token tree: run token → point token → stage-attempt
//!   token. Cancelling a token cancels everything derived from it; a
//!   stage budget armed on an attempt token stops that attempt alone.
//! * [`check`] — the cooperative stop point. The supervisor installs
//!   each attempt's token on the calling thread ([`install`]); stage
//!   bodies call `check` between algorithm calls and the cache's
//!   `BuildCell` wait polls it, so a cancelled or over-budget attempt
//!   stops at its next check. No thread is ever detached.
//! * [`RunGovernor`] — the per-run policy bundle: the run token, a
//!   whole-run deadline, a per-point deadline, and the drain switch.
//!   [`crate::ParallelExecutor::run_governed`] consumes one and returns
//!   partial results — completed slots intact, pending slots a typed
//!   [`PointOutcome`].
//! * Drain persistence — [`save_remainder`] / [`load_remainder`] carry
//!   the unstarted tail of a drained plan in the shared durable frame
//!   (DESIGN.md §9), so a later process resumes exactly the points this
//!   one never started.
//!
//! **Cancellation purity.** A cancelled run publishes nothing torn: flow
//! results enter the caches only after sign-off, and a cancelled stage
//! attempt restores the pre-attempt artifact state, so re-running a
//! cancelled plan over the same memory+disk caches is bit-identical to
//! a run that was never cancelled (`tests/govern.rs` pins this).

use std::cell::RefCell;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::checkpoint::{dec_config, enc_config};
use crate::codec::{
    dec_benchmark, dec_style, enc_benchmark, enc_style, frame, unframe, write_atomic, Dec,
    DecResult, DecodeError, Enc,
};
use crate::error::{FlowError, FlowStage};
use crate::executor::{ExperimentPlan, PlanPoint};
use crate::flow::FlowResult;

/// Why a token reports itself cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// Someone called [`CancelToken::cancel`] (on this token or an
    /// ancestor). An explicit cancel always wins over a deadline.
    Cancelled,
    /// An armed deadline passed (on this token or an ancestor).
    DeadlineExceeded,
}

/// How long a parked waiter sleeps between cancellation checks. A
/// same-token [`CancelToken::cancel`] wakes sleepers immediately via the
/// condvar; an ancestor's cancel is observed within one slice. This
/// bounds every cooperative wait's reaction latency.
const WAKE_SLICE: Duration = Duration::from_millis(15);

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Mutex<Option<Instant>>,
    wake_lock: Mutex<()>,
    wake: Condvar,
    parent: Option<CancelToken>,
}

/// A shared cancellation point: clone it anywhere, cancel it once, and
/// every cooperative wait holding a clone (or a [`CancelToken::child`])
/// wakes and unwinds with a typed error instead of hanging.
///
/// Deadlines ride on the same token ([`CancelToken::arm_deadline_in`]):
/// a passed deadline makes the token report cancelled with
/// [`CancelCause::DeadlineExceeded`], no watcher thread required —
/// waiters clip their sleeps and re-check.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline and no parent.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Mutex::new(None),
                wake_lock: Mutex::new(()),
                wake: Condvar::new(),
                parent: None,
            }),
        }
    }

    /// A child token: cancelled whenever this token is, but cancellable
    /// (and deadline-armable) on its own without affecting the parent.
    /// The executor derives one per plan point; the supervisor derives
    /// one per stage attempt and arms the stage budget on it, so a blown
    /// budget stops that attempt while the run carries on.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Mutex::new(None),
                wake_lock: Mutex::new(()),
                wake: Condvar::new(),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Requests cancellation: sets the flag and wakes this token's
    /// sleepers. Idempotent. Children observe it within one wake slice.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
        let _guard = self.inner.wake_lock.lock().expect("cancel token lock");
        self.inner.wake.notify_all();
    }

    /// Arms (or tightens) a deadline `after` from now. The earlier of
    /// two armed deadlines wins.
    pub fn arm_deadline_in(&self, after: Duration) {
        let at = Instant::now() + after;
        let mut slot = self.inner.deadline.lock().expect("cancel token lock");
        *slot = Some(slot.map_or(at, |prev| prev.min(at)));
    }

    /// Whether the token (or any ancestor) is cancelled or past its
    /// deadline.
    pub fn is_cancelled(&self) -> bool {
        self.cause().is_some()
    }

    /// Why the token is cancelled, if it is. An explicit cancel anywhere
    /// in the ancestor chain wins over a passed deadline.
    pub fn cause(&self) -> Option<CancelCause> {
        let now = Instant::now();
        let mut deadline_hit = false;
        let mut cur = Some(self);
        while let Some(t) = cur {
            if t.inner.cancelled.load(Ordering::Acquire) {
                return Some(CancelCause::Cancelled);
            }
            if t.inner
                .deadline
                .lock()
                .expect("cancel token lock")
                .is_some_and(|d| now >= d)
            {
                deadline_hit = true;
            }
            cur = t.inner.parent.as_ref();
        }
        deadline_hit.then_some(CancelCause::DeadlineExceeded)
    }

    /// Parks for up to `max`, waking early on cancellation. Returns
    /// whether the token was cancelled. The sleep runs in bounded
    /// slices, so an ancestor's cancel (which only notifies its own
    /// condvar) is still observed promptly.
    pub fn wait_cancelled_for(&self, max: Duration) -> bool {
        let until = Instant::now() + max;
        let mut guard = self.inner.wake_lock.lock().expect("cancel token lock");
        loop {
            if self.is_cancelled() {
                return true;
            }
            let now = Instant::now();
            if now >= until {
                return false;
            }
            let slice = (until - now).min(WAKE_SLICE);
            let (g, _) = self
                .inner
                .wake
                .wait_timeout(guard, slice)
                .expect("cancel token lock");
            guard = g;
        }
    }

    /// Parks until cancelled — the cooperative "wedged stage" used by
    /// [`crate::FaultKind::StuckStage`]. Never returns un-cancelled.
    pub fn wait_cancelled(&self) {
        while !self.wait_cancelled_for(Duration::from_secs(3600)) {}
    }
}

// ---------------------------------------------------------------------
// Thread-local token propagation
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Restores the previously installed token on drop.
#[derive(Debug)]
pub struct TokenGuard {
    prev: Option<CancelToken>,
}

impl Drop for TokenGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Installs `token` as the calling thread's current cancellation point
/// until the returned guard drops. The supervisor installs each stage
/// attempt's token around the stage body, which is how the stage loops
/// and deep waits — the cache's `BuildCell` coalescing wait in
/// particular — see it without threading a token through every
/// signature.
pub fn install(token: CancelToken) -> TokenGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(token));
    TokenGuard { prev }
}

/// The cooperative stop point: `Err(Cancelled { stage })` when the
/// calling thread's installed token is cancelled or past a deadline,
/// `Ok` otherwise (and always `Ok` with no token installed). Reads the
/// token in place, without cloning it. The supervisor replaces the
/// error with the token's typed cause when the attempt returns.
///
/// # Errors
///
/// [`FlowError::Cancelled`] naming `stage` once the token has fired.
pub fn check(stage: FlowStage) -> Result<(), FlowError> {
    let stopped = CURRENT.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled));
    if stopped {
        Err(FlowError::Cancelled { stage })
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Point outcomes
// ---------------------------------------------------------------------

/// How one plan point ended under a governed run: the partial-results
/// contract of [`crate::ParallelExecutor::run_governed`].
#[derive(Debug, Clone)]
pub enum PointOutcome {
    /// The flow closed; the result is cached exactly as an ungoverned
    /// run would have cached it. Boxed: a `FlowResult` dwarfs the other
    /// variants and outcomes live in per-slot vectors.
    Done(Box<FlowResult>),
    /// The flow failed on its own (the governor did not intervene).
    Failed(FlowError),
    /// The run was cancelled before or during this point.
    Cancelled,
    /// The whole-run or per-point deadline passed before this point
    /// completed.
    DeadlineExceeded,
    /// A drain stopped the run before this point started; the point is
    /// part of the persisted remainder.
    Drained,
}

impl PointOutcome {
    /// Stable lowercase key (trace payloads, bench JSON).
    pub fn key(&self) -> &'static str {
        match self {
            PointOutcome::Done(_) => "done",
            PointOutcome::Failed(_) => "failed",
            PointOutcome::Cancelled => "cancelled",
            PointOutcome::DeadlineExceeded => "deadline_exceeded",
            PointOutcome::Drained => "drained",
        }
    }

    /// The sign-off result, when the point closed.
    pub fn result(&self) -> Option<&FlowResult> {
        match self {
            PointOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// True for `Done`.
    pub fn is_done(&self) -> bool {
        matches!(self, PointOutcome::Done(_))
    }
}

// ---------------------------------------------------------------------
// Run governor
// ---------------------------------------------------------------------

/// The policy bundle one governed run executes under: cancellation,
/// run and point deadlines, drain, and an optional fault plan for the
/// chaos harness. Per-stage budgets stay with the supervisor
/// ([`crate::SupervisorPolicy::deadlines`]), armed on each attempt's
/// child of the point token.
///
/// Clones share the live state (the token and the drain switch) and
/// copy the policy, so a service thread can hold a clone and
/// [`RunGovernor::cancel`] / [`RunGovernor::drain`] a run the executor
/// owns.
#[derive(Debug, Clone, Default)]
pub struct RunGovernor {
    token: CancelToken,
    draining: Arc<AtomicBool>,
    run_deadline: Option<Duration>,
    point_deadline: Option<Duration>,
    drain_dir: Option<std::path::PathBuf>,
    faults: crate::faultinject::FaultPlan,
}

impl RunGovernor {
    /// A governor with no deadlines armed: cancellation and drain only.
    pub fn new() -> Self {
        RunGovernor::default()
    }

    /// Bounds the whole run: the run token's deadline arms when
    /// `run_governed` starts, and every point still pending when it
    /// passes reports [`PointOutcome::DeadlineExceeded`].
    pub fn with_run_deadline(mut self, deadline: Duration) -> Self {
        self.run_deadline = Some(deadline);
        self
    }

    /// Bounds each point independently (measured from the point's own
    /// start), on top of any whole-run budget.
    pub fn with_point_deadline(mut self, deadline: Duration) -> Self {
        self.point_deadline = Some(deadline);
        self
    }

    /// Where a drain persists the unstarted plan remainder
    /// (`plan-remainder.m3d` under `dir`); without it the remainder is
    /// only reported in the [`crate::GovernedReport`].
    pub fn with_drain_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.drain_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Arms a deterministic fault plan applied to every governed point
    /// (test harness; see [`crate::FaultPlan`]).
    pub fn with_faults(mut self, faults: crate::faultinject::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The run token (clone it to share the cancellation point).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Cancels the run: in-flight points unwind cooperatively, pending
    /// points report [`PointOutcome::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Starts a graceful drain: workers finish their in-flight points,
    /// start nothing new, and the unstarted remainder is persisted when
    /// a drain directory is configured.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether the run is cancelled (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// Why the run is cancelled, if it is.
    pub fn cause(&self) -> Option<CancelCause> {
        self.token.cause()
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Arms the whole-run deadline; called once at `run_governed` entry.
    pub(crate) fn arm(&self) {
        if let Some(d) = self.run_deadline {
            self.token.arm_deadline_in(d);
        }
    }

    /// A token for one plan point: child of the run token, with the
    /// per-point deadline armed.
    pub(crate) fn point_token(&self) -> CancelToken {
        let tok = self.token.child();
        if let Some(d) = self.point_deadline {
            tok.arm_deadline_in(d);
        }
        tok
    }

    pub(crate) fn drain_dir(&self) -> Option<&Path> {
        self.drain_dir.as_deref()
    }

    pub(crate) fn faults(&self) -> &crate::faultinject::FaultPlan {
        &self.faults
    }
}

// ---------------------------------------------------------------------
// Drain persistence
// ---------------------------------------------------------------------

/// File magic of a persisted plan remainder (version 1).
const PLAN_MAGIC: &[u8; 8] = b"M3DPLAN1";

/// Tag of the single remainder section.
const TAG_POINTS: u8 = 1;

/// The file name [`crate::ParallelExecutor::run_governed`] persists a
/// drain remainder under (inside the governor's drain directory).
pub const REMAINDER_FILE: &str = "plan-remainder.m3d";

fn corrupt(path: &Path, detail: String) -> FlowError {
    FlowError::CorruptCheckpoint {
        path: path.display().to_string(),
        detail,
    }
}

/// Persists the unstarted tail of a drained plan in the durable frame
/// built by `codec::frame` (DESIGN.md §9) under the magic `M3DPLAN1`,
/// its points encoded by the checkpoint codec's config encoder. Returns
/// the encoded size in bytes. The write goes through
/// `codec::write_atomic`, so a crash mid-drain leaves either the old
/// remainder or the new one, never a torn file.
///
/// # Errors
///
/// [`FlowError::CorruptCheckpoint`] on any I/O failure.
pub fn save_remainder(path: &Path, points: &[PlanPoint]) -> Result<u64, FlowError> {
    let mut body = Enc::default();
    body.usize(points.len());
    for p in points {
        enc_benchmark(&mut body, p.bench);
        enc_style(&mut body, p.style);
        enc_config(&mut body, &p.config);
    }
    let file = frame(PLAN_MAGIC, &[(TAG_POINTS, &body.buf)]);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| corrupt(path, format!("create dir: {e}")))?;
    }
    write_atomic(path, &file).map_err(|e| corrupt(path, format!("write: {e}")))?;
    Ok(file.len() as u64)
}

/// Loads a persisted plan remainder back into an [`ExperimentPlan`]
/// (dedup still applies), verifying the whole frame.
///
/// # Errors
///
/// [`FlowError::CorruptCheckpoint`] when the file is missing, truncated,
/// carries trailing bytes or fails verification.
pub fn load_remainder(path: &Path) -> Result<ExperimentPlan, FlowError> {
    let decode = || -> DecResult<ExperimentPlan> {
        let bytes = fs::read(path).map_err(|e| DecodeError(format!("read: {e}")))?;
        let [body] = unframe(&bytes, PLAN_MAGIC, [TAG_POINTS])?;
        let mut d = Dec::new(body);
        let count = d.usize()?;
        let mut plan = ExperimentPlan::new();
        for _ in 0..count {
            let bench = dec_benchmark(&mut d)?;
            let style = dec_style(&mut d)?;
            plan.push(bench, style, dec_config(&mut d)?);
        }
        d.finish()?;
        Ok(plan)
    };
    decode().map_err(|e| corrupt(path, e.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_tech::{DesignStyle, NodeId};

    use crate::codec::content_hash;
    use crate::flow::FlowConfig;

    fn point(bench: Benchmark, style: DesignStyle) -> PlanPoint {
        PlanPoint {
            bench,
            style,
            config: FlowConfig::new(NodeId::N45).scale(BenchScale::Small),
        }
    }

    #[test]
    fn explicit_cancel_beats_deadline_and_reaches_children() {
        let root = CancelToken::new();
        let child = root.child();
        assert!(!child.is_cancelled());
        child.arm_deadline_in(Duration::from_secs(3600));
        assert_eq!(child.cause(), None, "future deadline is not a cancel");
        root.cancel();
        assert_eq!(child.cause(), Some(CancelCause::Cancelled));
        // A child's own cancel never propagates up.
        let sibling = CancelToken::new();
        let kid = sibling.child();
        kid.cancel();
        assert!(kid.is_cancelled());
        assert!(!sibling.is_cancelled());
    }

    #[test]
    fn passed_deadline_reports_deadline_exceeded() {
        let tok = CancelToken::new();
        tok.arm_deadline_in(Duration::ZERO);
        assert_eq!(tok.cause(), Some(CancelCause::DeadlineExceeded));
        // Explicit cancel upgrades the cause.
        tok.cancel();
        assert_eq!(tok.cause(), Some(CancelCause::Cancelled));
    }

    #[test]
    fn wait_cancelled_for_wakes_on_cancel() {
        let tok = CancelToken::new();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let h = s.spawn(|| tok.wait_cancelled_for(Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(20));
            tok.cancel();
            assert!(h.join().expect("no panic"), "waiter saw the cancel");
        });
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "woke well before the 30 s bound"
        );
        // Un-cancelled waits time out false.
        assert!(!CancelToken::new().wait_cancelled_for(Duration::from_millis(1)));
    }

    #[test]
    fn installed_token_is_thread_local_and_restores() {
        let stage = FlowStage::Routing;
        assert!(check(stage).is_ok(), "no token installed: never stops");
        let outer = CancelToken::new();
        outer.cancel();
        {
            let _g = install(outer.clone());
            assert_eq!(check(stage), Err(FlowError::Cancelled { stage }));
            {
                let _g2 = install(CancelToken::new());
                assert!(check(stage).is_ok(), "innermost wins");
            }
            assert!(
                check(stage).is_err(),
                "inner guard restored the outer token"
            );
            // Other threads never see it.
            let other = std::thread::scope(|s| s.spawn(|| check(stage)).join());
            assert_eq!(other.expect("no panic"), Ok(()));
        }
        assert!(check(stage).is_ok(), "guard restored the empty slot");
    }

    #[test]
    fn zero_deadline_cancels_before_the_first_wait_slice() {
        // A deadline of zero (or already past) must reject instantly,
        // not after one 15 ms wake slice — m3d-serve maps per-request
        // deadlines onto these tokens.
        let tok = CancelToken::new();
        tok.arm_deadline_in(Duration::ZERO);
        assert!(tok.is_cancelled(), "zero deadline is an immediate cancel");
        let t0 = Instant::now();
        assert!(tok.wait_cancelled_for(Duration::from_secs(30)));
        assert!(
            t0.elapsed() < WAKE_SLICE,
            "wait returned only after a wake slice: {:?}",
            t0.elapsed()
        );
        // Same through a child: the parent's elapsed deadline is
        // visible without waiting.
        let parent = CancelToken::new();
        parent.arm_deadline_in(Duration::ZERO);
        let child = parent.child();
        let t0 = Instant::now();
        assert!(child.wait_cancelled_for(Duration::from_secs(30)));
        assert!(t0.elapsed() < WAKE_SLICE);
        assert_eq!(child.cause(), Some(CancelCause::DeadlineExceeded));
    }

    #[test]
    fn remainder_round_trips_through_the_codec() {
        let dir = std::env::temp_dir().join(format!(
            "m3d-govern-remainder-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join(REMAINDER_FILE);
        let points = vec![
            point(Benchmark::Ldpc, DesignStyle::TwoD),
            point(Benchmark::Ldpc, DesignStyle::Tmi),
            point(Benchmark::Des, DesignStyle::TwoD),
        ];
        let bytes = save_remainder(&path, &points).expect("persists");
        assert!(bytes > 0);
        let plan = load_remainder(&path).expect("loads");
        assert_eq!(plan.len(), 3);
        for (got, want) in plan.points().iter().zip(&points) {
            assert_eq!(got, want, "points round-trip bit-exactly");
        }
        // A flipped payload byte is a typed error, not a panic.
        let mut bad = fs::read(&path).expect("read back");
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        fs::write(&path, &bad).expect("write corrupt");
        assert!(matches!(
            load_remainder(&path),
            Err(FlowError::CorruptCheckpoint { .. })
        ));
        // So is a valid file with one byte appended.
        save_remainder(&path, &points).expect("persists");
        let mut trailing = fs::read(&path).expect("read back");
        trailing.push(0);
        fs::write(&path, &trailing).expect("write trailing");
        assert!(matches!(
            load_remainder(&path),
            Err(FlowError::CorruptCheckpoint { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Pins the whole remainder file image: any change to the frame or
    /// the point codec moves this hash.
    #[test]
    fn remainder_file_image_is_pinned() {
        let dir = std::env::temp_dir().join(format!(
            "m3d-govern-pin-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join(REMAINDER_FILE);
        let points = vec![
            point(Benchmark::Ldpc, DesignStyle::TwoD),
            point(Benchmark::Ldpc, DesignStyle::Tmi),
            point(Benchmark::Des, DesignStyle::TwoD),
        ];
        let len = save_remainder(&path, &points).expect("persists");
        let bytes = fs::read(&path).expect("read back");
        assert_eq!(bytes.len() as u64, len);
        assert_eq!(content_hash(&bytes), 0x85b6_2846_ffdf_cae6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_remainder_is_a_typed_error() {
        let path = Path::new("/nonexistent-m3d-govern/plan-remainder.m3d");
        assert!(matches!(
            load_remainder(path),
            Err(FlowError::CorruptCheckpoint { .. })
        ));
    }
}
