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
//!   lives on one token tree: run token → point token → stage token.
//!   Cancelling a token cancels everything derived from it; a stage
//!   budget armed on a stage token stops that stage's run.
//! * [`check`] — the cooperative stop point. The supervisor installs
//!   each stage's token on the calling thread ([`install`]); stage
//!   bodies call `check` between algorithm calls and the cache's
//!   `BuildCell` wait polls it, so a cancelled or over-budget stage
//!   stops at its next check. No thread is ever detached.
//! * [`RunGovernor`] — the per-run policy bundle: the run token, a
//!   whole-run deadline, a per-point deadline, and the drain switch.
//!   [`crate::ParallelExecutor::run_governed`] consumes one and returns
//!   partial results — completed slots intact, pending slots a typed
//!   [`PointOutcome`], and a drain's unstarted points listed in the
//!   report for the caller to run again.
//!
//! **Cancellation purity.** A cancelled run publishes nothing torn: flow
//! results enter the caches only after sign-off, and a cancelled flow
//! drops its working state, so re-running a cancelled plan over the
//! same memory+disk caches is bit-identical to a run that was never
//! cancelled (`tests/govern.rs` pins this).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::{FlowError, FlowStage};
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
    /// one per stage and arms the stage budget on it, so a blown budget
    /// types the stage's failure as a deadline overrun rather than a
    /// cancel of the whole run.
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
/// until the returned guard drops. The supervisor installs each stage's
/// token around the stage body, which is how the stage loops
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
/// error with the token's typed cause when the stage returns.
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
    /// listed in [`crate::GovernedReport::remainder`].
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
/// ([`crate::StageDeadlines`]), armed on each stage's child of the
/// point token.
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
    /// start nothing new, and the unstarted points are reported as the
    /// run's remainder.
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

    pub(crate) fn faults(&self) -> &crate::faultinject::FaultPlan {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
