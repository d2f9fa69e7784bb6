//! Resource governance for the parallel flow engine: cooperative
//! cancellation, run/point deadline budgets, admission control with
//! per-client quotas, and graceful drain (DESIGN.md §14).
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
//! * [`AdmissionQueue`] — a bounded, priority-ordered intake with
//!   per-client quota counters and an explicit [`Backpressure`] policy
//!   (`Reject` returns a typed error, `Block` waits for space).
//! * Drain persistence — [`save_remainder`] / [`load_remainder`] carry
//!   the unstarted tail of a drained plan through the checkpoint codec,
//!   so a later process resumes exactly the points this one never
//!   started.
//!
//! **Cancellation purity.** A cancelled run publishes nothing torn: flow
//! results enter the caches only after sign-off, and a cancelled stage
//! attempt restores the pre-attempt artifact state, so re-running a
//! cancelled plan over the same memory+disk caches is bit-identical to
//! a run that was never cancelled (`tests/govern.rs` pins this).

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::checkpoint::{dec_config, enc_config};
use crate::codec::{
    content_hash, dec_benchmark, dec_style, enc_benchmark, enc_style, read_section, write_section,
    Dec, Enc,
};
use crate::error::{FlowError, FlowStage};
use crate::executor::{ExperimentPlan, PlanPoint};
use crate::flow::FlowResult;
use crate::observe::{self, EventKind, Recorder};

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
// Admission control
// ---------------------------------------------------------------------

/// Scheduling priority of an admitted point. Within a priority class,
/// admission order is preserved (FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default class.
    Normal,
    /// Served only when nothing higher waits.
    Low,
}

impl Priority {
    const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// What a full queue does to a submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// `submit` returns [`AdmissionError::QueueFull`] immediately.
    Reject,
    /// `submit` blocks until space frees up (or the queue drains, which
    /// unblocks as [`AdmissionError::Draining`]).
    Block,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity and the policy is [`Backpressure::Reject`].
    QueueFull {
        /// The configured bound.
        capacity: usize,
    },
    /// The client has `quota` points queued already.
    QuotaExhausted {
        /// The rejected client.
        client: u64,
        /// The per-client bound.
        quota: u32,
    },
    /// The queue is draining and admits nothing new.
    Draining,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} points)")
            }
            AdmissionError::QuotaExhausted { client, quota } => {
                write!(
                    f,
                    "client {client} exhausted its quota of {quota} queued points"
                )
            }
            AdmissionError::Draining => write!(f, "admission queue is draining"),
        }
    }
}

impl std::error::Error for AdmissionError {}

#[derive(Debug)]
struct QueueState {
    /// One FIFO per priority class.
    classes: [VecDeque<(u64, PlanPoint)>; 3],
    /// Points currently queued per client (admitted, not yet popped).
    queued: HashMap<u64, u32>,
    draining: bool,
}

impl QueueState {
    fn total(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Releases exactly one quota slot for `client` — the inverse of
    /// the increment in [`AdmissionQueue::submit`]. A release with no
    /// admitted points is an accounting bug (each popped point must
    /// release exactly once); it panics in debug builds and returns
    /// `false` in release builds instead of silently saturating, so a
    /// double-release can never grant a client headroom it still
    /// occupies.
    fn release_quota(&mut self, client: u64) -> bool {
        match self.queued.entry(client) {
            Entry::Occupied(mut slot) => {
                *slot.get_mut() -= 1;
                if *slot.get() == 0 {
                    slot.remove();
                }
                true
            }
            Entry::Vacant(_) => {
                debug_assert!(
                    false,
                    "quota release for client {client} with no admitted points"
                );
                false
            }
        }
    }
}

/// A bounded, priority-ordered intake for flow points, with per-client
/// quota counters and an explicit backpressure policy — the admission
/// half of the flow-as-a-service substrate.
///
/// The quota bounds *queued* points per client: admitting increments
/// the client's counter, popping decrements it, so one greedy client
/// cannot monopolize the queue while others wait.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    quota: Option<u32>,
    policy: Backpressure,
    state: Mutex<QueueState>,
    space: Condvar,
    recorder: Arc<dyn Recorder>,
}

impl AdmissionQueue {
    /// A queue bounded to `capacity` points under `policy`.
    pub fn new(capacity: usize, policy: Backpressure) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            quota: None,
            policy,
            state: Mutex::new(QueueState {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                queued: HashMap::new(),
                draining: false,
            }),
            space: Condvar::new(),
            recorder: observe::null(),
        }
    }

    /// Bounds each client to `per_client` queued points.
    pub fn with_quota(mut self, per_client: u32) -> Self {
        self.quota = Some(per_client.max(1));
        self
    }

    /// Attaches an event sink; admission decisions
    /// (`admission_rejected`, `quota_exhausted`) trace through it.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        if self.recorder.enabled() {
            self.recorder.record(kind());
        }
    }

    /// Admits one point for `client` at `priority`.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Draining`] once [`AdmissionQueue::drain`] ran,
    /// [`AdmissionError::QuotaExhausted`] when the client is at quota,
    /// and [`AdmissionError::QueueFull`] at capacity under
    /// [`Backpressure::Reject`] (under `Block` the call waits instead).
    pub fn submit(
        &self,
        client: u64,
        priority: Priority,
        point: PlanPoint,
    ) -> Result<(), AdmissionError> {
        let mut st = self.state.lock().expect("admission queue lock");
        loop {
            if st.draining {
                self.emit(|| EventKind::AdmissionRejected {
                    client,
                    reason: "draining",
                });
                return Err(AdmissionError::Draining);
            }
            if let Some(quota) = self.quota {
                if st.queued.get(&client).copied().unwrap_or(0) >= quota {
                    self.emit(|| EventKind::QuotaExhausted { client });
                    return Err(AdmissionError::QuotaExhausted { client, quota });
                }
            }
            if st.total() < self.capacity {
                break;
            }
            match self.policy {
                Backpressure::Reject => {
                    self.emit(|| EventKind::AdmissionRejected {
                        client,
                        reason: "queue_full",
                    });
                    return Err(AdmissionError::QueueFull {
                        capacity: self.capacity,
                    });
                }
                Backpressure::Block => {
                    st = self.space.wait(st).expect("admission queue lock");
                }
            }
        }
        st.classes[priority.index()].push_back((client, point));
        *st.queued.entry(client).or_insert(0) += 1;
        Ok(())
    }

    /// The next point: highest priority class first, FIFO within it.
    /// Frees the client's quota slot and wakes one blocked submitter.
    pub fn pop(&self) -> Option<(u64, PlanPoint)> {
        let mut st = self.state.lock().expect("admission queue lock");
        for pri in Priority::ALL {
            if let Some((client, point)) = st.classes[pri.index()].pop_front() {
                st.release_quota(client);
                drop(st);
                self.space.notify_one();
                return Some((client, point));
            }
        }
        None
    }

    /// Points currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("admission queue lock").total()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stops admitting and empties the queue into an
    /// [`ExperimentPlan`] (priority order), waking every blocked
    /// submitter with [`AdmissionError::Draining`]. Subsequent `submit`
    /// calls are rejected; `pop` returns `None`.
    pub fn drain(&self) -> ExperimentPlan {
        let mut plan = ExperimentPlan::new();
        let mut st = self.state.lock().expect("admission queue lock");
        st.draining = true;
        for pri in Priority::ALL {
            while let Some((_, p)) = st.classes[pri.index()].pop_front() {
                plan.push(p.bench, p.style, p.config);
            }
        }
        st.queued.clear();
        drop(st);
        self.space.notify_all();
        plan
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

fn corrupt(path: &Path, detail: impl Into<String>) -> FlowError {
    FlowError::CorruptCheckpoint {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

/// Persists the unstarted tail of a drained plan through the checkpoint
/// codec (same section framing and content hashing as supervisor
/// snapshots, under its own magic). Returns the encoded size in bytes.
/// The write is tmp+fsync+rename, so a crash mid-drain leaves either
/// the old remainder or the new one, never a torn file.
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
    let mut payload = Vec::with_capacity(body.buf.len() + 32);
    write_section(&mut payload, TAG_POINTS, &body.buf);
    let mut file = Vec::with_capacity(payload.len() + 24);
    file.extend_from_slice(PLAN_MAGIC);
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&content_hash(&payload).to_le_bytes());
    file.extend_from_slice(&payload);

    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| corrupt(path, format!("create dir: {e}")))?;
    }
    let tmp = path.with_extension("m3d.tmp");
    {
        let mut f =
            fs::File::create(&tmp).map_err(|e| corrupt(&tmp, format!("create temp: {e}")))?;
        f.write_all(&file)
            .map_err(|e| corrupt(&tmp, format!("write: {e}")))?;
        f.sync_all()
            .map_err(|e| corrupt(&tmp, format!("sync: {e}")))?;
    }
    fs::rename(&tmp, path).map_err(|e| corrupt(path, format!("rename: {e}")))?;
    Ok(file.len() as u64)
}

/// Loads a persisted plan remainder back into an [`ExperimentPlan`]
/// (dedup still applies), verifying magic and content hashes.
///
/// # Errors
///
/// [`FlowError::CorruptCheckpoint`] when the file is missing, truncated
/// or fails verification.
pub fn load_remainder(path: &Path) -> Result<ExperimentPlan, FlowError> {
    let bytes = fs::read(path).map_err(|e| corrupt(path, format!("read: {e}")))?;
    let mut d = Dec::new(&bytes);
    let magic = d
        .take(PLAN_MAGIC.len())
        .map_err(|e| corrupt(path, e.0.clone()))?;
    if magic != PLAN_MAGIC {
        return Err(corrupt(path, "bad plan-remainder magic"));
    }
    let len = d.usize().map_err(|e| corrupt(path, e.0.clone()))?;
    let hash = d.u64().map_err(|e| corrupt(path, e.0.clone()))?;
    let payload = d.take(len).map_err(|e| corrupt(path, e.0.clone()))?;
    let actual = content_hash(payload);
    if actual != hash {
        return Err(corrupt(
            path,
            format!("payload hash mismatch: stored {hash:#018x}, computed {actual:#018x}"),
        ));
    }
    let mut pd = Dec::new(payload);
    let body = read_section(&mut pd, TAG_POINTS).map_err(|e| corrupt(path, e.0.clone()))?;
    let mut bd = Dec::new(body);
    let count = bd.usize().map_err(|e| corrupt(path, e.0.clone()))?;
    let mut plan = ExperimentPlan::new();
    for _ in 0..count {
        let bench = dec_benchmark(&mut bd).map_err(|e| corrupt(path, e.0.clone()))?;
        let style = dec_style(&mut bd).map_err(|e| corrupt(path, e.0.clone()))?;
        let config = dec_config(&mut bd).map_err(|e| corrupt(path, e.0.clone()))?;
        plan.push(bench, style, config);
    }
    bd.finish().map_err(|e| corrupt(path, e.0.clone()))?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_tech::{DesignStyle, NodeId};

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
    fn admission_orders_by_priority_then_fifo() {
        let q = AdmissionQueue::new(8, Backpressure::Reject);
        q.submit(1, Priority::Low, point(Benchmark::Des, DesignStyle::TwoD))
            .expect("admits");
        q.submit(
            1,
            Priority::Normal,
            point(Benchmark::Aes, DesignStyle::TwoD),
        )
        .expect("admits");
        q.submit(2, Priority::High, point(Benchmark::Ldpc, DesignStyle::TwoD))
            .expect("admits");
        q.submit(
            2,
            Priority::Normal,
            point(Benchmark::Fpu, DesignStyle::TwoD),
        )
        .expect("admits");
        let order: Vec<Benchmark> = std::iter::from_fn(|| q.pop().map(|(_, p)| p.bench)).collect();
        assert_eq!(
            order,
            [
                Benchmark::Ldpc,
                Benchmark::Aes,
                Benchmark::Fpu,
                Benchmark::Des
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn quota_bounds_queued_points_per_client() {
        let q = AdmissionQueue::new(8, Backpressure::Reject).with_quota(2);
        q.submit(
            7,
            Priority::Normal,
            point(Benchmark::Des, DesignStyle::TwoD),
        )
        .expect("admits");
        q.submit(
            7,
            Priority::Normal,
            point(Benchmark::Aes, DesignStyle::TwoD),
        )
        .expect("admits");
        assert_eq!(
            q.submit(
                7,
                Priority::Normal,
                point(Benchmark::Fpu, DesignStyle::TwoD)
            ),
            Err(AdmissionError::QuotaExhausted {
                client: 7,
                quota: 2
            })
        );
        // Another client is unaffected.
        q.submit(
            8,
            Priority::Normal,
            point(Benchmark::Fpu, DesignStyle::TwoD),
        )
        .expect("admits");
        // Popping frees the slot.
        let _ = q.pop();
        q.submit(
            7,
            Priority::Normal,
            point(Benchmark::M256, DesignStyle::TwoD),
        )
        .expect("quota slot freed");
    }

    #[test]
    fn quota_release_is_exactly_once_across_pop_and_drain() {
        // Regression: release used to saturating_sub, so a double
        // release (an accounting bug) silently freed quota a client
        // still occupied. Pop/drain must release each admitted point
        // exactly once — counters reach exactly zero, never wrap.
        let q = AdmissionQueue::new(8, Backpressure::Reject).with_quota(2);
        for bench in [Benchmark::Des, Benchmark::Aes] {
            q.submit(7, Priority::Normal, point(bench, DesignStyle::TwoD))
                .expect("admits");
        }
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none(), "queue observed empty");
        // Exactly two slots came back: the client re-admits up to
        // quota and not past it.
        for bench in [Benchmark::Des, Benchmark::Aes] {
            q.submit(7, Priority::Normal, point(bench, DesignStyle::TwoD))
                .expect("slots freed exactly");
        }
        assert!(matches!(
            q.submit(
                7,
                Priority::Normal,
                point(Benchmark::Fpu, DesignStyle::TwoD)
            ),
            Err(AdmissionError::QuotaExhausted { .. })
        ));
        // Drain releases the remainder in aggregate.
        let remainder = q.drain();
        assert_eq!(remainder.len(), 2);
        assert!(q.pop().is_none());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "quota release"))]
    fn quota_release_without_admission_is_a_checked_error() {
        let mut st = QueueState {
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            queued: HashMap::new(),
            draining: false,
        };
        // Debug builds panic on the accounting bug; release builds
        // refuse the release and keep the map untouched.
        let released = st.release_quota(42);
        assert!(!released, "phantom release must not report success");
        assert!(st.queued.is_empty());
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
    fn reject_policy_returns_queue_full_at_capacity() {
        let q = AdmissionQueue::new(1, Backpressure::Reject);
        q.submit(
            1,
            Priority::Normal,
            point(Benchmark::Des, DesignStyle::TwoD),
        )
        .expect("admits");
        assert_eq!(
            q.submit(
                1,
                Priority::Normal,
                point(Benchmark::Aes, DesignStyle::TwoD)
            ),
            Err(AdmissionError::QueueFull { capacity: 1 })
        );
    }

    #[test]
    fn block_policy_waits_for_space_and_drain_unblocks() {
        let q = AdmissionQueue::new(1, Backpressure::Block);
        q.submit(
            1,
            Priority::Normal,
            point(Benchmark::Des, DesignStyle::TwoD),
        )
        .expect("admits");
        std::thread::scope(|s| {
            // A blocked submitter admits as soon as a pop frees space.
            let h = s.spawn(|| {
                q.submit(
                    2,
                    Priority::Normal,
                    point(Benchmark::Aes, DesignStyle::TwoD),
                )
            });
            std::thread::sleep(Duration::from_millis(20));
            let popped = q.pop().expect("pops the first point");
            assert_eq!(popped.1.bench, Benchmark::Des);
            assert_eq!(h.join().expect("no panic"), Ok(()));
            // A blocked submitter unblocks as Draining when the queue drains.
            let h = s.spawn(|| {
                q.submit(
                    3,
                    Priority::Normal,
                    point(Benchmark::Fpu, DesignStyle::TwoD),
                )
            });
            std::thread::sleep(Duration::from_millis(20));
            let remainder = q.drain();
            assert_eq!(remainder.len(), 1, "the queued point drains out");
            assert_eq!(h.join().expect("no panic"), Err(AdmissionError::Draining));
        });
        assert_eq!(
            q.submit(
                4,
                Priority::Normal,
                point(Benchmark::Des, DesignStyle::TwoD)
            ),
            Err(AdmissionError::Draining)
        );
        assert!(q.pop().is_none());
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
