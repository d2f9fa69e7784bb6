//! Admission control for served requests (DESIGN.md §15).
//!
//! [`AdmissionQueue`] is a bounded, priority-ordered intake with
//! per-client quota counters. It holds each admitted request itself —
//! the server queues its whole `run` request (id, cancel token,
//! response writer, flow point) — so a request lives in exactly one
//! place from admission until a dispatcher pops it or a drain hands it
//! back, and is answered exactly once.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use monolith3d::observe::{self, EventKind, Recorder};

/// Scheduling priority of an admitted request. Within a priority
/// class, admission order is preserved (FIFO).
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

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity.
    QueueFull {
        /// The configured bound.
        capacity: usize,
    },
    /// The client has `quota` requests queued already.
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

struct QueueState<R> {
    /// One FIFO per priority class.
    classes: [VecDeque<(u64, R)>; 3],
    /// Requests currently queued per client (admitted, not yet popped).
    queued: HashMap<u64, u32>,
    draining: bool,
}

impl<R> QueueState<R> {
    fn new() -> Self {
        QueueState {
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            queued: HashMap::new(),
            draining: false,
        }
    }

    fn total(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Releases exactly one quota slot for `client` — the inverse of
    /// the increment in [`AdmissionQueue::submit`]. A release with no
    /// admitted requests is an accounting bug (each popped request must
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

/// A bounded, priority-ordered intake of requests `R`, with per-client
/// quota counters.
///
/// The quota bounds *queued* requests per client: admitting increments
/// the client's counter, popping decrements it, so one greedy client
/// cannot monopolize the queue while others wait. A full queue rejects
/// with a typed [`AdmissionError::QueueFull`]; nothing ever blocks a
/// submitter.
pub struct AdmissionQueue<R> {
    capacity: usize,
    quota: Option<u32>,
    state: Mutex<QueueState<R>>,
    /// Wakes [`AdmissionQueue::pop`] when a request arrives or the
    /// queue drains.
    ready: Condvar,
    recorder: Arc<dyn Recorder>,
}

impl<R> AdmissionQueue<R> {
    /// A queue bounded to `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            quota: None,
            state: Mutex::new(QueueState::new()),
            ready: Condvar::new(),
            recorder: observe::null(),
        }
    }

    /// Bounds each client to `per_client` queued requests.
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

    /// Admits `request` for `client` at `priority` and wakes one
    /// waiting [`AdmissionQueue::pop`].
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Draining`] once [`AdmissionQueue::drain`] ran,
    /// [`AdmissionError::QuotaExhausted`] when the client is at quota,
    /// and [`AdmissionError::QueueFull`] at capacity — each with the
    /// request handed back, so the caller answers it.
    pub fn submit(
        &self,
        client: u64,
        priority: Priority,
        request: R,
    ) -> Result<(), (AdmissionError, R)> {
        let mut st = self.state.lock().expect("admission queue lock");
        if st.draining {
            self.emit(|| EventKind::AdmissionRejected {
                client,
                reason: "draining",
            });
            return Err((AdmissionError::Draining, request));
        }
        if let Some(quota) = self.quota {
            if st.queued.get(&client).copied().unwrap_or(0) >= quota {
                self.emit(|| EventKind::QuotaExhausted { client });
                return Err((AdmissionError::QuotaExhausted { client, quota }, request));
            }
        }
        if st.total() >= self.capacity {
            self.emit(|| EventKind::AdmissionRejected {
                client,
                reason: "queue_full",
            });
            let capacity = self.capacity;
            return Err((AdmissionError::QueueFull { capacity }, request));
        }
        st.classes[priority.index()].push_back((client, request));
        *st.queued.entry(client).or_insert(0) += 1;
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// The next request with its client: highest priority class first,
    /// FIFO within it. Frees the client's quota slot. Blocks while the
    /// queue is empty; `None` once it drains.
    pub fn pop(&self) -> Option<(u64, R)> {
        let mut st = self.state.lock().expect("admission queue lock");
        loop {
            for pri in Priority::ALL {
                if let Some((client, request)) = st.classes[pri.index()].pop_front() {
                    st.release_quota(client);
                    return Some((client, request));
                }
            }
            if st.draining {
                return None;
            }
            st = self.ready.wait(st).expect("admission queue lock");
        }
    }

    /// Whether [`AdmissionQueue::drain`] ran.
    pub fn is_draining(&self) -> bool {
        self.state.lock().expect("admission queue lock").draining
    }

    /// Stops admitting and hands back every queued request in priority
    /// order, waking every blocked [`AdmissionQueue::pop`] with `None`.
    /// Subsequent `submit` calls are rejected; a second drain returns
    /// nothing.
    pub fn drain(&self) -> Vec<(u64, R)> {
        let mut st = self.state.lock().expect("admission queue lock");
        st.draining = true;
        let mut drained = Vec::with_capacity(st.total());
        for pri in Priority::ALL {
            drained.extend(st.classes[pri.index()].drain(..));
        }
        st.queued.clear();
        drop(st);
        self.ready.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_tech::{DesignStyle, NodeId};
    use monolith3d::{CancelToken, FlowConfig, PlanPoint};
    use std::time::Duration;

    fn point(bench: Benchmark, style: DesignStyle) -> PlanPoint {
        PlanPoint {
            bench,
            style,
            config: FlowConfig::new(NodeId::N45).scale(BenchScale::Small),
        }
    }

    fn des() -> PlanPoint {
        point(Benchmark::Des, DesignStyle::TwoD)
    }

    #[test]
    fn admission_orders_by_priority_then_fifo() {
        let q = AdmissionQueue::new(8);
        for (client, pri, bench) in [
            (1, Priority::Low, Benchmark::Des),
            (1, Priority::Normal, Benchmark::Aes),
            (2, Priority::High, Benchmark::Ldpc),
            (2, Priority::Normal, Benchmark::Fpu),
        ] {
            q.submit(client, pri, point(bench, DesignStyle::TwoD))
                .expect("admits");
        }
        let order: Vec<Benchmark> = (0..4).map(|_| q.pop().expect("queued").1.bench).collect();
        assert_eq!(
            order,
            [
                Benchmark::Ldpc,
                Benchmark::Aes,
                Benchmark::Fpu,
                Benchmark::Des
            ]
        );
        assert!(q.drain().is_empty(), "every request popped");
    }

    /// One client submits the same point twice, first at `Low` (id 2)
    /// and then at `High` (id 3): the request that pops first is id 3,
    /// carrying id 3's own token — identical points never trade
    /// identities, whatever order they were admitted in.
    #[test]
    fn a_request_keeps_its_own_priority() {
        let q = AdmissionQueue::new(8);
        let low = CancelToken::new();
        let high = CancelToken::new();
        q.submit(1, Priority::Low, (2u64, low.clone(), des()))
            .expect("admits");
        q.submit(1, Priority::High, (3u64, high.clone(), des()))
            .expect("admits");
        low.cancel();
        let (client, (id, tok, _)) = q.pop().expect("queued");
        assert_eq!((client, id), (1, 3));
        assert!(!tok.is_cancelled(), "id 3 runs under its own token");
        high.cancel();
        assert!(tok.is_cancelled(), "and that token is id 3's");
        let (_, (id, tok, _)) = q.pop().expect("queued");
        assert_eq!(id, 2);
        assert!(tok.is_cancelled(), "id 2 keeps id 2's token");
    }

    #[test]
    fn quota_bounds_queued_requests_per_client() {
        let q = AdmissionQueue::new(8).with_quota(2);
        q.submit(7, Priority::Normal, 1u64).expect("admits");
        q.submit(7, Priority::Normal, 2).expect("admits");
        assert_eq!(
            q.submit(7, Priority::Normal, 3),
            Err((
                AdmissionError::QuotaExhausted {
                    client: 7,
                    quota: 2
                },
                3
            ))
        );
        // Another client is unaffected.
        q.submit(8, Priority::Normal, 4).expect("admits");
        // Popping frees the slot.
        assert_eq!(q.pop(), Some((7, 1)));
        q.submit(7, Priority::Normal, 5).expect("quota slot freed");
    }

    #[test]
    fn quota_release_is_exactly_once_across_pop_and_drain() {
        // Regression: release used to saturating_sub, so a double
        // release (an accounting bug) silently freed quota a client
        // still occupied. Pop/drain must release each admitted request
        // exactly once — counters reach exactly zero, never wrap.
        let q = AdmissionQueue::new(8).with_quota(2);
        for id in [1u64, 2] {
            q.submit(7, Priority::Normal, id).expect("admits");
        }
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        // Exactly two slots came back: the client re-admits up to
        // quota and not past it.
        for id in [3, 4] {
            q.submit(7, Priority::Normal, id)
                .expect("slots freed exactly");
        }
        assert!(matches!(
            q.submit(7, Priority::Normal, 5),
            Err((AdmissionError::QuotaExhausted { .. }, 5))
        ));
        // Drain releases the remainder in aggregate.
        assert_eq!(q.drain(), vec![(7, 3), (7, 4)]);
        assert!(q.pop().is_none());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "quota release"))]
    fn quota_release_without_admission_is_a_checked_error() {
        let mut st = QueueState::<()>::new();
        // Debug builds panic on the accounting bug; release builds
        // refuse the release and keep the map untouched.
        let released = st.release_quota(42);
        assert!(!released, "phantom release must not report success");
        assert!(st.queued.is_empty());
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        let q = AdmissionQueue::new(1);
        q.submit(1, Priority::Normal, 1u64).expect("admits");
        assert_eq!(
            q.submit(1, Priority::Normal, 2),
            Err((AdmissionError::QueueFull { capacity: 1 }, 2))
        );
    }

    #[test]
    fn blocked_pop_wakes_on_submit_and_on_drain() {
        // The sleeps make a blocked pop likely; the assertions hold
        // under any interleaving.
        let q = AdmissionQueue::new(4);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            std::thread::sleep(Duration::from_millis(20));
            q.submit(1, Priority::Normal, 1u64).expect("admits");
            assert_eq!(h.join().expect("no panic"), Some((1, 1)));
            let h = s.spawn(|| q.pop());
            std::thread::sleep(Duration::from_millis(20));
            assert!(q.drain().is_empty());
            assert_eq!(h.join().expect("no panic"), None);
        });
    }

    #[test]
    fn drain_hands_back_queued_requests_in_priority_order() {
        let q = AdmissionQueue::new(4);
        q.submit(2, Priority::Low, 2u64).expect("admits");
        q.submit(1, Priority::Normal, 1).expect("admits");
        q.submit(3, Priority::High, 3).expect("admits");
        assert_eq!(q.drain(), vec![(3, 3), (1, 1), (2, 2)]);
        assert!(q.is_draining());
        assert_eq!(
            q.submit(4, Priority::Normal, 4),
            Err((AdmissionError::Draining, 4))
        );
        assert!(q.pop().is_none());
        assert!(q.drain().is_empty(), "a second drain hands back nothing");
    }
}
