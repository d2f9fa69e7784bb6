//! Deterministic fault injection for the flow supervisor and the
//! persistent store — the chaos half of the crash-only flow engine.
//!
//! A [`FaultPlan`] lists faults keyed by `(stage, invocation)`: the
//! injector counts how many times each stage has been entered and fires
//! the matching fault on that entry. Because the flow itself is
//! deterministic, a plan makes every containment scenario reproducible
//! — "the second placement fails" is
//! `FaultPlan::new().fail_stage("place", 2)` (placement runs once per
//! floorplan round).
//!
//! A plan can inject every failure mode the supervisor's containment
//! guards against ([`FaultKind`]):
//!
//! * **`Error`** — the stage returns [`FlowError::Injected`];
//! * **`Panic`** — the stage body panics; the supervisor's
//!   `catch_unwind` containment must convert it to
//!   [`FlowError::StagePanicked`];
//! * **`Delay`** — the stage sleeps before running, blind to its
//!   cancel token: a non-cooperative stall. A delay longer than the
//!   stage budget is reported as [`FlowError::DeadlineExceeded`] once
//!   the sleep returns (nothing can stop a stage between checks);
//! * **`StuckStage`** — the stage wedges forever but parks on its
//!   cancel token, so a cancel or blown budget stops it at once;
//! * **`SlowStage`** — the stage stalls for the duration (cancellably),
//!   then runs normally — a degraded-but-alive stage.
//!
//! A [`StoreFaultPlan`] does the same for the persistent store, keyed
//! by publish count: torn writes, corrupted entries and lost
//! permissions.
//!
//! Stages are addressed by their short names (`"route"`,
//! `"signoff"`, … — see [`FlowStage::key`]) via [`FaultPlan::fail_stage`]
//! and friends; both short and display names resolve.

use std::time::Duration;

use crate::error::{FlowError, FlowStage};

/// What an injected fault does to the stage it fires on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The stage reports [`FlowError::Injected`] without running.
    Error,
    /// The stage body panics (contained by the supervisor).
    Panic,
    /// The stage sleeps for the duration, blind to cancellation, then
    /// runs normally. A delay longer than the stage's budget fails the
    /// attempt with a deadline overrun when the sleep returns.
    Delay(Duration),
    /// The stage wedges forever, but cooperatively: it parks on the
    /// attempt's cancel token and stops once the run is cancelled or
    /// the stage budget passes.
    StuckStage,
    /// The stage stalls (cancellably) for the duration, then runs
    /// normally — a slow-but-alive worker that a generous budget
    /// tolerates and a tight one cancels.
    SlowStage(Duration),
}

/// One planned fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// Stage to fire on.
    pub stage: FlowStage,
    /// Which entry into the stage fires, 1-based. `None` fires on every
    /// entry (a persistent, unrecoverable fault).
    pub on_invocation: Option<u32>,
    /// What the fault does.
    pub kind: FaultKind,
    /// Free-form description carried into the error.
    pub detail: String,
}

/// A set of planned faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn push(mut self, stage: FlowStage, on_invocation: Option<u32>, kind: FaultKind) -> Self {
        let detail = match (&kind, on_invocation) {
            (FaultKind::Error, Some(n)) => format!("planned fault on invocation {n}"),
            (FaultKind::Error, None) => "persistent planned fault".to_string(),
            (kind, Some(n)) => format!("planned {kind:?} fault on invocation {n}"),
            (kind, None) => format!("persistent planned {kind:?} fault"),
        };
        self.faults.push(PlannedFault {
            stage,
            on_invocation,
            kind,
            detail,
        });
        self
    }

    /// Fails the stage named `stage` (short name or display name,
    /// e.g. `"route"`) on its `invocation`-th entry, 1-based.
    ///
    /// # Panics
    ///
    /// Panics on a name no stage in the graph answers to — a typo in a
    /// test plan, best caught loudly.
    pub fn fail_stage(self, stage: &str, invocation: u32) -> Self {
        self.push(resolve(stage), Some(invocation.max(1)), FaultKind::Error)
    }

    /// Fails the stage named `stage` on every entry — an unrecoverable
    /// fault.
    ///
    /// # Panics
    ///
    /// Panics on a name no stage in the graph answers to.
    pub fn always_stage(self, stage: &str) -> Self {
        self.push(resolve(stage), None, FaultKind::Error)
    }

    /// Panics inside the stage named `stage` on its `invocation`-th
    /// entry — the containment (`catch_unwind`) test vector.
    ///
    /// # Panics
    ///
    /// Panics on a name no stage in the graph answers to.
    pub fn panic_stage(self, stage: &str, invocation: u32) -> Self {
        self.push(resolve(stage), Some(invocation.max(1)), FaultKind::Panic)
    }

    /// Delays the stage named `stage` by `delay` on its `invocation`-th
    /// entry before running it normally. The sleep ignores cancellation;
    /// when it outlasts the stage's budget the attempt fails with
    /// [`FlowError::DeadlineExceeded`] as soon as it returns.
    ///
    /// # Panics
    ///
    /// Panics on a name no stage in the graph answers to.
    pub fn delay_stage(self, stage: &str, invocation: u32, delay: Duration) -> Self {
        self.push(
            resolve(stage),
            Some(invocation.max(1)),
            FaultKind::Delay(delay),
        )
    }

    /// Wedges the stage named `stage` forever on its `invocation`-th
    /// entry: the attempt parks on its cancel token and only returns
    /// once the run is cancelled or the stage budget passes. With
    /// neither a run token nor a budget the stage hangs, which is the
    /// point — don't use it that way.
    ///
    /// # Panics
    ///
    /// Panics on a name no stage in the graph answers to.
    pub fn stuck_stage(self, stage: &str, invocation: u32) -> Self {
        self.push(
            resolve(stage),
            Some(invocation.max(1)),
            FaultKind::StuckStage,
        )
    }

    /// Stalls the stage named `stage` by `delay` (cancellably) on its
    /// `invocation`-th entry, then runs it normally. Unlike
    /// [`FaultPlan::delay_stage`], the stall wakes promptly on
    /// cancellation instead of sleeping through it.
    ///
    /// # Panics
    ///
    /// Panics on a name no stage in the graph answers to.
    pub fn slow_stage(self, stage: &str, invocation: u32, delay: Duration) -> Self {
        self.push(
            resolve(stage),
            Some(invocation.max(1)),
            FaultKind::SlowStage(delay),
        )
    }

    /// True when the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }
}

/// Resolves a stage name, panicking on unknown names (test-harness API).
fn resolve(name: &str) -> FlowStage {
    FlowStage::from_name(name).unwrap_or_else(|| panic!("no flow stage is named '{name}'"))
}

/// A fault the injector decided to fire on the current stage entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Stage the fault fires in.
    pub stage: FlowStage,
    /// What the fault does.
    pub kind: FaultKind,
    /// Human-readable fault description.
    pub detail: String,
}

impl InjectedFault {
    /// The typed error an `Error`-kind fault injects.
    pub fn error(&self) -> FlowError {
        FlowError::Injected {
            stage: self.stage,
            detail: self.detail.clone(),
        }
    }
}

/// Executes a [`FaultPlan`]: counts stage entries and reports the fault
/// to fire on this invocation, if the plan has one.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    counts: [u32; FlowStage::ALL.len()],
}

impl FaultInjector {
    /// An injector for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            counts: [0; FlowStage::ALL.len()],
        }
    }

    /// Records one entry into `stage` and returns the fault to fire for
    /// this invocation, if the plan has one. When several faults match
    /// the same entry, the first planned wins.
    pub fn tick(&mut self, stage: FlowStage) -> Option<InjectedFault> {
        self.counts[stage.index()] += 1;
        let n = self.counts[stage.index()];
        self.plan
            .faults
            .iter()
            .find(|f| f.stage == stage && f.on_invocation.is_none_or(|at| at == n))
            .map(|f| InjectedFault {
                stage,
                kind: f.kind.clone(),
                detail: f.detail.clone(),
            })
    }

    /// How many times `stage` has been entered so far.
    pub fn invocations(&self, stage: FlowStage) -> u32 {
        self.counts[stage.index()]
    }
}

// ---------------------------------------------------------------------
// Store faults
// ---------------------------------------------------------------------

/// What an injected fault does to the persistent artifact store
/// ([`crate::store::DiskStore`]). Store faults are keyed by *publish
/// count* rather than flow stage: the store is below the stages, and
/// its failure modes (torn writes, bit rot, lost permissions) strike at
/// I/O boundaries, not stage boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFaultKind {
    /// The publish is torn: the temp file is cut off mid-write and never
    /// renamed — exactly the on-disk state a kill -9 during a publish
    /// leaves. The entry must simply be absent (a later miss), never a
    /// corrupt hit, and the store must not degrade (a crash is not an
    /// I/O error).
    TornStoreWrite,
    /// The publish completes, then one payload byte of the final entry
    /// file is flipped in place — the verify-on-read quarantine vector.
    CorruptStoreEntry,
    /// The publish reports a permission failure, driving the
    /// graceful-degradation path (`store_degraded`, then in-memory-only
    /// operation).
    StoreDirUnwritable,
}

/// One planned store fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedStoreFault {
    /// Which publish fires the fault, 1-based. `None` fires on every
    /// publish.
    pub on_publish: Option<u32>,
    /// What the fault does.
    pub kind: StoreFaultKind,
}

/// A deterministic set of planned store faults, keyed by the store's
/// publish counter — the store-level counterpart of [`FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreFaultPlan {
    faults: Vec<PlannedStoreFault>,
}

impl StoreFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        StoreFaultPlan::default()
    }

    fn push(mut self, on_publish: Option<u32>, kind: StoreFaultKind) -> Self {
        self.faults.push(PlannedStoreFault { on_publish, kind });
        self
    }

    /// Tears the `publish`-th publish (1-based): temp file truncated,
    /// never renamed.
    pub fn torn_write_on(self, publish: u32) -> Self {
        self.push(Some(publish.max(1)), StoreFaultKind::TornStoreWrite)
    }

    /// Flips one byte of the entry written by the `publish`-th publish.
    pub fn corrupt_entry_on(self, publish: u32) -> Self {
        self.push(Some(publish.max(1)), StoreFaultKind::CorruptStoreEntry)
    }

    /// Fails the `publish`-th publish with a permission error.
    pub fn unwritable_on(self, publish: u32) -> Self {
        self.push(Some(publish.max(1)), StoreFaultKind::StoreDirUnwritable)
    }

    /// True when the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[PlannedStoreFault] {
        &self.faults
    }

    /// The fault to fire on the `n`-th publish (1-based), if any. When
    /// several faults match, the first planned wins.
    pub fn on_publish(&self, n: u32) -> Option<StoreFaultKind> {
        self.faults
            .iter()
            .find(|f| f.on_publish.is_none_or(|at| at == n))
            .map(|f| f.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fails_exactly_the_planned_invocation() {
        let mut inj = FaultInjector::new(FaultPlan::new().fail_stage("route", 2));
        assert!(inj.tick(FlowStage::Routing).is_none());
        let f = inj.tick(FlowStage::Routing).expect("second entry fails");
        assert_eq!(f.stage, FlowStage::Routing);
        assert_eq!(f.kind, FaultKind::Error);
        assert_eq!(f.error().stage(), Some(FlowStage::Routing));
        assert!(inj.tick(FlowStage::Routing).is_none());
        // Other stages are unaffected.
        assert!(inj.tick(FlowStage::Placement).is_none());
    }

    #[test]
    fn display_names_resolve_like_short_names() {
        assert_eq!(
            FaultPlan::new().fail_stage("post-route optimization", 1),
            FaultPlan::new().fail_stage("postroute", 1)
        );
    }

    #[test]
    fn governor_kinds_carry_through_the_injector() {
        let mut inj = FaultInjector::new(FaultPlan::new().stuck_stage("route", 1).slow_stage(
            "place",
            2,
            Duration::from_millis(9),
        ));
        assert_eq!(
            inj.tick(FlowStage::Routing).map(|f| f.kind),
            Some(FaultKind::StuckStage)
        );
        assert!(inj.tick(FlowStage::Placement).is_none());
        assert_eq!(
            inj.tick(FlowStage::Placement).map(|f| f.kind),
            Some(FaultKind::SlowStage(Duration::from_millis(9)))
        );
    }

    #[test]
    fn chaos_kinds_carry_through_the_injector() {
        let mut inj = FaultInjector::new(FaultPlan::new().panic_stage("place", 1).delay_stage(
            "route",
            1,
            Duration::from_millis(7),
        ));
        assert_eq!(
            inj.tick(FlowStage::Placement).map(|f| f.kind),
            Some(FaultKind::Panic)
        );
        assert_eq!(
            inj.tick(FlowStage::Routing).map(|f| f.kind),
            Some(FaultKind::Delay(Duration::from_millis(7)))
        );
    }

    #[test]
    #[should_panic(expected = "no flow stage is named")]
    fn unknown_stage_name_panics() {
        let _ = FaultPlan::new().fail_stage("not-a-stage", 1);
    }

    #[test]
    fn persistent_fault_fails_every_entry() {
        let mut inj = FaultInjector::new(FaultPlan::new().always_stage("signoff"));
        for _ in 0..4 {
            assert!(inj.tick(FlowStage::SignOff).is_some());
        }
        assert_eq!(inj.invocations(FlowStage::SignOff), 4);
    }

    #[test]
    fn store_plan_fires_on_the_planned_publish_only() {
        let plan = StoreFaultPlan::new()
            .torn_write_on(2)
            .corrupt_entry_on(3)
            .unwritable_on(5);
        assert!(!plan.is_empty());
        assert_eq!(plan.faults().len(), 3);
        assert_eq!(plan.on_publish(1), None);
        assert_eq!(plan.on_publish(2), Some(StoreFaultKind::TornStoreWrite));
        assert_eq!(plan.on_publish(3), Some(StoreFaultKind::CorruptStoreEntry));
        assert_eq!(plan.on_publish(4), None);
        assert_eq!(plan.on_publish(5), Some(StoreFaultKind::StoreDirUnwritable));
        assert!(StoreFaultPlan::new().is_empty());
        assert_eq!(StoreFaultPlan::new().on_publish(1), None);
    }

    #[test]
    fn first_planned_store_fault_wins_on_collision() {
        let plan = StoreFaultPlan::new().corrupt_entry_on(1).torn_write_on(1);
        assert_eq!(plan.on_publish(1), Some(StoreFaultKind::CorruptStoreEntry));
    }
}
