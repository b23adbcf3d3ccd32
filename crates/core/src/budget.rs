//! Search budgets and cooperative cancellation: bound any lattice search by
//! wall-clock deadline, node budget, or an external cancel signal, and learn
//! from a [`Termination`] verdict whether the result is complete or anytime.
//!
//! The lattice is exponential in QI width, so a service cannot let a search
//! run open-ended. The contract here is *anytime*: a search given a
//! [`SearchBudget`] runs until the budget trips, then returns its best
//! result so far together with the [`Termination`] cause, instead of either
//! running away or returning nothing.
//!
//! Cost model: the kernel's node checks are the high-rate unit (thousands
//! per second), so [`BudgetState::admit`] keeps the per-node cost to one
//! relaxed atomic increment and two predictable branches, polling the clock
//! and the cancel flag only every [`SearchBudget::check_interval`] nodes.
//! Coarse-grained work (Mondrian's split attempts), whose units cost
//! milliseconds each, use [`BudgetState::admit_coarse`] and poll every
//! time. The node budget itself is enforced exactly on every admission —
//! `max_nodes = N` admits exactly `N` units, even across threads.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag. Clones share the underlying flag, so one
/// token can be handed to a signal handler (or another thread) while its
/// clone rides inside a [`SearchBudget`]; `cancel()` trips every clone.
///
/// Tokens form a tree: [`CancelToken::child`] derives a token with its own
/// flag that *also* observes every ancestor. A daemon hands each request a
/// child of its shutdown token — cancelling one request (client disconnect,
/// per-request deadline) trips only that child, while cancelling the parent
/// (SIGINT) trips every outstanding request at once. The one-shot CLI keeps
/// using a single root token, whose behaviour is unchanged.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, untripped root token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token. Idempotent, safe from any thread, and — being a
    /// single atomic store — safe to call from a signal handler. Ancestors
    /// are left untouched; descendants observe the trip through their
    /// parent chain.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token — or any ancestor it was derived from — has been
    /// tripped.
    pub fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match &self.parent {
            Some(parent) => parent.is_cancelled(),
            None => false,
        }
    }

    /// Derives a child token: cancelling the child does not affect this
    /// token (or any sibling child), but cancelling this token — or any of
    /// its ancestors — is observed by the child. Clones of the child share
    /// the child's flag, as usual.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }
}

/// How a search ended — the verdict every search outcome carries.
///
/// Anything other than [`Termination::Completed`] means the outcome holds
/// *best-so-far* results: still internally consistent, but possibly missing
/// answers a full run would have found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The search ran to its natural end; results are exhaustive for the
    /// algorithm's contract.
    Completed,
    /// The wall-clock deadline passed mid-search.
    DeadlineExceeded,
    /// The node budget was spent mid-search.
    NodeBudgetExhausted,
    /// The cancel token was tripped mid-search.
    Cancelled,
}

impl Termination {
    /// Whether the search ran to completion.
    pub fn is_complete(self) -> bool {
        self == Termination::Completed
    }

    /// Stable machine-readable name (the `reason` field of a report's
    /// `termination` section).
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Completed => "completed",
            Termination::DeadlineExceeded => "deadline_exceeded",
            Termination::NodeBudgetExhausted => "node_budget_exhausted",
            Termination::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Limits for one search: an absolute wall-clock deadline, a node budget,
/// and/or a cancel token. The default ([`SearchBudget::unlimited`]) imposes
/// nothing, and every search accepts it at negligible cost (see the module
/// docs and BENCH_3.json).
///
/// The deadline is an absolute [`Instant`] so one budget can bound a whole
/// pipeline (load → search → write): compute `Instant::now() + timeout`
/// once, and every stage measures against the same wall.
#[derive(Debug, Clone, Default)]
pub struct SearchBudget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum number of work units (lattice node checks, Mondrian split
    /// attempts) to admit.
    pub max_nodes: Option<u64>,
    /// Cooperative cancellation flag.
    pub cancel: Option<CancelToken>,
    /// Poll the clock and cancel flag every this many admissions on the
    /// high-rate path; `0` (the `Default`) means
    /// [`SearchBudget::DEFAULT_CHECK_INTERVAL`].
    pub check_interval: u32,
}

impl SearchBudget {
    /// Default high-rate polling interval, in nodes.
    pub const DEFAULT_CHECK_INTERVAL: u32 = 64;

    /// A budget with no limits at all.
    pub fn unlimited() -> SearchBudget {
        SearchBudget::default()
    }

    /// Whether this budget can ever trip a search.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_nodes.is_none() && self.cancel.is_none()
    }

    /// Sets the deadline to `timeout` from now.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> SearchBudget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> SearchBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the number of admitted work units.
    #[must_use]
    pub fn with_max_nodes(mut self, max_nodes: u64) -> SearchBudget {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Attaches a cancel token (a clone; the caller keeps theirs to trip).
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> SearchBudget {
        self.cancel = Some(token);
        self
    }

    /// Overrides the high-rate polling interval.
    #[must_use]
    pub fn with_check_interval(mut self, interval: u32) -> SearchBudget {
        self.check_interval = interval;
        self
    }

    /// Arms the budget for one search run. The state is `Sync`: a parallel
    /// scan shares one `BudgetState` across workers so the node budget is
    /// global, and one worker tripping stops the others at their next
    /// admission.
    pub fn start(&self) -> BudgetState {
        let interval = match self.check_interval {
            0 => Self::DEFAULT_CHECK_INTERVAL,
            n => n,
        };
        BudgetState {
            deadline: self.deadline,
            max_nodes: self.max_nodes.unwrap_or(u64::MAX),
            cancel: self.cancel.clone(),
            interval: u64::from(interval),
            admitted: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
        }
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_NODES: u8 = 2;
const TRIP_CANCELLED: u8 = 3;

fn trip_cause(value: u8) -> Option<Termination> {
    match value {
        TRIP_DEADLINE => Some(Termination::DeadlineExceeded),
        TRIP_NODES => Some(Termination::NodeBudgetExhausted),
        TRIP_CANCELLED => Some(Termination::Cancelled),
        _ => None,
    }
}

/// One search run's armed budget: shared (it is `Sync`) by every worker of
/// that run. Once any limit trips, the cause is latched and every later
/// admission fails with the same [`Termination`].
#[derive(Debug)]
pub struct BudgetState {
    deadline: Option<Instant>,
    max_nodes: u64,
    cancel: Option<CancelToken>,
    interval: u64,
    admitted: AtomicU64,
    tripped: AtomicU8,
}

impl BudgetState {
    /// Admits one high-rate work unit (a kernel node check). Returns
    /// `Err(cause)` when the search must stop *without* doing the unit.
    ///
    /// The node budget is exact: with `max_nodes = N`, exactly `N`
    /// admissions succeed (across all threads). Deadline and cancellation
    /// are polled every [`SearchBudget::check_interval`] admissions, so a
    /// trip is noticed within one interval.
    pub fn admit(&self) -> Result<(), Termination> {
        if let Some(cause) = trip_cause(self.tripped.load(Ordering::Relaxed)) {
            return Err(cause);
        }
        let n = self.admitted.fetch_add(1, Ordering::Relaxed);
        if n >= self.max_nodes {
            return Err(self.trip(TRIP_NODES));
        }
        if n.is_multiple_of(self.interval) {
            self.poll()?;
        }
        Ok(())
    }

    /// Admits one coarse work unit (a Mondrian split attempt): like [`Self::admit`] but polls the clock and
    /// cancel flag on every call — coarse units cost enough that the poll
    /// is free and promptness matters more than throughput.
    pub fn admit_coarse(&self) -> Result<(), Termination> {
        if let Some(cause) = trip_cause(self.tripped.load(Ordering::Relaxed)) {
            return Err(cause);
        }
        let n = self.admitted.fetch_add(1, Ordering::Relaxed);
        if n >= self.max_nodes {
            return Err(self.trip(TRIP_NODES));
        }
        self.poll()
    }

    /// Polls deadline and cancellation without admitting any work — for
    /// checkpoints between phases (e.g. before materializing a winner).
    pub fn checkpoint(&self) -> Result<(), Termination> {
        if let Some(cause) = trip_cause(self.tripped.load(Ordering::Relaxed)) {
            return Err(cause);
        }
        self.poll()
    }

    /// How the run *has* ended so far: [`Termination::Completed`] unless a
    /// limit tripped. Call after the search loop to label the outcome.
    pub fn termination(&self) -> Termination {
        trip_cause(self.tripped.load(Ordering::Acquire)).unwrap_or(Termination::Completed)
    }

    /// Work units admitted so far (clamped to `max_nodes`: the raw counter
    /// also counts refused admissions, which never did any work).
    pub fn nodes_admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed).min(self.max_nodes)
    }

    fn poll(&self) -> Result<(), Termination> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(self.trip(TRIP_CANCELLED));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(TRIP_DEADLINE));
            }
        }
        Ok(())
    }

    /// Latches `cause` (first cause wins) and returns the winning cause.
    fn trip(&self, cause: u8) -> Termination {
        match self
            .tripped
            .compare_exchange(TRIP_NONE, cause, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => trip_cause(cause).expect("trip called with a real cause"),
            Err(previous) => trip_cause(previous).expect("tripped is never reset"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_admits_everything() {
        let state = SearchBudget::unlimited().start();
        for _ in 0..10_000 {
            assert!(state.admit().is_ok());
        }
        assert_eq!(state.termination(), Termination::Completed);
        assert_eq!(state.nodes_admitted(), 10_000);
    }

    #[test]
    fn node_budget_is_exact() {
        let state = SearchBudget::unlimited().with_max_nodes(5).start();
        for _ in 0..5 {
            assert!(state.admit().is_ok());
        }
        assert_eq!(state.admit(), Err(Termination::NodeBudgetExhausted));
        assert_eq!(state.admit(), Err(Termination::NodeBudgetExhausted));
        assert_eq!(state.termination(), Termination::NodeBudgetExhausted);
        assert_eq!(state.nodes_admitted(), 5);
    }

    #[test]
    fn node_budget_is_exact_across_threads() {
        let state = SearchBudget::unlimited().with_max_nodes(100).start();
        let admitted = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    while state.admit().is_ok() {
                        admitted.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Relaxed), 100);
        assert_eq!(state.termination(), Termination::NodeBudgetExhausted);
    }

    #[test]
    fn cancellation_is_noticed_within_one_interval() {
        let token = CancelToken::new();
        let state = SearchBudget::unlimited()
            .with_cancel(token.clone())
            .with_check_interval(8)
            .start();
        assert!(state.admit().is_ok());
        token.cancel();
        let mut admitted_after_cancel = 0;
        while state.admit().is_ok() {
            admitted_after_cancel += 1;
            assert!(admitted_after_cancel <= 8, "poll interval not honored");
        }
        assert_eq!(state.termination(), Termination::Cancelled);
    }

    #[test]
    fn coarse_admission_notices_cancellation_immediately() {
        let token = CancelToken::new();
        let state = SearchBudget::unlimited().with_cancel(token.clone()).start();
        assert!(state.admit_coarse().is_ok());
        token.cancel();
        assert_eq!(state.admit_coarse(), Err(Termination::Cancelled));
    }

    #[test]
    fn elapsed_deadline_trips() {
        let state = SearchBudget::unlimited()
            .with_deadline(Instant::now())
            .start();
        assert_eq!(state.checkpoint(), Err(Termination::DeadlineExceeded));
        assert_eq!(state.termination(), Termination::DeadlineExceeded);
    }

    #[test]
    fn first_cause_is_latched() {
        let token = CancelToken::new();
        token.cancel();
        let state = SearchBudget::unlimited()
            .with_cancel(token)
            .with_max_nodes(0)
            .start();
        // Node budget of zero trips on the very first admission, before the
        // interval poll would see the cancellation.
        assert_eq!(state.admit(), Err(Termination::NodeBudgetExhausted));
        assert_eq!(state.termination(), Termination::NodeBudgetExhausted);
        assert_eq!(state.checkpoint(), Err(Termination::NodeBudgetExhausted));
    }

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn child_cancellation_is_isolated_from_parent_and_siblings() {
        // The daemon regression: one request's cancellation (a child) must
        // not trip the server token (parent) or any other request (sibling).
        let server = CancelToken::new();
        let request_a = server.child();
        let request_b = server.child();
        request_a.cancel();
        assert!(request_a.is_cancelled());
        assert!(!server.is_cancelled(), "child trip leaked to parent");
        assert!(!request_b.is_cancelled(), "child trip leaked to sibling");
    }

    #[test]
    fn parent_cancellation_fans_out_to_all_children() {
        let server = CancelToken::new();
        let request_a = server.child();
        let request_b = server.child();
        let grandchild = request_a.child();
        server.cancel();
        assert!(request_a.is_cancelled());
        assert!(request_b.is_cancelled());
        assert!(grandchild.is_cancelled(), "trip crosses generations");
    }

    #[test]
    fn child_token_trips_a_budget_like_a_root_token() {
        let server = CancelToken::new();
        let request = server.child();
        let state = SearchBudget::unlimited().with_cancel(request).start();
        assert!(state.admit_coarse().is_ok());
        server.cancel();
        assert_eq!(state.admit_coarse(), Err(Termination::Cancelled));
        assert_eq!(state.termination(), Termination::Cancelled);
    }

    #[test]
    fn termination_names_are_stable() {
        assert_eq!(Termination::Completed.as_str(), "completed");
        assert_eq!(Termination::DeadlineExceeded.as_str(), "deadline_exceeded");
        assert_eq!(
            Termination::NodeBudgetExhausted.as_str(),
            "node_budget_exhausted"
        );
        assert_eq!(Termination::Cancelled.as_str(), "cancelled");
        assert!(Termination::Completed.is_complete());
        assert!(!Termination::Cancelled.is_complete());
        assert_eq!(Termination::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn state_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<BudgetState>();
        assert_sync::<CancelToken>();
    }
}
