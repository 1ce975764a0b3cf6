//! The generic membership-search kernel shared by every checker.
//!
//! The CAL checker ([`crate::check`]), its causal variant
//! ([`crate::causal`]), the classical linearizability checker
//! ([`crate::seqlin`], CAL over singleton elements) and the
//! interval-linearizability checker ([`crate::interval`]) are all
//! instances of one problem: an ordered backtracking search for a
//! *witness* — a sequence of steps accepted by a stateful specification
//! that explains every complete operation of a history. They differ only
//! in how candidate steps are enumerated and what a step is (a CA-element
//! or an interval point).
//!
//! This module owns everything the checkers share:
//!
//! - the node budget ([`CheckOptions::max_nodes`]) with a private or
//!   shared (cross-worker) counter;
//! - deadline / cancellation polling at one tick cadence
//!   ([`CheckOptions::deadline`], [`CancelToken`]);
//! - failed-state memoization, thread-private (`MemoTable`) or shared
//!   and lock-free ([`crate::fpmemo::FpMemo`]), optionally canonicalized
//!   under operation symmetry ([`crate::symmetry`],
//!   [`CheckOptions::symmetry`]);
//! - [`crate::obs::StatsSink`] event emission;
//! - the [`Verdict`] / [`InterruptReason`] outcome taxonomy;
//! - the two drivers, picked by [`CheckOptions::threads`]: the
//!   sequential [`search`] at one thread, and above it the parallel
//!   [`search_par`] with per-object decomposition and work-stealing
//!   root-frontier splitting ([`CheckOptions::stealing`]).
//!
//! The search itself is an *iterative* DFS over an arena of successor
//! entries: one `Vec` per worker holds every `(step, node)` on the
//! current path's frontiers, frames address it by index, and the witness
//! is reconstructed from frame indices only on success — no per-node
//! boxing, no per-descent step clones, and backtracking is a truncate.
//!
//! A checker plugs in by implementing [`SearchDomain`]: it names its
//! search-node type (which doubles as the memo key — memo keys stay
//! domain-local because what "same residual state" means differs per
//! checker), enumerates successor steps, and optionally supports
//! per-object decomposition with witness merging. In exchange it inherits
//! sequential search, parallel search, the shared memo table, stats sinks
//! and uniform interrupt semantics from one audited implementation.

use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;

use crate::fpmemo::FpMemo;
use crate::history::HistoryError;
use crate::ids::ObjectId;
use crate::obs::StatsSink;
use crate::trace::CaTrace;

/// A cooperative cancellation token shared between a checker run and the
/// code supervising it.
///
/// Cloning yields a handle to the same token. The search polls it
/// periodically; after [`CancelToken::cancel`] the run winds down and
/// reports [`Verdict::Interrupted`] with partial [`CheckStats`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; safe to call from any thread, idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Tuning knobs for a membership search, shared by every checker.
///
/// # Examples
///
/// Options compose via struct update syntax from [`CheckOptions::default`]:
///
/// ```
/// use std::time::Duration;
/// use cal_core::check::CheckOptions;
///
/// let options = CheckOptions {
///     max_nodes: 100_000,
///     threads: 4,
///     ..CheckOptions::with_deadline(Duration::from_secs(5))
/// };
/// assert_eq!(options.max_nodes, 100_000);
/// assert!(options.memoize); // on by default
/// ```
#[derive(Clone)]
pub struct CheckOptions {
    /// Maximum number of search nodes to expand before giving up with
    /// [`Verdict::ResourcesExhausted`].
    pub max_nodes: u64,
    /// Memoize failed search nodes (Lowe's optimization of the Wing–Gong
    /// search, generalized to every domain's node type). On by default;
    /// the ablation benchmark turns it off to quantify its effect.
    pub memoize: bool,
    /// Wall-clock budget for the search. When it elapses the search winds
    /// down and reports [`Verdict::Interrupted`] with the stats gathered
    /// so far. `None` (the default) means unbounded.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: when the token fires, the search winds
    /// down and reports [`Verdict::Interrupted`]. `None` by default.
    pub cancel: Option<CancelToken>,
    /// Checker threads; picks the driver. At 1 (the default) every
    /// `check_*_with` entry point runs the sequential [`search`]; above 1
    /// it runs the parallel [`search_par`] with this many workers.
    pub threads: usize,
    /// Work-stealing for the parallel frontier search: workers donate
    /// untried subtrees from their shallowest frame to idle thieves, so
    /// a skewed root frontier no longer leaves workers dying with their
    /// branch. On by default; off reverts to static root-branch claiming
    /// (the ablation benchmark measures the difference). Only the
    /// parallel driver reads it, so it has no effect at `threads: 1`.
    pub stealing: bool,
    /// Symmetry reduction ([`crate::symmetry`]): memo keys are
    /// canonicalized under permutation of interchangeable operations
    /// (same object/method/argument/return, identical real-time
    /// constraints), collapsing the `C(n, k)` ways of matching `k` of
    /// `n` clones onto one memo entry. On by default. Sound for
    /// specifications that consume thread ids only through equality
    /// tests *within* a candidate element (all in-tree specs); a spec
    /// that discriminates on absolute thread ids must turn this off.
    pub symmetry: bool,
    /// Observability sink the search reports events to
    /// ([`crate::obs::StatsSink`]). `None` (the default) disables
    /// observability entirely: each instrumentation point reduces to one
    /// never-taken branch, no allocation, no atomics.
    pub sink: Option<Arc<dyn StatsSink>>,
}

impl fmt::Debug for CheckOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckOptions")
            .field("max_nodes", &self.max_nodes)
            .field("memoize", &self.memoize)
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel)
            .field("threads", &self.threads)
            .field("stealing", &self.stealing)
            .field("symmetry", &self.symmetry)
            .field("sink", &self.sink.as_ref().map(|_| "StatsSink"))
            .finish()
    }
}

impl CheckOptions {
    /// The default node budget.
    pub const DEFAULT_MAX_NODES: u64 = 4_000_000;

    /// Returns the default options with a wall-clock `deadline`.
    pub fn with_deadline(deadline: Duration) -> Self {
        CheckOptions { deadline: Some(deadline), ..CheckOptions::default() }
    }
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_nodes: Self::DEFAULT_MAX_NODES,
            memoize: true,
            deadline: None,
            cancel: None,
            threads: 1,
            stealing: true,
            symmetry: true,
            sink: None,
        }
    }
}

/// Why a search stopped before reaching a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The wall-clock deadline in [`CheckOptions::deadline`] elapsed.
    DeadlineExceeded,
    /// The [`CancelToken`] in [`CheckOptions::cancel`] fired.
    Cancelled,
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::DeadlineExceeded => f.write_str("deadline exceeded"),
            InterruptReason::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// The outcome of a membership check, generic over the witness type `W`
/// (a [`CaTrace`] for the CAL and linearizability checkers, an
/// [`crate::interval::IntervalWitness`] for the interval checker).
///
/// # Examples
///
/// ```
/// use cal_core::check::{InterruptReason, Verdict};
/// use cal_core::trace::CaTrace;
///
/// let cal = Verdict::Cal(CaTrace::new());
/// assert!(cal.is_cal() && !cal.is_undecided());
/// assert!(cal.witness().is_some());
///
/// // Budget and interrupt outcomes are undecided, not refutations.
/// let timed_out: Verdict<CaTrace> =
///     Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded };
/// assert!(timed_out.is_undecided());
/// assert_eq!(Verdict::<CaTrace>::NotCal.witness(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<W = CaTrace> {
    /// The history is a member of the specification; the witness is
    /// attached.
    Cal(W),
    /// No completion/witness pair exists: the history violates the
    /// specification.
    NotCal,
    /// The node budget was exhausted before the search completed.
    ResourcesExhausted,
    /// The search was stopped early by a deadline or cancellation; the
    /// accompanying [`CheckStats`] cover the work done up to that point.
    Interrupted {
        /// What stopped the search.
        reason: InterruptReason,
    },
}

impl<W> Verdict<W> {
    /// Returns `true` for [`Verdict::Cal`].
    pub fn is_cal(&self) -> bool {
        matches!(self, Verdict::Cal(_))
    }

    /// Returns `true` when the search stopped without deciding —
    /// [`Verdict::ResourcesExhausted`] or [`Verdict::Interrupted`].
    pub fn is_undecided(&self) -> bool {
        matches!(self, Verdict::ResourcesExhausted | Verdict::Interrupted { .. })
    }

    /// The witness, if the verdict is [`Verdict::Cal`].
    pub fn witness(&self) -> Option<&W> {
        match self {
            Verdict::Cal(w) => Some(w),
            _ => None,
        }
    }

    /// The verdict as the `is_*` predicates report it: `Ok(true)` for
    /// [`Verdict::Cal`], `Ok(false)` for [`Verdict::NotCal`], and
    /// [`CheckError::Undecided`] when the search stopped without deciding.
    pub(crate) fn decided(self) -> Result<bool, CheckError> {
        match self {
            Verdict::Cal(_) => Ok(true),
            Verdict::NotCal => Ok(false),
            Verdict::ResourcesExhausted => Err(CheckError::Undecided(Verdict::ResourcesExhausted)),
            Verdict::Interrupted { reason } => {
                Err(CheckError::Undecided(Verdict::Interrupted { reason }))
            }
        }
    }

    /// Maps the witness type, leaving the other variants untouched.
    pub fn map<U>(self, f: impl FnOnce(W) -> U) -> Verdict<U> {
        match self {
            Verdict::Cal(w) => Verdict::Cal(f(w)),
            Verdict::NotCal => Verdict::NotCal,
            Verdict::ResourcesExhausted => Verdict::ResourcesExhausted,
            Verdict::Interrupted { reason } => Verdict::Interrupted { reason },
        }
    }
}

impl<W: fmt::Display> fmt::Display for Verdict<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Cal(w) => write!(f, "CAL (witness: {w})"),
            Verdict::NotCal => f.write_str("not CAL"),
            Verdict::ResourcesExhausted => f.write_str("undecided: node budget exhausted"),
            Verdict::Interrupted { reason } => write!(f, "undecided: interrupted ({reason})"),
        }
    }
}

/// Search statistics, for the checker-scalability experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Search nodes expanded.
    pub nodes: u64,
    /// Candidate steps tried (spec transition calls).
    pub elements_tried: u64,
    /// Failed states pruned via the memo table.
    pub memo_hits: u64,
    /// Subtrees stolen from another worker's deque (always 0 on the
    /// sequential path and with [`CheckOptions::stealing`] off).
    pub steals: u64,
}

impl std::ops::AddAssign for CheckStats {
    fn add_assign(&mut self, other: CheckStats) {
        self.nodes += other.nodes;
        self.elements_tried += other.elements_tried;
        self.memo_hits += other.memo_hits;
        self.steals += other.steals;
    }
}

/// A verdict together with search statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome<W = CaTrace> {
    /// The verdict.
    pub verdict: Verdict<W>,
    /// Search statistics.
    pub stats: CheckStats,
}

impl<W> CheckOutcome<W> {
    /// Maps the witness type, preserving the stats.
    pub fn map_witness<U>(self, f: impl FnOnce(W) -> U) -> CheckOutcome<U> {
        CheckOutcome { verdict: self.verdict.map(f), stats: self.stats }
    }
}

/// Errors reported by the checkers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The input history is not well-formed.
    IllFormed(HistoryError),
    /// The specification panicked during a transition; the payload is the
    /// panic message. The search state is discarded — a panicking spec
    /// cannot be trusted to have left its `State` values consistent.
    SpecPanicked(String),
    /// A boolean convenience query ([`crate::check::is_cal`]) could not be
    /// answered because the underlying check stopped without deciding.
    Undecided(Verdict),
    /// The happens-before relation handed to the checker was built over a
    /// different number of operations than the history has.
    OrderMismatch {
        /// Operations the relation covers.
        order: usize,
        /// Operations in the history.
        history: usize,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::IllFormed(e) => write!(f, "ill-formed history: {e}"),
            CheckError::SpecPanicked(msg) => write!(f, "specification panicked: {msg}"),
            CheckError::Undecided(v) => write!(f, "check undecided: {v}"),
            CheckError::OrderMismatch { order, history } => write!(
                f,
                "happens-before relation covers {order} operations, the history has {history}"
            ),
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::IllFormed(e) => Some(e),
            CheckError::SpecPanicked(_)
            | CheckError::Undecided(_)
            | CheckError::OrderMismatch { .. } => None,
        }
    }
}

impl From<HistoryError> for CheckError {
    fn from(e: HistoryError) -> Self {
        CheckError::IllFormed(e)
    }
}

/// Renders a `catch_unwind` payload as a message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many search ticks (nodes or candidate steps) pass between
/// wall-clock and cancellation polls. A power of two; small enough that
/// even slow spec transitions keep deadline overshoot well under the
/// deadline itself.
const POLL_INTERVAL_MASK: u64 = 255;

/// The failed-state table behind a search: thread-private for the
/// sequential driver, a reference to a shared lock-free fingerprint
/// table ([`FpMemo`]) for the parallel one (so cross-worker pruning
/// compounds without lock contention).
pub(crate) enum MemoTable<'m, K: Eq + Hash + Clone> {
    /// A plain private hash set.
    Local(HashSet<K>),
    /// A shared lock-free fingerprint table owned by the parallel driver.
    Shared(&'m FpMemo<K>),
}

impl<K: Eq + Hash + Clone> MemoTable<'_, K> {
    /// The shard bucket `key` lives in, for per-shard memo attribution:
    /// always 0 for the private table, the fingerprint bucket for the
    /// shared one.
    fn shard_of(&self, key: &K) -> usize {
        match self {
            MemoTable::Local(_) => 0,
            MemoTable::Shared(memo) => memo.bucket_of(key),
        }
    }

    fn contains(&self, key: &K) -> bool {
        match self {
            MemoTable::Local(set) => set.contains(key),
            MemoTable::Shared(memo) => memo.contains(key),
        }
    }

    fn insert(&mut self, key: K) {
        match self {
            MemoTable::Local(set) => {
                set.insert(key);
            }
            MemoTable::Shared(memo) => {
                memo.insert(&key);
            }
        }
    }
}

/// A checker's view of one search problem: how to enumerate candidate
/// steps and assemble witnesses. Everything else — budgets, deadlines,
/// memoization, parallelism, stats — is the engine's job.
///
/// The two in-tree domains are the CAL domain ([`crate::check`], steps
/// are CA-elements; the causal and classical linearizability checkers
/// run it too) and the interval-linearizability domain
/// ([`crate::interval`], steps are interval points).
pub trait SearchDomain {
    /// A search node. Doubles as the failed-state memo key, which is why
    /// it stays domain-local: the CAL and linearizability checkers key on
    /// `(matched-set, spec-state)`, the interval checker additionally
    /// carries its open-interval set — collapsing them onto one key type
    /// would either lose pruning or conflate distinct residual states.
    type Node: Clone + Eq + Hash + fmt::Debug;

    /// One step of a witness (a CA-element or an interval point).
    type Step: Clone;

    /// The root search node. May call specification code; the engine
    /// guards the call with `catch_unwind` and surfaces panics as
    /// [`CheckError::SpecPanicked`].
    fn initial(&self) -> Self::Node;

    /// Whether `node` explains every complete operation (unmatched
    /// pending invocations are dropped by the chosen completion). Must
    /// not call panicking specification code: the engine invokes it
    /// unguarded on its hot path.
    fn is_goal(&self, node: &Self::Node) -> bool;

    /// Enumerates the successor steps of `node`, in the order the search
    /// should try them, pushing each onto `out` (the engine's per-worker
    /// successor arena — domains append and never otherwise touch it, so
    /// one growing buffer serves the whole search with no per-expansion
    /// allocation). Domains call specification code *unguarded* here —
    /// the engine wraps the whole call in `catch_unwind`, converts a
    /// panic into [`CheckError::SpecPanicked`] and discards whatever the
    /// interrupted call pushed. Long enumeration loops should poll
    /// [`ExpandObs::should_stop`] and return early (with a partial
    /// successor list) when it fires, and report candidate transition
    /// attempts via [`ExpandObs::on_element_tried`].
    fn expand(
        &self,
        node: &Self::Node,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(Self::Step, Self::Node)>,
    );

    /// The symmetry-canonical memo key for `node`, or `None` when the
    /// node is its own canonical form (the common case, kept
    /// allocation-free). Only consulted when [`CheckOptions::symmetry`]
    /// is on. The default — no domain symmetry — never canonicalizes.
    ///
    /// Implementations must guarantee that two nodes with the same
    /// canonical key have equi-satisfiable residual search problems; see
    /// [`crate::symmetry`] for the soundness argument the CAL domain
    /// relies on.
    fn canonical_key(&self, node: &Self::Node) -> Option<Self::Node> {
        let _ = node;
        None
    }

    /// Splits the problem into independent per-object subdomains, when
    /// the domain supports locality-based decomposition. `None` (the
    /// default) means the parallel driver falls back to root-frontier
    /// splitting. Implementations should return `None` rather than a
    /// single-element partition. May call specification code; the engine
    /// guards the call.
    fn decompose(&self) -> Option<Vec<(ObjectId, Self)>>
    where
        Self: Sized,
    {
        None
    }

    /// Merges per-object witnesses (as returned by the subdomains from
    /// [`SearchDomain::decompose`]) into one witness respecting the full
    /// history's real-time order. The default concatenation is only
    /// correct for domains that never decompose.
    fn merge_witnesses(&self, parts: Vec<(ObjectId, Vec<Self::Step>)>) -> Vec<Self::Step> {
        parts.into_iter().flat_map(|(_, steps)| steps).collect()
    }
}

/// Non-generic per-search control state: budget, tick polling, interrupt
/// latches and the stats sink.
struct Ctl<'a> {
    options: &'a CheckOptions,
    sink: Option<&'a dyn StatsSink>,
    start: Instant,
    ticks: u64,
    stats: CheckStats,
    exhausted: bool,
    interrupted: Option<InterruptReason>,
    panicked: Option<String>,
    /// Global node counter for parallel searches; when present it
    /// replaces the private `stats.nodes` in the budget check, so
    /// `max_nodes` bounds the *total* across workers.
    shared_nodes: Option<&'a AtomicU64>,
    /// Early-stop latch for parallel searches: fired by the driver when a
    /// sibling worker found a witness (or panicked), making every other
    /// worker wind down. Distinct from the user's [`CheckOptions::cancel`]
    /// so an internal stop is never mistaken for a user cancellation.
    stop: Option<&'a CancelToken>,
}

impl<'a> Ctl<'a> {
    fn new(
        options: &'a CheckOptions,
        shared_nodes: Option<&'a AtomicU64>,
        stop: Option<&'a CancelToken>,
        start: Instant,
    ) -> Self {
        Ctl {
            options,
            sink: options.sink.as_deref(),
            start,
            ticks: 0,
            stats: CheckStats::default(),
            exhausted: false,
            interrupted: None,
            panicked: None,
            shared_nodes,
            stop,
        }
    }

    /// `true` once the search must stop (interrupt already latched, spec
    /// panicked, or a periodic poll observes deadline/cancellation).
    fn should_stop(&mut self) -> bool {
        if self.interrupted.is_some() || self.panicked.is_some() {
            return true;
        }
        self.ticks += 1;
        if self.ticks & POLL_INTERVAL_MASK == 0 {
            if let Some(deadline) = self.options.deadline {
                if self.start.elapsed() >= deadline {
                    return self.latch_interrupt(InterruptReason::DeadlineExceeded);
                }
            }
            if let Some(cancel) = &self.options.cancel {
                if cancel.is_cancelled() {
                    return self.latch_interrupt(InterruptReason::Cancelled);
                }
            }
            if let Some(stop) = self.stop {
                if stop.is_cancelled() {
                    return self.latch_interrupt(InterruptReason::Cancelled);
                }
            }
        }
        false
    }

    /// Latches `reason`, reports it to the sink, and returns `true`.
    fn latch_interrupt(&mut self, reason: InterruptReason) -> bool {
        self.interrupted = Some(reason);
        if let Some(sink) = self.sink {
            sink.on_interrupt(reason);
        }
        true
    }

    /// Charges one node against the budget (the shared counter when
    /// present, the private one otherwise) and latches `exhausted` when
    /// the budget is spent.
    fn charge_node(&mut self) -> bool {
        let spent = match self.shared_nodes {
            Some(counter) => counter.fetch_add(1, Ordering::Relaxed),
            None => self.stats.nodes,
        };
        if spent >= self.options.max_nodes {
            if !self.exhausted {
                if let Some(sink) = self.sink {
                    sink.on_budget_exhausted(self.options.max_nodes);
                }
            }
            self.exhausted = true;
            return false;
        }
        self.stats.nodes += 1;
        if let Some(sink) = self.sink {
            sink.on_node();
        }
        true
    }
}

/// The engine-side observer a domain's [`SearchDomain::expand`] reports
/// to: frontier widths, candidate attempts and cooperative-stop polls,
/// all forwarded to the shared stats and the configured
/// [`crate::obs::StatsSink`].
pub struct ExpandObs<'e, 'a> {
    ctl: &'e mut Ctl<'a>,
}

impl ExpandObs<'_, '_> {
    /// Reports the width of the node's candidate frontier (called once
    /// per expansion).
    pub fn on_frontier(&mut self, width: usize) {
        if let Some(sink) = self.ctl.sink {
            sink.on_frontier(width);
        }
    }

    /// Reports one candidate transition attempt against the spec.
    pub fn on_element_tried(&mut self) {
        self.ctl.stats.elements_tried += 1;
        if let Some(sink) = self.ctl.sink {
            sink.on_element_tried();
        }
    }

    /// Polls the deadline / cancellation state at the shared tick
    /// cadence. Once it returns `true` the domain should stop enumerating
    /// and return the successors collected so far — the engine winds the
    /// whole search down.
    pub fn should_stop(&mut self) -> bool {
        self.ctl.should_stop()
    }
}

impl fmt::Debug for ExpandObs<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExpandObs").finish_non_exhaustive()
    }
}

/// The full mutable state of one worker's DFS.
struct Cx<'a, D: SearchDomain> {
    ctl: Ctl<'a>,
    failed: MemoTable<'a, D::Node>,
}

/// [`SearchDomain::expand`] behind `catch_unwind`: a panicking spec
/// latches `panicked` and reads as a dead end. Successors are pushed
/// onto `out`; a panic truncates `out` back to its pre-call length so
/// the arena never carries half-built entries.
fn expand_guarded<D: SearchDomain>(
    domain: &D,
    cx: &mut Cx<'_, D>,
    node: &D::Node,
    out: &mut Vec<(D::Step, D::Node)>,
) -> bool {
    let len = out.len();
    let mut obs = ExpandObs { ctl: &mut cx.ctl };
    match catch_unwind(AssertUnwindSafe(|| domain.expand(node, &mut obs, out))) {
        Ok(()) => true,
        Err(payload) => {
            out.truncate(len);
            cx.ctl.panicked = Some(panic_message(payload));
            false
        }
    }
}

/// Probes the memo table for `node` (under the symmetry-canonical key
/// when enabled), counting the hit or miss. `true` means the node is a
/// known refuted state and the search must prune.
fn probe_memo<D: SearchDomain>(domain: &D, cx: &mut Cx<'_, D>, node: &D::Node) -> bool {
    let canon;
    let key: &D::Node = if cx.ctl.options.symmetry {
        match domain.canonical_key(node) {
            Some(c) => {
                canon = c;
                &canon
            }
            None => node,
        }
    } else {
        node
    };
    if cx.failed.contains(key) {
        cx.ctl.stats.memo_hits += 1;
        if let Some(sink) = cx.ctl.sink {
            sink.on_memo_hit(cx.failed.shard_of(key));
        }
        true
    } else {
        if let Some(sink) = cx.ctl.sink {
            sink.on_memo_miss(cx.failed.shard_of(key));
        }
        false
    }
}

/// Records `node` as refuted (under the symmetry-canonical key when
/// enabled).
fn insert_memo<D: SearchDomain>(domain: &D, cx: &mut Cx<'_, D>, node: &D::Node) {
    let key: D::Node = if cx.ctl.options.symmetry {
        domain.canonical_key(node).unwrap_or_else(|| node.clone())
    } else {
        node.clone()
    };
    if let Some(sink) = cx.ctl.sink {
        sink.on_memo_insert(cx.failed.shard_of(&key));
    }
    cx.failed.insert(key);
}

/// One unit of work-stealing work: a subtree root plus the witness
/// prefix (steps from the search root down to — and including — the
/// step that produced `node`).
struct Task<D: SearchDomain> {
    node: D::Node,
    prefix: Vec<D::Step>,
}

/// The stealing hooks a frontier worker threads into its tree search.
struct StealSupport<'s, D: SearchDomain> {
    /// Number of workers currently idle and hunting for work; polled
    /// (relaxed) once per expansion, donation only happens when > 0.
    hungry: &'s AtomicUsize,
    /// Tasks created but not yet completed, for termination detection.
    /// Incremented *before* a donated task is published.
    outstanding: &'s AtomicUsize,
    /// The donating worker's own deque; thieves steal from its other end.
    worker: &'s Worker<Task<D>>,
    /// The running task's witness prefix, cloned into donations.
    prefix: &'s [D::Step],
}

/// One frame of the iterative DFS: a node being expanded and the arena
/// range of its successors.
struct Frame {
    /// Arena index of the `(step, node)` entry this frame expands;
    /// `None` for the root frame (whose node the caller owns).
    node_idx: Option<usize>,
    /// Start of this frame's successor range in the arena.
    succ_start: usize,
    /// One past the end of the range (shrinks when children are donated).
    succ_end: usize,
    /// Next successor to try (absolute arena index).
    cursor: usize,
    /// A child of this frame was donated to a thief: the subtree was not
    /// fully explored *here*, so the frame's node must not be memoized
    /// as refuted, and neither may any ancestor.
    donated: bool,
}

/// Donates the shallowest spare subtree to an idle thief: the *last*
/// untried child of the shallowest frame with at least two remaining
/// (so the owner keeps local work), pushed onto the owner's own deque
/// where thieves steal FIFO. Returns `false` when nothing is spare.
fn try_donate<D: SearchDomain>(
    frames: &mut [Frame],
    succs: &[(D::Step, D::Node)],
    sc: &StealSupport<'_, D>,
) -> bool {
    let Some(fi) = frames.iter().position(|f| f.succ_end - f.cursor >= 2) else {
        return false;
    };
    let donated_idx = frames[fi].succ_end - 1;
    // Witness prefix of the donated subtree: the running task's prefix,
    // the steps taken down to frame `fi`'s node, then the donated step.
    let mut prefix: Vec<D::Step> = Vec::with_capacity(sc.prefix.len() + fi + 2);
    prefix.extend(sc.prefix.iter().cloned());
    prefix.extend(frames[..=fi].iter().filter_map(|f| f.node_idx).map(|i| succs[i].0.clone()));
    prefix.push(succs[donated_idx].0.clone());
    let node = succs[donated_idx].1.clone();
    frames[fi].succ_end = donated_idx;
    frames[fi].donated = true;
    // Publish only after the accounting increment: a thief may complete
    // the task immediately, and its decrement must never race the count
    // to zero while the task is in flight.
    sc.outstanding.fetch_add(1, Ordering::SeqCst);
    sc.worker.push(Task { node, prefix });
    true
}

/// What one worker's search produced.
struct RunResult<T> {
    witness: Option<Vec<T>>,
    stats: CheckStats,
    interrupted: Option<InterruptReason>,
    exhausted: bool,
    panicked: Option<String>,
}

/// The one backtracking search every checker shares, as an iterative
/// DFS over a per-worker successor arena.
///
/// Check order per visited node faithfully mirrors the old recursive
/// search: parent stop-poll → goal test → stop-poll → budget charge →
/// memo probe → expansion. In particular a spent budget skips expansion
/// but *not* sibling goal tests, and a frame is memo-inserted on pop
/// only when its subtree genuinely completed (no interrupt, no panic,
/// no exhaustion, no donated child).
///
/// Returns the witness steps *below* `root` on success.
fn run_tree<D: SearchDomain>(
    domain: &D,
    cx: &mut Cx<'_, D>,
    root: &D::Node,
    steal: Option<&StealSupport<'_, D>>,
) -> Option<Vec<D::Step>> {
    if domain.is_goal(root) {
        return Some(Vec::new());
    }
    if cx.ctl.should_stop() || !cx.ctl.charge_node() {
        return None;
    }
    if cx.ctl.options.memoize && probe_memo(domain, cx, root) {
        return None;
    }
    // The arena: every (step, node) on the current path's frontiers,
    // contiguous per frame. Backtracking truncates; nothing is freed
    // node-by-node.
    let mut succs: Vec<(D::Step, D::Node)> = Vec::new();
    // Scratch for one expansion, reused so domains never allocate a
    // fresh successor Vec; `Vec::append` moves its contents into the
    // arena and keeps the capacity.
    let mut scratch: Vec<(D::Step, D::Node)> = Vec::new();
    if !expand_guarded(domain, cx, root, &mut succs) {
        return None;
    }
    let mut frames: Vec<Frame> = vec![Frame {
        node_idx: None,
        succ_start: 0,
        succ_end: succs.len(),
        cursor: 0,
        donated: false,
    }];
    while !frames.is_empty() {
        let fi = frames.len() - 1;
        if frames[fi].cursor >= frames[fi].succ_end {
            // Frame exhausted: memo-insert if proven, pop, reclaim the
            // arena range.
            let Frame { node_idx, succ_start, donated, .. } = frames[fi];
            frames.pop();
            if cx.ctl.options.memoize
                && !donated
                && cx.ctl.interrupted.is_none()
                && cx.ctl.panicked.is_none()
                && !cx.ctl.exhausted
            {
                match node_idx {
                    Some(i) => {
                        let (_, ref node) = succs[i];
                        insert_memo(domain, cx, node);
                    }
                    None => insert_memo(domain, cx, root),
                }
            }
            if donated {
                if let Some(parent) = frames.last_mut() {
                    parent.donated = true;
                }
            }
            succs.truncate(succ_start);
            continue;
        }
        // Feed idle thieves before descending further.
        if let Some(sc) = steal {
            if sc.hungry.load(Ordering::Relaxed) > 0 {
                try_donate(&mut frames, &succs, sc);
            }
        }
        // The parent loop's stop poll.
        if cx.ctl.should_stop() {
            return None;
        }
        let fi = frames.len() - 1;
        let child = frames[fi].cursor;
        frames[fi].cursor += 1;
        // Visit the child, in the recursive call's exact order.
        if domain.is_goal(&succs[child].1) {
            let mut witness: Vec<D::Step> =
                frames.iter().filter_map(|f| f.node_idx).map(|i| succs[i].0.clone()).collect();
            witness.push(succs[child].0.clone());
            return Some(witness);
        }
        if cx.ctl.should_stop() {
            continue; // latched; the next parent poll unwinds
        }
        if !cx.ctl.charge_node() {
            continue; // budget spent: no expansion, but siblings still get goal tests
        }
        if cx.ctl.options.memoize && probe_memo(domain, cx, &succs[child].1) {
            continue;
        }
        if !expand_guarded(domain, cx, &succs[child].1, &mut scratch) {
            continue; // panicked; the next parent poll unwinds
        }
        let succ_start = succs.len();
        succs.append(&mut scratch);
        frames.push(Frame {
            node_idx: Some(child),
            succ_start,
            succ_end: succs.len(),
            cursor: succ_start,
            donated: false,
        });
    }
    None
}

/// Runs one DFS from `root` to completion (or interruption).
#[allow(clippy::too_many_arguments)]
fn run_root<'m, D: SearchDomain>(
    domain: &D,
    options: &CheckOptions,
    root: &D::Node,
    failed: MemoTable<'m, D::Node>,
    shared_nodes: Option<&'m AtomicU64>,
    stop: Option<&'m CancelToken>,
    start: Instant,
    steal: Option<&StealSupport<'_, D>>,
) -> RunResult<D::Step> {
    let mut cx: Cx<'_, D> = Cx { ctl: Ctl::new(options, shared_nodes, stop, start), failed };
    let witness = run_tree(domain, &mut cx, root, steal);
    RunResult {
        witness,
        stats: cx.ctl.stats,
        interrupted: cx.ctl.interrupted,
        exhausted: cx.ctl.exhausted,
        panicked: cx.ctl.panicked,
    }
}

/// [`SearchDomain::initial`] behind `catch_unwind`.
fn initial_guarded<D: SearchDomain>(domain: &D) -> Result<D::Node, CheckError> {
    catch_unwind(AssertUnwindSafe(|| domain.initial()))
        .map_err(|p| CheckError::SpecPanicked(panic_message(p)))
}

/// Runs the sequential search over `domain`, returning the witness as the
/// domain's step sequence.
///
/// # Errors
///
/// Returns [`CheckError::SpecPanicked`] if the domain's specification
/// panics during the search.
pub fn search<D: SearchDomain>(
    domain: &D,
    options: &CheckOptions,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError> {
    let root = initial_guarded(domain)?;
    let r = run_root(
        domain,
        options,
        &root,
        MemoTable::Local(HashSet::new()),
        None,
        None,
        Instant::now(),
        None,
    );
    finish_run(r)
}

/// Every distinct end state of an exhaustive exploration: the result of
/// [`enumerate_goals`].
#[derive(Debug, Clone)]
pub struct Enumeration<N> {
    /// The distinct goal nodes reached, in discovery order.
    pub goals: Vec<N>,
    /// `true` when the exploration ran to exhaustion: every node
    /// reachable from the root was visited, so `goals` is the *complete*
    /// set. `false` when the node budget, the deadline or a cancellation
    /// stopped it early — the caller must not treat `goals` as closed.
    pub complete: bool,
    /// Work accounting, in the same units as a [`search`] run.
    pub stats: CheckStats,
}

/// Exhaustively enumerates the distinct *goal* nodes reachable from the
/// domain's initial node.
///
/// Where [`search`] stops at the first witness, this keeps exploring and
/// collects every distinct goal node. It is the window-retirement hook the
/// streaming checker ([`crate::stream`]) builds on: the goal nodes of a
/// decided window prefix carry every specification state the prefix can
/// end in, after which the prefix's actions — and every memoized search
/// node referring to them — can be garbage-collected. (Failed-node memo
/// entries must *not* survive a retirement boundary: a node refuted
/// against one window can become satisfiable once new events extend it,
/// which is why the streaming checker runs each per-checkpoint search with
/// a fresh memo and uses this enumeration, whose visited set lives and
/// dies with the call, at the boundary itself.)
///
/// The full visited set doubles as the memo table here (completeness
/// requires one), so [`CheckOptions::memoize`] is ignored; revisits are
/// counted as `memo_hits`. Budget, deadline and cancellation are honoured
/// exactly as in [`search`]; when any of them fires, the partial result is
/// returned with `complete = false`.
///
/// # Errors
///
/// Returns [`CheckError::SpecPanicked`] if the domain's specification
/// panics during the enumeration.
pub fn enumerate_goals<D: SearchDomain>(
    domain: &D,
    options: &CheckOptions,
) -> Result<Enumeration<D::Node>, CheckError> {
    let root = initial_guarded(domain)?;
    let mut ctl = Ctl::new(options, None, None, Instant::now());
    let mut visited: HashSet<D::Node> = HashSet::new();
    let mut goals: Vec<D::Node> = Vec::new();
    let mut stack: Vec<D::Node> = vec![root];
    while let Some(node) = stack.pop() {
        if !visited.insert(node.clone()) {
            ctl.stats.memo_hits += 1;
            continue;
        }
        if ctl.should_stop() {
            break;
        }
        if !ctl.charge_node() {
            break;
        }
        if domain.is_goal(&node) {
            goals.push(node.clone());
        }
        let mut succs = Vec::new();
        {
            let mut obs = ExpandObs { ctl: &mut ctl };
            if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| domain.expand(&node, &mut obs, &mut succs)))
            {
                ctl.panicked = Some(panic_message(payload));
                break;
            }
        }
        for (_, next) in succs {
            if !visited.contains(&next) {
                stack.push(next);
            }
        }
    }
    if let Some(msg) = ctl.panicked {
        return Err(CheckError::SpecPanicked(msg));
    }
    let complete = ctl.interrupted.is_none() && !ctl.exhausted && stack.is_empty();
    Ok(Enumeration { goals, complete, stats: ctl.stats })
}

/// Converts one completed [`RunResult`] into a [`CheckOutcome`].
fn finish_run<T>(r: RunResult<T>) -> Result<CheckOutcome<Vec<T>>, CheckError> {
    if let Some(msg) = r.panicked {
        return Err(CheckError::SpecPanicked(msg));
    }
    let verdict = if let Some(witness) = r.witness {
        Verdict::Cal(witness)
    } else if let Some(reason) = r.interrupted {
        Verdict::Interrupted { reason }
    } else if r.exhausted {
        Verdict::ResourcesExhausted
    } else {
        Verdict::NotCal
    };
    Ok(CheckOutcome { verdict, stats: r.stats })
}

/// Per-worker aggregation of a frontier or decomposed run.
#[derive(Default)]
struct Tally {
    stats: CheckStats,
    deadline: bool,
    user_cancelled: bool,
    exhausted: bool,
}

impl Tally {
    /// Folds one finished sub-search into the tally, classifying its
    /// interrupt (an internal stop is *not* a user cancellation).
    fn absorb<T>(&mut self, r: &RunResult<T>, options: &CheckOptions) {
        self.stats += r.stats;
        match r.interrupted {
            Some(InterruptReason::DeadlineExceeded) => self.deadline = true,
            Some(InterruptReason::Cancelled)
                if options.cancel.as_ref().is_some_and(CancelToken::is_cancelled) =>
            {
                self.user_cancelled = true;
            }
            _ => {}
        }
        self.exhausted |= r.exhausted;
    }
}

/// Runs the parallel search over `domain`: per-object decomposition when
/// [`SearchDomain::decompose`] offers at least two parts, root-frontier
/// splitting with a shared lock-free [`FpMemo`] otherwise.
/// [`CheckOptions::threads`] sets the worker count; `max_nodes` bounds
/// the *total* nodes across workers.
///
/// # Errors
///
/// Returns [`CheckError::SpecPanicked`] if the domain's specification
/// panics during the search.
pub fn search_par<D>(
    domain: &D,
    options: &CheckOptions,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError>
where
    D: SearchDomain + Sync,
    D::Node: Send + Sync,
    D::Step: Send + Sync,
{
    let parts = catch_unwind(AssertUnwindSafe(|| domain.decompose()))
        .map_err(|p| CheckError::SpecPanicked(panic_message(p)))?;
    match parts {
        Some(parts) if parts.len() >= 2 => search_decomposed(domain, parts, options),
        _ => frontier_search(domain, options),
    }
}

/// The driver [`CheckOptions::threads`] picks: [`search`] at one thread,
/// [`search_par`] above. Every checker's `check_*_with` entry point runs
/// through here.
pub(crate) fn search_threads<D>(
    domain: &D,
    options: &CheckOptions,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError>
where
    D: SearchDomain + Sync,
    D::Node: Send + Sync,
    D::Step: Send + Sync,
{
    if options.threads > 1 {
        search_par(domain, options)
    } else {
        search(domain, options)
    }
}

/// Whole-problem search with the root frontier split across workers.
///
/// Root branches seed a shared [`Injector`]; each worker owns a
/// work-stealing deque ([`Worker`]/[`Stealer`]) into which its running
/// search donates untried subtrees whenever another worker goes idle
/// (`hungry > 0`). Idle workers drain their own deque first (LIFO,
/// depth-first locality), then the injector, then steal FIFO — the
/// shallowest, largest subtrees — from peers. Termination is detected
/// with an `outstanding` task counter; with
/// [`CheckOptions::stealing`] off, no donations happen and workers
/// simply drain the injector, reproducing the old static split.
fn frontier_search<D>(
    domain: &D,
    options: &CheckOptions,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError>
where
    D: SearchDomain + Sync,
    D::Node: Send + Sync,
    D::Step: Send + Sync,
{
    let start = Instant::now();
    let root = initial_guarded(domain)?;
    if domain.is_goal(&root) {
        return Ok(CheckOutcome { verdict: Verdict::Cal(Vec::new()), stats: CheckStats::default() });
    }
    let sink = options.sink.as_deref();
    if options.max_nodes == 0 {
        if let Some(sink) = sink {
            sink.on_budget_exhausted(0);
        }
        return Ok(CheckOutcome {
            verdict: Verdict::ResourcesExhausted,
            stats: CheckStats::default(),
        });
    }
    // The root expansion is one node, mirroring the sequential search.
    let mut root_ctl = Ctl::new(options, None, None, start);
    root_ctl.stats.nodes = 1;
    if let Some(sink) = sink {
        sink.on_node();
    }
    let mut branches: Vec<(D::Step, D::Node)> = Vec::new();
    {
        let mut obs = ExpandObs { ctl: &mut root_ctl };
        catch_unwind(AssertUnwindSafe(|| domain.expand(&root, &mut obs, &mut branches)))
            .map_err(|p| CheckError::SpecPanicked(panic_message(p)))?;
    }
    let root_stats = root_ctl.stats;
    if let Some(reason) = root_ctl.interrupted {
        return Ok(CheckOutcome { verdict: Verdict::Interrupted { reason }, stats: root_stats });
    }
    if branches.is_empty() {
        return Ok(CheckOutcome { verdict: Verdict::NotCal, stats: root_stats });
    }

    // With stealing, every requested worker is useful even when the root
    // frontier is narrower than the thread count: idle workers steal
    // donated subtrees. Without it, extra workers would only spin.
    let stealing = options.stealing && options.threads > 1;
    let workers = if stealing {
        options.threads
    } else {
        options.threads.max(1).min(branches.len())
    };
    if let Some(sink) = sink {
        sink.on_root_frontier(branches.len(), workers);
    }
    let memo: FpMemo<D::Node> = FpMemo::new();
    let nodes = AtomicU64::new(root_stats.nodes);
    let stop = CancelToken::new();
    let injector: Injector<Task<D>> = Injector::new();
    let outstanding = AtomicUsize::new(branches.len());
    for (step, node) in branches {
        injector.push(Task { node, prefix: vec![step] });
    }
    let hungry = AtomicUsize::new(0);
    let deques: Vec<Worker<Task<D>>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<Task<D>>> = deques.iter().map(Worker::stealer).collect();
    let witness: Mutex<Option<Vec<D::Step>>> = Mutex::new(None);
    let panicked: Mutex<Option<String>> = Mutex::new(None);

    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = deques
            .into_iter()
            .enumerate()
            .map(|(wi, my)| {
                let stealers = &stealers;
                let injector = &injector;
                let outstanding = &outstanding;
                let hungry = &hungry;
                let stop = &stop;
                let witness = &witness;
                let panicked = &panicked;
                let memo = &memo;
                let nodes = &nodes;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    loop {
                        if stop.is_cancelled() {
                            break;
                        }
                        // Own donations first (deepest, warm caches),
                        // then fresh root branches, then theft.
                        let mut stolen = false;
                        let task =
                            my.pop().or_else(|| injector.steal().success()).or_else(|| {
                                for (si, s) in stealers.iter().enumerate() {
                                    if si == wi {
                                        continue;
                                    }
                                    if let Steal::Success(t) = s.steal() {
                                        stolen = true;
                                        return Some(t);
                                    }
                                }
                                None
                            });
                        let Some(task) = task else {
                            if outstanding.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            hungry.fetch_add(1, Ordering::SeqCst);
                            std::thread::yield_now();
                            hungry.fetch_sub(1, Ordering::SeqCst);
                            continue;
                        };
                        if stolen {
                            tally.stats.steals += 1;
                            if let Some(sink) = sink {
                                sink.on_steal();
                            }
                        }
                        let support = StealSupport {
                            hungry,
                            outstanding,
                            worker: &my,
                            prefix: &task.prefix,
                        };
                        let mut r = run_root(
                            domain,
                            options,
                            &task.node,
                            MemoTable::Shared(memo),
                            Some(nodes),
                            Some(stop),
                            start,
                            stealing.then_some(&support),
                        );
                        outstanding.fetch_sub(1, Ordering::SeqCst);
                        if let Some(msg) = r.panicked.take() {
                            tally.stats += r.stats;
                            let mut slot = panicked.lock();
                            if slot.is_none() {
                                *slot = Some(msg);
                            }
                            stop.cancel();
                            break;
                        }
                        if let Some(tail) = r.witness.take() {
                            tally.stats += r.stats;
                            let mut full = task.prefix;
                            full.extend(tail);
                            let mut slot = witness.lock();
                            if slot.is_none() {
                                *slot = Some(full);
                            }
                            stop.cancel();
                            break;
                        }
                        tally.absorb(&r, options);
                        if r.interrupted.is_some() || r.exhausted {
                            break;
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("checker worker panicked")).collect()
    });

    if let Some(msg) = panicked.into_inner() {
        return Err(CheckError::SpecPanicked(msg));
    }
    let mut stats = root_stats;
    let mut deadline = false;
    let mut user_cancelled = false;
    let mut exhausted = false;
    for tally in tallies {
        stats += tally.stats;
        deadline |= tally.deadline;
        user_cancelled |= tally.user_cancelled;
        exhausted |= tally.exhausted;
    }
    let verdict = if let Some(w) = witness.into_inner() {
        Verdict::Cal(w)
    } else if deadline {
        Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded }
    } else if user_cancelled {
        Verdict::Interrupted { reason: InterruptReason::Cancelled }
    } else if exhausted {
        Verdict::ResourcesExhausted
    } else {
        Verdict::NotCal
    };
    Ok(CheckOutcome { verdict, stats })
}

/// One per-object subsearch's result under decomposition.
struct SubResult<T> {
    object: ObjectId,
    witness: Option<Vec<T>>,
    /// `true` when the subsearch completed and refuted the subproblem.
    not_cal: bool,
    tally: Tally,
    panicked: Option<String>,
}

/// Classifies a finished subsearch for
/// [`crate::obs::StatsSink::on_object_done`].
fn classify_subresult<T>(result: &SubResult<T>) -> crate::obs::ObjectOutcome {
    use crate::obs::ObjectOutcome;
    if result.panicked.is_some() {
        ObjectOutcome::SpecPanicked
    } else if result.witness.is_some() {
        ObjectOutcome::Cal
    } else if result.not_cal {
        ObjectOutcome::NotCal
    } else if result.tally.exhausted {
        ObjectOutcome::Exhausted
    } else {
        ObjectOutcome::Interrupted
    }
}

/// Checks each decomposed part independently (locality), in parallel, and
/// merges per-object witnesses via [`SearchDomain::merge_witnesses`].
fn search_decomposed<D>(
    parent: &D,
    parts: Vec<(ObjectId, D)>,
    options: &CheckOptions,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError>
where
    D: SearchDomain + Sync,
    D::Node: Send + Sync,
    D::Step: Send + Sync,
{
    let start = Instant::now();
    let part_count = parts.len();
    let workers = options.threads.max(1).min(part_count);
    let sink = options.sink.as_deref();
    let nodes = AtomicU64::new(0);
    let stop = CancelToken::new();
    let next = AtomicUsize::new(0);

    let results: Vec<SubResult<D::Step>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine: Vec<SubResult<D::Step>> = Vec::new();
                    loop {
                        if stop.is_cancelled() {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some((object, sub)) = parts.get(idx) else { break };
                        if let Some(sink) = sink {
                            sink.on_object_start(*object);
                        }
                        let sub_start = Instant::now();
                        let result = check_part(*object, sub, options, &nodes, &stop, start);
                        if let Some(sink) = sink {
                            sink.on_object_done(
                                *object,
                                sub_start.elapsed(),
                                classify_subresult(&result),
                            );
                        }
                        let decisive_negative = result.not_cal
                            || result.panicked.is_some()
                            || result.tally.exhausted
                            || result.tally.deadline
                            || result.tally.user_cancelled;
                        mine.push(result);
                        if decisive_negative {
                            // Siblings cannot change the aggregate verdict;
                            // wind everyone down.
                            stop.cancel();
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checker worker panicked"))
            .collect()
    });

    let mut stats = CheckStats::default();
    let mut deadline = false;
    let mut user_cancelled = false;
    let mut exhausted = false;
    let mut not_cal = false;
    let mut witnesses: Vec<(ObjectId, Vec<D::Step>)> = Vec::new();
    for result in results {
        stats += result.tally.stats;
        if let Some(msg) = result.panicked {
            return Err(CheckError::SpecPanicked(msg));
        }
        deadline |= result.tally.deadline;
        user_cancelled |= result.tally.user_cancelled;
        exhausted |= result.tally.exhausted;
        not_cal |= result.not_cal;
        if let Some(steps) = result.witness {
            witnesses.push((result.object, steps));
        }
    }
    // A refuted subproblem is decisive regardless of interrupts elsewhere:
    // membership implies per-object membership (locality).
    let verdict = if not_cal {
        Verdict::NotCal
    } else if deadline {
        Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded }
    } else if user_cancelled {
        Verdict::Interrupted { reason: InterruptReason::Cancelled }
    } else if exhausted {
        Verdict::ResourcesExhausted
    } else {
        debug_assert_eq!(witnesses.len(), part_count, "every subcheck must have decided");
        Verdict::Cal(parent.merge_witnesses(witnesses))
    };
    Ok(CheckOutcome { verdict, stats })
}

/// Runs one decomposed part's DFS, charging the shared node budget and
/// observing the shared stop latch.
fn check_part<D: SearchDomain>(
    object: ObjectId,
    sub: &D,
    options: &CheckOptions,
    nodes: &AtomicU64,
    stop: &CancelToken,
    start: Instant,
) -> SubResult<D::Step> {
    let root = match catch_unwind(AssertUnwindSafe(|| sub.initial())) {
        Ok(n) => n,
        Err(p) => {
            return SubResult {
                object,
                witness: None,
                not_cal: false,
                tally: Tally::default(),
                panicked: Some(panic_message(p)),
            }
        }
    };
    let mut r = run_root(
        sub,
        options,
        &root,
        MemoTable::Local(HashSet::new()),
        Some(nodes),
        Some(stop),
        start,
        None,
    );
    let mut tally = Tally::default();
    let panicked = r.panicked.take();
    let witness = r.witness.take();
    tally.absorb(&r, options);
    let not_cal = panicked.is_none()
        && witness.is_none()
        && r.interrupted.is_none()
        && !r.exhausted;
    SubResult { object, witness, not_cal, tally, panicked }
}

/// A reference to a domain's specification: borrowed at the top level,
/// owned by decomposed subdomains (restriction yields an owned spec).
pub(crate) enum SpecRef<'a, S> {
    /// The caller's specification, borrowed.
    Borrowed(&'a S),
    /// A restricted per-object specification, owned by the subdomain.
    Owned(S),
}

impl<S> SpecRef<'_, S> {
    pub(crate) fn get(&self) -> &S {
        match self {
            SpecRef::Borrowed(s) => s,
            SpecRef::Owned(s) => s,
        }
    }
}

/// Greedily interleaves per-object witness queues into one sequence
/// respecting the full history's real-time order.
///
/// Each queue entry is `(step, maxinv, minresp)`: `maxinv` is the largest
/// invocation index among the step's operations in the *full* history and
/// `minresp` the smallest response index (`usize::MAX` for operations the
/// checker completed). `F` must precede `E` in any agreeing witness iff
/// `minresp(F) < maxinv(E)`. With `m` the minimum `minresp` over all
/// remaining steps, any queue head with `maxinv ≤ m` can be emitted next
/// — the queue holding the minimizing step always has one, because
/// per-object witness order already respects the per-object real-time
/// order.
pub(crate) fn merge_by_order<T>(mut queues: Vec<VecDeque<(T, usize, usize)>>) -> Vec<T> {
    let mut merged = Vec::new();
    loop {
        let m = queues.iter().flat_map(|q| q.iter().map(|item| item.2)).min();
        let Some(m) = m else { break };
        let q = queues
            .iter()
            .position(|q| q.front().is_some_and(|head| head.1 <= m))
            .expect("per-object witnesses always have an emittable head");
        let head = queues[q].pop_front().expect("chosen queue has a head");
        merged.push(head.0);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy domain: count down from `n` to 0 by steps of 1 or 2; goal is
    /// 0. Witness steps record the decrement taken.
    struct Countdown {
        n: u32,
        /// Reject every transition (forces exhaustive refutation).
        dead_end: bool,
    }

    impl SearchDomain for Countdown {
        type Node = u32;
        type Step = u32;

        fn initial(&self) -> u32 {
            self.n
        }

        fn is_goal(&self, node: &u32) -> bool {
            *node == 0
        }

        fn expand(&self, node: &u32, obs: &mut ExpandObs<'_, '_>, out: &mut Vec<(u32, u32)>) {
            obs.on_frontier(2);
            for d in [1u32, 2] {
                if obs.should_stop() {
                    break;
                }
                obs.on_element_tried();
                if !self.dead_end && d <= *node {
                    out.push((d, *node - d));
                }
            }
        }
    }

    #[test]
    fn sequential_search_finds_a_witness() {
        let outcome =
            search(&Countdown { n: 5, dead_end: false }, &CheckOptions::default()).unwrap();
        let witness = outcome.verdict.witness().expect("witness").clone();
        assert_eq!(witness.iter().sum::<u32>(), 5);
        assert!(outcome.stats.nodes > 0);
        assert!(outcome.stats.elements_tried > 0);
    }

    #[test]
    fn dead_end_domain_is_refuted() {
        let outcome =
            search(&Countdown { n: 3, dead_end: true }, &CheckOptions::default()).unwrap();
        assert_eq!(outcome.verdict, Verdict::NotCal);
    }

    #[test]
    fn zero_budget_is_exhaustion() {
        let options = CheckOptions { max_nodes: 0, ..CheckOptions::default() };
        let outcome = search(&Countdown { n: 3, dead_end: false }, &options).unwrap();
        assert_eq!(outcome.verdict, Verdict::ResourcesExhausted);
    }

    #[test]
    fn parallel_frontier_matches_sequential() {
        for threads in [1, 2, 8] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = search_par(&Countdown { n: 6, dead_end: false }, &options).unwrap();
            let witness = outcome.verdict.witness().expect("witness");
            assert_eq!(witness.iter().sum::<u32>(), 6, "threads={threads}");
        }
    }

    /// A branching tree with no goal anywhere: every node below the root
    /// has `width` children down to `depth`, all states distinct, so a
    /// refutation must visit the whole tree. Exercises the donated-flag
    /// memo suppression and termination counting under stealing.
    ///
    /// `stall_ms > 0` sleeps that long in every expansion of a node at
    /// depth < 3. This is how the steal test stays deterministic on a
    /// single-core host: a sleeping worker yields the core, so thief
    /// threads are guaranteed to run (and raise the hungry flag) while
    /// the donor still has untried subtrees to give away. Without it, a
    /// release-mode worker can exhaust the whole tree inside its first
    /// scheduler quantum, before any other thread exists to steal.
    struct DeadTree {
        width: u32,
        depth: u32,
        stall_ms: u64,
    }

    impl SearchDomain for DeadTree {
        type Node = (u32, u64);
        type Step = u32;

        fn initial(&self) -> (u32, u64) {
            (0, 0)
        }

        fn is_goal(&self, _: &(u32, u64)) -> bool {
            false
        }

        fn expand(
            &self,
            node: &(u32, u64),
            obs: &mut ExpandObs<'_, '_>,
            out: &mut Vec<(u32, (u32, u64))>,
        ) {
            if node.0 >= self.depth {
                return;
            }
            if self.stall_ms > 0 && node.0 < 3 {
                std::thread::sleep(std::time::Duration::from_millis(self.stall_ms));
            }
            obs.on_frontier(self.width as usize);
            for i in 0..self.width {
                obs.on_element_tried();
                out.push((i, (node.0 + 1, node.1 * u64::from(self.width) + u64::from(i) + 1)));
            }
        }
    }

    #[test]
    fn stealing_off_matches_stealing_on() {
        for n in [4u32, 9, 13] {
            for threads in [2, 4] {
                let on = CheckOptions { threads, ..CheckOptions::default() };
                let off = CheckOptions { threads, stealing: false, ..CheckOptions::default() };
                let a = search_par(&Countdown { n, dead_end: false }, &on).unwrap();
                let b = search_par(&Countdown { n, dead_end: false }, &off).unwrap();
                let wa = a.verdict.witness().expect("witness with stealing");
                let wb = b.verdict.witness().expect("witness without stealing");
                assert_eq!(wa.iter().sum::<u32>(), n, "threads={threads}");
                assert_eq!(wb.iter().sum::<u32>(), n, "threads={threads}");
            }
        }
    }

    #[test]
    fn refutation_under_stealing_matches_sequential() {
        let tree = DeadTree { width: 3, depth: 6, stall_ms: 0 };
        let seq = search(&tree, &CheckOptions::default()).unwrap();
        assert_eq!(seq.verdict, Verdict::NotCal);
        for threads in [2, 4, 8] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = search_par(&tree, &options).unwrap();
            assert_eq!(outcome.verdict, Verdict::NotCal, "threads={threads}");
            // Distinct states everywhere: stealing must neither lose nor
            // double-count subtrees, so the node total is exact.
            assert_eq!(outcome.stats.nodes, seq.stats.nodes, "threads={threads}");
        }
    }

    #[test]
    fn steals_are_counted_when_workers_outnumber_branches() {
        // Three root branches, eight workers: at least five workers can
        // only ever obtain work by stealing donated subtrees. The stall
        // makes donors yield the core during shallow expansions, so the
        // thieves run, raise the hungry flag, and steal — even on one
        // core in release mode.
        let options = CheckOptions { threads: 8, memoize: false, ..CheckOptions::default() };
        let outcome =
            search_par(&DeadTree { width: 3, depth: 6, stall_ms: 2 }, &options).unwrap();
        assert_eq!(outcome.verdict, Verdict::NotCal);
        assert!(
            outcome.stats.steals > 0,
            "expected at least one steal, stats: {:?}",
            outcome.stats
        );
    }

    #[test]
    fn cancelled_token_interrupts() {
        let token = CancelToken::new();
        token.cancel();
        let options = CheckOptions {
            cancel: Some(token),
            memoize: false,
            ..CheckOptions::default()
        };
        // Large enough that the tick poll fires before the search ends.
        let outcome = search(&Countdown { n: 4_000, dead_end: false }, &options).unwrap();
        assert_eq!(outcome.verdict, Verdict::Interrupted { reason: InterruptReason::Cancelled });
    }

    #[test]
    fn panicking_domain_is_an_error() {
        struct Panicky;
        impl SearchDomain for Panicky {
            type Node = u32;
            type Step = u32;
            fn initial(&self) -> u32 {
                1
            }
            fn is_goal(&self, node: &u32) -> bool {
                *node == 0
            }
            fn expand(&self, _: &u32, _: &mut ExpandObs<'_, '_>, _: &mut Vec<(u32, u32)>) {
                panic!("domain bug")
            }
        }
        match search(&Panicky, &CheckOptions::default()) {
            Err(CheckError::SpecPanicked(msg)) => assert!(msg.contains("domain bug")),
            other => panic!("expected SpecPanicked, got {other:?}"),
        }
    }

    #[test]
    fn merge_by_order_respects_precedence() {
        // Queue A's step responds before queue B's step is invoked.
        let queues = vec![
            VecDeque::from([("a", 0, 1)]),
            VecDeque::from([("b", 2, 3)]),
        ];
        assert_eq!(merge_by_order(queues), vec!["a", "b"]);
    }
}
