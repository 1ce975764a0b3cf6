//! Checker observability: search statistics sinks and structured run
//! reports.
//!
//! The CAL membership search ([`crate::check`]) is an
//! exponential backtracking search whose cost profile — where the nodes
//! went, how wide the frontier was, whether the memo table pruned or
//! merely contended — is invisible from a bare [`Verdict`]. This module
//! makes the search observable without slowing it down when nobody is
//! watching:
//!
//! - [`StatsSink`] is a callback trait the search invokes at its
//!   instrumentation points (node expansions, element attempts, memo
//!   probes per shard, frontier widths, per-object decomposition
//!   timings, budget exhaustion and interrupt causes). Every method has
//!   a no-op default. The sink is optional — [`CheckOptions::sink`] is
//!   `None` by default, and the search guards every callback behind one
//!   branch on that `Option`, so a disabled sink costs a predictable
//!   never-taken branch per event and no allocation.
//! - [`CountingSink`] is the batteries-included implementation: lock-free
//!   atomic counters, safe to share across the parallel checker's
//!   workers.
//! - [`SearchReport`] is the structured end-of-run summary a
//!   [`CountingSink`] produces, serializable as JSON
//!   ([`SearchReport::to_json`]) and renderable as a human explanation of
//!   why a verdict was slow or undecided ([`SearchReport::explain`]).
//!
//! # Examples
//!
//! Attach a counting sink to a check and read the report:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Instant;
//! use cal_core::check::{check_cal_with, CheckOptions};
//! use cal_core::obs::CountingSink;
//! use cal_core::text::parse_history;
//! # use cal_core::spec::{CaSpec, Invocation};
//! # use cal_core::trace::CaElement;
//! # use cal_core::Value;
//! # #[derive(Debug)]
//! # struct AnySingleton;
//! # impl CaSpec for AnySingleton {
//! #     type State = ();
//! #     fn initial(&self) {}
//! #     fn step(&self, _: &(), e: &CaElement) -> Option<()> { (e.len() == 1).then_some(()) }
//! #     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
//! # }
//! let h = parse_history("t1 inv o0.noop 0\nt1 res o0.noop 0\n").unwrap();
//! let sink = Arc::new(CountingSink::new());
//! let options = CheckOptions { sink: Some(sink.clone()), ..CheckOptions::default() };
//! let start = Instant::now();
//! let outcome = check_cal_with(&h, &AnySingleton, &options).unwrap();
//! let report = sink.report(&outcome, &options, start.elapsed());
//! assert!(report.nodes > 0);
//! assert!(report.to_json().contains("\"nodes\""));
//! ```
//!
//! A custom sink only needs the events it cares about (the rest default
//! to no-ops); see `examples/observability.rs` for a full custom sink
//! driving a live elimination stack.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::check::{CheckOptions, CheckOutcome, InterruptReason, Verdict};
use crate::ids::ObjectId;

/// Number of shard buckets a [`CountingSink`] tracks memo traffic in.
///
/// Shard indices reported by the search come from the shared memo's
/// key-hash bucketing (the lock-free [`crate::fpmemo::FpMemo`] reports
/// `hash mod MEMO_SHARD_BUCKETS`). The sequential driver's private memo
/// always reports shard 0.
pub const MEMO_SHARD_BUCKETS: usize = 64;

/// How one object's subsearch ended under the parallel driver's
/// per-object decomposition ([`crate::check::check_cal_with`] with more
/// than one thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectOutcome {
    /// The subhistory is CAL (a witness was found).
    Cal,
    /// The subhistory was refuted — decisive for the whole history.
    NotCal,
    /// The shared node budget ran out inside this subsearch.
    Exhausted,
    /// A deadline, user cancellation or sibling-refutation stop latch
    /// wound this subsearch down early.
    Interrupted,
    /// The specification panicked inside this subsearch.
    SpecPanicked,
}

impl ObjectOutcome {
    /// A stable lower-case name, used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            ObjectOutcome::Cal => "cal",
            ObjectOutcome::NotCal => "not-cal",
            ObjectOutcome::Exhausted => "exhausted",
            ObjectOutcome::Interrupted => "interrupted",
            ObjectOutcome::SpecPanicked => "spec-panicked",
        }
    }
}

impl fmt::Display for ObjectOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A sink for search events, threaded through the sequential and
/// parallel checkers via [`CheckOptions::sink`].
///
/// Implementations must be thread-safe: the parallel checker invokes the
/// sink concurrently from every worker. All methods default to no-ops,
/// so a custom sink implements only the events it cares about. Callbacks
/// happen on the search's hot path — keep them cheap (atomic counters,
/// not locks or I/O).
pub trait StatsSink: Send + Sync {
    /// A search node was expanded (after it was charged to the budget).
    fn on_node(&self) {}

    /// A node's frontier of minimal operations had `width` candidates.
    /// Called once per expanded node, in expansion order, so the stream
    /// of widths tracks frontier shape over time.
    fn on_frontier(&self, width: usize) {
        let _ = width;
    }

    /// A candidate CA-element was tried against the specification.
    fn on_element_tried(&self) {}

    /// A memo probe hit a previously refuted state in `shard`.
    fn on_memo_hit(&self, shard: usize) {
        let _ = shard;
    }

    /// A memo probe missed in `shard` (the state was not yet refuted).
    fn on_memo_miss(&self, shard: usize) {
        let _ = shard;
    }

    /// A refuted state was inserted into `shard`.
    fn on_memo_insert(&self, shard: usize) {
        let _ = shard;
    }

    /// The parallel frontier search enumerated `branches` legal first
    /// elements and split them across `workers` workers.
    fn on_root_frontier(&self, branches: usize, workers: usize) {
        let _ = (branches, workers);
    }

    /// A worker stole a subtree task from a peer's deque (work-stealing
    /// path only; injector hand-offs of root branches are not steals).
    fn on_steal(&self) {}

    /// The per-object decomposition started checking `object`.
    fn on_object_start(&self, object: ObjectId) {
        let _ = object;
    }

    /// The per-object decomposition finished `object` after `wall` with
    /// the given outcome.
    fn on_object_done(&self, object: ObjectId, wall: Duration, outcome: ObjectOutcome) {
        let _ = (object, wall, outcome);
    }

    /// The search latched an interrupt (deadline or cancellation). The
    /// parallel checker may report this once per worker.
    fn on_interrupt(&self, reason: InterruptReason) {
        let _ = reason;
    }

    /// The node budget (`max_nodes`) was spent. The parallel checker may
    /// report this once per worker.
    fn on_budget_exhausted(&self, max_nodes: u64) {
        let _ = max_nodes;
    }
}

/// One object's row in a [`SearchReport`] under per-object
/// decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectReport {
    /// The object the subsearch covered.
    pub object: ObjectId,
    /// Wall-clock the subsearch took.
    pub wall_ms: f64,
    /// How the subsearch ended.
    pub outcome: ObjectOutcome,
}

/// A lock-free [`StatsSink`] aggregating every event into atomic
/// counters, from which a [`SearchReport`] can be produced.
///
/// Cheap enough to leave attached in production: every callback is one
/// or two relaxed atomic increments (object timings take a short mutex,
/// but fire once per object, not per node).
#[derive(Debug)]
pub struct CountingSink {
    nodes: AtomicU64,
    frontier_max: AtomicU64,
    frontier_sum: AtomicU64,
    frontier_samples: AtomicU64,
    elements: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    memo_inserts: AtomicU64,
    shard_hits: [AtomicU64; MEMO_SHARD_BUCKETS],
    shard_inserts: [AtomicU64; MEMO_SHARD_BUCKETS],
    root_branches: AtomicU64,
    root_workers: AtomicU64,
    steals: AtomicU64,
    deadline_interrupts: AtomicU64,
    cancel_interrupts: AtomicU64,
    budget_exhaustions: AtomicU64,
    objects: Mutex<Vec<ObjectReport>>,
}

impl Default for CountingSink {
    fn default() -> Self {
        CountingSink {
            nodes: AtomicU64::new(0),
            frontier_max: AtomicU64::new(0),
            frontier_sum: AtomicU64::new(0),
            frontier_samples: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            memo_inserts: AtomicU64::new(0),
            shard_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            shard_inserts: std::array::from_fn(|_| AtomicU64::new(0)),
            root_branches: AtomicU64::new(0),
            root_workers: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            deadline_interrupts: AtomicU64::new(0),
            cancel_interrupts: AtomicU64::new(0),
            budget_exhaustions: AtomicU64::new(0),
            objects: Mutex::new(Vec::new()),
        }
    }
}

impl CountingSink {
    /// Creates a sink with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes expanded so far.
    pub fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Candidate elements tried so far.
    pub fn elements_tried(&self) -> u64 {
        self.elements.load(Ordering::Relaxed)
    }

    /// Memo probes that hit a refuted state.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Memo probes that missed.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses.load(Ordering::Relaxed)
    }

    /// Refuted states inserted into the memo table.
    pub fn memo_inserts(&self) -> u64 {
        self.memo_inserts.load(Ordering::Relaxed)
    }

    /// Widest frontier of minimal operations seen at any node.
    pub fn frontier_max(&self) -> u64 {
        self.frontier_max.load(Ordering::Relaxed)
    }

    /// Mean frontier width over all expanded nodes (0.0 before the
    /// first node).
    pub fn frontier_mean(&self) -> f64 {
        let samples = self.frontier_samples.load(Ordering::Relaxed);
        if samples == 0 {
            0.0
        } else {
            self.frontier_sum.load(Ordering::Relaxed) as f64 / samples as f64
        }
    }

    /// Root branches enumerated by the parallel frontier search (0 when
    /// that path did not run).
    pub fn root_branches(&self) -> u64 {
        self.root_branches.load(Ordering::Relaxed)
    }

    /// Subtree tasks stolen from peer deques (0 when work-stealing did
    /// not run or never fired).
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Per-object subsearch rows recorded so far (decomposition path).
    pub fn object_reports(&self) -> Vec<ObjectReport> {
        self.objects.lock().clone()
    }

    fn bucket(shard: usize) -> usize {
        shard % MEMO_SHARD_BUCKETS
    }

    /// Snapshots everything into a [`SearchReport`].
    ///
    /// `outcome` supplies the authoritative verdict and [`crate::check::CheckStats`]
    /// (node/element/memo-hit totals are taken from there, so the report
    /// agrees with the checker even if the sink was shared across runs);
    /// `options` supplies the budget and thread count; `wall` is the
    /// caller-measured wall-clock of the run. Generic over the witness
    /// type, so reports work for CAL, seqlin and interval outcomes alike.
    pub fn report<W>(
        &self,
        outcome: &CheckOutcome<W>,
        options: &CheckOptions,
        wall: Duration,
    ) -> SearchReport {
        let (verdict, interrupted) = verdict_strings(&outcome.verdict);
        let shard_hits: Vec<u64> =
            self.shard_hits.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let active_shards =
            self.shard_inserts.iter().filter(|c| c.load(Ordering::Relaxed) > 0).count();
        SearchReport {
            verdict,
            wall_ms: wall.as_secs_f64() * 1e3,
            threads: options.threads,
            max_nodes: options.max_nodes,
            nodes: outcome.stats.nodes,
            elements_tried: outcome.stats.elements_tried,
            memo_hits: outcome.stats.memo_hits,
            memo_misses: self.memo_misses(),
            memo_inserts: self.memo_inserts(),
            memo_shard_hits: shard_hits,
            active_shards,
            frontier_max: self.frontier_max(),
            frontier_mean: self.frontier_mean(),
            root_branches: self.root_branches(),
            root_workers: self.root_workers.load(Ordering::Relaxed),
            steals: outcome.stats.steals,
            interrupted,
            exhausted: matches!(outcome.verdict, Verdict::ResourcesExhausted),
            objects: self.object_reports(),
        }
    }
}

/// The JSON-facing verdict name plus the interrupt cause, if any.
fn verdict_strings<W>(verdict: &Verdict<W>) -> (String, Option<String>) {
    match verdict {
        Verdict::Cal(_) => ("cal".to_string(), None),
        Verdict::NotCal => ("not-cal".to_string(), None),
        Verdict::ResourcesExhausted => ("resources-exhausted".to_string(), None),
        Verdict::Interrupted { reason } => {
            let cause = match reason {
                InterruptReason::DeadlineExceeded => "deadline-exceeded",
                InterruptReason::Cancelled => "cancelled",
            };
            ("interrupted".to_string(), Some(cause.to_string()))
        }
    }
}

impl StatsSink for CountingSink {
    fn on_node(&self) {
        self.nodes.fetch_add(1, Ordering::Relaxed);
    }

    fn on_frontier(&self, width: usize) {
        let w = width as u64;
        self.frontier_max.fetch_max(w, Ordering::Relaxed);
        self.frontier_sum.fetch_add(w, Ordering::Relaxed);
        self.frontier_samples.fetch_add(1, Ordering::Relaxed);
    }

    fn on_element_tried(&self) {
        self.elements.fetch_add(1, Ordering::Relaxed);
    }

    fn on_memo_hit(&self, shard: usize) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        self.shard_hits[Self::bucket(shard)].fetch_add(1, Ordering::Relaxed);
    }

    fn on_memo_miss(&self, _shard: usize) {
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
    }

    fn on_memo_insert(&self, shard: usize) {
        self.memo_inserts.fetch_add(1, Ordering::Relaxed);
        self.shard_inserts[Self::bucket(shard)].fetch_add(1, Ordering::Relaxed);
    }

    fn on_root_frontier(&self, branches: usize, workers: usize) {
        self.root_branches.store(branches as u64, Ordering::Relaxed);
        self.root_workers.store(workers as u64, Ordering::Relaxed);
    }

    fn on_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    fn on_object_done(&self, object: ObjectId, wall: Duration, outcome: ObjectOutcome) {
        self.objects.lock().push(ObjectReport {
            object,
            wall_ms: wall.as_secs_f64() * 1e3,
            outcome,
        });
    }

    fn on_interrupt(&self, reason: InterruptReason) {
        match reason {
            InterruptReason::DeadlineExceeded => {
                self.deadline_interrupts.fetch_add(1, Ordering::Relaxed)
            }
            InterruptReason::Cancelled => self.cancel_interrupts.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn on_budget_exhausted(&self, _max_nodes: u64) {
        self.budget_exhaustions.fetch_add(1, Ordering::Relaxed);
    }
}

/// A structured end-of-run summary of one CAL membership check.
///
/// Produced by [`CountingSink::report`]; serialized with
/// [`SearchReport::to_json`] (compact, single line, no external
/// dependencies) and rendered for humans with [`SearchReport::explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// `"cal"`, `"not-cal"`, `"resources-exhausted"` or `"interrupted"`.
    pub verdict: String,
    /// Wall-clock of the whole check, in milliseconds.
    pub wall_ms: f64,
    /// Worker threads the check was configured with.
    pub threads: usize,
    /// The node budget ([`CheckOptions::max_nodes`]).
    pub max_nodes: u64,
    /// Search nodes expanded (from the authoritative
    /// [`crate::check::CheckStats`]).
    pub nodes: u64,
    /// Candidate CA-elements tried.
    pub elements_tried: u64,
    /// Memo probes that pruned a subtree.
    pub memo_hits: u64,
    /// Memo probes that missed.
    pub memo_misses: u64,
    /// Refuted states inserted into the memo table.
    pub memo_inserts: u64,
    /// Memo hits folded into [`MEMO_SHARD_BUCKETS`] shard buckets — an
    /// imbalance here points at memo contention on hot stripes.
    pub memo_shard_hits: Vec<u64>,
    /// Shard buckets that received at least one insert.
    pub active_shards: usize,
    /// Widest frontier of minimal operations at any node.
    pub frontier_max: u64,
    /// Mean frontier width across all nodes.
    pub frontier_mean: f64,
    /// Legal first elements enumerated by the parallel frontier search
    /// (0 if that path did not run).
    pub root_branches: u64,
    /// Workers the root frontier was split across (0 if not run).
    pub root_workers: u64,
    /// Subtree tasks stolen from peer deques by idle workers (from the
    /// authoritative [`crate::check::CheckStats`]; 0 without stealing).
    pub steals: u64,
    /// `Some("deadline-exceeded" | "cancelled")` when the search was
    /// interrupted.
    pub interrupted: Option<String>,
    /// Whether the node budget was exhausted.
    pub exhausted: bool,
    /// Per-object rows when the check decomposed (empty otherwise).
    pub objects: Vec<ObjectReport>,
}

impl SearchReport {
    /// Serializes the report as compact single-line JSON.
    ///
    /// Shard hits are emitted sparsely (`{"bucket": hits, ...}`, nonzero
    /// buckets only) to keep reports small.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_field(&mut out, "verdict", &format!("\"{}\"", self.verdict));
        match &self.interrupted {
            Some(cause) => push_field(&mut out, "interrupted", &format!("\"{cause}\"")),
            None => push_field(&mut out, "interrupted", "null"),
        }
        push_field(&mut out, "exhausted", if self.exhausted { "true" } else { "false" });
        push_field(&mut out, "wall_ms", &format!("{:.3}", self.wall_ms));
        push_field(&mut out, "threads", &self.threads.to_string());
        push_field(&mut out, "max_nodes", &self.max_nodes.to_string());
        push_field(&mut out, "nodes", &self.nodes.to_string());
        push_field(&mut out, "elements_tried", &self.elements_tried.to_string());
        push_field(&mut out, "memo_hits", &self.memo_hits.to_string());
        push_field(&mut out, "memo_misses", &self.memo_misses.to_string());
        push_field(&mut out, "memo_inserts", &self.memo_inserts.to_string());
        let shards: Vec<String> = self
            .memo_shard_hits
            .iter()
            .enumerate()
            .filter(|(_, &h)| h > 0)
            .map(|(i, h)| format!("\"{i}\": {h}"))
            .collect();
        push_field(&mut out, "memo_shard_hits", &format!("{{{}}}", shards.join(", ")));
        push_field(&mut out, "active_shards", &self.active_shards.to_string());
        push_field(&mut out, "frontier_max", &self.frontier_max.to_string());
        push_field(&mut out, "frontier_mean", &format!("{:.3}", self.frontier_mean));
        push_field(&mut out, "root_branches", &self.root_branches.to_string());
        push_field(&mut out, "root_workers", &self.root_workers.to_string());
        push_field(&mut out, "steals", &self.steals.to_string());
        let objects: Vec<String> = self
            .objects
            .iter()
            .map(|o| {
                format!(
                    "{{\"object\": {}, \"wall_ms\": {:.3}, \"outcome\": \"{}\"}}",
                    o.object.0, o.wall_ms, o.outcome
                )
            })
            .collect();
        push_field(&mut out, "objects", &format!("[{}]", objects.join(", ")));
        // Drop the trailing ", ".
        out.truncate(out.len() - 2);
        out.push('}');
        out
    }

    /// One compact human line: verdict, wall-clock and headline counters.
    pub fn summary(&self) -> String {
        format!(
            "{} in {:.2} ms: {} nodes, {} elements, {} memo hits / {} misses",
            self.verdict,
            self.wall_ms,
            self.nodes,
            self.elements_tried,
            self.memo_hits,
            self.memo_misses
        )
    }

    /// A multi-line human explanation of where the search spent its work
    /// and — when the verdict is undecided — why it stopped.
    pub fn explain(&self) -> String {
        let mut lines = vec![format!("verdict: {} in {:.2} ms", self.verdict, self.wall_ms)];
        let budget_pct = if self.max_nodes == 0 {
            100.0
        } else {
            self.nodes as f64 * 100.0 / self.max_nodes as f64
        };
        lines.push(format!(
            "search:  {} nodes ({:.2}% of the {}-node budget), {} elements tried",
            self.nodes, budget_pct, self.max_nodes, self.elements_tried
        ));
        let probes = self.memo_hits + self.memo_misses;
        if probes > 0 {
            lines.push(format!(
                "memo:    {} hits / {} misses ({:.1}% hit rate), {} inserts over {} active shard bucket(s)",
                self.memo_hits,
                self.memo_misses,
                self.memo_hits as f64 * 100.0 / probes as f64,
                self.memo_inserts,
                self.active_shards
            ));
        }
        if self.frontier_max > 0 {
            lines.push(format!(
                "frontier: max {} concurrent minimal ops, mean {:.1}",
                self.frontier_max, self.frontier_mean
            ));
        }
        if self.root_branches > 0 {
            lines.push(format!(
                "parallel: {} root branches split over {} workers, {} subtree steal(s)",
                self.root_branches, self.root_workers, self.steals
            ));
        }
        if !self.objects.is_empty() {
            let slowest = self
                .objects
                .iter()
                .max_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
                .expect("objects is non-empty");
            lines.push(format!(
                "decomposed: {} object(s); slowest o{} ({}, {:.2} ms)",
                self.objects.len(),
                slowest.object.0,
                slowest.outcome,
                slowest.wall_ms
            ));
        }
        if let Some(cause) = &self.interrupted {
            lines.push(format!(
                "cause:   interrupted ({cause}) — raise the deadline or shrink the history"
            ));
        }
        if self.exhausted {
            lines.push(format!(
                "cause:   node budget exhausted at {} nodes — raise max_nodes or shrink the history",
                self.nodes
            ));
        }
        lines.join("\n")
    }
}

impl fmt::Display for SearchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Appends one `"key": value, ` JSON field; shared with the streaming
/// report so `cal-serve` and `cal-check` emit the same wire style.
pub(crate) fn push_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
    out.push_str(value);
    out.push_str(", ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckStats;

    fn sample_report(sink: &CountingSink, verdict: Verdict) -> SearchReport {
        let outcome = CheckOutcome {
            verdict,
            stats: CheckStats { nodes: 7, elements_tried: 9, memo_hits: 2, steals: 0 },
        };
        sink.report(&outcome, &CheckOptions::default(), Duration::from_millis(5))
    }

    #[test]
    fn counting_sink_counts_every_event() {
        let sink = CountingSink::new();
        sink.on_node();
        sink.on_node();
        sink.on_frontier(3);
        sink.on_frontier(5);
        sink.on_element_tried();
        sink.on_memo_hit(70); // folds into bucket 70 % 64 = 6
        sink.on_memo_miss(1);
        sink.on_memo_insert(1);
        sink.on_root_frontier(12, 4);
        sink.on_interrupt(InterruptReason::DeadlineExceeded);
        sink.on_budget_exhausted(100);
        sink.on_object_done(ObjectId(3), Duration::from_millis(2), ObjectOutcome::NotCal);

        assert_eq!(sink.nodes(), 2);
        assert_eq!(sink.frontier_max(), 5);
        assert!((sink.frontier_mean() - 4.0).abs() < 1e-9);
        assert_eq!(sink.elements_tried(), 1);
        assert_eq!(sink.memo_hits(), 1);
        assert_eq!(sink.memo_misses(), 1);
        assert_eq!(sink.memo_inserts(), 1);
        assert_eq!(sink.root_branches(), 12);
        let objects = sink.object_reports();
        assert_eq!(objects.len(), 1);
        assert_eq!(objects[0].object, ObjectId(3));
        assert_eq!(objects[0].outcome, ObjectOutcome::NotCal);
    }

    #[test]
    fn report_prefers_authoritative_stats() {
        let sink = CountingSink::new();
        sink.on_node(); // sink saw 1 node; the outcome says 7
        let report = sample_report(&sink, Verdict::NotCal);
        assert_eq!(report.nodes, 7);
        assert_eq!(report.elements_tried, 9);
        assert_eq!(report.memo_hits, 2);
        assert_eq!(report.verdict, "not-cal");
        assert_eq!(report.interrupted, None);
    }

    #[test]
    fn json_is_well_formed_and_sparse() {
        let sink = CountingSink::new();
        sink.on_memo_hit(6);
        sink.on_memo_hit(6);
        let report = sample_report(&sink, Verdict::NotCal);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"nodes\": 7"), "{json}");
        assert!(json.contains("\"memo_shard_hits\": {\"6\": 2}"), "{json}");
        assert!(json.contains("\"interrupted\": null"), "{json}");
        assert!(!json.contains('\n'), "single line expected: {json}");
    }

    #[test]
    fn interrupted_verdict_is_reported_with_cause() {
        let sink = CountingSink::new();
        let report = sample_report(
            &sink,
            Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded },
        );
        assert_eq!(report.verdict, "interrupted");
        assert_eq!(report.interrupted.as_deref(), Some("deadline-exceeded"));
        assert!(report.explain().contains("deadline-exceeded"), "{}", report.explain());
        assert!(report.to_json().contains("\"interrupted\": \"deadline-exceeded\""));
    }

    #[test]
    fn explain_mentions_decomposition_and_budget() {
        let sink = CountingSink::new();
        sink.on_object_done(ObjectId(0), Duration::from_millis(1), ObjectOutcome::Cal);
        sink.on_object_done(ObjectId(1), Duration::from_millis(9), ObjectOutcome::Exhausted);
        let report = sample_report(&sink, Verdict::ResourcesExhausted);
        let text = report.explain();
        assert!(text.contains("slowest o1"), "{text}");
        assert!(text.contains("budget exhausted"), "{text}");
    }

    #[test]
    fn display_is_the_summary() {
        let sink = CountingSink::new();
        let report = sample_report(&sink, Verdict::NotCal);
        assert_eq!(report.to_string(), report.summary());
    }
}
