//! Histories: finite sequences of invocations and responses (Defs. 2–3).
//!
//! A [`History`] records the interaction between a client program and an
//! object system at the interface level. This module provides the paper's
//! notions of well-formedness, sequentiality, completeness, projections
//! `H|t` / `H|o`, the real-time order `≺H` and completions `complete(H)`.

use std::error::Error;
use std::fmt;

use crate::action::{Action, ActionKind};
use crate::ids::{Method, ObjectId, ThreadId, Value};
use crate::op::Operation;

/// Why a sequence of actions fails to be a well-formed history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// A thread produced a response without a pending invocation.
    ResponseWithoutInvocation {
        /// Index of the offending action.
        index: usize,
        /// Thread of the offending action.
        thread: ThreadId,
    },
    /// A thread invoked a method while another of its invocations was
    /// pending (`H|t` not sequential).
    NestedInvocation {
        /// Index of the offending action.
        index: usize,
        /// Thread of the offending action.
        thread: ThreadId,
    },
    /// A response does not match the object/method of the thread's pending
    /// invocation.
    MismatchedResponse {
        /// Index of the offending response.
        index: usize,
        /// Thread of the offending response.
        thread: ThreadId,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::ResponseWithoutInvocation { index, thread } => {
                write!(f, "response at index {index} by {thread} has no pending invocation")
            }
            HistoryError::NestedInvocation { index, thread } => {
                write!(f, "invocation at index {index} by {thread} while another is pending")
            }
            HistoryError::MismatchedResponse { index, thread } => {
                write!(f, "response at index {index} by {thread} does not match its invocation")
            }
        }
    }
}

impl Error for HistoryError {}

/// The span of one operation inside a history: the index of its invocation,
/// the index of its matching response (if any), and the completed
/// [`Operation`] when the response is present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the invocation action in the history.
    pub inv: usize,
    /// Index of the matching response action, or `None` if pending.
    pub resp: Option<usize>,
    /// Thread performing the operation.
    pub thread: ThreadId,
    /// Object operated on.
    pub object: ObjectId,
    /// Method invoked.
    pub method: Method,
    /// Invocation argument.
    pub arg: Value,
    /// Return value, if the operation completed.
    pub ret: Option<Value>,
}

impl Span {
    /// Returns `true` if the operation has a matching response.
    pub fn is_complete(&self) -> bool {
        self.resp.is_some()
    }

    /// The completed [`Operation`] (`OP(H, i)` in Def. 4), if any.
    pub fn operation(&self) -> Option<Operation> {
        self.ret.map(|ret| Operation::new(self.thread, self.object, self.method, self.arg, ret))
    }

    /// The completed operation with a substituted return value; used when a
    /// checker decides how to complete a pending invocation.
    pub fn operation_with_ret(&self, ret: Value) -> Operation {
        Operation::new(self.thread, self.object, self.method, self.arg, ret)
    }
}

/// A finite sequence of invocation and response actions (Def. 2).
///
/// # Examples
///
/// ```
/// use cal_core::{Action, History, Method, ObjectId, ThreadId, Value};
/// let e = ObjectId(0);
/// let ex = Method("exchange");
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(1), e, ex, Value::Int(3)),
///     Action::invoke(ThreadId(2), e, ex, Value::Int(4)),
///     Action::response(ThreadId(1), e, ex, Value::Pair(true, 4)),
///     Action::response(ThreadId(2), e, ex, Value::Pair(true, 3)),
/// ]);
/// assert!(h.is_well_formed());
/// assert!(h.is_complete());
/// assert!(!h.is_sequential());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct History {
    actions: Vec<Action>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History { actions: Vec::new() }
    }

    /// Creates a history from a sequence of actions.
    pub fn from_actions(actions: Vec<Action>) -> Self {
        History { actions }
    }

    /// Appends an action.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Appends the invocation and response of `op` adjacently, keeping the
    /// history sequential if it was.
    pub fn push_complete(&mut self, op: Operation) {
        self.actions.push(op.invocation());
        self.actions.push(op.response());
    }

    /// The actions of the history, in order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of actions (`|H|`).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if the history contains no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Checks well-formedness (Def. 2): for every thread `t`, the
    /// projection `H|t` is sequential, and every response matches the
    /// object/method of its thread's pending invocation.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in action order.
    pub fn validate(&self) -> Result<(), HistoryError> {
        // Pending invocation per thread: (object, method).
        let mut pending: Vec<(ThreadId, ObjectId, Method)> = Vec::new();
        for (index, a) in self.actions.iter().enumerate() {
            let t = a.thread();
            let slot = pending.iter().position(|(pt, _, _)| *pt == t);
            match a.kind() {
                ActionKind::Invoke(_) => {
                    if slot.is_some() {
                        return Err(HistoryError::NestedInvocation { index, thread: t });
                    }
                    pending.push((t, a.object(), a.method()));
                }
                ActionKind::Response(_) => match slot {
                    None => {
                        return Err(HistoryError::ResponseWithoutInvocation { index, thread: t })
                    }
                    Some(i) => {
                        let (_, o, m) = pending[i];
                        if o != a.object() || m != a.method() {
                            return Err(HistoryError::MismatchedResponse { index, thread: t });
                        }
                        pending.swap_remove(i);
                    }
                },
            }
        }
        Ok(())
    }

    /// Returns `true` if the history is well-formed (Def. 2).
    pub fn is_well_formed(&self) -> bool {
        self.validate().is_ok()
    }

    /// Returns `true` if the history is sequential (Def. 2): an alternation
    /// of invocations and responses starting with an invocation, each
    /// response immediately preceded by its matching invocation.
    pub fn is_sequential(&self) -> bool {
        if !self.actions.len().is_multiple_of(2) {
            // A sequential history may end with a pending invocation; allow
            // an odd length only when the final action is an invocation.
            if let Some(last) = self.actions.last() {
                if !last.is_invoke() {
                    return false;
                }
            }
        }
        let mut i = 0;
        while i < self.actions.len() {
            let inv = &self.actions[i];
            if !inv.is_invoke() {
                return false;
            }
            if i + 1 == self.actions.len() {
                return true; // trailing pending invocation
            }
            let res = &self.actions[i + 1];
            if !res.is_response()
                || res.thread() != inv.thread()
                || res.object() != inv.object()
                || res.method() != inv.method()
            {
                return false;
            }
            i += 2;
        }
        true
    }

    /// Returns `true` if the history is complete (Def. 2): well-formed and
    /// every invocation has a matching response.
    pub fn is_complete(&self) -> bool {
        self.is_well_formed() && self.spans().iter().all(Span::is_complete)
    }

    /// The projection `H|t`: the subsequence of actions of thread `t`.
    pub fn project_thread(&self, t: ThreadId) -> History {
        History {
            actions: self.actions.iter().copied().filter(|a| a.thread() == t).collect(),
        }
    }

    /// The projection `H|o`: the subsequence of actions on object `o`.
    pub fn project_object(&self, o: ObjectId) -> History {
        History {
            actions: self.actions.iter().copied().filter(|a| a.object() == o).collect(),
        }
    }

    /// The threads that appear in the history, deduplicated, in first-use
    /// order.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut ts = Vec::new();
        for a in &self.actions {
            if !ts.contains(&a.thread()) {
                ts.push(a.thread());
            }
        }
        ts
    }

    /// The objects that appear in the history, deduplicated, in first-use
    /// order.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut os = Vec::new();
        for a in &self.actions {
            if !os.contains(&a.object()) {
                os.push(a.object());
            }
        }
        os
    }

    /// Matches invocations with their responses, producing one [`Span`] per
    /// operation, in invocation order.
    ///
    /// # Panics
    ///
    /// Panics if the history is not well-formed; call [`History::validate`]
    /// first when the input is untrusted.
    pub fn spans(&self) -> Vec<Span> {
        self.try_spans().expect("history must be well-formed")
    }

    /// Fallible version of [`History::spans`].
    ///
    /// # Errors
    ///
    /// Returns the well-formedness violation, if any.
    pub fn try_spans(&self) -> Result<Vec<Span>, HistoryError> {
        self.validate()?;
        let mut spans: Vec<Span> = Vec::new();
        // Pending span index per thread.
        let mut pending: Vec<(ThreadId, usize)> = Vec::new();
        for (index, a) in self.actions.iter().enumerate() {
            match a.kind() {
                ActionKind::Invoke(arg) => {
                    pending.push((a.thread(), spans.len()));
                    spans.push(Span {
                        inv: index,
                        resp: None,
                        thread: a.thread(),
                        object: a.object(),
                        method: a.method(),
                        arg,
                        ret: None,
                    });
                }
                ActionKind::Response(ret) => {
                    let i = pending
                        .iter()
                        .position(|(t, _)| *t == a.thread())
                        .expect("validated above");
                    let (_, si) = pending.swap_remove(i);
                    spans[si].resp = Some(index);
                    spans[si].ret = Some(ret);
                }
            }
        }
        Ok(spans)
    }

    /// The completed operations of the history, in invocation order.
    /// Pending invocations are skipped.
    pub fn operations(&self) -> Vec<Operation> {
        self.spans().iter().filter_map(Span::operation).collect()
    }

    /// The real-time order `≺H` (Def. 3) between two spans: `a ≺H b` iff
    /// `a`'s response precedes `b`'s invocation in the history.
    pub fn spans_precede(a: &Span, b: &Span) -> bool {
        match a.resp {
            Some(r) => r < b.inv,
            None => false,
        }
    }

    /// Returns `true` if two spans overlap (neither `≺H`-precedes the
    /// other).
    pub fn spans_concurrent(a: &Span, b: &Span) -> bool {
        !History::spans_precede(a, b) && !History::spans_precede(b, a)
    }

    /// Enumerates all completions of this history (Def. 2): complete
    /// histories obtained by appending responses for some pending
    /// invocations (with return values drawn from `candidate_rets`) and
    /// removing the remaining pending invocations.
    ///
    /// `candidate_rets` receives the thread/object/method/arg of each
    /// pending invocation and returns the return values to try.
    ///
    /// # Panics
    ///
    /// Panics if the history is not well-formed.
    pub fn completions<F>(&self, mut candidate_rets: F) -> Vec<History>
    where
        F: FnMut(&Span) -> Vec<Value>,
    {
        let spans = self.spans();
        let pending: Vec<&Span> = spans.iter().filter(|s| !s.is_complete()).collect();
        // For each pending invocation: either drop it or append a response
        // with one of the candidate return values.
        let mut results = Vec::new();
        let options: Vec<Vec<Option<Value>>> = pending
            .iter()
            .map(|s| {
                let mut opts: Vec<Option<Value>> = vec![None];
                opts.extend(candidate_rets(s).into_iter().map(Some));
                opts
            })
            .collect();
        let mut choice = vec![0usize; pending.len()];
        loop {
            // Materialize this choice: drop pending invocations with choice
            // 0, append a response for the others.
            let dropped: Vec<usize> = pending
                .iter()
                .zip(&choice)
                .filter(|(_, &c)| c == 0)
                .map(|(s, _)| s.inv)
                .collect();
            let mut actions: Vec<Action> = self
                .actions
                .iter()
                .enumerate()
                .filter(|(i, _)| !dropped.contains(i))
                .map(|(_, a)| *a)
                .collect();
            for (k, (s, &c)) in pending.iter().zip(&choice).enumerate() {
                if c > 0 {
                    let ret = options[k][c].expect("non-zero choices carry values");
                    actions.push(Action::response(s.thread, s.object, s.method, ret));
                }
            }
            results.push(History::from_actions(actions));
            // Advance the mixed-radix counter; full wrap means done.
            let mut i = 0;
            loop {
                if i == choice.len() {
                    return results;
                }
                choice[i] += 1;
                if choice[i] < options[i].len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }
}

impl FromIterator<Action> for History {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        History { actions: iter.into_iter().collect() }
    }
}

impl Extend<Action> for History {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, iter: I) {
        self.actions.extend(iter);
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// An order relation over the spans of one history — the *partial history*
/// abstraction the checkers search under.
///
/// Every checker consults the ordering of a history only through this
/// interface: which spans must precede which ([`precedes`]), which pairs
/// may sit in one CA-element ([`concurrent`]), and the pred/succ constraint
/// sets that drive minimal-operation enumeration and symmetry reduction.
/// The classical real-time order `≺H` (Def. 3) is the total-order instance
/// ([`HbRelation::real_time`]); weak-memory-plausible happens-before
/// orders — session order plus explicit `hb` edges — are the genuinely
/// partial instances ([`HbRelation::causal`]).
///
/// [`precedes`]: PartialHistory::precedes
/// [`concurrent`]: PartialHistory::concurrent
pub trait PartialHistory {
    /// Number of spans the relation is defined over.
    fn len(&self) -> usize;

    /// Whether the relation is empty (no spans).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff span `i` happens-before span `j`. Irreflexive and
    /// transitive by construction.
    fn precedes(&self, i: usize, j: usize) -> bool;

    /// `true` iff `i` and `j` are distinct and unordered — the pairs a
    /// CA-element may contain.
    fn concurrent(&self, i: usize, j: usize) -> bool {
        i != j && !self.precedes(i, j) && !self.precedes(j, i)
    }

    /// The spans that happen-before span `i`, ascending.
    fn preds(&self, i: usize) -> &[usize];

    /// The spans that span `i` happens-before, ascending.
    fn succs(&self, i: usize) -> &[usize];
}

/// A malformed happens-before declaration: edges that point outside the
/// history, at an operation itself, or that (together with session order)
/// form a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HbError {
    /// An edge endpoint is not a valid operation index.
    EdgeOutOfRange {
        /// Edge source (operation index).
        from: usize,
        /// Edge target (operation index).
        to: usize,
        /// Number of operations in the history.
        len: usize,
    },
    /// An edge from an operation to itself.
    SelfEdge {
        /// The operation index.
        op: usize,
    },
    /// Session order plus the declared edges admit no linear extension.
    Cycle {
        /// An operation on the cycle.
        op: usize,
    },
}

impl fmt::Display for HbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbError::EdgeOutOfRange { from, to, len } => write!(
                f,
                "hb edge {from} -> {to} points outside the history ({len} operations)"
            ),
            HbError::SelfEdge { op } => write!(f, "hb edge from operation {op} to itself"),
            HbError::Cycle { op } => write!(
                f,
                "happens-before cycle through operation {op} (session order plus declared edges)"
            ),
        }
    }
}

impl Error for HbError {}

/// A concrete happens-before relation over the spans of one history: the
/// workhorse [`PartialHistory`] instance every checker threads through its
/// search domain.
///
/// Internally the relation is transitively closed up front: `before[j]`
/// is the full set of spans that happen-before `j`, so [`precedes`] is one
/// bitset probe and the pred/succ lists the checkers iterate are
/// precomputed.
///
/// [`precedes`]: PartialHistory::precedes
///
/// # Examples
///
/// ```
/// use cal_core::history::{HbRelation, PartialHistory};
/// use cal_core::{Action, History, Method, ObjectId, ThreadId, Value};
/// let o = ObjectId(0);
/// let m = Method("op");
/// // t1's op completes before t2's begins: real-time orders them, but a
/// // causal order with no cross-thread edges leaves them concurrent.
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(1), o, m, Value::Unit),
///     Action::response(ThreadId(1), o, m, Value::Unit),
///     Action::invoke(ThreadId(2), o, m, Value::Unit),
///     Action::response(ThreadId(2), o, m, Value::Unit),
/// ]);
/// let spans = h.spans();
/// assert!(HbRelation::real_time(&spans).precedes(0, 1));
/// assert!(HbRelation::causal(&spans, &[]).unwrap().concurrent(0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct HbRelation {
    /// `before[j]` = the set of spans `i` with `i ≺hb j` (closed).
    before: Vec<crate::bitset::BitSet>,
    /// Ascending pred lists, derived from `before`.
    preds: Vec<Vec<usize>>,
    /// Ascending succ lists, derived from `before`.
    succs: Vec<Vec<usize>>,
    /// Whether this is exactly the real-time order `≺H` of the spans it
    /// was built from (lets consumers keep real-time-only fast paths such
    /// as per-object decomposition).
    real_time: bool,
}

impl HbRelation {
    /// The real-time order `≺H` (Def. 3) of `spans`: the total-order
    /// instance of [`PartialHistory`]. `a ≺H b` iff `a`'s response
    /// precedes `b`'s invocation.
    pub fn real_time(spans: &[Span]) -> Self {
        let n = spans.len();
        let mut before = vec![crate::bitset::BitSet::new(n.max(1)); n];
        for (j, b) in spans.iter().enumerate() {
            for (i, a) in spans.iter().enumerate() {
                if i != j && History::spans_precede(a, b) {
                    before[j].insert(i);
                }
            }
        }
        Self::finish(before, true)
    }

    /// A causal happens-before order: per-thread *session order* (each
    /// thread's spans in invocation order) unioned with the declared
    /// `edges` (pairs of span indices, source happens-before target),
    /// transitively closed.
    ///
    /// This is the weak-memory reading of a trace: cross-thread real-time
    /// ordering is *not* assumed — only program order and whatever
    /// synchronization the trace explicitly declares.
    ///
    /// # Errors
    ///
    /// Returns [`HbError`] when an edge points outside the history, at an
    /// operation itself, or when session order plus the edges contain a
    /// cycle (no linear extension exists).
    pub fn causal(spans: &[Span], edges: &[(usize, usize)]) -> Result<Self, HbError> {
        let n = spans.len();
        for &(from, to) in edges {
            if from >= n || to >= n {
                return Err(HbError::EdgeOutOfRange { from, to, len: n });
            }
            if from == to {
                return Err(HbError::SelfEdge { op: from });
            }
        }
        // Direct adjacency: session chains plus declared edges.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        let add = |adj: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, u: usize, v: usize| {
            if !adj[u].contains(&v) {
                adj[u].push(v);
                indeg[v] += 1;
            }
        };
        let mut last_of_thread: Vec<(ThreadId, usize)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match last_of_thread.iter_mut().find(|(t, _)| *t == s.thread) {
                Some(entry) => {
                    add(&mut adj, &mut indeg, entry.1, i);
                    entry.1 = i;
                }
                None => last_of_thread.push((s.thread, i)),
            }
        }
        for &(from, to) in edges {
            add(&mut adj, &mut indeg, from, to);
        }
        // Kahn topological order; closure accumulates along it.
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut before = vec![crate::bitset::BitSet::new(n.max(1)); n];
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            // Each node leaves the queue exactly once, so its successor
            // list can be consumed rather than re-indexed.
            let succs = std::mem::take(&mut adj[u]);
            for v in succs {
                // before[v] ∪= before[u] ∪ {u}
                let add_set: Vec<usize> = before[u].iter().collect();
                for i in add_set {
                    before[v].insert(i);
                }
                before[v].insert(u);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if seen != n {
            let op = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
            return Err(HbError::Cycle { op });
        }
        Ok(Self::finish(before, false))
    }

    /// Whether this relation is exactly the real-time order of the spans
    /// it was built from. Consumers use this to keep real-time-only fast
    /// paths (per-object decomposition, `(maxinv, minresp)` witness
    /// merging) without consulting span timestamps themselves.
    pub fn is_real_time(&self) -> bool {
        self.real_time
    }

    /// Restricts the relation to the spans in `keep` (ascending old
    /// indices), renumbering to positions in `keep`. Ordering derived
    /// transitively *through* a removed span is preserved — the closure
    /// was computed before the restriction — which is what completion
    /// (dropping pending invocations, Def. 2) requires.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains an index out of range.
    pub fn restrict(&self, keep: &[usize]) -> HbRelation {
        let m = keep.len();
        let mut before = vec![crate::bitset::BitSet::new(m.max(1)); m];
        for (new_j, &old_j) in keep.iter().enumerate() {
            for (new_i, &old_i) in keep.iter().enumerate() {
                if new_i != new_j && self.before[old_j].contains(old_i) {
                    before[new_j].insert(new_i);
                }
            }
        }
        Self::finish(before, self.real_time)
    }

    /// The spans ready to be matched next, ascending: unmatched, with
    /// every hb-predecessor already in `matched`. This is the frontier
    /// every checker domain expands from.
    pub(crate) fn ready<'a>(
        &'a self,
        matched: &'a crate::bitset::BitSet,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.preds.len()).filter(move |&i| {
            !matched.contains(i) && self.preds[i].iter().all(|&j| matched.contains(j))
        })
    }

    fn finish(before: Vec<crate::bitset::BitSet>, real_time: bool) -> Self {
        let n = before.len();
        let preds: Vec<Vec<usize>> = before.iter().map(|b| b.iter().collect()).collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, ps) in preds.iter().enumerate() {
            for &i in ps {
                succs[i].push(j);
            }
        }
        HbRelation { before, preds, succs, real_time }
    }
}

/// The goal test every checker domain shares: `matched` covers every
/// *complete* span. Unmatched pending invocations are dropped by the
/// chosen completion (Def. 2).
pub(crate) fn complete_spans_matched(spans: &[Span], matched: &crate::bitset::BitSet) -> bool {
    spans.iter().enumerate().all(|(i, s)| matched.contains(i) || !s.is_complete())
}

impl PartialHistory for HbRelation {
    fn len(&self) -> usize {
        self.before.len()
    }

    fn precedes(&self, i: usize, j: usize) -> bool {
        j < self.before.len() && self.before[j].contains(i)
    }

    fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: ObjectId = ObjectId(0);
    const EX: Method = Method("exchange");

    fn inv(t: u32, v: i64) -> Action {
        Action::invoke(ThreadId(t), E, EX, Value::Int(v))
    }

    fn res(t: u32, ok: bool, v: i64) -> Action {
        Action::response(ThreadId(t), E, EX, Value::Pair(ok, v))
    }

    #[test]
    fn empty_history_is_well_formed_sequential_complete() {
        let h = History::new();
        assert!(h.is_well_formed());
        assert!(h.is_sequential());
        assert!(h.is_complete());
        assert!(h.is_empty());
    }

    #[test]
    fn overlapping_history_is_well_formed_not_sequential() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        assert!(h.is_well_formed());
        assert!(!h.is_sequential());
        assert!(h.is_complete());
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn sequential_history_detected() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3), inv(2, 4), res(2, false, 4)]);
        assert!(h.is_sequential());
        assert!(h.is_well_formed());
    }

    #[test]
    fn sequential_with_trailing_pending_invocation() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3), inv(2, 4)]);
        assert!(h.is_sequential());
        assert!(!h.is_complete());
    }

    #[test]
    fn response_without_invocation_rejected() {
        let h = History::from_actions(vec![res(1, false, 3)]);
        assert_eq!(
            h.validate(),
            Err(HistoryError::ResponseWithoutInvocation { index: 0, thread: ThreadId(1) })
        );
        assert!(!h.is_well_formed());
    }

    #[test]
    fn nested_invocation_rejected() {
        let h = History::from_actions(vec![inv(1, 3), inv(1, 4)]);
        assert_eq!(
            h.validate(),
            Err(HistoryError::NestedInvocation { index: 1, thread: ThreadId(1) })
        );
    }

    #[test]
    fn mismatched_response_rejected() {
        let h = History::from_actions(vec![
            inv(1, 3),
            Action::response(ThreadId(1), E, Method("pop"), Value::Unit),
        ]);
        assert_eq!(
            h.validate(),
            Err(HistoryError::MismatchedResponse { index: 1, thread: ThreadId(1) })
        );
    }

    #[test]
    fn projections() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let h1 = h.project_thread(ThreadId(1));
        assert_eq!(h1.len(), 2);
        assert!(h1.is_sequential());
        let ho = h.project_object(E);
        assert_eq!(ho.len(), 4);
        let hnone = h.project_object(ObjectId(9));
        assert!(hnone.is_empty());
    }

    #[test]
    fn spans_and_real_time_order() {
        // t1 completes before t2 invokes: t1's op ≺H t2's op.
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3), inv(2, 4), res(2, false, 4)]);
        let spans = h.spans();
        assert_eq!(spans.len(), 2);
        assert!(History::spans_precede(&spans[0], &spans[1]));
        assert!(!History::spans_precede(&spans[1], &spans[0]));
        assert!(!History::spans_concurrent(&spans[0], &spans[1]));
    }

    #[test]
    fn overlapping_spans_are_concurrent() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let spans = h.spans();
        assert!(History::spans_concurrent(&spans[0], &spans[1]));
    }

    #[test]
    fn pending_span_never_precedes() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(2, false, 4)]);
        let spans = h.spans();
        assert!(!History::spans_precede(&spans[0], &spans[1]));
        // t2's response precedes nothing after it, but t1 is pending:
        assert!(History::spans_concurrent(&spans[0], &spans[1]));
    }

    #[test]
    fn operations_extracts_completed_only() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(2, false, 4)]);
        let ops = h.operations();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].thread, ThreadId(2));
        assert_eq!(ops[0].ret, Value::Pair(false, 4));
    }

    #[test]
    fn completions_of_complete_history_is_identity() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3)]);
        let cs = h.completions(|_| vec![Value::Pair(false, 0)]);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0], h);
    }

    #[test]
    fn completions_enumerate_drop_and_complete() {
        let h = History::from_actions(vec![inv(1, 3)]);
        let cs = h.completions(|s| vec![Value::Pair(false, s.arg.as_int().unwrap())]);
        // Either drop the pending invocation or complete it.
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().any(|c| c.is_empty()));
        assert!(cs.iter().any(|c| c.is_complete() && c.len() == 2));
    }

    #[test]
    fn completions_two_pending() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4)]);
        let cs = h.completions(|_| vec![Value::Pair(false, 0)]);
        // 2 options per pending invocation → 4 completions.
        assert_eq!(cs.len(), 4);
        for c in &cs {
            assert!(c.is_complete(), "completion not complete: {c}");
        }
    }

    #[test]
    fn push_complete_keeps_sequential() {
        let mut h = History::new();
        h.push_complete(Operation::new(ThreadId(0), E, EX, Value::Int(1), Value::Pair(false, 1)));
        h.push_complete(Operation::new(ThreadId(1), E, EX, Value::Int(2), Value::Pair(false, 2)));
        assert!(h.is_sequential());
        assert!(h.is_complete());
    }

    #[test]
    fn threads_and_objects_listed_in_first_use_order() {
        let h = History::from_actions(vec![inv(2, 1), inv(1, 2), res(2, false, 1), res(1, false, 2)]);
        assert_eq!(h.threads(), vec![ThreadId(2), ThreadId(1)]);
        assert_eq!(h.objects(), vec![E]);
    }

    #[test]
    fn error_display() {
        let e = HistoryError::NestedInvocation { index: 4, thread: ThreadId(7) };
        assert!(e.to_string().contains("index 4"));
        assert!(e.to_string().contains("t7"));
    }
}
