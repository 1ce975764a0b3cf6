//! Concurrency-aware linearizability membership checking (Def. 6).
//!
//! An object system `OS` is CAL with respect to a trace set `𝒯` when every
//! history `H ∈ OS` has a completion `Hᶜ` and a trace `T ∈ 𝒯` such that
//! `Hᶜ ⊑CAL T`. Given one history and a [`CaSpec`], [`check_cal`] decides
//! whether such a completion and trace exist, returning a witness trace.
//!
//! The search generalizes the classical Wing–Gong linearizability search:
//! instead of repeatedly extracting one minimal operation, it extracts a
//! *CA-element* — a set of pairwise-concurrent minimal operations on one
//! object accepted by the specification. Pending invocations may join an
//! element (completing them with a spec-proposed return value) or remain
//! unassigned (dropping them, per Def. 2's completions). Failed search
//! states are memoized on `(matched-set, spec-state)`.
//!
//! This module is a thin *domain* over the shared search kernel
//! ([`crate::engine`]): `CalDomain` enumerates candidate CA-elements,
//! while budgets, deadlines, memoization, observability and parallelism
//! live in the engine. The causal ([`crate::causal`]) and classical
//! ([`crate::seqlin`]) checkers run this same domain; the interval checker
//! ([`crate::interval`]) has its own. [`CheckOptions::threads`] picks the
//! driver: the sequential search at one thread, the parallel one (per-object
//! decomposition, else work-stealing frontier splitting) above.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};

use crate::bitset::BitSet;
use crate::engine::{self, ExpandObs, SearchDomain, SpecRef};
use crate::history::{
    complete_spans_matched, HbRelation, History, HistoryError, PartialHistory, Span,
};
use crate::ids::ObjectId;
use crate::op::Operation;
use crate::spec::{CaSpec, Invocation};
use crate::symmetry::SymClasses;
use crate::trace::{CaElement, CaTrace};

pub use crate::engine::{
    CancelToken, CheckError, CheckOptions, CheckOutcome, CheckStats, InterruptReason, Verdict,
};

/// Decides whether `history` is concurrency-aware linearizable with respect
/// to `spec` (Def. 6), with default options.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed.
///
/// # Examples
///
/// ```
/// # use cal_core::{check, Action, History, Method, ObjectId, ThreadId, Value};
/// # use cal_core::spec::{CaSpec, Invocation};
/// # use cal_core::trace::CaElement;
/// #[derive(Debug)]
/// struct AnySingleton;
/// impl CaSpec for AnySingleton {
///     type State = ();
///     fn initial(&self) {}
///     fn step(&self, _: &(), e: &CaElement) -> Option<()> { (e.len() == 1).then_some(()) }
///     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
/// }
/// let o = ObjectId(0);
/// let m = Method("noop");
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(0), o, m, Value::Unit),
///     Action::response(ThreadId(0), o, m, Value::Unit),
/// ]);
/// let outcome = check::check_cal(&h, &AnySingleton)?;
/// assert!(outcome.verdict.is_cal());
/// # Ok::<(), cal_core::check::CheckError>(())
/// ```
pub fn check_cal<S: CaSpec>(history: &History, spec: &S) -> Result<CheckOutcome, CheckError> {
    check_cal_with(history, spec, &CheckOptions::default())
}

/// Like [`check_cal`], with explicit [`CheckOptions`].
///
/// [`CheckOptions::threads`] picks the driver. Above one thread the
/// search runs on that many workers: when the history touches several
/// objects and [`CaSpec::restrict`] covers every one of them, the check
/// decomposes into independent per-object subchecks (CAL locality);
/// otherwise the candidate first elements are split across work-stealing
/// workers sharing one lock-free memo table. Decided verdicts never
/// depend on the thread count (the witness may differ, equally valid);
/// `max_nodes` bounds the *total* nodes across workers.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed
/// and [`CheckError::SpecPanicked`] if the specification panics.
///
/// # Examples
///
/// ```
/// use cal_core::check::{check_cal_with, CheckOptions};
/// use cal_core::text::parse_history;
/// # use cal_core::spec::{CaSpec, Invocation};
/// # use cal_core::trace::CaElement;
/// # use cal_core::Value;
/// # #[derive(Debug)]
/// # struct AnySingleton;
/// # impl CaSpec for AnySingleton {
/// #     type State = ();
/// #     fn initial(&self) {}
/// #     fn step(&self, _: &(), e: &CaElement) -> Option<()> { (e.len() == 1).then_some(()) }
/// #     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
/// # }
/// let h = parse_history(
///     "t1 inv o0.noop 0\n\
///      t2 inv o0.noop 0\n\
///      t1 res o0.noop 0\n\
///      t2 res o0.noop 0\n",
/// )
/// .unwrap();
/// for threads in [1, 4] {
///     let options = CheckOptions { threads, ..CheckOptions::default() };
///     assert!(check_cal_with(&h, &AnySingleton, &options).unwrap().verdict.is_cal());
/// }
/// ```
pub fn check_cal_with<S: CaSpec>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError> {
    let domain = CalDomain::new(Cow::Borrowed(history), SpecRef::Borrowed(spec))?;
    Ok(engine::search_threads(&domain, options)?.map_witness(steps_to_trace))
}

/// Assembles the engine's step sequence into a [`CaTrace`] witness.
pub(crate) fn steps_to_trace(steps: Vec<CalStep>) -> CaTrace {
    CaTrace::from_elements(steps.into_iter().map(|s| s.element).collect())
}

/// Convenience predicate: `Ok(true)` iff the history is CAL w.r.t. `spec`.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] for ill-formed histories,
/// [`CheckError::SpecPanicked`] when the spec panics, and
/// [`CheckError::Undecided`] when the default node budget runs out before
/// the search decides.
pub fn is_cal<S: CaSpec>(history: &History, spec: &S) -> Result<bool, CheckError> {
    check_cal(history, spec)?.verdict.decided()
}

/// Validates a [`Verdict::Cal`] witness against a (possibly incomplete)
/// history: the specification must accept `witness`, and some completion
/// of `history` (Def. 2) must agree with it (Def. 5).
///
/// The completion is reconstructed from the witness itself: every complete
/// operation must appear in the trace exactly once; a thread's pending
/// invocation may additionally appear once, completed with the return
/// value the trace assigns it; pending invocations absent from the trace
/// are dropped. Returns `false` for ill-formed histories.
///
/// This is the oracle the differential tests use to cross-validate
/// witnesses produced by the parallel driver.
pub fn witness_explains<S: CaSpec>(history: &History, spec: &S, witness: &CaTrace) -> bool {
    if history.validate().is_err() || !spec.accepts(witness) {
        return false;
    }
    match reconstruct_completion(history, witness) {
        Some((completion, _kept)) => crate::agree::agrees(&completion, witness).is_some(),
        None => false,
    }
}

/// Reconstructs the completion of `history` implied by `witness` (see
/// [`witness_explains`]): every complete operation must appear in the
/// trace exactly once, a pending invocation may appear once completed,
/// absent pending invocations are dropped. Returns the completion plus the
/// surviving spans' original indices (ascending) so order relations built
/// over the original spans can be restricted to the completion.
pub(crate) fn reconstruct_completion(
    history: &History,
    witness: &CaTrace,
) -> Option<(History, Vec<usize>)> {
    let spans = history.spans();
    // Multiset of witness operations, minus each complete operation.
    let mut counts: HashMap<Operation, i64> = HashMap::new();
    for op in witness.all_ops() {
        *counts.entry(op).or_insert(0) += 1;
    }
    for span in spans.iter().filter(|s| s.is_complete()) {
        let op = span.operation().expect("complete span has an operation");
        match counts.get_mut(&op) {
            Some(c) if *c > 0 => *c -= 1,
            _ => return None, // a complete operation the trace does not explain
        }
    }
    // What remains must complete pending invocations, at most one per
    // thread (well-formedness guarantees at most one pending per thread).
    let mut completed_pending: Vec<(usize, Operation)> = Vec::new();
    for (op, count) in counts {
        match count {
            0 => {}
            1 => {
                let Some(span) = spans.iter().find(|s| {
                    !s.is_complete()
                        && s.thread == op.thread
                        && s.object == op.object
                        && s.method == op.method
                        && s.arg == op.arg
                }) else {
                    return None; // an op the history never invoked
                };
                completed_pending.push((span.inv, op));
            }
            _ => return None, // duplicated beyond the one pending slot
        }
    }
    // Build the completion: drop uncompleted pending invocations, append
    // responses for completed ones. Appending at the end adds no real-time
    // constraints, matching the checker's treatment of completed pending
    // operations.
    let completed_invs: HashSet<usize> = completed_pending.iter().map(|&(inv, _)| inv).collect();
    let dropped: HashSet<usize> = spans
        .iter()
        .filter(|s| !s.is_complete() && !completed_invs.contains(&s.inv))
        .map(|s| s.inv)
        .collect();
    let mut actions: Vec<crate::action::Action> = history
        .actions()
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, a)| *a)
        .collect();
    for (_, op) in &completed_pending {
        actions.push(op.response());
    }
    let completion = History::from_actions(actions);
    let kept: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_complete() || completed_invs.contains(&s.inv))
        .map(|(i, _)| i)
        .collect();
    Some((completion, kept))
}

/// One step of a CAL witness: the CA-element extracted plus the span
/// indices it matched (used to interleave per-object witnesses under
/// decomposition without re-deriving op↦span assignments).
#[derive(Debug, Clone)]
pub(crate) struct CalStep {
    pub(crate) element: CaElement,
    subset: Vec<usize>,
}

/// The CAL checker as a [`SearchDomain`]: nodes are `(matched-set,
/// spec-state)` pairs (also the memo key), steps are CA-elements, and
/// expansion enumerates subsets of minimal operations that are same-object,
/// pairwise concurrent and accepted by the specification, completing
/// pending members with spec-proposed return values.
pub(crate) struct CalDomain<'a, S: CaSpec> {
    spec: SpecRef<'a, S>,
    history: Cow<'a, History>,
    spans: Vec<Span>,
    /// The happens-before relation the search runs over: real-time `≺H`
    /// for CAL mode, a causal partial order for `--mode causal`.
    hb: HbRelation,
    /// Interchangeability classes for symmetry-reduced memo keys, built
    /// from `hb`'s constraint sets.
    sym: SymClasses,
}

impl<'a, S: CaSpec> CalDomain<'a, S> {
    /// Builds the domain over the real-time order `≺H`, validating the
    /// history.
    pub(crate) fn new(
        history: Cow<'a, History>,
        spec: SpecRef<'a, S>,
    ) -> Result<Self, HistoryError> {
        let spans = history.try_spans()?;
        let hb = HbRelation::real_time(&spans);
        Ok(Self::from_parts(history, spec, spans, hb))
    }

    /// Builds the domain over an explicit happens-before relation (the
    /// causal checker's entry point), validating the history and that
    /// `hb` covers exactly its spans.
    pub(crate) fn with_order(
        history: Cow<'a, History>,
        spec: SpecRef<'a, S>,
        hb: HbRelation,
    ) -> Result<Self, CheckError> {
        let spans = history.try_spans()?;
        if hb.len() != spans.len() {
            return Err(CheckError::OrderMismatch { order: hb.len(), history: spans.len() });
        }
        Ok(Self::from_parts(history, spec, spans, hb))
    }

    fn from_parts(
        history: Cow<'a, History>,
        spec: SpecRef<'a, S>,
        spans: Vec<Span>,
        hb: HbRelation,
    ) -> Self {
        let sym = SymClasses::of_order(&spans, &hb);
        CalDomain { spec, history, spans, hb, sym }
    }

    /// Grows `subset` over `minimal[from..]` and collects every non-empty
    /// prefix-closed choice accepted as a CA-element. Returns `false` when
    /// a cooperative stop was requested mid-enumeration.
    #[allow(clippy::too_many_arguments)]
    fn grow(
        &self,
        minimal: &[usize],
        from: usize,
        max_size: usize,
        subset: &mut Vec<usize>,
        matched: &BitSet,
        state: &S::State,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(CalStep, (BitSet, S::State))>,
    ) -> bool {
        if !subset.is_empty() && !self.collect_elements(subset, matched, state, obs, out) {
            return false;
        }
        if subset.len() == max_size {
            return true;
        }
        for (k, &i) in minimal.iter().enumerate().skip(from) {
            // Same object as the rest of the subset.
            if let Some(&first) = subset.first() {
                if self.spans[i].object != self.spans[first].object {
                    continue;
                }
                // Pairwise concurrent (under hb) with all members.
                if !subset.iter().all(|&j| self.hb.concurrent(i, j)) {
                    continue;
                }
            }
            subset.push(i);
            let keep = self.grow(minimal, k + 1, max_size, subset, matched, state, obs, out);
            subset.pop();
            if !keep {
                return false;
            }
        }
        true
    }

    /// Attempts `subset` as the next CA-element, enumerating completions
    /// for pending members and recording every accepted successor.
    /// Returns `false` when a cooperative stop was requested.
    fn collect_elements(
        &self,
        subset: &[usize],
        matched: &BitSet,
        state: &S::State,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(CalStep, (BitSet, S::State))>,
    ) -> bool {
        // Collect per-member candidate operations. Pending members are
        // completed with values proposed by the spec, which may depend on
        // the other members of the element (e.g. a successful exchange
        // returns its partner's argument).
        let invocations: Vec<Invocation> = subset
            .iter()
            .map(|&i| {
                let s = &self.spans[i];
                Invocation::new(s.thread, s.object, s.method, s.arg)
            })
            .collect();
        let mut choices: Vec<Vec<Operation>> = Vec::with_capacity(subset.len());
        for (k, &i) in subset.iter().enumerate() {
            let s = &self.spans[i];
            let ops = match s.operation() {
                Some(op) => vec![op],
                None => {
                    let peers: Vec<Invocation> = invocations
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .map(|(_, inv)| *inv)
                        .collect();
                    self.spec
                        .get()
                        .completions_among(&invocations[k], &peers)
                        .into_iter()
                        .map(|ret| s.operation_with_ret(ret))
                        .collect()
                }
            };
            if ops.is_empty() {
                return true;
            }
            choices.push(ops);
        }
        let mut pick = vec![0usize; subset.len()];
        loop {
            if obs.should_stop() {
                return false;
            }
            let ops: Vec<Operation> =
                pick.iter().zip(&choices).map(|(&c, opts)| opts[c]).collect();
            let object = ops[0].object;
            if let Ok(element) = CaElement::new(object, ops) {
                obs.on_element_tried();
                if let Some(next) = self.spec.get().step(state, &element) {
                    let mut next_matched = matched.clone();
                    for &i in subset {
                        next_matched.insert(i);
                    }
                    out.push((
                        CalStep { element, subset: subset.to_vec() },
                        (next_matched, next),
                    ));
                }
            }
            // Advance the mixed-radix counter over completion choices.
            let mut d = 0;
            loop {
                if d == pick.len() {
                    return true;
                }
                pick[d] += 1;
                if pick[d] < choices[d].len() {
                    break;
                }
                pick[d] = 0;
                d += 1;
            }
        }
    }
}

impl<S: CaSpec> SearchDomain for CalDomain<'_, S> {
    type Node = (BitSet, S::State);
    type Step = CalStep;

    fn initial(&self) -> Self::Node {
        (BitSet::new(self.spans.len().max(1)), self.spec.get().initial())
    }

    fn is_goal(&self, node: &Self::Node) -> bool {
        complete_spans_matched(&self.spans, &node.0)
    }

    fn expand(
        &self,
        node: &Self::Node,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(Self::Step, Self::Node)>,
    ) {
        let (matched, state) = node;
        let minimal: Vec<usize> = self.hb.ready(matched).collect();
        obs.on_frontier(minimal.len());
        let max_size = self.spec.get().max_element_size().max(1);
        let mut subset: Vec<usize> = Vec::with_capacity(max_size);
        self.grow(&minimal, 0, max_size, &mut subset, matched, state, obs, out);
    }

    fn canonical_key(&self, node: &Self::Node) -> Option<Self::Node> {
        if self.sym.is_trivial() {
            return None;
        }
        self.sym.canonical_bits(&node.0).map(|bits| (bits, node.1.clone()))
    }

    fn decompose(&self) -> Option<Vec<(ObjectId, Self)>> {
        // Per-object decomposition (and the `(maxinv, minresp)` witness
        // merge below) is justified by real-time locality; under a causal
        // partial order the cross-object session edges make objects
        // non-independent, so the parallel driver falls back to
        // root-frontier splitting.
        if !self.hb.is_real_time() {
            return None;
        }
        let objects = self.history.objects();
        if objects.len() < 2 {
            return None;
        }
        let parts: Option<Vec<(ObjectId, S)>> =
            objects.iter().map(|&o| self.spec.get().restrict(o).map(|s| (o, s))).collect();
        Some(
            parts?
                .into_iter()
                .map(|(o, s)| {
                    let sub = CalDomain::new(
                        Cow::Owned(self.history.project_object(o)),
                        SpecRef::Owned(s),
                    )
                    .expect("projection of a well-formed history is well-formed");
                    (o, sub)
                })
                .collect(),
        )
    }

    /// Interleaves per-object witnesses into a single sequence agreeing
    /// with the full history's real-time order; see
    /// [`engine::merge_by_order`] for the greedy argument. The k-th span
    /// of `H|o` is the k-th object-`o` span of `H`: projection preserves
    /// invocation order.
    fn merge_witnesses(&self, parts: Vec<(ObjectId, Vec<CalStep>)>) -> Vec<CalStep> {
        let mut by_object: HashMap<ObjectId, Vec<&Span>> = HashMap::new();
        for span in &self.spans {
            by_object.entry(span.object).or_default().push(span);
        }
        let queues: Vec<VecDeque<(CalStep, usize, usize)>> = parts
            .into_iter()
            .map(|(object, steps)| {
                let object_spans = by_object.get(&object).map(Vec::as_slice).unwrap_or(&[]);
                steps
                    .into_iter()
                    .map(|step| {
                        let maxinv =
                            step.subset.iter().map(|&k| object_spans[k].inv).max().unwrap_or(0);
                        let minresp = step
                            .subset
                            .iter()
                            .map(|&k| object_spans[k].resp.unwrap_or(usize::MAX))
                            .min()
                            .unwrap_or(usize::MAX);
                        (step, maxinv, minresp)
                    })
                    .collect()
            })
            .collect();
        engine::merge_by_order(queues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ids::{Method, ObjectId, ThreadId, Value};
    use crate::spec::PerObject;

    const E: ObjectId = ObjectId(0);
    const EX: Method = Method("exchange");

    /// An exchanger-shaped spec for one object, inlined to keep cal-core
    /// self-contained: elements are either a pair swapping values or a
    /// singleton failure.
    #[derive(Debug, Clone)]
    struct MiniExchanger(ObjectId);

    impl CaSpec for MiniExchanger {
        type State = ();

        fn initial(&self) {}

        fn step(&self, _: &(), e: &CaElement) -> Option<()> {
            if e.object() != self.0 {
                return None;
            }
            match e.ops() {
                [a] => {
                    let (ok, v) = a.ret.as_pair()?;
                    (!ok && Value::Int(v) == a.arg).then_some(())
                }
                [a, b] => {
                    let (oka, va) = a.ret.as_pair()?;
                    let (okb, vb) = b.ret.as_pair()?;
                    (oka && okb && a.arg == Value::Int(vb) && b.arg == Value::Int(va))
                        .then_some(())
                }
                _ => None,
            }
        }

        fn max_element_size(&self) -> usize {
            2
        }

        fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
            let v = inv.arg.as_int().unwrap_or(0);
            vec![Value::Pair(false, v)]
        }

        fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
            let mut out = self.completions_of(inv);
            // A successful exchange returns the partner's argument.
            out.extend(peers.iter().filter_map(|p| Some(Value::Pair(true, p.arg.as_int()?))));
            out
        }

        fn restrict(&self, object: ObjectId) -> Option<Self> {
            (object == self.0).then(|| self.clone())
        }
    }

    const EXCHANGER: MiniExchanger = MiniExchanger(E);

    fn inv(t: u32, v: i64) -> Action {
        inv_on(E, t, v)
    }

    fn res(t: u32, ok: bool, v: i64) -> Action {
        res_on(E, t, ok, v)
    }

    fn inv_on(o: ObjectId, t: u32, v: i64) -> Action {
        Action::invoke(ThreadId(t), o, EX, Value::Int(v))
    }

    fn res_on(o: ObjectId, t: u32, ok: bool, v: i64) -> Action {
        Action::response(ThreadId(t), o, EX, Value::Pair(ok, v))
    }

    fn threads_options(threads: usize) -> CheckOptions {
        CheckOptions { threads, ..CheckOptions::default() }
    }

    #[test]
    fn empty_history_is_cal() {
        assert!(is_cal(&History::new(), &EXCHANGER).unwrap());
    }

    #[test]
    fn concurrent_swap_is_cal() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let outcome = check_cal(&h, &EXCHANGER).unwrap();
        let witness = outcome.verdict.witness().unwrap().clone();
        assert_eq!(witness.len(), 1);
        assert_eq!(witness.elements()[0].len(), 2);
    }

    #[test]
    fn sequential_swap_is_not_cal() {
        // The §3 argument: non-overlapping operations cannot swap.
        let h = History::from_actions(vec![inv(1, 3), res(1, true, 4), inv(2, 4), res(2, true, 3)]);
        assert!(!is_cal(&h, &EXCHANGER).unwrap());
    }

    #[test]
    fn failed_exchange_is_cal() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3)]);
        assert!(is_cal(&h, &EXCHANGER).unwrap());
    }

    #[test]
    fn failure_returning_wrong_value_is_not_cal() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 9)]);
        assert!(!is_cal(&h, &EXCHANGER).unwrap());
    }

    #[test]
    fn lone_successful_exchange_is_not_cal() {
        // Fig. 3's H3 prefix: one thread cannot succeed alone.
        let h = History::from_actions(vec![inv(1, 3), res(1, true, 4)]);
        assert!(!is_cal(&h, &EXCHANGER).unwrap());
    }

    #[test]
    fn pending_invocation_may_be_dropped() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4)]);
        // t2's response is missing; completing it as (true,3) explains t1.
        // Even if it were dropped, t1 alone would fail — so the checker
        // must find the completion.
        assert!(is_cal(&h, &EXCHANGER).unwrap());
    }

    #[test]
    fn pending_invocation_dropped_when_unexplainable() {
        let h = History::from_actions(vec![inv(1, 3)]);
        assert!(is_cal(&h, &EXCHANGER).unwrap());
    }

    #[test]
    fn fig3_h1_is_cal() {
        let h = History::from_actions(vec![
            inv(1, 3),
            inv(2, 4),
            inv(3, 7),
            res(1, true, 4),
            res(2, true, 3),
            res(3, false, 7),
        ]);
        let outcome = check_cal(&h, &EXCHANGER).unwrap();
        assert!(outcome.verdict.is_cal());
        assert!(outcome.stats.nodes > 0);
    }

    #[test]
    fn mismatched_swap_values_not_cal() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 9), res(2, true, 3)]);
        assert!(!is_cal(&h, &EXCHANGER).unwrap());
    }

    #[test]
    fn three_way_swap_not_cal() {
        // a→b→c→a cyclic "swap" is not decomposable into legal elements.
        let h = History::from_actions(vec![
            inv(1, 1),
            inv(2, 2),
            inv(3, 3),
            res(1, true, 2),
            res(2, true, 3),
            res(3, true, 1),
        ]);
        assert!(!is_cal(&h, &EXCHANGER).unwrap());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let options = CheckOptions { max_nodes: 0, ..CheckOptions::default() };
        let outcome = check_cal_with(&h, &EXCHANGER, &options).unwrap();
        assert_eq!(outcome.verdict, Verdict::ResourcesExhausted);
    }

    #[test]
    fn ill_formed_history_is_an_error() {
        let h = History::from_actions(vec![res(1, false, 3)]);
        assert!(matches!(check_cal(&h, &EXCHANGER), Err(CheckError::IllFormed(_))));
    }

    #[test]
    fn witness_agrees_with_history() {
        let h = History::from_actions(vec![
            inv(1, 3),
            inv(2, 4),
            res(1, true, 4),
            res(2, true, 3),
            inv(3, 7),
            res(3, false, 7),
        ]);
        let outcome = check_cal(&h, &EXCHANGER).unwrap();
        let witness = outcome.verdict.witness().unwrap();
        assert!(crate::agree::agrees_bool(&h, witness));
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::<CaTrace>::NotCal.to_string(), "not CAL");
        assert!(Verdict::<CaTrace>::ResourcesExhausted.to_string().contains("budget"));
        let interrupted =
            Verdict::<CaTrace>::Interrupted { reason: InterruptReason::DeadlineExceeded };
        assert!(interrupted.to_string().contains("deadline"));
        assert!(interrupted.is_undecided());
        assert!(Verdict::<CaTrace>::ResourcesExhausted.is_undecided());
        assert!(!Verdict::<CaTrace>::NotCal.is_undecided());
    }

    /// A hard unsatisfiable workload: an odd number of identical
    /// concurrent exchanges, all claiming success. Only pairs are legal
    /// elements, so the (memoization-free) search backtracks over every
    /// pairing before concluding NotCal.
    fn hard_history(k: u32) -> History {
        let mut acts: Vec<Action> = (1..=k).map(|t| inv(t, 0)).collect();
        acts.extend((1..=k).map(|t| res(t, true, 0)));
        History::from_actions(acts)
    }

    fn unbounded_no_memo() -> CheckOptions {
        CheckOptions { max_nodes: u64::MAX, memoize: false, ..CheckOptions::default() }
    }

    #[test]
    fn zero_deadline_interrupts_search() {
        let options =
            CheckOptions { deadline: Some(std::time::Duration::ZERO), ..unbounded_no_memo() };
        let outcome = check_cal_with(&hard_history(13), &EXCHANGER, &options).unwrap();
        assert_eq!(
            outcome.verdict,
            Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded }
        );
        // Partial stats survive the interrupt.
        assert!(outcome.stats.nodes > 0 || outcome.stats.elements_tried > 0);
    }

    #[test]
    fn cancelled_token_interrupts_search() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            token.cancel();
            let options = CheckOptions { cancel: Some(token), threads, ..unbounded_no_memo() };
            let outcome = check_cal_with(&hard_history(13), &EXCHANGER, &options).unwrap();
            assert_eq!(
                outcome.verdict,
                Verdict::Interrupted { reason: InterruptReason::Cancelled },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn deadline_does_not_stop_a_decidable_check() {
        let options = CheckOptions::with_deadline(std::time::Duration::from_secs(60));
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let outcome = check_cal_with(&h, &EXCHANGER, &options).unwrap();
        assert!(outcome.verdict.is_cal());
    }

    #[test]
    fn panicking_spec_is_an_error_not_a_panic() {
        #[derive(Debug)]
        struct PanickySpec;
        impl CaSpec for PanickySpec {
            type State = ();
            fn initial(&self) {}
            fn step(&self, _: &(), _: &CaElement) -> Option<()> {
                panic!("spec bug: unreachable method")
            }
            fn completions_of(&self, _: &Invocation) -> Vec<Value> {
                vec![]
            }
        }
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3)]);
        match check_cal(&h, &PanickySpec) {
            Err(CheckError::SpecPanicked(msg)) => assert!(msg.contains("spec bug")),
            other => panic!("expected SpecPanicked, got {other:?}"),
        }
    }

    #[test]
    fn undecided_verdicts_are_errors_for_the_predicates() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let options = CheckOptions { max_nodes: 0, ..CheckOptions::default() };
        let verdict = check_cal_with(&h, &EXCHANGER, &options).unwrap().verdict;
        match verdict.decided() {
            Err(CheckError::Undecided(Verdict::ResourcesExhausted)) => {}
            other => panic!("expected Undecided, got {other:?}"),
        }
    }

    #[test]
    fn parallel_matches_sequential_on_swap() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        for threads in [1, 2, 8] {
            let outcome = check_cal_with(&h, &EXCHANGER, &threads_options(threads)).unwrap();
            assert!(outcome.verdict.is_cal(), "threads={threads}: {:?}", outcome.verdict);
            let witness = outcome.verdict.witness().unwrap();
            assert!(witness_explains(&h, &EXCHANGER, witness));
        }
    }

    #[test]
    fn parallel_refutes_hard_history() {
        let h = hard_history(7);
        for threads in [1, 2, 8] {
            let outcome = check_cal_with(&h, &EXCHANGER, &threads_options(threads)).unwrap();
            assert_eq!(outcome.verdict, Verdict::NotCal, "threads={threads}");
            assert!(outcome.stats.nodes > 0);
        }
    }

    /// Two independent exchangers, each swapping once; `b_after_a` makes
    /// object b's swap start only after object a's completes.
    fn two_swaps(b_after_a: bool) -> History {
        let (a, b) = (ObjectId(0), ObjectId(1));
        let (t3, t4) = if b_after_a { (3, 4) } else { (1, 2) };
        History::from_actions(vec![
            inv_on(a, 1, 3),
            inv_on(a, 2, 4),
            res_on(a, 1, true, 4),
            res_on(a, 2, true, 3),
            inv_on(b, t3, 5),
            inv_on(b, t4, 6),
            res_on(b, t3, true, 6),
            res_on(b, t4, true, 5),
        ])
    }

    fn two_exchangers() -> PerObject<MiniExchanger> {
        let (a, b) = (ObjectId(0), ObjectId(1));
        PerObject::new(vec![(a, MiniExchanger(a)), (b, MiniExchanger(b))])
    }

    #[test]
    fn decomposition_checks_objects_independently() {
        let h = two_swaps(false);
        let spec = two_exchangers();
        let outcome = check_cal_with(&h, &spec, &threads_options(4)).unwrap();
        assert!(outcome.verdict.is_cal(), "{:?}", outcome.verdict);
        let witness = outcome.verdict.witness().unwrap();
        assert_eq!(witness.len(), 2);
        assert!(witness_explains(&h, &spec, witness));
    }

    #[test]
    fn decomposition_respects_cross_object_real_time_order() {
        // Object a's swap completes strictly before object b's begins: the
        // merged witness must put a's element first.
        let h = two_swaps(true);
        let spec = two_exchangers();
        let outcome = check_cal_with(&h, &spec, &threads_options(2)).unwrap();
        let witness = outcome.verdict.witness().expect("CAL");
        assert_eq!(witness.elements()[0].object(), ObjectId(0));
        assert_eq!(witness.elements()[1].object(), ObjectId(1));
        assert!(witness_explains(&h, &spec, witness));
    }

    #[test]
    fn decomposition_finds_the_bad_object() {
        // Object a fine; object b's swap is sequential (not CAL).
        let (a, b) = (ObjectId(0), ObjectId(1));
        let h = History::from_actions(vec![
            inv_on(a, 1, 3),
            inv_on(a, 2, 4),
            res_on(a, 1, true, 4),
            res_on(a, 2, true, 3),
            inv_on(b, 1, 5),
            res_on(b, 1, true, 6),
            inv_on(b, 2, 6),
            res_on(b, 2, true, 5),
        ]);
        for threads in [1, 4] {
            let outcome = check_cal_with(&h, &two_exchangers(), &threads_options(threads)).unwrap();
            assert_eq!(outcome.verdict, Verdict::NotCal, "threads={threads}");
        }
    }

    #[test]
    fn multi_object_falls_back_without_restrict() {
        /// A spec that refuses to restrict: forces whole-history search.
        #[derive(Debug)]
        struct Coupled(MiniExchanger, MiniExchanger);
        impl CaSpec for Coupled {
            type State = ();
            fn initial(&self) {}
            fn step(&self, _: &(), e: &CaElement) -> Option<()> {
                self.0.step(&(), e).or_else(|| self.1.step(&(), e))
            }
            fn max_element_size(&self) -> usize {
                2
            }
            fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
                self.0.completions_of(inv)
            }
            fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
                self.0.completions_among(inv, peers)
            }
        }
        let spec = Coupled(MiniExchanger(ObjectId(0)), MiniExchanger(ObjectId(1)));
        let outcome = check_cal_with(&two_swaps(false), &spec, &threads_options(4)).unwrap();
        assert!(outcome.verdict.is_cal(), "{:?}", outcome.verdict);
    }

    #[test]
    fn shared_budget_is_global() {
        let options = CheckOptions { max_nodes: 3, threads: 4, ..CheckOptions::default() };
        let outcome = check_cal_with(&hard_history(9), &EXCHANGER, &options).unwrap();
        assert_eq!(outcome.verdict, Verdict::ResourcesExhausted);
    }

    #[test]
    fn empty_and_pending_only_histories_are_cal_in_parallel() {
        let options = threads_options(4);
        assert!(check_cal_with(&History::new(), &EXCHANGER, &options).unwrap().verdict.is_cal());
        let pending = History::from_actions(vec![inv(1, 3)]);
        assert!(check_cal_with(&pending, &EXCHANGER, &options).unwrap().verdict.is_cal());
    }
}
