//! Classical linearizability checking (Herlihy & Wing), as the baseline the
//! paper generalizes.
//!
//! Linearizability is the special case of CAL in which every CA-element is
//! a singleton, so [`check_linearizable`] runs the CAL search of
//! [`crate::check`] over the specification embedded as [`SeqAsCa`]. With
//! elements capped at one operation that search is the Wing–Gong search
//! with Lowe-style memoization of failed `(matched-set, spec-state)` pairs:
//! repeatedly pick a `≺H`-minimal operation, apply it to the sequential
//! specification, and backtrack on failure. Pending invocations may be
//! completed with spec-proposed return values or dropped. Node budgets,
//! deadlines, cancellation, memoization, symmetry reduction,
//! [`crate::obs::StatsSink`] observability and the parallel driver
//! (per-object decomposition through [`SeqSpec::restrict`]) come with it.

use crate::check::check_cal_with;
use crate::engine::SpecRef;
use crate::history::History;
use crate::ids::{ObjectId, Value};
use crate::op::Operation;
use crate::spec::{Invocation, SeqAsCa, SeqSpec};

pub use crate::engine::{CheckError, CheckOptions, CheckOutcome, Verdict};

/// Decides whether `history` is linearizable with respect to the sequential
/// specification `spec`, with default options.
///
/// On success the verdict carries the linearization as a [`crate::CaTrace`]
/// of singleton elements (a sequential history in trace form).
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed.
///
/// # Examples
///
/// ```
/// # use cal_core::{seqlin, Action, History, Method, ObjectId, Operation, ThreadId, Value};
/// # use cal_core::spec::{Invocation, SeqSpec};
/// #[derive(Debug)]
/// struct AnyOp;
/// impl SeqSpec for AnyOp {
///     type State = ();
///     fn initial(&self) {}
///     fn apply(&self, _: &(), _: &Operation) -> Option<()> { Some(()) }
///     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
/// }
/// let o = ObjectId(0);
/// let m = Method("noop");
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(0), o, m, Value::Unit),
///     Action::response(ThreadId(0), o, m, Value::Unit),
/// ]);
/// assert!(seqlin::check_linearizable(&h, &AnyOp)?.verdict.is_cal());
/// # Ok::<(), cal_core::check::CheckError>(())
/// ```
pub fn check_linearizable<S: SeqSpec>(
    history: &History,
    spec: &S,
) -> Result<CheckOutcome, CheckError> {
    check_linearizable_with(history, spec, &CheckOptions::default())
}

/// Like [`check_linearizable`], with explicit [`CheckOptions`]: CAL over
/// [`SeqAsCa`], so [`CheckOptions::threads`] picks the driver exactly as
/// for [`check_cal_with`], and above one thread a spec whose
/// [`SeqSpec::restrict`] covers every object is checked object by object.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed
/// and [`CheckError::SpecPanicked`] if the specification panics.
pub fn check_linearizable_with<S: SeqSpec>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError> {
    check_cal_with(history, &SeqAsCa::new(SpecRef::Borrowed(spec)), options)
}

/// Convenience predicate: `Ok(true)` iff the history is linearizable
/// w.r.t. `spec`.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] for ill-formed histories,
/// [`CheckError::SpecPanicked`] when the spec panics, and
/// [`CheckError::Undecided`] when the default node budget runs out before
/// the search decides.
pub fn is_linearizable<S: SeqSpec>(history: &History, spec: &S) -> Result<bool, CheckError> {
    check_linearizable(history, spec)?.verdict.decided()
}

/// The caller's specification, borrowed, is a sequential specification
/// too, so [`check_linearizable_with`] can embed it in [`SeqAsCa`] without
/// cloning it; restriction yields owned per-object specifications for the
/// parallel driver.
impl<S: SeqSpec> SeqSpec for SpecRef<'_, S> {
    type State = S::State;

    fn initial(&self) -> S::State {
        self.get().initial()
    }

    fn apply(&self, state: &S::State, op: &Operation) -> Option<S::State> {
        self.get().apply(state, op)
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        self.get().completions_of(inv)
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        self.get().restrict(object).map(SpecRef::Owned)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::action::Action;
    use crate::ids::{Method, ThreadId};

    const R: ObjectId = ObjectId(0);
    const WRITE: Method = Method("write");
    const READ: Method = Method("read");

    /// One sequential register per object: `read` returns the object's
    /// last written value (initially 0). Objects are independent, so
    /// [`SeqSpec::restrict`] may hand out the whole spec for any object.
    #[derive(Debug, Clone)]
    struct Register;

    impl SeqSpec for Register {
        type State = BTreeMap<ObjectId, i64>;

        fn initial(&self) -> Self::State {
            BTreeMap::new()
        }

        fn apply(&self, state: &Self::State, op: &Operation) -> Option<Self::State> {
            let current = state.get(&op.object).copied().unwrap_or(0);
            match op.method {
                WRITE => {
                    if op.ret != Value::Unit {
                        return None;
                    }
                    let mut next = state.clone();
                    next.insert(op.object, op.arg.as_int()?);
                    Some(next)
                }
                READ => (op.ret == Value::Int(current)).then(|| state.clone()),
                _ => None,
            }
        }

        fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
            match inv.method {
                WRITE => vec![Value::Unit],
                READ => (0..8).map(Value::Int).collect(),
                _ => vec![],
            }
        }

        fn restrict(&self, _: ObjectId) -> Option<Self> {
            Some(self.clone())
        }
    }

    fn w(t: u32, v: i64) -> [Action; 2] {
        [
            Action::invoke(ThreadId(t), R, WRITE, Value::Int(v)),
            Action::response(ThreadId(t), R, WRITE, Value::Unit),
        ]
    }

    fn r(t: u32, v: i64) -> [Action; 2] {
        [
            Action::invoke(ThreadId(t), R, READ, Value::Unit),
            Action::response(ThreadId(t), R, READ, Value::Int(v)),
        ]
    }

    #[test]
    fn sequential_register_history_linearizable() {
        let mut acts = Vec::new();
        acts.extend(w(1, 5));
        acts.extend(r(2, 5));
        let h = History::from_actions(acts);
        assert!(is_linearizable(&h, &Register).unwrap());
    }

    #[test]
    fn stale_read_after_write_not_linearizable() {
        let mut acts = Vec::new();
        acts.extend(w(1, 5));
        acts.extend(r(2, 0)); // reads initial value after the write completed
        let h = History::from_actions(acts);
        assert!(!is_linearizable(&h, &Register).unwrap());
    }

    #[test]
    fn concurrent_write_read_may_return_old_or_new() {
        // write(5) overlaps read: both 0 and 5 are legal.
        for ret in [0, 5] {
            let h = History::from_actions(vec![
                Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
                Action::invoke(ThreadId(2), R, READ, Value::Unit),
                Action::response(ThreadId(1), R, WRITE, Value::Unit),
                Action::response(ThreadId(2), R, READ, Value::Int(ret)),
            ]);
            assert!(is_linearizable(&h, &Register).unwrap(), "read of {ret} should linearize");
        }
        let h = History::from_actions(vec![
            Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
            Action::invoke(ThreadId(2), R, READ, Value::Unit),
            Action::response(ThreadId(1), R, WRITE, Value::Unit),
            Action::response(ThreadId(2), R, READ, Value::Int(3)),
        ]);
        assert!(!is_linearizable(&h, &Register).unwrap());
    }

    #[test]
    fn pending_write_may_take_effect_or_not() {
        // write(5) never responds; a later read may still see it (the
        // completion adds the response) or see 0 (the invocation dropped).
        for ret in [0, 5] {
            let h = History::from_actions(vec![
                Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
                Action::invoke(ThreadId(2), R, READ, Value::Unit),
                Action::response(ThreadId(2), R, READ, Value::Int(ret)),
            ]);
            assert!(is_linearizable(&h, &Register).unwrap(), "pending write, read {ret}");
        }
    }

    #[test]
    fn witness_is_sequential_trace() {
        let mut acts = Vec::new();
        acts.extend(w(1, 5));
        acts.extend(r(2, 5));
        let h = History::from_actions(acts);
        let outcome = check_linearizable(&h, &Register).unwrap();
        let witness = outcome.verdict.witness().unwrap();
        assert_eq!(witness.len(), 2);
        assert!(witness.elements().iter().all(|e| e.len() == 1));
    }

    #[test]
    fn agrees_with_ca_checker_on_singleton_spec() {
        // Cross-validation: linearizability == CAL with SeqAsCa.
        let histories = vec![
            {
                let mut acts = Vec::new();
                acts.extend(w(1, 5));
                acts.extend(r(2, 5));
                acts
            },
            {
                let mut acts = Vec::new();
                acts.extend(w(1, 5));
                acts.extend(r(2, 0));
                acts
            },
            vec![
                Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
                Action::invoke(ThreadId(2), R, READ, Value::Unit),
                Action::response(ThreadId(1), R, WRITE, Value::Unit),
                Action::response(ThreadId(2), R, READ, Value::Int(5)),
            ],
        ];
        let ca = SeqAsCa::new(Register);
        for acts in histories {
            let h = History::from_actions(acts);
            let lin = is_linearizable(&h, &Register).unwrap();
            let cal = crate::check::is_cal(&h, &ca).unwrap();
            assert_eq!(lin, cal, "checkers disagree on {h}");
        }
    }

    #[test]
    fn parallel_matches_sequential_across_objects() {
        // Two registers; object o1's write/read pair is independent of R's.
        let o1 = ObjectId(1);
        let h = History::from_actions(vec![
            Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
            Action::response(ThreadId(1), R, WRITE, Value::Unit),
            Action::invoke(ThreadId(2), o1, WRITE, Value::Int(7)),
            Action::response(ThreadId(2), o1, WRITE, Value::Unit),
            Action::invoke(ThreadId(1), R, READ, Value::Unit),
            Action::response(ThreadId(1), R, READ, Value::Int(5)),
            Action::invoke(ThreadId(2), o1, READ, Value::Unit),
            Action::response(ThreadId(2), o1, READ, Value::Int(7)),
        ]);
        for threads in [1, 2, 4] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = check_linearizable_with(&h, &Register, &options).unwrap();
            assert!(outcome.verdict.is_cal(), "threads={threads}: {:?}", outcome.verdict);
            let witness = outcome.verdict.witness().unwrap();
            assert_eq!(witness.len(), 4, "threads={threads}");
            assert!(witness.elements().iter().all(|e| e.len() == 1));
        }
    }

    #[test]
    fn ill_formed_history_is_an_error() {
        let h = History::from_actions(vec![Action::response(ThreadId(1), R, READ, Value::Int(0))]);
        assert!(check_linearizable(&h, &Register).is_err());
    }
}
