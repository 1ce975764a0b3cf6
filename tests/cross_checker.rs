//! Cross-checker differential suite: on singleton-only (sequential)
//! specifications, all three checkers are deciding the *same* property —
//! classical linearizability. CAL with every operation lifted to a
//! singleton element ([`SeqAsCa`]) and interval-linearizability with
//! every interval confined to one point ([`SeqAsInterval`]) both collapse
//! to it. Since the three checkers are now thin domains over one search
//! kernel, this suite asserts they agree verdict-for-verdict, sequentially
//! and through the shared parallel driver at several thread counts.

use cal::core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, Verdict};
use cal::core::gen::interleave;
use cal::core::interval::{check_interval_with, SeqAsInterval};
use cal::core::seqlin::check_linearizable_with;
use cal::core::spec::{SeqAsCa, SeqSpec};
use cal::core::{Action, History, Method, ObjectId, ThreadId, Value};
use cal::specs::register::{read_op, write_op, CounterSpec, RegisterSpec};
use cal::specs::stack::StackSpec;
use proptest::prelude::*;

const O: ObjectId = ObjectId(0);

/// One generated operation: method, argument, return value, and whether
/// the response is recorded (the last op of a thread may stay pending).
type OpShape = (Method, Value, Value, bool);

fn arb_register_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("write"), Value::Int(v), Value::Unit, c)),
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("read"), Value::Unit, Value::Int(v), c)),
    ]
    .boxed()
}

fn arb_counter_op() -> BoxedStrategy<OpShape> {
    (0i64..4, any::<bool>())
        .prop_map(|(n, c)| (Method("inc"), Value::Unit, Value::Int(n), c))
        .boxed()
}

fn arb_stack_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (Method("push"), Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>())
            .prop_map(|(ok, v, c)| (Method("pop"), Value::Unit, Value::Pair(ok, v), c)),
    ]
    .boxed()
}

/// Builds a history: up to 3 threads × up to 3 ops on one object,
/// interleaved by seed.
fn build_history(threads: Vec<Vec<OpShape>>, seed: u64) -> History {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let lists: Vec<Vec<Action>> = threads
        .into_iter()
        .enumerate()
        .map(|(t, ops)| {
            let mut out = Vec::new();
            let n = ops.len();
            for (i, (m, arg, ret, complete)) in ops.into_iter().enumerate() {
                out.push(Action::invoke(ThreadId(t as u32), O, m, arg));
                // Only the final op of a thread may stay pending.
                if complete || i + 1 < n {
                    out.push(Action::response(ThreadId(t as u32), O, m, ret));
                }
            }
            out
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    interleave(&lists, &mut rng)
}

fn history_of(op: impl Strategy<Value = OpShape>) -> impl Strategy<Value = History> {
    (prop::collection::vec(prop::collection::vec(op, 0..4), 1..4), any::<u64>())
        .prop_map(|(threads, seed)| build_history(threads, seed))
}

/// The bucket of a check result, ignoring the witness payload — the unit
/// of cross-checker agreement.
fn category<W>(r: &Result<CheckOutcome<W>, CheckError>) -> String {
    match r {
        Ok(o) => match &o.verdict {
            Verdict::Cal(_) => "accepted".into(),
            Verdict::NotCal => "rejected".into(),
            Verdict::ResourcesExhausted => "exhausted".into(),
            Verdict::Interrupted { reason } => format!("interrupted({reason:?})"),
        },
        Err(e) => format!("error({e:?})"),
    }
}

/// The oracle: the CAL checker (singleton elements), the seqlin checker
/// and the interval checker (singleton intervals) return the same verdict
/// on `h`, sequentially and via the shared parallel driver at 1, 2 and 4
/// threads.
fn assert_cross_agreement<S>(h: &History, spec: &S)
where
    S: SeqSpec + Clone,
{
    let options = CheckOptions::default();
    let cal = category(&check_cal_with(h, &SeqAsCa::new(spec.clone()), &options));
    let seq = category(&check_linearizable_with(h, spec, &options));
    let interval = category(&check_interval_with(h, &SeqAsInterval::new(spec.clone()), &options));
    assert_eq!(cal, seq, "CAL vs seqlin disagree\nhistory:\n{h}");
    assert_eq!(cal, interval, "CAL vs interval disagree\nhistory:\n{h}");
    for threads in [1usize, 2, 4] {
        let par = CheckOptions { threads, ..CheckOptions::default() };
        let pcal = category(&check_cal_with(h, &SeqAsCa::new(spec.clone()), &par));
        let pseq = category(&check_linearizable_with(h, spec, &par));
        let pinterval =
            category(&check_interval_with(h, &SeqAsInterval::new(spec.clone()), &par));
        assert_eq!(cal, pcal, "threads={threads}: parallel CAL diverged\nhistory:\n{h}");
        assert_eq!(cal, pseq, "threads={threads}: parallel seqlin diverged\nhistory:\n{h}");
        assert_eq!(
            cal, pinterval,
            "threads={threads}: parallel interval diverged\nhistory:\n{h}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn register_checkers_agree(h in history_of(arb_register_op())) {
        let spec = RegisterSpec::new(O).with_read_universe(vec![0, 1, 2]);
        assert_cross_agreement(&h, &spec);
    }

    #[test]
    fn counter_checkers_agree(h in history_of(arb_counter_op())) {
        assert_cross_agreement(&h, &CounterSpec::new(O));
    }

    #[test]
    fn stack_checkers_agree(h in history_of(arb_stack_op())) {
        assert_cross_agreement(&h, &StackSpec::failing(O));
    }
}

/// A handful of fixed histories with known verdicts, so the agreement
/// suite cannot vacuously pass on generator quirks.
#[test]
fn fixed_register_histories_agree_with_known_verdicts() {
    let spec = RegisterSpec::new(O);
    // Accepted: write 5 then read 5.
    let w = write_op(O, ThreadId(1), 5);
    let r = read_op(O, ThreadId(2), 5);
    let good =
        History::from_actions(vec![w.invocation(), w.response(), r.invocation(), r.response()]);
    // Rejected: the read returns a stale value after the write completed.
    let stale = read_op(O, ThreadId(2), 0);
    let bad = History::from_actions(vec![
        w.invocation(),
        w.response(),
        stale.invocation(),
        stale.response(),
    ]);
    let options = CheckOptions::default();
    assert!(check_linearizable_with(&good, &spec, &options).unwrap().verdict.is_cal());
    assert!(!check_linearizable_with(&bad, &spec, &options).unwrap().verdict.is_cal());
    assert_cross_agreement(&good, &spec);
    assert_cross_agreement(&bad, &spec);
}
