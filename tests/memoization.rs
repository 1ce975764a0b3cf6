//! Memoization behaviour of all three checkers, sequential and parallel:
//! the failed-state memo table must actually fire on backtracking-heavy
//! histories, turning it off must never change a verdict, and the
//! [`CountingSink`] must account for every probe — hits plus misses
//! equal charged nodes, with inserts bounded by misses.

use std::sync::Arc;

use cal::core::check::{check_cal_with, CheckOptions, Verdict};
use cal::core::interval::check_interval_with;
use cal::core::obs::{CountingSink, StatsSink};
use cal::core::seqlin::check_linearizable_with;
use cal::core::{Action, History, Method, ObjectId, ThreadId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::register::{read_op, write_op, RegisterSpec};
use cal::specs::snapshot::{view, write_snapshot_op, WriteSnapshotSpec};

const O: ObjectId = ObjectId(0);

/// `k` pairwise-concurrent identical successful exchanges. For odd `k`
/// one operation is always left unmatched, so every maximal matching
/// fails and the DFS revisits the same residue states exponentially
/// often — the adversarial case the memo table exists for.
fn hard_history(k: u32) -> History {
    let mut actions = Vec::new();
    for t in 0..k {
        actions.push(Action::invoke(ThreadId(t), O, Method("exchange"), Value::Int(1)));
    }
    for t in 0..k {
        actions.push(Action::response(ThreadId(t), O, Method("exchange"), Value::Pair(true, 1)));
    }
    History::from_actions(actions)
}

#[test]
fn memo_fires_on_backtracking_heavy_history() {
    let h = hard_history(7);
    let spec = ExchangerSpec::new(O);
    let out = check_cal_with(&h, &spec, &CheckOptions::default()).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert!(
        out.stats.memo_hits > 0,
        "expected memo hits on the adversarial history, stats: {:?}",
        out.stats
    );
}

#[test]
fn memo_fires_in_the_parallel_checker_too() {
    let h = hard_history(7);
    let spec = ExchangerSpec::new(O);
    let options = CheckOptions { threads: 4, ..CheckOptions::default() };
    let out = check_cal_with(&h, &spec, &options).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert!(
        out.stats.memo_hits > 0,
        "expected shared-memo hits across workers, stats: {:?}",
        out.stats
    );
}

#[test]
fn disabling_memoization_never_changes_the_verdict() {
    let spec = ExchangerSpec::new(O);
    for k in [1u32, 2, 3, 5, 7] {
        let h = hard_history(k);
        let on = CheckOptions::default();
        let off = CheckOptions { memoize: false, ..CheckOptions::default() };
        let with_memo = check_cal_with(&h, &spec, &on).unwrap();
        let without = check_cal_with(&h, &spec, &off).unwrap();
        assert_eq!(
            matches!(with_memo.verdict, Verdict::Cal(_)),
            matches!(without.verdict, Verdict::Cal(_)),
            "k={k}: memoize on/off diverged sequentially"
        );
        for threads in [2usize, 8] {
            let par_on = CheckOptions { threads, ..CheckOptions::default() };
            let par_off = CheckOptions { threads, memoize: false, ..CheckOptions::default() };
            let p_with = check_cal_with(&h, &spec, &par_on).unwrap();
            let p_without = check_cal_with(&h, &spec, &par_off).unwrap();
            assert_eq!(
                matches!(with_memo.verdict, Verdict::Cal(_)),
                matches!(p_with.verdict, Verdict::Cal(_)),
                "k={k}, threads={threads}: parallel verdict diverged from sequential"
            );
            assert_eq!(
                matches!(p_with.verdict, Verdict::Cal(_)),
                matches!(p_without.verdict, Verdict::Cal(_)),
                "k={k}, threads={threads}: memoize on/off diverged in parallel"
            );
        }
    }
}

/// `k` pairwise-concurrent writes of distinct values plus one concurrent
/// read of a never-written value: unsatisfiable, and distinct orders of
/// the same write set converge on the same `(matched, value)` residue
/// whenever their final writes agree — memo fodder for the seqlin
/// domain.
fn hard_seq_history(k: usize) -> History {
    let writes: Vec<_> = (0..k).map(|i| write_op(O, ThreadId(i as u32), i as i64)).collect();
    let read = read_op(O, ThreadId(k as u32), 99);
    let mut actions = Vec::new();
    actions.extend(writes.iter().map(|op| op.invocation()));
    actions.push(read.invocation());
    actions.extend(writes.iter().map(|op| op.response()));
    actions.push(read.response());
    History::from_actions(actions)
}

/// `k` pairwise-concurrent `write_snapshot(i) ▷ {i}` calls: at most one
/// can close with a singleton view, so `k ≥ 2` is unsatisfiable and the
/// interval point search revisits shared `(done, open, state)` residues.
fn hard_interval_history(k: usize) -> History {
    let ops: Vec<_> = (0..k)
        .map(|i| write_snapshot_op(O, ThreadId(i as u32), i as i64, view(&[i as i64])))
        .collect();
    let mut actions = Vec::new();
    actions.extend(ops.iter().map(|op| op.invocation()));
    actions.extend(ops.iter().map(|op| op.response()));
    History::from_actions(actions)
}

/// Runs a sequential memoized check with a [`CountingSink`] attached and
/// asserts the memo accounting invariants shared by every domain on the
/// engine: the memo actually fired, every charged node was probed
/// exactly once (hits + misses = nodes), and inserts happened but never
/// outnumbered misses (only a missed state can be newly refuted).
fn assert_memo_accounting(sink: &CountingSink, nodes: u64, what: &str) {
    assert!(sink.memo_hits() > 0, "{what}: expected memo hits, got none");
    assert!(sink.memo_inserts() > 0, "{what}: expected memo inserts, got none");
    assert_eq!(
        sink.memo_hits() + sink.memo_misses(),
        nodes,
        "{what}: every charged node must be probed exactly once"
    );
    assert!(
        sink.memo_inserts() <= sink.memo_misses(),
        "{what}: inserts ({}) cannot exceed misses ({})",
        sink.memo_inserts(),
        sink.memo_misses()
    );
}

#[test]
fn memo_fires_in_the_seqlin_checker() {
    let h = hard_seq_history(6);
    let spec = RegisterSpec::new(O);
    let sink = Arc::new(CountingSink::new());
    let options = CheckOptions {
        sink: Some(Arc::clone(&sink) as Arc<dyn StatsSink>),
        ..CheckOptions::default()
    };
    let out = check_linearizable_with(&h, &spec, &options).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert_memo_accounting(&sink, out.stats.nodes, "seqlin");
    assert_eq!(sink.memo_hits(), out.stats.memo_hits, "sink and stats must agree");

    let off = CheckOptions { memoize: false, ..CheckOptions::default() };
    let without = check_linearizable_with(&h, &spec, &off).unwrap();
    assert!(matches!(without.verdict, Verdict::NotCal), "memoize off changed the verdict");
    assert!(
        out.stats.nodes < without.stats.nodes,
        "seqlin memo saved nothing: {} vs {} nodes",
        out.stats.nodes,
        without.stats.nodes
    );
}

#[test]
fn memo_fires_in_the_interval_checker() {
    let h = hard_interval_history(6);
    let spec = WriteSnapshotSpec::new(O, 3);
    let sink = Arc::new(CountingSink::new());
    let options = CheckOptions {
        sink: Some(Arc::clone(&sink) as Arc<dyn StatsSink>),
        ..CheckOptions::default()
    };
    let out = check_interval_with(&h, &spec, &options).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert_memo_accounting(&sink, out.stats.nodes, "interval");
    assert_eq!(sink.memo_hits(), out.stats.memo_hits, "sink and stats must agree");

    let off = CheckOptions { memoize: false, ..CheckOptions::default() };
    let without = check_interval_with(&h, &spec, &off).unwrap();
    assert!(matches!(without.verdict, Verdict::NotCal), "memoize off changed the verdict");
    assert!(
        out.stats.nodes < without.stats.nodes,
        "interval memo saved nothing: {} vs {} nodes",
        out.stats.nodes,
        without.stats.nodes
    );
}

#[test]
fn cal_memo_accounting_with_counting_sink() {
    // The original CAL family through the same accounting lens. Symmetry
    // is left on (the default): canonicalized keys must still satisfy
    // one-probe-per-node exactly.
    let h = hard_history(7);
    let spec = ExchangerSpec::new(O);
    let sink = Arc::new(CountingSink::new());
    let options = CheckOptions {
        sink: Some(Arc::clone(&sink) as Arc<dyn StatsSink>),
        ..CheckOptions::default()
    };
    let out = check_cal_with(&h, &spec, &options).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert_memo_accounting(&sink, out.stats.nodes, "cal");
}

#[test]
fn memoization_saves_work() {
    // Not a performance test per se, but the memo table should strictly
    // reduce explored nodes on the adversarial history.
    let h = hard_history(7);
    let spec = ExchangerSpec::new(O);
    let on = check_cal_with(&h, &spec, &CheckOptions::default()).unwrap();
    let off_options = CheckOptions { memoize: false, ..CheckOptions::default() };
    let off = check_cal_with(&h, &spec, &off_options).unwrap();
    assert!(
        on.stats.nodes < off.stats.nodes,
        "memoized search explored {} nodes, unmemoized {}",
        on.stats.nodes,
        off.stats.nodes
    );
}
