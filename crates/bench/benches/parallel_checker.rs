//! Sequential vs. parallel CAL checking wall-clock — the experiment
//! behind the `--threads` flag. Three series:
//!
//! - **decompose/refute-last** (headline): K stack objects where the
//!   single buggy one is checked *last* by a sequential decomposed
//!   checker. Each healthy object carries an adversarial-but-CAL
//!   history (concurrent pushes, then sequential FIFO-order pops, so
//!   the only consistent linearization is the *last* push permutation
//!   the DFS reaches); the sequential arm pays that search for every
//!   healthy object before finding the refutation. The parallel arm
//!   checks all subhistories concurrently: the worker on the buggy
//!   object refutes it almost immediately and cancels the rest. The
//!   advantage is algorithmic (refutation latency is bounded by the
//!   cheapest counterexample, not iteration order), so it survives even
//!   a single-core host where threads only time-slice.
//! - **decompose/all-cal**: K healthy objects, total throughput. This
//!   one needs real cores to win; the JSON records the host's
//!   parallelism so a 1-core container's ~1x is interpretable.
//! - **frontier/hard**: one object, the adversarial odd-k
//!   identical-exchange history. Root-frontier splitting with a shared
//!   memo table; reported honestly — shared-memo overlap means it scales
//!   far less than decomposition.
//! - **seqlin/frontier-stack-8**: the classical linearizability checker
//!   on the adversarial single-object stack history, sequential vs.
//!   frontier-split parallel. Exists because seqlin now runs on the same
//!   search kernel as CAL; same honest caveat as frontier/hard.
//! - **interval/disjoint-views**: the interval checker refuting k
//!   pairwise-concurrent `write_snapshot(i) ▷ {i}` calls (at most one op
//!   can close with a singleton view, so k ≥ 2 is unsatisfiable).
//! - **stream/replay-throughput**: the streaming checker replaying a
//!   long concurrent exchange stream through a 64-entry window at
//!   verdict parity with the batch checker; its stats column records
//!   events/sec and the retirement counters.
//!
//! Writes `BENCH_checker.json` at the workspace root.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cal_core::check::{check_cal_with, CheckOptions, CheckOutcome, Verdict};
use cal_core::gen::render_loose;
use cal_core::interval::check_interval_with;
use cal_core::obs::{CountingSink, StatsSink};
use cal_core::seqlin::check_linearizable_with;
use cal_core::spec::{CaSpec, PerObject, SeqAsCa};
use cal_core::{Action, History, ObjectId, ThreadId, Value};
use cal_specs::exchanger::ExchangerSpec;
use cal_specs::snapshot::{view, write_snapshot_op, WriteSnapshotSpec};
use cal_specs::stack::StackSpec;
use cal_specs::gen::random_exchanger_trace;
use cal_specs::vocab::{EXCHANGE, POP, PUSH};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: usize = 4;
const OBJECTS: u32 = 4;
const SAMPLES: usize = 5;

/// Median wall-clock of `SAMPLES` runs of `f`.
fn measure<F: FnMut()>(mut f: F) -> Duration {
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[SAMPLES / 2]
}

/// A loosened random exchanger history on `object` (CAL by construction).
fn healthy_block(seed: u64, object: ObjectId, elements: usize, moves: usize) -> Vec<Action> {
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = random_exchanger_trace(&mut rng, object, 4, elements);
    render_loose(&trace, &mut rng, moves).actions().to_vec()
}

/// An adversarial-but-CAL stack block: `k` pairwise-concurrent pushes
/// followed by `k` *sequential* pops in FIFO order. The only stack
/// linearization popping 1, 2, ..., k is pushing k, ..., 2, 1 — the
/// last push permutation the DFS enumerates — so the witness search
/// explores nearly the whole permutation tree before succeeding.
fn hard_cal_stack_block(object: ObjectId, base: u32, k: i64) -> Vec<Action> {
    let mut a = Vec::new();
    for i in 1..=k {
        a.push(Action::invoke(ThreadId(base + i as u32), object, PUSH, Value::Int(i)));
    }
    for i in 1..=k {
        a.push(Action::response(ThreadId(base + i as u32), object, PUSH, Value::Bool(true)));
    }
    for i in 1..=k {
        a.push(Action::invoke(ThreadId(base + i as u32), object, POP, Value::Unit));
        a.push(Action::response(ThreadId(base + i as u32), object, POP, Value::Pair(true, i)));
    }
    a
}

/// A tiny refutable stack block: pop returns a value never pushed.
fn buggy_stack_block(object: ObjectId, t: u32) -> Vec<Action> {
    vec![
        Action::invoke(ThreadId(t), object, PUSH, Value::Int(1)),
        Action::response(ThreadId(t), object, PUSH, Value::Bool(true)),
        Action::invoke(ThreadId(t), object, POP, Value::Unit),
        Action::response(ThreadId(t), object, POP, Value::Pair(true, 2)),
    ]
}

/// `objects` sequential exchanger blocks on distinct objects.
fn multi_object_history(seed: u64, objects: u32, elements: usize, moves: usize) -> History {
    let mut actions = Vec::new();
    for o in 0..objects {
        actions.extend(healthy_block(
            seed ^ (o as u64).wrapping_mul(0x9E37_79B9),
            ObjectId(o),
            elements,
            moves,
        ));
    }
    History::from_actions(actions)
}

/// `objects` stack blocks: all adversarial-but-CAL except the last,
/// which is the tiny refutable one.
fn refute_last_history(objects: u32, k: i64) -> History {
    let mut actions = Vec::new();
    for o in 0..objects {
        let id = ObjectId(o);
        if o == objects - 1 {
            actions.extend(buggy_stack_block(id, 200));
        } else {
            actions.extend(hard_cal_stack_block(id, o * 32, k));
        }
    }
    History::from_actions(actions)
}

/// The adversarial frontier history: `k` pairwise-concurrent identical
/// exchanges; odd `k` leaves one op unmatched, so refutation must
/// exhaust the matching space.
fn hard_frontier_history(k: u32) -> History {
    let mut actions = Vec::new();
    for t in 0..k {
        actions.push(Action::invoke(ThreadId(t), ObjectId(0), EXCHANGE, Value::Int(1)));
    }
    for t in 0..k {
        actions.push(Action::response(ThreadId(t), ObjectId(0), EXCHANGE, Value::Pair(true, 1)));
    }
    History::from_actions(actions)
}

fn exchanger_spec() -> PerObject<ExchangerSpec> {
    PerObject::new((0..OBJECTS).map(|o| (ObjectId(o), ExchangerSpec::new(ObjectId(o)))).collect())
}

fn stack_spec() -> PerObject<SeqAsCa<StackSpec>> {
    PerObject::new(
        (0..OBJECTS)
            .map(|o| (ObjectId(o), SeqAsCa::new(StackSpec::total(ObjectId(o)))))
            .collect(),
    )
}

struct Series {
    name: &'static str,
    seq_ms: f64,
    par_ms: f64,
    speedup: f64,
    /// [`cal_core::obs::SearchReport`] JSON from one instrumented
    /// (untimed) run of the parallel arm — search shape, not wall-clock.
    stats: String,
}

impl Series {
    fn new(name: &'static str, seq: Duration, par: Duration, stats: String) -> Self {
        Series {
            name,
            seq_ms: seq.as_secs_f64() * 1e3,
            par_ms: par.as_secs_f64() * 1e3,
            speedup: seq.as_secs_f64() / par.as_secs_f64(),
            stats,
        }
    }
}

/// One extra run of `check` with a [`CountingSink`] attached, outside
/// the timed samples so instrumentation cannot skew the medians. Works
/// for any checker on the shared kernel (any witness type `W`). Returns
/// the resulting [`cal_core::obs::SearchReport`] as a JSON object.
fn instrumented<W>(threads: usize, check: impl FnOnce(&CheckOptions) -> CheckOutcome<W>) -> String {
    let sink = Arc::new(CountingSink::new());
    let options = CheckOptions {
        threads,
        sink: Some(Arc::clone(&sink) as Arc<dyn StatsSink>),
        ..CheckOptions::default()
    };
    let start = Instant::now();
    let out = check(&options);
    sink.report(&out, &options, start.elapsed()).to_json()
}

/// [`instrumented`] specialised to the parallel CAL checker.
fn instrumented_stats<S: CaSpec>(h: &History, spec: &S, threads: usize) -> String {
    instrumented(threads, |options| {
        check_cal_with(h, spec, options).expect("instrumented run")
    })
}

/// A sequential decomposed checker: each subhistory in object order,
/// stopping at the first refutation. Returns true if some object failed.
fn sequential_decomposed<S: CaSpec + Clone>(h: &History, spec: &PerObject<S>) -> bool {
    let options = CheckOptions::default();
    for o in 0..OBJECTS {
        let sub = h.project_object(ObjectId(o));
        let part = spec.restrict(ObjectId(o)).expect("restrictable");
        let out = check_cal_with(&sub, &part, &options).unwrap();
        if matches!(out.verdict, Verdict::NotCal) {
            return true;
        }
    }
    false
}

fn bench_refute_last() -> Series {
    let h = refute_last_history(OBJECTS, 8);
    let spec = stack_spec();

    let seq = measure(|| assert!(sequential_decomposed(&h, &spec)));

    let par_options = CheckOptions { threads: THREADS, ..CheckOptions::default() };
    let par = measure(|| {
        let out = check_cal_with(&h, &spec, &par_options).unwrap();
        assert!(matches!(out.verdict, Verdict::NotCal));
    });

    Series::new("decompose/refute-last-stacks", seq, par, instrumented_stats(&h, &spec, THREADS))
}

fn bench_all_cal() -> Series {
    let h = multi_object_history(42, OBJECTS, 256, 2048);
    let spec = exchanger_spec();

    let seq = measure(|| assert!(!sequential_decomposed(&h, &spec)));

    let par_options = CheckOptions { threads: THREADS, ..CheckOptions::default() };
    let par = measure(|| {
        let out = check_cal_with(&h, &spec, &par_options).unwrap();
        assert!(matches!(out.verdict, Verdict::Cal(_)));
    });

    Series::new("decompose/all-cal", seq, par, instrumented_stats(&h, &spec, THREADS))
}

fn bench_frontier() -> Series {
    let h = hard_frontier_history(11);
    let spec = ExchangerSpec::new(ObjectId(0));
    let options = CheckOptions::default();

    let seq = measure(|| {
        let out = check_cal_with(&h, &spec, &options).unwrap();
        assert!(matches!(out.verdict, Verdict::NotCal));
    });

    let par_options = CheckOptions { threads: THREADS, ..CheckOptions::default() };
    let par = measure(|| {
        let out = check_cal_with(&h, &spec, &par_options).unwrap();
        assert!(matches!(out.verdict, Verdict::NotCal));
    });

    Series::new("frontier/hard-11", seq, par, instrumented_stats(&h, &spec, THREADS))
}

/// `k` pairwise-concurrent `write_snapshot(i) ▷ {i}` calls: at most one
/// op can ever close with a singleton view, so `k ≥ 2` is unsatisfiable,
/// but the point enumeration the interval checker must exhaust is large.
fn disjoint_views_history(k: usize) -> History {
    let o = ObjectId(0);
    let ops: Vec<_> = (0..k)
        .map(|i| write_snapshot_op(o, ThreadId(i as u32), i as i64, view(&[i as i64])))
        .collect();
    let mut actions = Vec::new();
    actions.extend(ops.iter().map(|op| op.invocation()));
    actions.extend(ops.iter().map(|op| op.response()));
    History::from_actions(actions)
}

fn bench_seqlin() -> Series {
    let h = History::from_actions(hard_cal_stack_block(ObjectId(0), 0, 8));
    let spec = StackSpec::total(ObjectId(0));
    let options = CheckOptions::default();

    let seq = measure(|| {
        let out = check_linearizable_with(&h, &spec, &options).unwrap();
        assert!(matches!(out.verdict, Verdict::Cal(_)));
    });

    let par_options = CheckOptions { threads: THREADS, ..CheckOptions::default() };
    let par = measure(|| {
        let out = check_linearizable_with(&h, &spec, &par_options).unwrap();
        assert!(matches!(out.verdict, Verdict::Cal(_)));
    });

    let stats = instrumented(THREADS, |o| {
        check_linearizable_with(&h, &spec, o).expect("instrumented run")
    });
    Series::new("seqlin/frontier-stack-8", seq, par, stats)
}

fn bench_interval() -> Series {
    let h = disjoint_views_history(6);
    let spec = WriteSnapshotSpec::new(ObjectId(0), 4);
    let options = CheckOptions::default();

    let seq = measure(|| {
        let out = check_interval_with(&h, &spec, &options).unwrap();
        assert!(matches!(out.verdict, Verdict::NotCal));
    });

    let par_options = CheckOptions { threads: THREADS, ..CheckOptions::default() };
    let par = measure(|| {
        let out = check_interval_with(&h, &spec, &par_options).unwrap();
        assert!(matches!(out.verdict, Verdict::NotCal));
    });

    let stats = instrumented(THREADS, |o| {
        check_interval_with(&h, &spec, o).expect("instrumented run")
    });
    Series::new("interval/disjoint-views-6", seq, par, stats)
}

/// `pairs` overlapping exchange rendezvous on one object: the canonical
/// streaming workload (each pair closes a retirement boundary, but every
/// segment is genuinely concurrent and goes through the real search).
fn stream_replay_history(pairs: u64) -> History {
    let ex = cal_specs::vocab::EXCHANGE;
    let o = ObjectId(0);
    let mut actions = Vec::with_capacity(4 * pairs as usize);
    for i in 0..pairs {
        let (a, b) = (ThreadId(0), ThreadId(1));
        let (va, vb) = ((i % 100) as i64, ((i + 1) % 100) as i64);
        actions.push(Action::invoke(a, o, ex, Value::Int(va)));
        actions.push(Action::invoke(b, o, ex, Value::Int(vb)));
        actions.push(Action::response(a, o, ex, Value::Pair(true, vb)));
        actions.push(Action::response(b, o, ex, Value::Pair(true, va)));
    }
    History::from_actions(actions)
}

/// Streaming replay throughput at verdict parity: the same history is
/// decided by the batch checker (`seq` arm) and replayed through
/// [`StreamChecker`] with a bounded window (`par` arm); both must say
/// consistent. The stats column records events/sec and the retirement
/// counters instead of a `SearchReport` — the interesting shape here is
/// the window's, not one search's.
fn bench_stream_replay() -> Series {
    use cal_core::stream::{Push, StreamChecker, StreamOptions, StreamVerdict};

    // Sized by the *batch* arm: its witness search is superlinear in
    // history length (~0.6 s at 800 pairs, minutes at 10k), while the
    // streaming arm is linear — which is the point of the series. The
    // 10M-event streaming-only numbers live in EXPERIMENTS E16.
    let pairs = 1_000u64;
    let h = stream_replay_history(pairs);
    let spec = ExchangerSpec::new(ObjectId(0));
    let options = CheckOptions::default();

    let seq = measure(|| {
        let out = check_cal_with(&h, &spec, &options).unwrap();
        assert!(matches!(out.verdict, Verdict::Cal(_)), "batch arm must accept");
    });

    let stream_opts =
        StreamOptions { max_window: 64, checkpoint_every: 256, ..StreamOptions::default() };
    let replay = || {
        let mut c = StreamChecker::new(spec, stream_opts.clone());
        for action in h.actions() {
            assert_eq!(c.push(*action), Push::Admitted);
        }
        assert_eq!(c.finish(), StreamVerdict::Consistent, "stream arm must agree");
        c
    };
    let par = measure(|| {
        replay();
    });

    let c = replay();
    let s = c.stats();
    let events = s.events;
    let ops_per_sec = (events / 2) as f64 / par.as_secs_f64();
    let stats = format!(
        "{{\"events\": {events}, \"ops_per_sec\": {ops_per_sec:.0}, \
         \"max_window\": {}, \"peak_window\": {}, \"retired_actions\": {}, \
         \"retired_segments\": {}, \"checkpoints\": {}, \"saturated\": {}}}",
        stream_opts.max_window,
        s.peak_window,
        s.retired_actions,
        s.retired_segments,
        s.checkpoints,
        s.saturated,
    );
    Series::new("stream/replay-throughput", seq, par, stats)
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let series = vec![
        bench_refute_last(),
        bench_all_cal(),
        bench_frontier(),
        bench_seqlin(),
        bench_interval(),
        bench_stream_replay(),
    ];

    let mut json = String::from("{\n  \"benchmark\": \"parallel_checker\",\n");
    json.push_str(&format!("  \"threads\": {THREADS},\n  \"host_cores\": {cores},\n"));
    // A host with fewer cores than configured threads can only
    // time-slice: wall-clock speedups below are then lower bounds, not
    // measurements of parallel scaling.
    json.push_str(&format!("  \"degraded\": {},\n", cores < THREADS));
    json.push_str("  \"series\": [\n");
    for (i, s) in series.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"seq_ms\": {:.3}, \"par_ms\": {:.3}, \"speedup\": {:.3}, \"stats\": {}}}{}\n",
            s.name,
            s.seq_ms,
            s.par_ms,
            s.speedup,
            s.stats,
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checker.json");
    std::fs::write(out, &json).expect("write BENCH_checker.json");

    for s in &series {
        println!(
            "{:<24} seq {:>8.2} ms   par({THREADS}) {:>8.2} ms   speedup {:.2}x",
            s.name, s.seq_ms, s.par_ms, s.speedup
        );
    }
    println!("host cores: {cores}");
    println!("wrote {out}");

    // The refute-last series is the headline claim and must hold on any
    // host: parallel decomposition bounds refutation latency by the
    // cheapest counterexample, not by object iteration order.
    let headline = &series[0];
    assert!(
        headline.speedup >= 1.8,
        "refute-last speedup {:.2}x below the 1.8x floor",
        headline.speedup
    );
}
