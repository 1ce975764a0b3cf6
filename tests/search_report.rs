//! The observability layer end to end: a [`CountingSink`] attached to a
//! check produces a [`SearchReport`] with nonzero node/memo counters on
//! real corpus fixtures, the report's counters agree with the checker's
//! own [`CheckStats`], and the `cal-check --stats-json` surface emits the
//! same report through the binary.

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use cal::core::check::{check_cal_with, CheckOptions};
use cal::core::obs::{CountingSink, ObjectOutcome, SearchReport, StatsSink};
use cal::core::seqlin::check_linearizable_with;
use cal::core::spec::{PerObject, SeqAsCa};
use cal::core::text::parse_history;
use cal::core::ObjectId;
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::kv::KvMapSpec;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn counted_options(sink: &Arc<CountingSink>, threads: usize) -> CheckOptions {
    CheckOptions {
        sink: Some(Arc::clone(sink) as Arc<dyn StatsSink>),
        threads,
        ..CheckOptions::default()
    }
}

/// The three-way delivery cycle backtracks enough to exercise nodes,
/// elements, frontiers and the memo table in one sequential run.
#[test]
fn sequential_report_counters_are_nonzero_and_consistent() {
    let h = parse_history(&fixture("fig3_three_way_cycle.hist")).unwrap();
    let spec = ExchangerSpec::new(ObjectId(0));
    let sink = Arc::new(CountingSink::new());
    let options = counted_options(&sink, 1);
    let start = Instant::now();
    let outcome = check_cal_with(&h, &spec, &options).unwrap();
    let report = sink.report(&outcome, &options, start.elapsed());

    assert_eq!(report.verdict, "not-cal");
    assert!(report.nodes > 0, "no nodes counted: {report:?}");
    assert!(report.elements_tried > 0);
    // Sink and authoritative stats must agree event for event.
    assert_eq!(sink.nodes(), outcome.stats.nodes);
    assert_eq!(sink.elements_tried(), outcome.stats.elements_tried);
    assert_eq!(sink.memo_hits(), outcome.stats.memo_hits);
    // Every expanded node probes the memo exactly once (memoize is on).
    assert_eq!(sink.memo_hits() + sink.memo_misses(), outcome.stats.nodes);
    assert!(sink.memo_inserts() > 0, "a refuting search must record failed states");
    assert!(report.frontier_max >= 3, "three concurrent ops at the root");
    assert!(report.wall_ms >= 0.0);
}

#[test]
fn parallel_frontier_report_records_branches_and_workers() {
    // fig1_swap is single-object, so the parallel checker takes the
    // frontier-splitting path, and its successful swap gives the root a
    // nonempty frontier (the cycle fixture refutes at the root instead).
    let h = parse_history(&fixture("fig1_swap.hist")).unwrap();
    let spec = ExchangerSpec::new(ObjectId(0));
    let sink = Arc::new(CountingSink::new());
    let options = counted_options(&sink, 4);
    let start = Instant::now();
    let outcome = check_cal_with(&h, &spec, &options).unwrap();
    let report = sink.report(&outcome, &options, start.elapsed());

    assert_eq!(report.verdict, "cal");
    assert!(report.nodes > 0);
    assert!(report.root_branches > 0, "frontier split must report its branches");
    assert!(report.root_workers >= 1);
    assert_eq!(sink.nodes(), outcome.stats.nodes, "sink and stats disagree on nodes");
    assert_eq!(sink.elements_tried(), outcome.stats.elements_tried);
}

#[test]
fn decomposed_report_has_one_outcome_per_object() {
    let h = parse_history(&fixture("two_exchangers.hist")).unwrap();
    let objects = h.objects();
    assert!(objects.len() >= 2, "fixture must span several objects");
    let spec = PerObject::new(
        objects.iter().map(|&o| (o, ExchangerSpec::new(o))).collect::<Vec<_>>(),
    );
    let sink = Arc::new(CountingSink::new());
    let options = counted_options(&sink, 4);
    let start = Instant::now();
    let outcome = check_cal_with(&h, &spec, &options).unwrap();
    let report = sink.report(&outcome, &options, start.elapsed());

    assert_eq!(report.verdict, "cal");
    assert_eq!(report.objects.len(), objects.len());
    for object in report.objects {
        assert_eq!(object.outcome, ObjectOutcome::Cal, "o{}", object.object.0);
        assert!(object.wall_ms >= 0.0);
    }
    assert_eq!(sink.nodes(), outcome.stats.nodes);
}

/// `CheckOptions::threads` picks the driver behind the one entry point
/// of each mode: on a two-key history with a restrictable spec, CAL and
/// classical linearizability at two threads decompose per object (one
/// outcome row per key), and at one thread run the sequential search
/// (no rows).
#[test]
fn threads_pick_the_driver_in_cal_and_seq_modes() {
    let h = parse_history(
        "t1 inv o0.write 1\n\
         t2 inv o1.write 2\n\
         t1 res o0.write ()\n\
         t2 res o1.write ()\n\
         t1 inv o0.read ()\n\
         t2 inv o1.read ()\n\
         t1 res o0.read 1\n\
         t2 res o1.read 2\n",
    )
    .unwrap();
    let kv = KvMapSpec::new();
    for threads in [1, 2] {
        let cal_sink = Arc::new(CountingSink::new());
        let cal_options = counted_options(&cal_sink, threads);
        let cal = check_cal_with(&h, &SeqAsCa::new(kv.clone()), &cal_options).unwrap();
        let seq_sink = Arc::new(CountingSink::new());
        let seq = check_linearizable_with(&h, &kv, &counted_options(&seq_sink, threads)).unwrap();
        assert!(cal.verdict.is_cal() && seq.verdict.is_cal(), "threads={threads}");
        let rows = if threads == 1 { 0 } else { 2 };
        for (mode, sink) in [("cal", &cal_sink), ("seq", &seq_sink)] {
            let objects = sink.object_reports();
            assert_eq!(objects.len(), rows, "{mode} at threads={threads}: {objects:?}");
            assert!(objects.iter().all(|o| o.outcome == ObjectOutcome::Cal), "{mode}");
        }
    }
}

/// Minimal JSON shape validation without a JSON parser: balanced braces,
/// the counters present, and numeric fields extractable.
fn json_u64_field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = json.find(&pat).unwrap_or_else(|| panic!("missing {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {json}"))
}

#[test]
fn stats_json_flag_emits_nonzero_counters() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    let fixture_path =
        format!("{}/tests/corpus/fig3_three_way_cycle.hist", env!("CARGO_MANIFEST_DIR"));
    let out_path = std::env::temp_dir().join(format!("cal-check-report-{}.json", std::process::id()));
    let output = Command::new(exe)
        .args(["exchanger", &fixture_path, "--stats-json"])
        .arg(&out_path)
        .output()
        .expect("cal-check runs");
    assert_eq!(output.status.code(), Some(1), "cycle fixture is not-cal");
    let json = std::fs::read_to_string(&out_path).expect("report written");
    let _ = std::fs::remove_file(&out_path);

    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'), "{json}");
    assert!(json.contains("\"verdict\": \"not-cal\""), "{json}");
    assert!(json_u64_field(&json, "nodes") > 0, "{json}");
    assert!(json_u64_field(&json, "elements_tried") > 0, "{json}");
    // The cycle search refutes states, so the memo table sees traffic.
    assert!(json_u64_field(&json, "memo_misses") > 0, "{json}");
    assert!(json_u64_field(&json, "memo_inserts") > 0, "{json}");
}

#[test]
fn stats_json_dash_writes_to_stdout() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    let fixture_path = format!("{}/tests/corpus/fig1_swap.hist", env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(exe)
        .args(["exchanger", &fixture_path, "--stats-json", "-"])
        .output()
        .expect("cal-check runs");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in stdout:\n{stdout}"));
    assert!(json_line.contains("\"verdict\": \"cal\""), "{json_line}");
    assert!(json_u64_field(json_line, "nodes") > 0, "{json_line}");
}

#[test]
fn explain_flag_names_the_interrupt_cause() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    // 13 identical concurrent "successful" exchanges: unsatisfiable and
    // big enough that a zero deadline always fires at the first poll.
    let mut input = String::new();
    for t in 1..=13 {
        input.push_str(&format!("t{t} inv o0.exchange 0\n"));
    }
    for t in 1..=13 {
        input.push_str(&format!("t{t} res o0.exchange (true,0)\n"));
    }
    let mut child = Command::new(exe)
        .args(["exchanger", "-", "--deadline-ms", "0", "--explain"])
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("cal-check spawns");
    use std::io::Write;
    child.stdin.take().expect("stdin piped").write_all(input.as_bytes()).expect("write stdin");
    let output = child.wait_with_output().expect("cal-check runs");
    assert_eq!(output.status.code(), Some(2), "deadline-interrupted check is undecided");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("deadline-exceeded"), "explain must name the cause:\n{stderr}");
}

#[test]
fn report_survives_a_quiet_run_without_sink_events() {
    // An empty history decides at the root: the report must stay coherent
    // (no divide-by-zero in frontier_mean, valid JSON) with zero events.
    let h = parse_history("").unwrap();
    let spec = ExchangerSpec::new(ObjectId(0));
    let sink = Arc::new(CountingSink::new());
    let options = counted_options(&sink, 1);
    let start = Instant::now();
    let outcome = check_cal_with(&h, &spec, &options).unwrap();
    let report: SearchReport = sink.report(&outcome, &options, start.elapsed());
    assert_eq!(report.verdict, "cal");
    assert_eq!(report.frontier_mean, 0.0);
    assert!(report.to_json().contains("\"nodes\": 0"));
    assert!(!report.explain().is_empty());
}
