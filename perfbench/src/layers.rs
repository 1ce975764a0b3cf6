//! The traced run: every `cal_core` layer called in-process on the run's
//! inputs, with one span per call recorded from the benchmark's side of
//! each call. Spans stay in memory and are written out when the run ends.

use std::fs;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cal_core::check::check_cal_with;
use cal_core::engine::CheckOptions;
use cal_core::format::{self, Format, StreamDecoder, WireItem};
use cal_core::history::HbRelation;
use cal_core::obs::{CountingSink, StatsSink};
use cal_core::spec::{CaSpec, SeqAsCa};
use cal_core::stream::{Push, StreamChecker, StreamOptions, StreamVerdict};
use cal_core::symmetry::SymClasses;
use cal_core::ObjectId;
use cal_specs::exchanger::ExchangerSpec;
use cal_specs::kv::KvMapSpec;
use cal_specs::register::RegisterSpec;

use crate::inputs::{Hist, Inputs, Shape, Workload};
use crate::stats::{median, metric, ms, quantile, string, Metric};

/// `cal-serve`'s default checkpoint cadence, in admitted events.
const CHECKPOINT_EVERY: u64 = 128;

/// One recorded call: its name, the enclosing span (0 for none), and its
/// start and end in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when on; when off, only times the calls.
#[derive(Debug)]
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids (1-based indexes into `spans`) of the spans now open.
    open: Vec<usize>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.epoch).as_nanos() as u64
    }

    /// Opens a span that encloses the calls until the matching `exit`.
    fn enter(&mut self, name: &'static str) {
        if self.on {
            let start_ns = self.ns(Instant::now());
            let parent = self.open.last().copied().unwrap_or(0);
            self.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len());
        }
    }

    fn exit(&mut self) {
        if self.on {
            let id = self.open.pop().expect("exit matches an enter");
            self.spans[id - 1].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` as one span under the innermost open span.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        if self.on {
            let parent = self.open.last().copied().unwrap_or(0);
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
        (value, end - start)
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "[{}, {}, {}, {}, {}]",
                    i + 1,
                    s.parent,
                    string(s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("{{\"columns\": [\"id\", \"parent\", \"name\", \"start_ns\", \"end_ns\"], \"spans\": [\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// The work counters a fixed seed must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counters {
    nodes: u64,
    elements_tried: u64,
    memo_hits: u64,
    memo_misses: u64,
    checkpoints: u64,
    retired_segments: u64,
    search_nodes: u64,
}

/// Everything one pass over the inputs measured.
#[derive(Debug, Default)]
struct Pass {
    wall: Duration,
    parse_ms: Vec<f64>,
    spans_ms: Vec<f64>,
    hb_ms: Vec<f64>,
    hb_rss_mb: f64,
    classes_ms: Vec<f64>,
    classes: u64,
    search_ms: Vec<f64>,
    frontier_mean: f64,
    decode_us: f64,
    admit_us: f64,
    checkpoint_ms: Vec<f64>,
    retiring_checkpoints: u64,
    finish_ms: f64,
    peak_window: u64,
    counters: Counters,
    wrong: Vec<String>,
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub info: Vec<(&'static str, f64)>,
    pub attempted: u64,
    /// Wrong verdicts and counter mismatches between passes.
    pub wrong: Vec<String>,
    /// The first traced pass's spans, as JSON.
    pub spans_json: String,
}

/// Runs passes over the traced inputs for about `seconds`, alternating
/// traced and untraced ones (at least two traced and one untraced).
pub fn run(workload: Workload, inputs: &Inputs, seconds: f64) -> Traced {
    let shape = workload.shape();
    match shape.spec {
        "kv" => passes(|| SeqAsCa::new(KvMapSpec::new()), &shape, inputs, seconds),
        "exchanger" => passes(|| ExchangerSpec::new(ObjectId(0)), &shape, inputs, seconds),
        "register" => passes(
            || SeqAsCa::new(RegisterSpec::new(ObjectId(0))),
            &shape,
            inputs,
            seconds,
        ),
        other => unreachable!("no workload uses spec {other}"),
    }
}

fn passes<S: CaSpec>(spec: impl Fn() -> S, shape: &Shape, inputs: &Inputs, seconds: f64) -> Traced {
    let (format, pool, lines) = (
        shape.format,
        &inputs.pool[..shape.traced_pool],
        &inputs.online.lines,
    );
    let start = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut spans_json = String::new();
    loop {
        let on = traced.len() <= untraced.len();
        let mut tracer = Tracer::new(on);
        let pass = pass(&spec, format, pool, lines, &mut tracer);
        let last = pass.wall;
        if on {
            if traced.is_empty() {
                spans_json = tracer.to_json();
            }
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        let enough = traced.len() >= 2 && !untraced.is_empty();
        if enough && start.elapsed() + last > Duration::from_secs_f64(seconds) {
            break;
        }
    }

    let first = &traced[0];
    let mut wrong: Vec<String> = traced
        .iter()
        .flat_map(|p| p.wrong.iter().cloned())
        .collect();
    for (i, p) in traced.iter().enumerate().skip(1) {
        if p.counters != first.counters {
            wrong.push(format!(
                "traced pass {i} counted {:?}, pass 0 {:?}",
                p.counters, first.counters
            ));
        }
    }
    let all = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let per_pass =
        |f: fn(&Pass) -> f64| -> f64 { median(&traced.iter().map(f).collect::<Vec<_>>()) };
    let c = first.counters;
    let wall_ms = |ps: &[Pass]| median(&ps.iter().map(|p| ms(p.wall)).collect::<Vec<_>>());
    let checkpoint_ms = all(|p| &p.checkpoint_ms);
    let metrics = vec![
        metric("format.parse_ms", median(&all(|p| &p.parse_ms)), "ms"),
        metric("format.decode_us", per_pass(|p| p.decode_us), "us/event"),
        metric("history.spans_ms", median(&all(|p| &p.spans_ms)), "ms"),
        metric("history.hb_ms", median(&all(|p| &p.hb_ms)), "ms"),
        metric("history.hb_rss_mb", first.hb_rss_mb, "MB"),
        metric("symmetry.classes_ms", median(&all(|p| &p.classes_ms)), "ms"),
        metric("symmetry.classes", first.classes as f64, "count"),
        metric("engine.search_ms", median(&all(|p| &p.search_ms)), "ms"),
        metric("engine.nodes", c.nodes as f64, "count"),
        metric("engine.elements_tried", c.elements_tried as f64, "count"),
        metric(
            "engine.elements_per_node",
            c.elements_tried as f64 / c.nodes as f64,
            "ratio",
        ),
        metric("engine.memo_hits", c.memo_hits as f64, "count"),
        metric("engine.memo_misses", c.memo_misses as f64, "count"),
        metric(
            "engine.memo_hit_ratio",
            c.memo_hits as f64 / (c.memo_hits + c.memo_misses) as f64,
            "ratio",
        ),
        metric("engine.frontier_mean", first.frontier_mean, "ops"),
        metric(
            "engine.us_per_node",
            per_pass(|p| p.search_ms.iter().sum::<f64>() * 1e3 / p.counters.nodes as f64),
            "us",
        ),
        metric("stream.admit_us", per_pass(|p| p.admit_us), "us/event"),
        metric(
            "stream.checkpoint_ms.p50",
            quantile(&checkpoint_ms, 0.5),
            "ms",
        ),
        metric(
            "stream.checkpoint_ms.p99",
            quantile(&checkpoint_ms, 0.99),
            "ms",
        ),
        metric("stream.finish_ms", per_pass(|p| p.finish_ms), "ms"),
        metric("stream.checkpoints", c.checkpoints as f64, "count"),
        metric("stream.peak_window", first.peak_window as f64, "events"),
        metric(
            "stream.retired_segments",
            c.retired_segments as f64,
            "count",
        ),
        metric("stream.search_nodes", c.search_nodes as f64, "count"),
        metric(
            "stream.retire_ratio",
            first.retiring_checkpoints as f64 / c.checkpoints as f64,
            "ratio",
        ),
        metric(
            "trace.overhead_ms",
            wall_ms(&traced) - wall_ms(&untraced),
            "ms",
        ),
    ];
    let info = vec![
        ("traced_passes", traced.len() as f64),
        ("untraced_passes", untraced.len() as f64),
        ("traced_pass_ms", wall_ms(&traced)),
        ("untraced_pass_ms", wall_ms(&untraced)),
        ("histories_per_pass", pool.len() as f64),
        ("stream_events", lines.len() as f64),
    ];
    let attempted = ((pool.len() + lines.len()) * (traced.len() + untraced.len())) as u64;
    Traced {
        metrics,
        info,
        attempted,
        wrong,
        spans_json,
    }
}

/// One pass: the batch layers on every pool history, then the stream
/// layers on the stream. The sink and the RSS probes ride along only when
/// tracing.
fn pass<S: CaSpec>(
    spec: &impl Fn() -> S,
    format: Format,
    pool: &[Hist],
    lines: &[String],
    tracer: &mut Tracer,
) -> Pass {
    let start = Instant::now();
    let mut out = Pass::default();
    let batch_spec = spec();
    let sink = tracer.on.then(|| Arc::new(CountingSink::new()));
    let options = CheckOptions {
        sink: sink.clone().map(|s| s as Arc<dyn StatsSink>),
        ..CheckOptions::default()
    };
    for (i, h) in pool.iter().enumerate() {
        tracer.enter("history");
        let (parsed, parse) = tracer.call("format.parse", || format::parse_as(format, &h.text));
        let Ok(history) = parsed else {
            out.wrong
                .push(format!("history {i}: parse error {:?}", parsed.err()));
            tracer.exit();
            continue;
        };
        let (spans, spans_time) = tracer.call("history.spans", || {
            history.validate().and_then(|()| history.try_spans())
        });
        let Ok(spans) = spans else {
            out.wrong
                .push(format!("history {i}: ill-formed {:?}", spans.err()));
            tracer.exit();
            continue;
        };
        let rss_before = tracer.on.then(rss_mb);
        let (hb, hb_time) = tracer.call("history.hb", || HbRelation::real_time(&spans));
        if let Some(before) = rss_before {
            out.hb_rss_mb = out.hb_rss_mb.max(rss_mb() - before);
        }
        let (classes, classes_time) =
            tracer.call("symmetry.classes", || SymClasses::of_order(&spans, &hb));
        drop(hb);
        out.classes += classes.len() as u64;
        let (outcome, check) = tracer.call("engine.check", || {
            check_cal_with(&history, &batch_spec, &options)
        });
        tracer.exit();
        out.parse_ms.push(ms(parse));
        out.spans_ms.push(ms(spans_time));
        out.hb_ms.push(ms(hb_time));
        out.classes_ms.push(ms(classes_time));
        // check_cal_with validates, builds spans, the order and the
        // symmetry classes again before it searches.
        out.search_ms
            .push(ms(check) - ms(spans_time) - ms(hb_time) - ms(classes_time));
        match outcome {
            Ok(o) if o.verdict.is_cal() == (h.expect_exit == 0) && !o.verdict.is_undecided() => {
                out.counters.nodes += o.stats.nodes;
                out.counters.elements_tried += o.stats.elements_tried;
                out.counters.memo_hits += o.stats.memo_hits;
            }
            other => out.wrong.push(format!(
                "history {i}: {other:?}, expected exit {}",
                h.expect_exit
            )),
        }
    }
    if let Some(sink) = &sink {
        out.counters.memo_misses = sink.memo_misses();
        out.frontier_mean = sink.frontier_mean();
    }

    tracer.enter("stream");
    let options = StreamOptions {
        checkpoint_every: 0,
        ..StreamOptions::default()
    };
    let mut checker = StreamChecker::new(spec(), options);
    let mut decoder = StreamDecoder::new(Some(format));
    let (mut decode, mut admit, mut admitted) = (Duration::ZERO, Duration::ZERO, 0u64);
    for (i, line) in lines.iter().enumerate() {
        let (items, took) = tracer.call("format.decode", || decoder.decode_line(i + 1, line));
        decode += took;
        let Ok(items) = items else {
            out.wrong
                .push(format!("stream line {}: {:?}", i + 1, items.err()));
            continue;
        };
        for item in items {
            match item {
                WireItem::Action(action) => {
                    let (push, took) = tracer.call("stream.push", || checker.push(action));
                    admit += took;
                    if push != Push::Admitted {
                        out.wrong.push(format!("stream line {}: {push:?}", i + 1));
                        continue;
                    }
                    admitted += 1;
                    if admitted % CHECKPOINT_EVERY == 0 {
                        let retired = checker.stats().retired_segments;
                        let (_, took) = tracer.call("stream.checkpoint", || checker.checkpoint());
                        out.checkpoint_ms.push(ms(took));
                        if checker.stats().retired_segments > retired {
                            out.retiring_checkpoints += 1;
                        }
                    }
                }
                WireItem::Abandon(thread) => checker.abandon_thread(thread),
                WireItem::HbEdge { .. } => {}
            }
        }
    }
    let (verdict, finish) = tracer.call("stream.finish", || checker.finish());
    tracer.exit();
    if verdict != StreamVerdict::Consistent {
        out.wrong
            .push(format!("stream verdict {verdict}, expected consistent"));
    }
    let stats = checker.stats();
    out.decode_us = decode.as_secs_f64() * 1e6 / lines.len() as f64;
    out.admit_us = admit.as_secs_f64() * 1e6 / admitted.max(1) as f64;
    out.finish_ms = ms(finish);
    out.peak_window = stats.peak_window as u64;
    out.counters.checkpoints = out.checkpoint_ms.len() as u64;
    out.counters.retired_segments = stats.retired_segments;
    out.counters.search_nodes = stats.search.nodes;
    out.wall = start.elapsed();
    out
}

/// This process's resident set, from `/proc/self/status`.
fn rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
