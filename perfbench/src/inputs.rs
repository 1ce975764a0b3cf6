//! Seeded inputs for every workload, built on the repository's public
//! generators. Each history carries the exit code `cal-check` must return
//! for it; every stream is consistent by construction.

use cal_core::format::{format_jepsen, Format};
use cal_core::gen::{mutate, render_loose, render_windowed, Mutation};
use cal_core::text::format_history;
use cal_core::{Action, CaElement, CaTrace, History, ObjectId, Operation, ThreadId, Value};
use cal_specs::exchanger::fail_element;
use cal_specs::gen::random_exchanger_trace;
use cal_specs::kv::{get_op, put_op};
use cal_specs::register::{read_op, write_op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchKv,
    BatchCaDense,
    ServeRegister,
    ServeKv,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "batch-kv" => Some(Workload::BatchKv),
            "batch-ca-dense" => Some(Workload::BatchCaDense),
            "serve-register" => Some(Workload::ServeRegister),
            "serve-kv" => Some(Workload::ServeKv),
            _ => None,
        }
    }

    /// Batch workloads time `cal-check` once per pool history; serve
    /// workloads time `cal-serve` replaying each stream over stdin.
    pub fn is_batch(self) -> bool {
        matches!(self, Workload::BatchKv | Workload::BatchCaDense)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::BatchKv => Shape {
                spec: "kv",
                format: Format::Jepsen,
                pool: 300,
                traced_pool: 12,
                hist_ops: 500,
                replays: 0,
                replay_events: 0,
                online_events: 10_000,
                online_rate: 2_000.0,
            },
            Workload::BatchCaDense => Shape {
                spec: "exchanger",
                format: Format::Native,
                pool: 1_500,
                traced_pool: 20,
                hist_ops: 56,
                replays: 0,
                replay_events: 0,
                online_events: 2_500,
                online_rate: 500.0,
            },
            Workload::ServeRegister => Shape {
                spec: "register",
                format: Format::Native,
                pool: 8,
                traced_pool: 8,
                hist_ops: 500,
                replays: 4,
                replay_events: 50_000,
                online_events: 50_000,
                online_rate: 10_000.0,
            },
            Workload::ServeKv => Shape {
                spec: "kv",
                format: Format::Jepsen,
                pool: 8,
                traced_pool: 8,
                hist_ops: 500,
                replays: 100,
                replay_events: 2_000,
                online_events: 10_000,
                online_rate: 2_000.0,
            },
        }
    }
}

/// Sizes and rates of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Spec name, as both binaries take it.
    pub spec: &'static str,
    /// Wire and file format of every input.
    pub format: Format,
    /// Histories in the pool: enough that a batch workload's timed leg
    /// checks each at most once.
    pub pool: usize,
    /// The pool prefix the traced run checks in-process.
    pub traced_pool: usize,
    /// Operations per pool history.
    pub hist_ops: usize,
    /// Streams a serve workload's timed leg replays over stdin, in turn.
    pub replays: usize,
    /// Events (lines) per replayed stream.
    pub replay_events: usize,
    /// Events in the stream sent over TCP, which the traced run also
    /// checks in-process.
    pub online_events: usize,
    /// Lines per second offered over TCP in the open-loop leg.
    pub online_rate: f64,
}

/// One generated history, rendered in the workload's format.
#[derive(Debug, Clone)]
pub struct Hist {
    pub text: String,
    pub ops: usize,
    pub events: usize,
    /// `cal-check`'s expected exit code: 0 accepted, 1 rejected.
    pub expect_exit: i32,
}

/// One generated consistent stream, one event per line.
#[derive(Debug, Clone)]
pub struct Stream {
    pub lines: Vec<String>,
    pub ops: usize,
}

/// Everything a run feeds the programs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub pool: Vec<Hist>,
    pub replays: Vec<Stream>,
    pub online: Stream,
}

impl Inputs {
    /// The sizes a second seed must reproduce exactly.
    pub fn sizes(&self) -> Vec<usize> {
        let pool = self.pool.iter().flat_map(|h| [h.ops, h.events]);
        let streams = self
            .replays
            .iter()
            .chain([&self.online])
            .flat_map(|s| [s.lines.len(), s.ops]);
        pool.chain(streams).collect()
    }
}

pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let shape = workload.shape();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = (0..shape.pool)
        .map(|i| {
            let (history, expect_exit) = match workload {
                Workload::BatchKv => {
                    // One history in four carries a planted stale read.
                    let h = kv_history(&mut rng, shape.hist_ops, BATCH_KV);
                    if i % 4 == 3 {
                        (plant_stale_read(&mut rng, &h), 1)
                    } else {
                        (h, 0)
                    }
                }
                Workload::BatchCaDense => {
                    // Block width cycles 14..=18 by index, and three in
                    // five histories of each width are corrupted, so every
                    // seed gets the same mix.
                    let h = exchanger_history(&mut rng, shape.hist_ops, 14 + i % 5);
                    if (i / 5) % 5 < 3 {
                        (corrupt_swap(&mut rng, &h), 1)
                    } else {
                        (h, 0)
                    }
                }
                Workload::ServeRegister => (register_history(&mut rng, shape.hist_ops), 0),
                Workload::ServeKv => (kv_history(&mut rng, shape.hist_ops, SERVE_KV), 0),
            };
            Hist {
                text: render(shape.format, &history),
                ops: history.spans().len(),
                events: history.len(),
                expect_exit,
            }
        })
        .collect();
    let mut stream = |events: usize| {
        let ops = events / 2;
        let history = match workload {
            Workload::BatchKv => kv_history(&mut rng, ops, BATCH_KV),
            Workload::BatchCaDense => exchanger_history(&mut rng, ops, 14),
            Workload::ServeRegister => register_history(&mut rng, ops),
            Workload::ServeKv => kv_history(&mut rng, ops, SERVE_KV),
        };
        let lines = render(shape.format, &history)
            .lines()
            .map(str::to_owned)
            .collect();
        Stream {
            lines,
            ops: history.spans().len(),
        }
    };
    let replays = (0..shape.replays)
        .map(|_| stream(shape.replay_events))
        .collect();
    let online = stream(shape.online_events);
    Inputs {
        pool,
        replays,
        online,
    }
}

fn render(format: Format, history: &History) -> String {
    match format {
        Format::Jepsen => format_jepsen(history),
        _ => format_history(history),
    }
}

const KV_CLIENTS: u32 = 4;
const KV_KEYS: u32 = 16;

/// How a key-value history overlaps: it runs in episodes of `episode_ops`
/// operations with a real-time cut after each, and inside an episode
/// `render_loose` hoists invocations `moves_per_op` times per operation.
#[derive(Debug, Clone, Copy)]
struct KvOverlap {
    episode_ops: usize,
    moves_per_op: usize,
}

/// Light overlap and no forced cuts: the batch search explores about one
/// node per operation.
const BATCH_KV: KvOverlap = KvOverlap {
    episode_ops: usize::MAX,
    moves_per_op: 2,
};
/// Enough hoists that inside an episode every client invokes right after
/// its previous response, so the four clients always overlap and the
/// streaming window only retires at episode ends.
const SERVE_KV: KvOverlap = KvOverlap {
    episode_ops: 100,
    moves_per_op: 64,
};

/// A consistent key-value history: 4 clients, 16 keys, half puts of fresh
/// values and half gets of the current value, overlapping as `overlap`
/// says.
fn kv_history(rng: &mut StdRng, ops: usize, overlap: KvOverlap) -> History {
    let mut values = [0i64; KV_KEYS as usize];
    let mut fresh = 0i64;
    let mut actions = Vec::with_capacity(2 * ops);
    let mut done = 0;
    while done < ops {
        let len = overlap.episode_ops.min(ops - done);
        let mut episode = CaTrace::new();
        for _ in 0..len {
            let t = ThreadId(rng.gen_range(0..KV_CLIENTS));
            let k = rng.gen_range(0..KV_KEYS);
            let op = if rng.gen_bool(0.5) {
                fresh += 1;
                values[k as usize] = fresh;
                put_op(ObjectId(k), t, fresh)
            } else {
                get_op(ObjectId(k), t, values[k as usize])
            };
            episode.push(CaElement::singleton(op));
        }
        let moves = overlap.moves_per_op * len;
        actions.extend_from_slice(render_loose(&episode, rng, moves).actions());
        done += len;
    }
    History::from_actions(actions)
}

/// Rewrites one get to return a value that a later put on its key had
/// overwritten before the get began: put(a) ≺ put(b) ≺ get in real time,
/// with a ≠ b and no other put of `a`, so no linearization exists.
fn plant_stale_read(rng: &mut StdRng, history: &History) -> History {
    let spans = history.spans();
    let done = |i: usize| spans[i].resp.expect("generated histories are complete");
    let puts: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].ret == Some(Value::Unit))
        .collect();
    let mut sites = Vec::new();
    for (g, get) in spans.iter().enumerate() {
        if get.ret == Some(Value::Unit) {
            continue;
        }
        // The latest put on this key that completed before the get began,
        // and the latest put before that one.
        let before: Vec<usize> = puts
            .iter()
            .copied()
            .filter(|&p| spans[p].object == get.object && done(p) < get.inv)
            .collect();
        if let Some(&newer) = before.last() {
            if let Some(&older) = before.iter().rev().find(|&&p| done(p) < spans[newer].inv) {
                sites.push((g, older));
            }
        }
    }
    assert!(
        !sites.is_empty(),
        "kv history too short to plant a stale read"
    );
    let (g, older) = sites[rng.gen_range(0..sites.len())];
    let stale = spans[older].arg;
    let mut actions = history.actions().to_vec();
    let a: Action = actions[done(g)];
    actions[done(g)] = Action::response(a.thread(), a.object(), a.method(), stale);
    History::from_actions(actions)
}

/// A consistent exchanger history of exactly `ops` operations, in blocks of
/// `width` fully overlapping operations (swap pairs and failures) that run
/// one after another.
fn exchanger_history(rng: &mut StdRng, ops: usize, width: usize) -> History {
    let object = ObjectId(0);
    let source = random_exchanger_trace(rng, object, 2, ops);
    let mut trace = CaTrace::new();
    let (mut used, mut in_block) = (0usize, 0usize);
    let mut elements = source.elements().iter();
    while used < ops {
        let room = (ops - used).min(width - in_block);
        let element = elements
            .next()
            .expect("the source trace has at least `ops` elements");
        // Threads are renumbered per block, so each block uses distinct
        // threads and the next block starts on a thread clash, which is
        // where `render_windowed` closes it. Values are folded into a few,
        // so a block holds interchangeable operations for symmetry
        // reduction to merge.
        let picked = if element.len() <= room {
            let ops = element
                .ops()
                .iter()
                .enumerate()
                .map(|(j, op)| Operation {
                    thread: ThreadId((in_block + j) as u32),
                    arg: fold(op.arg),
                    ret: fold(op.ret),
                    ..*op
                })
                .collect();
            CaElement::new(object, ops).expect("renumbering keeps the element legal")
        } else {
            fail_element(object, ThreadId(in_block as u32), 0)
        };
        used += picked.len();
        in_block = (in_block + picked.len()) % width;
        trace.push(picked);
    }
    render_windowed(&trace, width)
}

/// Distinct values exchanged in an exchanger history.
const EXCHANGE_VALUES: i64 = 4;

/// Folds an exchanged value into `0..EXCHANGE_VALUES`. A swap pair stays a
/// legal swap, since both sides fold the same values.
fn fold(value: Value) -> Value {
    match value {
        Value::Int(v) => Value::Int(v.rem_euclid(EXCHANGE_VALUES)),
        Value::Pair(ok, v) => Value::Pair(ok, v.rem_euclid(EXCHANGE_VALUES)),
        other => other,
    }
}

/// Gives one response an exchange result no operation offered, so that
/// operation can neither fail nor pair: the history is rejected, and
/// showing it takes an exhaustive search of its block.
fn corrupt_swap(rng: &mut StdRng, history: &History) -> History {
    mutate(history, Mutation::CorruptReturn, rng, |_| {
        Value::Pair(true, -1)
    })
    .expect("a non-empty history has a response")
}

/// A consistent single-register history: in each step two threads overlap,
/// one writing a fresh value and one reading either the old or the new one.
fn register_history(rng: &mut StdRng, ops: usize) -> History {
    let object = ObjectId(0);
    let mut trace = CaTrace::new();
    let mut current = 0i64;
    for step in 0..(ops / 2) as i64 {
        let writer = ThreadId(rng.gen_range(0..2));
        let reader = ThreadId(1 - writer.0);
        let write = write_op(object, writer, step + 1);
        let (first, second) = if rng.gen_bool(0.5) {
            (write, read_op(object, reader, step + 1))
        } else {
            (read_op(object, reader, current), write)
        };
        current = step + 1;
        trace.push(CaElement::singleton(first));
        trace.push(CaElement::singleton(second));
    }
    render_windowed(&trace, 2)
}
