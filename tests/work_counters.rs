//! Work-counter snapshot: the invariance contract for engine refactors.
//!
//! Every fixture under `tests/corpus/` is checked at `threads: 1` in every
//! mode its spec supports (CAL and causal for every spec; classical and
//! interval linearizability for the sequential ones), together with the
//! calibrated families of `tests/perf_regression.rs`. The verdict and the
//! deterministic work counters — `nodes`, `elements_tried`, `memo_hits` —
//! of each run are rendered one line per run and compared *exactly*
//! against `tests/work_counters.snapshot`.
//!
//! A refactor of the search that claims to be behaviour-preserving must
//! leave this file untouched. A change that legitimately alters the search
//! (a new pruning rule, a different enumeration order) regenerates it: on
//! a mismatch the test writes the fresh rendering next to the test
//! binaries and names the path, so the diff can be reviewed and the file
//! replaced deliberately.

use std::fs;
use std::path::{Path, PathBuf};

use cal::core::causal::{causal_order, check_causal_with};
use cal::core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, Verdict};
use cal::core::engine::{self, ExpandObs, SearchDomain};
use cal::core::format::{parse_annotated, Format};
use cal::core::history::HbRelation;
use cal::core::interval::{check_interval_with, SeqAsInterval};
use cal::core::seqlin::check_linearizable_with;
use cal::core::spec::{CaSpec, PerObject, SeqAsCa, SeqSpec};
use cal::core::text::parse_history;
use cal::core::{History, ObjectId};
use cal::specs::dual_stack::DualStackSpec;
use cal::specs::elim_array::ElimArraySpec;
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{CounterSpec, RegisterSpec};
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::SyncQueueSpec;

const O: ObjectId = ObjectId(0);
const O1: ObjectId = ObjectId(1);

/// One rendered run: `verdict nodes elements_tried memo_hits`.
fn line<W>(result: Result<CheckOutcome<W>, CheckError>) -> String {
    match result {
        Ok(o) => {
            let verdict = match o.verdict {
                Verdict::Cal(_) => "cal",
                Verdict::NotCal => "not-cal",
                Verdict::ResourcesExhausted => "exhausted",
                Verdict::Interrupted { .. } => "interrupted",
            };
            format!(
                "{verdict} nodes={} elements_tried={} memo_hits={}",
                o.stats.nodes, o.stats.elements_tried, o.stats.memo_hits
            )
        }
        Err(e) => format!("error {e}"),
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|x| x == "hist" || x == "jepsen" || x == "kvlog") {
            out.push(path);
        }
    }
}

/// A parsed corpus fixture: its spec name, history, declared
/// happens-before edges and node budget.
struct Fixture {
    name: String,
    spec: String,
    history: History,
    hb_edges: Option<Vec<(usize, usize)>>,
    options: CheckOptions,
}

fn load_corpus() -> Vec<Fixture> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths = Vec::new();
    walk(&root, &mut paths);
    paths.sort();
    let mut fixtures = Vec::new();
    for path in paths {
        let name = path.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
        let format = match path.extension().unwrap().to_str().unwrap() {
            "hist" => Format::Native,
            "jepsen" => Format::Jepsen,
            _ => Format::KvLog,
        };
        let text = fs::read_to_string(&path).unwrap();
        let header = |key: &str| {
            text.lines().find_map(|l| l.strip_prefix(key)).map(|rest| rest.trim().to_string())
        };
        let spec = header("# spec:").unwrap_or_else(|| panic!("{name}: missing `# spec:`"));
        let mut options = CheckOptions::default();
        if let Some(n) = header("# max-nodes:") {
            options.max_nodes = n.parse().unwrap();
        }
        // Malformed fixtures have no search to count.
        let Ok(annotated) = parse_annotated(format, &text) else { continue };
        fixtures.push(Fixture {
            name,
            spec,
            history: annotated.history,
            hb_edges: annotated.hb_edges,
            options,
        });
    }
    fixtures
}

/// CAL and causal runs of one fixture against a CA spec.
fn ca_lines<S: CaSpec>(fx: &Fixture, spec: &S, out: &mut Vec<String>) {
    let h = &fx.history;
    out.push(format!("{} cal {}", fx.name, line(check_cal_with(h, spec, &fx.options))));
    let hb = match &fx.hb_edges {
        Some(edges) => causal_order(h, edges).unwrap(),
        None => HbRelation::real_time(&h.spans()),
    };
    let causal = check_causal_with(h, spec, &hb, &fx.options);
    out.push(format!("{} causal {}", fx.name, line(causal)));
}

/// Every mode of one fixture against a sequential spec.
fn seq_lines<S: SeqSpec + Clone>(fx: &Fixture, spec: S, out: &mut Vec<String>) {
    ca_lines(fx, &SeqAsCa::new(spec.clone()), out);
    let h = &fx.history;
    let seq = check_linearizable_with(h, &spec, &fx.options);
    out.push(format!("{} seq {}", fx.name, line(seq)));
    let interval = check_interval_with(h, &SeqAsInterval::new(spec), &fx.options);
    out.push(format!("{} interval {}", fx.name, line(interval)));
}

fn corpus_lines(out: &mut Vec<String>) {
    for fx in &load_corpus() {
        match fx.spec.as_str() {
            "exchanger" => ca_lines(fx, &ExchangerSpec::new(O), out),
            "elim-array" => ca_lines(fx, &ElimArraySpec::new(O), out),
            "sync-queue" => ca_lines(fx, &SyncQueueSpec::new(O), out),
            "dual-stack" => ca_lines(fx, &DualStackSpec::with_timeouts(O), out),
            "two-exchangers" => ca_lines(
                fx,
                &PerObject::new(vec![(O, ExchangerSpec::new(O)), (O1, ExchangerSpec::new(O1))]),
                out,
            ),
            "stack" => seq_lines(fx, StackSpec::total(O), out),
            "register" => seq_lines(fx, RegisterSpec::new(O), out),
            "counter" => seq_lines(fx, CounterSpec::new(O), out),
            "kv" => seq_lines(fx, KvMapSpec::new(), out),
            other => panic!("{}: no spec named {other:?}", fx.name),
        }
    }
}

/// `k` identical concurrent `exchange(0) -> (true, 0)` calls: the
/// calibration family of the memo and symmetry floors.
fn hard_history(k: usize) -> History {
    let mut text = String::new();
    for t in 0..k {
        text.push_str(&format!("t{t} inv o0.exchange 0\n"));
    }
    for t in 0..k {
        text.push_str(&format!("t{t} res o0.exchange (true,0)\n"));
    }
    parse_history(&text).unwrap()
}

/// The goal-free distinct-state tree of the stealing checks.
struct DeadTree {
    width: u32,
    depth: u32,
}

impl SearchDomain for DeadTree {
    type Node = (u32, u64);
    type Step = u32;

    fn initial(&self) -> (u32, u64) {
        (0, 0)
    }

    fn is_goal(&self, _: &(u32, u64)) -> bool {
        false
    }

    fn expand(
        &self,
        node: &(u32, u64),
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(u32, (u32, u64))>,
    ) {
        if node.0 >= self.depth {
            return;
        }
        obs.on_frontier(self.width as usize);
        for i in 0..self.width {
            obs.on_element_tried();
            out.push((i, (node.0 + 1, node.1 * u64::from(self.width) + u64::from(i) + 1)));
        }
    }
}

fn perf_family_lines(out: &mut Vec<String>) {
    let spec = ExchangerSpec::new(O);
    let base = CheckOptions::default();
    let no_sym = CheckOptions { symmetry: false, ..CheckOptions::default() };
    let no_sym_no_memo = CheckOptions { memoize: false, ..no_sym.clone() };
    let runs: [(&str, usize, &CheckOptions); 4] = [
        ("hard-11 default", 11, &base),
        ("hard-11 symmetry-off", 11, &no_sym),
        ("hard-9 symmetry-off", 9, &no_sym),
        ("hard-9 symmetry-off memo-off", 9, &no_sym_no_memo),
    ];
    for (label, k, options) in runs {
        let result = check_cal_with(&hard_history(k), &spec, options);
        out.push(format!("perf/{label} cal {}", line(result)));
    }
    let tree = DeadTree { width: 3, depth: 8 };
    let options = CheckOptions { memoize: false, ..CheckOptions::default() };
    let result = engine::search(&tree, &options);
    out.push(format!("perf/dead-tree-3x8 engine {}", line(result)));
}

#[test]
fn work_counters_match_the_snapshot() {
    let mut lines = Vec::new();
    corpus_lines(&mut lines);
    perf_family_lines(&mut lines);
    let actual: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let snapshot_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/work_counters.snapshot");
    let expected = fs::read_to_string(&snapshot_path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let fresh = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("work_counters.snapshot");
    fs::write(&fresh, &actual).unwrap();
    let expected_lines: Vec<&str> = expected.lines().collect();
    let changed: Vec<String> = lines
        .iter()
        .enumerate()
        .filter(|(i, l)| expected_lines.get(*i) != Some(&l.as_str()))
        .take(10)
        .map(|(i, l)| format!("  line {}: {l}\n    was: {:?}", i + 1, expected_lines.get(i)))
        .collect();
    panic!(
        "work counters drifted from {} ({} runs now, {} in the snapshot); \
         fresh rendering written to {}\n{}",
        snapshot_path.display(),
        lines.len(),
        expected_lines.len(),
        fresh.display(),
        changed.join("\n")
    );
}
