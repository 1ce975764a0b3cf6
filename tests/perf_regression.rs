//! Performance regression suite for the rebuilt search engine, pinned on
//! **node and steal counts, not wall-clock**: counts are deterministic on
//! any machine, while timings on a loaded single-core CI runner are not.
//! The one wall-clock sanity bound is skipped when `CI` is set.
//!
//! What is locked in:
//!
//! - symmetry reduction collapses the `C(n, k)` interchangeable-op
//!   explosion by orders of magnitude (calibrated: ≥ 20× at k=11, actual
//!   ≈ 110×);
//! - failed-state memoization still pays for itself by ≥ 10× on the
//!   adversarial exchanger family;
//! - the parallel checker's shared fingerprint memo keeps cross-worker
//!   duplication bounded: total nodes within 3× of the sequential run;
//! - work-stealing actually fires: on a refutation tree whose root
//!   frontier is narrower than the worker pool, donated subtrees are
//!   stolen and counted.

use cal::core::check::{check_cal_with, CheckOptions, Verdict};
use cal::core::engine::{self, ExpandObs, SearchDomain};
use cal::core::text::parse_history;
use cal::core::{History, ObjectId};
use cal::specs::exchanger::ExchangerSpec;

const O: ObjectId = ObjectId(0);

fn in_ci() -> bool {
    std::env::var("CI").is_ok_and(|v| v == "1" || v == "true")
}

/// `k` pairwise-concurrent identical `exchange(0) -> (true, 0)` calls,
/// odd `k`: unsatisfiable, super-exponential to refute naively, and
/// maximally symmetric — the calibration workload for both the memo and
/// the symmetry reduction.
fn hard_history(k: usize) -> History {
    let mut text = String::new();
    for t in 0..k {
        text.push_str(&format!("t{t} inv o0.exchange 0\n"));
    }
    for t in 0..k {
        text.push_str(&format!("t{t} res o0.exchange (true,0)\n"));
    }
    parse_history(&text).expect("hard history parses")
}

#[test]
fn symmetry_reduction_collapses_interchangeable_ops() {
    let h = hard_history(11);
    let spec = ExchangerSpec::new(O);
    let start = std::time::Instant::now();
    let on = check_cal_with(&h, &spec, &CheckOptions::default()).unwrap();
    let off = check_cal_with(
        &h,
        &spec,
        &CheckOptions { symmetry: false, ..CheckOptions::default() },
    )
    .unwrap();
    assert_eq!(on.verdict, Verdict::NotCal);
    assert_eq!(off.verdict, Verdict::NotCal);
    // Calibrated on this family: 126 vs 14_081 nodes (≈ 110×). Assert a
    // 20× floor so legitimate engine changes have headroom while a
    // broken canonicalization (which would land near 1×) still fails.
    assert!(
        on.stats.nodes * 20 <= off.stats.nodes,
        "symmetry reduction regressed: {} nodes with, {} without",
        on.stats.nodes,
        off.stats.nodes
    );
    if !in_ci() {
        // Local sanity bound only: both runs together are ~10ms when
        // healthy; a hang here means exponential blow-up came back.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "symmetric refutation took {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn memoization_still_pays_for_itself() {
    let h = hard_history(9);
    let spec = ExchangerSpec::new(O);
    // Symmetry off isolates the memo's own contribution.
    let base = CheckOptions { symmetry: false, ..CheckOptions::default() };
    let with = check_cal_with(&h, &spec, &base).unwrap();
    let without =
        check_cal_with(&h, &spec, &CheckOptions { memoize: false, ..base }).unwrap();
    assert_eq!(with.verdict, without.verdict);
    // Calibrated: 2_305 vs 31_033 nodes (≈ 13×); assert a 10× floor.
    assert!(
        with.stats.nodes * 10 <= without.stats.nodes,
        "memoization regressed: {} nodes with, {} without",
        with.stats.nodes,
        without.stats.nodes
    );
}

#[test]
fn shared_memo_bounds_parallel_duplication() {
    let h = hard_history(11);
    let spec = ExchangerSpec::new(O);
    let seq = check_cal_with(&h, &spec, &CheckOptions::default()).unwrap();
    for threads in [2usize, 4, 8] {
        let par = check_cal_with(
            &h,
            &spec,
            &CheckOptions { threads, ..CheckOptions::default() },
        )
        .unwrap();
        assert_eq!(par.verdict, Verdict::NotCal, "threads={threads}");
        // Workers race ahead of each other's memo inserts, so some
        // duplication is expected — but the shared fingerprint table
        // must keep the *total* within a small constant of sequential.
        assert!(
            par.stats.nodes <= seq.stats.nodes * 3,
            "threads={threads}: parallel expanded {} nodes vs {} sequential",
            par.stats.nodes,
            seq.stats.nodes
        );
    }
}

/// A goal-free tree with `width` children per node down to `depth`, every
/// state distinct. Refuting it forces a full traversal, so node totals
/// are exact and any lost or double-counted subtree shows up.
///
/// `stall_ms > 0` sleeps that long in every expansion of a node at depth
/// < 3, which is what makes the steal test deterministic on a one-core
/// host in release mode: a sleeping donor yields the core, so thief
/// threads are guaranteed to get scheduled, raise the hungry flag and
/// steal while the donor still has subtrees to give away.
struct DeadTree {
    width: u32,
    depth: u32,
    stall_ms: u64,
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
        if self.stall_ms > 0 && node.0 < 3 {
            std::thread::sleep(std::time::Duration::from_millis(self.stall_ms));
        }
        obs.on_frontier(self.width as usize);
        for i in 0..self.width {
            obs.on_element_tried();
            out.push((i, (node.0 + 1, node.1 * u64::from(self.width) + u64::from(i) + 1)));
        }
    }
}

#[test]
fn stealing_fires_when_workers_outnumber_root_branches() {
    // Three root branches, eight workers: five can only ever work by
    // stealing donated subtrees; the stall keeps donors yielding the
    // core so the thieves actually run.
    let options = CheckOptions { threads: 8, memoize: false, ..CheckOptions::default() };
    let outcome = engine::search_par(
        &DeadTree { width: 3, depth: 6, stall_ms: 2 },
        &options,
    )
    .unwrap();
    assert_eq!(outcome.verdict, Verdict::NotCal);
    assert!(
        outcome.stats.steals > 0,
        "no subtree was ever stolen; stats: {:?}",
        outcome.stats
    );
}

#[test]
fn stealing_neither_loses_nor_duplicates_nodes() {
    let tree = DeadTree { width: 3, depth: 8, stall_ms: 0 };
    let seq = engine::search(&tree, &CheckOptions::default()).unwrap();
    for threads in [2usize, 4, 8] {
        let par = engine::search_par(
            &tree,
            &CheckOptions { threads, memoize: false, ..CheckOptions::default() },
        )
        .unwrap();
        assert_eq!(par.verdict, Verdict::NotCal, "threads={threads}");
        assert_eq!(
            par.stats.nodes, seq.stats.nodes,
            "threads={threads}: distinct-state tree must be traversed exactly once"
        );
    }
}

#[test]
fn stealing_off_disables_the_steal_counter() {
    let options = CheckOptions {
        threads: 8,
        memoize: false,
        stealing: false,
        ..CheckOptions::default()
    };
    let outcome = engine::search_par(
        &DeadTree { width: 3, depth: 8, stall_ms: 0 },
        &options,
    )
    .unwrap();
    assert_eq!(outcome.verdict, Verdict::NotCal);
    assert_eq!(outcome.stats.steals, 0, "static splitting must never report steals");
}
