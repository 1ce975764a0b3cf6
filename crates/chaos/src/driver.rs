//! The chaos run driver: builds a live recorded object, runs a seeded
//! workload against it under an injector, harvests the history, and pipes
//! it into the deadline-aware CAL checker.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cal_core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, CheckStats, Verdict};
use cal_core::dsl::SpecDef;
use cal_core::spec::SeqAsCa;
use cal_core::{History, ObjectId, ThreadId};
use cal_objects::hooks;
use cal_objects::recorded::{
    RecordedDualStack, RecordedEliminationStack, RecordedExchanger, RecordedSyncQueue,
    RecordedTreiberStack,
};
use cal_specs::dual_stack::DualStackSpec;
use cal_specs::exchanger::ExchangerSpec;
use cal_specs::stack::StackSpec;
use cal_specs::sync_queue::SyncQueueSpec;
use cal_core::Value;
use cal_specs::vocab::{EXCHANGE, POP, PUSH, PUT, TAKE};

use crate::faults::{Profile, SplitMix64};
use crate::injector::{enter_worker, Scheduler, StressInjector};
use crate::report::{FailureClass, FailureReport};
use crate::shrink;

/// The hooks registry is process-global, so runs must not overlap; every
/// [`run_once`] serializes on this lock.
static RUN_LOCK: Mutex<()> = Mutex::new(());

fn run_lock() -> MutexGuard<'static, ()> {
    RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Which live object a run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// The wait-free exchanger of Fig. 1 ([`RecordedExchanger`]).
    Exchanger,
    /// The deliberately broken exchanger that hands the same value to
    /// both sides — the planted bug the harness must catch.
    BuggyExchanger,
    /// The retrying Treiber stack ([`RecordedTreiberStack`]).
    TreiberStack,
    /// Hendler et al.'s elimination stack
    /// ([`RecordedEliminationStack`]).
    ElimStack,
    /// The Scherer–Scott dual stack ([`RecordedDualStack`]).
    DualStack,
    /// The exchanger-based synchronous queue ([`RecordedSyncQueue`]).
    SyncQueue,
}

impl TargetKind {
    /// All checkable targets, in CLI order.
    pub const ALL: [TargetKind; 6] = [
        TargetKind::Exchanger,
        TargetKind::BuggyExchanger,
        TargetKind::TreiberStack,
        TargetKind::ElimStack,
        TargetKind::DualStack,
        TargetKind::SyncQueue,
    ];

    /// The target's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Exchanger => "exchanger",
            TargetKind::BuggyExchanger => "buggy-exchanger",
            TargetKind::TreiberStack => "treiber-stack",
            TargetKind::ElimStack => "elim-stack",
            TargetKind::DualStack => "dual-stack",
            TargetKind::SyncQueue => "sync-queue",
        }
    }

    /// Parses a CLI target name.
    pub fn parse(s: &str) -> Option<Self> {
        TargetKind::ALL.into_iter().find(|t| t.name() == s)
    }
}

impl std::fmt::Display for TargetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the workload's threads are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Cooperative token-passing: one virtual thread at a time, switches
    /// only at chaos points, all decisions seeded — bit-for-bit
    /// reproducible.
    Deterministic,
    /// Real OS-thread parallelism with seeded perturbation streams — not
    /// bit-for-bit reproducible, but exercises true data races.
    Stress,
}

impl Mode {
    /// The mode's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Deterministic => "deterministic",
            Mode::Stress => "stress",
        }
    }

    /// Parses a CLI mode name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "deterministic" => Some(Mode::Deterministic),
            "stress" => Some(Mode::Stress),
            _ => None,
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully specified chaos run: everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The seed: the run's whole identity in deterministic mode.
    pub seed: u64,
    /// Worker (virtual) threads.
    pub threads: usize,
    /// Operations per worker.
    pub ops_per_thread: usize,
    /// The object under test.
    pub target: TargetKind,
    /// The fault profile.
    pub profile: Profile,
    /// The scheduling model.
    pub mode: Mode,
    /// Wall-clock budget handed to the checker.
    pub deadline: Option<Duration>,
    /// Node budget handed to the checker.
    pub max_nodes: u64,
    /// Worker threads for the checker (not the workload); `> 1` routes the
    /// harvested history through the parallel checker.
    pub check_threads: usize,
    /// A runtime-loaded `.cal` specification to check harvested histories
    /// against instead of the target's built-in spec. The spec is
    /// instantiated on the run's single object; compilation happens
    /// before any run starts (the `chaos-soak` exit-3 contract).
    pub spec: Option<Arc<SpecDef>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            threads: 3,
            ops_per_thread: 5,
            target: TargetKind::Exchanger,
            profile: Profile::Heavy,
            mode: Mode::Deterministic,
            deadline: Some(Duration::from_secs(2)),
            max_nodes: 2_000_000,
            check_threads: 1,
            spec: None,
        }
    }
}

impl RunConfig {
    /// The checker options this config implies.
    pub fn check_options(&self) -> CheckOptions {
        CheckOptions {
            max_nodes: self.max_nodes,
            memoize: true,
            deadline: self.deadline,
            threads: self.check_threads,
            ..CheckOptions::default()
        }
    }
}

/// How a single chaos run ended.
#[derive(Debug, Clone)]
pub enum ChaosVerdict {
    /// The harvested history satisfies its specification.
    Passed(CheckStats),
    /// The history violates the specification — a bug, with the witness
    /// that there is none.
    Violation(CheckStats),
    /// The checker stopped without deciding (budget or deadline); the
    /// string names the reason.
    Undecided(String, CheckStats),
    /// The checker itself failed (ill-formed history, panicking spec).
    CheckerError(String),
}

impl ChaosVerdict {
    /// The failure class, or `None` if the run passed.
    pub fn class(&self) -> Option<FailureClass> {
        match self {
            ChaosVerdict::Passed(_) => None,
            ChaosVerdict::Violation(_) => Some(FailureClass::Violation),
            ChaosVerdict::Undecided(..) => Some(FailureClass::Undecided),
            ChaosVerdict::CheckerError(_) => Some(FailureClass::CheckerError),
        }
    }

    /// The checker statistics for this run, when the check ran at all.
    pub fn stats(&self) -> Option<&CheckStats> {
        match self {
            ChaosVerdict::Passed(s)
            | ChaosVerdict::Violation(s)
            | ChaosVerdict::Undecided(_, s) => Some(s),
            ChaosVerdict::CheckerError(_) => None,
        }
    }
}

impl std::fmt::Display for ChaosVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosVerdict::Passed(s) => write!(f, "passed ({} nodes)", s.nodes),
            ChaosVerdict::Violation(s) => {
                write!(f, "VIOLATION: history is not explainable ({} nodes searched)", s.nodes)
            }
            ChaosVerdict::Undecided(why, s) => {
                write!(f, "undecided: {why} ({} nodes searched)", s.nodes)
            }
            ChaosVerdict::CheckerError(e) => write!(f, "checker error: {e}"),
        }
    }
}

/// A run's harvested history and check result.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The exact configuration that produced this outcome.
    pub config: RunConfig,
    /// The recorded client-visible history.
    pub history: History,
    /// The checker's verdict on it.
    pub verdict: ChaosVerdict,
}

/// The object every run talks to, behind one op vocabulary.
enum LiveTarget {
    Exchanger(RecordedExchanger),
    Treiber(RecordedTreiberStack),
    Elim(RecordedEliminationStack),
    Dual(RecordedDualStack),
    Sync(RecordedSyncQueue),
}

const OBJ: ObjectId = ObjectId(0);
/// Spin budgets are kept tiny: chaos points, not spinning, provide the
/// waiting windows, and small budgets keep deterministic runs short.
const SPIN: usize = 6;

impl LiveTarget {
    fn build(kind: TargetKind) -> Self {
        match kind {
            TargetKind::Exchanger => LiveTarget::Exchanger(RecordedExchanger::new(OBJ)),
            TargetKind::BuggyExchanger => {
                LiveTarget::Exchanger(RecordedExchanger::new_misdelivering(OBJ))
            }
            TargetKind::TreiberStack => LiveTarget::Treiber(RecordedTreiberStack::new(OBJ)),
            TargetKind::ElimStack => LiveTarget::Elim(RecordedEliminationStack::new(OBJ, 2, SPIN)),
            TargetKind::DualStack => LiveTarget::Dual(RecordedDualStack::new(OBJ)),
            TargetKind::SyncQueue => LiveTarget::Sync(RecordedSyncQueue::new(OBJ, SPIN)),
        }
    }

    /// Runs (or, if `abandon`, merely records the invocation of) worker
    /// `t`'s `i`-th operation. The op shape depends only on `(rng, t, i)`
    /// so an abandoned op consumes the same randomness as a real one.
    fn op(&self, t: ThreadId, i: usize, rng: &mut SplitMix64, abandon: bool) {
        // A value unique to (worker, op): misdelivery and duplication
        // bugs become visible in the history.
        let v = (t.0 as i64) * 1_000_000 + i as i64;
        match self {
            LiveTarget::Exchanger(e) => {
                if abandon {
                    e.recorder().invoke(t, OBJ, EXCHANGE, Value::Int(v));
                } else {
                    e.exchange(t, v, SPIN + rng.index(SPIN));
                }
            }
            LiveTarget::Treiber(s) => {
                if rng.chance(128) {
                    if abandon {
                        s.recorder().invoke(t, OBJ, PUSH, Value::Int(v));
                    } else {
                        s.push(t, v);
                    }
                } else if abandon {
                    s.recorder().invoke(t, OBJ, POP, Value::Unit);
                } else {
                    s.pop(t);
                }
            }
            LiveTarget::Elim(s) => {
                if rng.chance(128) {
                    if abandon {
                        s.recorder().invoke(t, OBJ, PUSH, Value::Int(v));
                    } else {
                        s.push(t, v);
                    }
                } else if abandon {
                    s.recorder().invoke(t, OBJ, POP, Value::Unit);
                } else {
                    s.try_pop(t, 1 + rng.index(3));
                }
            }
            LiveTarget::Dual(s) => {
                if rng.chance(128) {
                    if abandon {
                        s.recorder().invoke(t, OBJ, PUSH, Value::Int(v));
                    } else {
                        s.push(t, v);
                    }
                } else if abandon {
                    s.recorder().invoke(t, OBJ, POP, Value::Unit);
                } else {
                    s.try_pop(t, 1 + rng.index(3));
                }
            }
            LiveTarget::Sync(q) => {
                if rng.chance(128) {
                    if abandon {
                        q.recorder().invoke(t, OBJ, PUT, Value::Int(v));
                    } else {
                        q.try_put(t, v, 1 + rng.index(3));
                    }
                } else if abandon {
                    q.recorder().invoke(t, OBJ, TAKE, Value::Unit);
                } else {
                    q.try_take(t, 1 + rng.index(3));
                }
            }
        }
    }

    fn history(&self) -> History {
        match self {
            LiveTarget::Exchanger(e) => e.recorder().history(),
            LiveTarget::Treiber(s) => s.recorder().history(),
            LiveTarget::Elim(s) => s.recorder().history(),
            LiveTarget::Dual(s) => s.recorder().history(),
            LiveTarget::Sync(q) => q.recorder().history(),
        }
    }

    fn check(&self, h: &History, options: CheckOptions) -> Result<CheckOutcome, CheckError> {
        match self {
            LiveTarget::Exchanger(_) => check_cal_with(h, &ExchangerSpec::new(OBJ), &options),
            LiveTarget::Treiber(_) => {
                check_cal_with(h, &SeqAsCa::new(StackSpec::total(OBJ)), &options)
            }
            LiveTarget::Elim(_) => {
                check_cal_with(h, &SeqAsCa::new(StackSpec::failing(OBJ)), &options)
            }
            LiveTarget::Dual(_) => check_cal_with(h, &DualStackSpec::with_timeouts(OBJ), &options),
            LiveTarget::Sync(_) => check_cal_with(h, &SyncQueueSpec::new(OBJ), &options),
        }
    }
}

/// Runs one seeded chaos workload and checks the harvested history.
///
/// In [`Mode::Deterministic`] the outcome — fault schedule, interleaving
/// and recorded history — is a pure function of `config` (same seed ⇒
/// same bits). Runs serialize on a process-global lock because the hook
/// registry is global.
pub fn run_once(config: &RunConfig) -> RunOutcome {
    let _serial = run_lock();
    let target = LiveTarget::build(config.target);
    let plan = config.profile.plan();

    match config.mode {
        Mode::Deterministic => {
            let sched = Scheduler::new(config.threads, config.seed, plan);
            let _hooks = hooks::install(Arc::clone(&sched) as Arc<dyn hooks::ChaosHooks>);
            std::thread::scope(|scope| {
                for w in 0..config.threads {
                    let sched = &sched;
                    let target = &target;
                    scope.spawn(move || {
                        let _id = enter_worker(w, config.seed);
                        let _reg = hooks::register_current_thread();
                        let mut rng = SplitMix64::for_worker(config.seed, w);
                        sched.wait_for_turn(w);
                        for i in 0..config.ops_per_thread {
                            let abandon = plan.abandon_prob > 0 && rng.chance(plan.abandon_prob);
                            target.op(ThreadId(w as u32), i, &mut rng, abandon);
                            if abandon {
                                // The worker dies mid-operation: its
                                // invocation stays pending forever.
                                break;
                            }
                        }
                        sched.finish(w);
                    });
                }
            });
        }
        Mode::Stress => {
            let inj = StressInjector::new(config.threads, plan);
            let _hooks = hooks::install(inj as Arc<dyn hooks::ChaosHooks>);
            std::thread::scope(|scope| {
                for w in 0..config.threads {
                    let target = &target;
                    scope.spawn(move || {
                        let _id = enter_worker(w, config.seed);
                        let _reg = hooks::register_current_thread();
                        let mut rng = SplitMix64::for_worker(config.seed, w);
                        for i in 0..config.ops_per_thread {
                            let abandon = plan.abandon_prob > 0 && rng.chance(plan.abandon_prob);
                            target.op(ThreadId(w as u32), i, &mut rng, abandon);
                            if abandon {
                                break;
                            }
                        }
                    });
                }
            });
        }
    }

    let history = target.history();
    // A loaded `.cal` spec shadows the target's built-in one, same
    // policy as `cal-check --spec`.
    let result = match &config.spec {
        Some(def) => check_cal_with(&history, &def.to_ca(OBJ), &config.check_options()),
        None => target.check(&history, config.check_options()),
    };
    let verdict = match result {
        Ok(CheckOutcome { verdict: Verdict::Cal(_), stats }) => ChaosVerdict::Passed(stats),
        Ok(CheckOutcome { verdict: Verdict::NotCal, stats }) => ChaosVerdict::Violation(stats),
        Ok(CheckOutcome { verdict, stats }) => {
            ChaosVerdict::Undecided(verdict.to_string(), stats)
        }
        Err(e) => ChaosVerdict::CheckerError(e.to_string()),
    };
    RunOutcome { config: config.clone(), history, verdict }
}

/// The result of a soak: either every seed passed, or the first failing
/// seed, shrunk to a minimal reproducer.
#[derive(Debug)]
pub enum SoakResult {
    /// All runs passed.
    Clean {
        /// How many seeded runs completed.
        runs: u64,
    },
    /// A run failed; the minimal reproducer found by shrinking.
    Failed {
        /// Runs completed before (and including) the failing one.
        runs: u64,
        /// The shrunk failure, ready to print.
        report: FailureReport,
    },
}

/// Soaks: runs `config` with seeds `seed, seed+1, …` until `budget`
/// elapses or a run fails. A failure is re-run and greedily shrunk to a
/// minimal reproducer (same seed, smaller workload).
pub fn soak(config: &RunConfig, budget: Duration) -> SoakResult {
    soak_with(config, budget, |_, _| {})
}

/// Like [`soak`], invoking `on_run` after every completed run with the
/// run's outcome and the wall-clock elapsed since the soak started —
/// the hook the `chaos-soak` binary hangs its progress lines and
/// per-seed search-statistics aggregation on. The failing run (if any)
/// is observed before shrinking begins.
pub fn soak_with(
    config: &RunConfig,
    budget: Duration,
    on_run: impl FnMut(&RunOutcome, Duration),
) -> SoakResult {
    soak_interruptible(config, budget, || false, on_run)
}

/// Like [`soak_with`], additionally polling `stop` between runs: when it
/// returns `true` the soak ends early with a [`SoakResult::Clean`] tally
/// of the runs completed so far. This is the cancellation point the
/// `chaos-soak` binary wires its SIGINT/SIGTERM flag into, so an
/// interrupted soak still flushes its per-target aggregates instead of
/// dying mid-loop. `stop` is checked *before* each run, never mid-run —
/// a run that has started always completes and is observed by `on_run`.
pub fn soak_interruptible(
    config: &RunConfig,
    budget: Duration,
    stop: impl Fn() -> bool,
    mut on_run: impl FnMut(&RunOutcome, Duration),
) -> SoakResult {
    let start = Instant::now();
    let mut runs = 0u64;
    loop {
        if stop() {
            return SoakResult::Clean { runs };
        }
        let mut cfg = config.clone();
        cfg.seed = config.seed.wrapping_add(runs);
        let outcome = run_once(&cfg);
        runs += 1;
        on_run(&outcome, start.elapsed());
        if let Some(class) = outcome.verdict.class() {
            let report = shrink::shrink_failure(outcome, class);
            return SoakResult::Failed { runs, report };
        }
        if start.elapsed() >= budget {
            return SoakResult::Clean { runs };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_and_mode_names_round_trip() {
        for t in TargetKind::ALL {
            assert_eq!(TargetKind::parse(t.name()), Some(t));
        }
        assert_eq!(TargetKind::parse("bogus"), None);
        for m in [Mode::Deterministic, Mode::Stress] {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
    }

    #[test]
    fn deterministic_exchanger_run_passes() {
        let cfg = RunConfig { seed: 11, ..RunConfig::default() };
        let out = run_once(&cfg);
        assert!(out.verdict.class().is_none(), "unexpected failure: {}", out.verdict);
        assert!(out.history.is_well_formed());
    }

    #[test]
    fn deterministic_runs_are_bit_for_bit_reproducible() {
        for target in TargetKind::ALL {
            if target == TargetKind::BuggyExchanger {
                continue; // covered by its own test
            }
            let cfg = RunConfig { seed: 0xCA11, target, ..RunConfig::default() };
            let a = run_once(&cfg);
            let b = run_once(&cfg);
            assert_eq!(
                a.history.to_string(),
                b.history.to_string(),
                "{target}: same seed must give the same history"
            );
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_schedules() {
        // Not guaranteed for any two seeds, but across 8 seeds the
        // histories must not all collapse to one interleaving.
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..8 {
            let cfg = RunConfig { seed, ..RunConfig::default() };
            distinct.insert(run_once(&cfg).history.to_string());
        }
        assert!(distinct.len() > 1, "seeds do not influence the schedule");
    }

    #[test]
    fn all_targets_pass_a_deterministic_run() {
        for target in TargetKind::ALL {
            if target == TargetKind::BuggyExchanger {
                continue;
            }
            let cfg = RunConfig { seed: 5, target, ..RunConfig::default() };
            let out = run_once(&cfg);
            assert!(
                out.verdict.class().is_none(),
                "{target} failed under chaos: {}\n{}",
                out.verdict,
                out.history
            );
        }
    }

    #[test]
    fn stress_mode_runs_and_passes() {
        let cfg = RunConfig { seed: 3, mode: Mode::Stress, ..RunConfig::default() };
        let out = run_once(&cfg);
        assert!(out.verdict.class().is_none(), "stress run failed: {}", out.verdict);
        assert!(out.history.is_well_formed());
    }

    /// The shipped exchanger `.cal` file, compiled at test time — the
    /// same source the soak binary loads with `--spec`.
    fn loaded_exchanger() -> Arc<SpecDef> {
        let file = cal_core::dsl::parse_str(include_str!("../../../specs/exchanger.cal"))
            .expect("shipped spec must compile");
        match file.specs() {
            [only] => Arc::clone(only),
            many => panic!("expected one spec, got {}", many.len()),
        }
    }

    /// A loaded spec drives the check instead of the built-in: the
    /// healthy exchanger still passes under the equivalent `.cal` spec.
    #[test]
    fn loaded_spec_checks_a_run() {
        let cfg =
            RunConfig { seed: 11, spec: Some(loaded_exchanger()), ..RunConfig::default() };
        let out = run_once(&cfg);
        assert!(out.verdict.class().is_none(), "unexpected failure: {}", out.verdict);
    }

    /// The loaded spec is really what the checker consults: it catches
    /// the planted misdelivery bug just like the built-in spec does, and
    /// the shrunk reproducer comes out of the same pipeline.
    #[test]
    fn loaded_spec_catches_the_planted_bug() {
        let cfg = RunConfig {
            seed: 1,
            target: TargetKind::BuggyExchanger,
            spec: Some(loaded_exchanger()),
            ..RunConfig::default()
        };
        match soak(&cfg, Duration::from_secs(10)) {
            SoakResult::Failed { report, .. } => {
                assert_eq!(report.class, FailureClass::Violation);
            }
            SoakResult::Clean { runs } => {
                panic!("planted bug survived {runs} soak runs under the loaded spec")
            }
        }
    }

    #[test]
    fn buggy_exchanger_soak_is_caught_quickly() {
        let cfg = RunConfig {
            seed: 1,
            target: TargetKind::BuggyExchanger,
            ..RunConfig::default()
        };
        match soak(&cfg, Duration::from_secs(10)) {
            SoakResult::Failed { report, .. } => {
                assert_eq!(report.class, FailureClass::Violation);
                let text = report.to_string();
                assert!(text.contains("seed"), "report must print the seed:\n{text}");
            }
            SoakResult::Clean { runs } => {
                panic!("planted bug survived {runs} soak runs")
            }
        }
    }
}
