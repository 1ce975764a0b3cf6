//! `chaos-soak` — soak the live objects under seeded fault injection
//! until a time budget elapses or a history fails its CAL check, then
//! shrink the failure to a minimal reproducer and print it with its seed.
//!
//! ```text
//! Usage: chaos-soak [--seed <N>] [--secs <S>] [--target <T>|all]
//!                   [--spec <FILE.cal>] [--spec-name <NAME>]
//!                   [--threads <N>] [--check-threads <N>] [--ops <N>]
//!                   [--profile <P>] [--mode <M>] [--deadline-ms <N>]
//!                   [--stats]
//!
//!   T  exchanger | buggy-exchanger | treiber-stack | elim-stack |
//!      dual-stack | sync-queue | all            (default all)
//!   P  light | heavy | starvation               (default heavy)
//!   M  deterministic | stress                   (default deterministic)
//!
//! `all` soaks every target except the deliberately broken
//! buggy-exchanger, splitting the time budget evenly.
//!
//! `--spec <FILE.cal>` checks harvested histories against a runtime-loaded
//! spec (docs/SPEC_DSL.md) instead of the target's built-in one, with the
//! same compile-before-input contract as `cal-check`/`cal-serve`: the file
//! compiles before any run starts, and a compile failure prints its
//! diagnostic and exits 3. A multi-spec file needs `--spec-name` to pick
//! one; a missing pick, or a name the file lacks, is a usage error
//! (exit 4). Because the loaded spec replaces the per-target built-ins,
//! `--spec` requires a single explicit `--target` (not `all`).
//!
//! `--threads` sizes the *workload*; `--check-threads` sizes the CAL
//! checker run on each harvested history (> 1 engages the parallel
//! checker).
//!
//! `--stats` prints a progress line roughly every two seconds while a
//! target soaks, and an end-of-run aggregate per target keyed by seed:
//! seed range covered, total / mean search nodes, and the most expensive
//! seed (the one whose check expanded the most nodes).
//!
//! Exit status (the contract shared with `cal-check` and `cal-serve`):
//! 0 = every run passed (including a SIGINT/SIGTERM-interrupted soak,
//! which flushes its per-target aggregates first), 1 = a failure was
//! found (reproducer printed), 3 = a `--spec` file that cannot be read
//! or does not compile, 4 = usage error.
//! ```
//!
//! Examples:
//!
//! ```bash
//! cargo run --bin chaos-soak -- --seed 0xCA11 --secs 10 --stats
//! cargo run --bin chaos-soak -- --target buggy-exchanger --secs 10   # finds the planted bug
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cal::chaos::driver::{soak_interruptible, Mode, RunConfig, SoakResult, TargetKind};
use cal::chaos::Profile;
use cal::cli::{
    install_shutdown_handler, parse_seed, select_spec, shutdown_requested, LoadedSpecs,
    EXIT_REJECTED, EXIT_USAGE,
};
use cal::core::check::CheckStats;

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos-soak [--seed <N>] [--secs <S>] [--target <T>|all]\n\
         \x20                 [--spec <FILE.cal>] [--spec-name <NAME>]\n\
         \x20                 [--threads <N>] [--check-threads <N>] [--ops <N>]\n\
         \x20                 [--profile <P>] [--mode <M>] [--deadline-ms <N>] [--stats]\n\
         \n\
         T: exchanger | buggy-exchanger | treiber-stack | elim-stack | dual-stack | sync-queue | all\n\
         P: light | heavy | starvation\n\
         M: deterministic | stress\n\
         --spec: check against a runtime-loaded .cal spec (docs/SPEC_DSL.md) instead of\n\
         \x20       the target's built-in; compiled before any run, compile failure exits 3;\n\
         \x20       requires a single explicit --target\n\
         --stats: periodic progress lines + per-target search-cost aggregate keyed by seed"
    );
    ExitCode::from(EXIT_USAGE)
}

/// Per-target aggregation of checker statistics across seeded runs.
#[derive(Default)]
struct TargetAgg {
    runs: u64,
    nodes: u64,
    elements: u64,
    memo_hits: u64,
    first_seed: Option<u64>,
    last_seed: u64,
    /// The seed whose check expanded the most nodes, and that count.
    worst: Option<(u64, u64)>,
}

impl TargetAgg {
    fn add(&mut self, seed: u64, stats: &CheckStats) {
        self.runs += 1;
        self.nodes += stats.nodes;
        self.elements += stats.elements_tried;
        self.memo_hits += stats.memo_hits;
        self.first_seed.get_or_insert(seed);
        self.last_seed = seed;
        if self.worst.is_none_or(|(_, n)| stats.nodes > n) {
            self.worst = Some((seed, stats.nodes));
        }
    }

    fn print(&self, target: TargetKind) {
        let Some(first) = self.first_seed else {
            println!("  stats[{target}]: no checked runs");
            return;
        };
        let mean = self.nodes as f64 / self.runs as f64;
        println!(
            "  stats[{target}]: seeds {first:#x}..={:#x}, {} runs, {} nodes total (mean {mean:.1}), \
             {} elements, {} memo hits",
            self.last_seed, self.runs, self.nodes, self.elements, self.memo_hits,
        );
        if let Some((seed, nodes)) = self.worst {
            println!("  stats[{target}]: most expensive seed {seed:#x} ({nodes} nodes)");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = RunConfig::default();
    let mut targets: Option<Vec<TargetKind>> = None; // None = all healthy targets
    let mut secs = 10u64;
    let mut stats = false;
    let mut spec_file: Option<String> = None;
    let mut spec_name: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|n| parse_seed(n)) {
                Some(s) => config.seed = s,
                None => return usage(),
            },
            "--secs" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(s) if s > 0 => secs = s,
                _ => return usage(),
            },
            "--target" => match it.next() {
                Some(t) if t == "all" => targets = None,
                Some(t) => match TargetKind::parse(t) {
                    Some(t) => targets = Some(vec![t]),
                    None => return usage(),
                },
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.threads = n,
                _ => return usage(),
            },
            "--check-threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.check_threads = n,
                _ => return usage(),
            },
            "--ops" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.ops_per_thread = n,
                _ => return usage(),
            },
            "--profile" => match it.next().and_then(|p| Profile::parse(p)) {
                Some(p) => config.profile = p,
                None => return usage(),
            },
            "--mode" => match it.next().and_then(|m| Mode::parse(m)) {
                Some(m) => config.mode = m,
                None => return usage(),
            },
            "--deadline-ms" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(ms) => config.deadline = Some(Duration::from_millis(ms)),
                None => return usage(),
            },
            "--spec" => match it.next() {
                Some(p) => spec_file = Some(p.clone()),
                None => return usage(),
            },
            "--spec-name" => match it.next() {
                Some(n) => spec_name = Some(n.clone()),
                None => return usage(),
            },
            "--stats" => stats = true,
            _ => return usage(),
        }
    }

    // `--spec` compiles before any run starts, so a bad .cal file fails
    // fast with its diagnostic (exit 3) — the contract shared with
    // `cal-check` and `cal-serve`. The loaded spec replaces the target's
    // built-in, so it only makes sense against one explicit target.
    if let Some(path) = &spec_file {
        if targets.as_ref().is_none_or(|t| t.len() != 1) {
            eprintln!("chaos-soak: --spec requires a single explicit --target");
            return usage();
        }
        let loaded = match LoadedSpecs::load("chaos-soak", path) {
            Ok(l) => l,
            Err(code) => return ExitCode::from(code),
        };
        let Some(selected) = select_spec("chaos-soak", Some(&loaded), spec_name.as_deref()) else {
            return usage();
        };
        let Some(def) = selected.loaded_def() else {
            eprintln!("chaos-soak: {path} defines no spec {:?}", selected.name());
            return usage();
        };
        config.spec = Some(Arc::clone(def));
    } else if spec_name.is_some() {
        return usage(); // --spec-name is meaningless without --spec
    }

    // SIGINT/SIGTERM raise a flag checked between runs: an interrupted
    // soak still flushes its per-target aggregates and exits clean.
    install_shutdown_handler();

    // The planted bug is opt-in: `all` soaks only the healthy objects.
    let targets = targets.unwrap_or_else(|| {
        TargetKind::ALL.into_iter().filter(|t| *t != TargetKind::BuggyExchanger).collect()
    });
    let per_target = Duration::from_secs(secs) / targets.len() as u32;

    let mut total_runs = 0u64;
    for target in targets {
        let cfg = RunConfig { target, ..config.clone() };
        println!(
            "soaking {target} for {:.1}s (seed {:#x}, {} threads x {} ops, {} profile, {} mode)",
            per_target.as_secs_f64(),
            cfg.seed,
            cfg.threads,
            cfg.ops_per_thread,
            cfg.profile,
            cfg.mode,
        );
        let mut agg = TargetAgg::default();
        let mut last_progress = Instant::now();
        let result = soak_interruptible(&cfg, per_target, shutdown_requested, |outcome, elapsed| {
            if let Some(s) = outcome.verdict.stats() {
                agg.add(outcome.config.seed, s);
            }
            if stats && last_progress.elapsed() >= Duration::from_secs(2) {
                println!(
                    "  [{:5.1}s] {} runs, {} nodes searched, at seed {:#x}",
                    elapsed.as_secs_f64(),
                    agg.runs,
                    agg.nodes,
                    outcome.config.seed,
                );
                last_progress = Instant::now();
            }
        });
        match result {
            SoakResult::Clean { runs } => {
                total_runs += runs;
                println!("  {runs} seeded runs passed");
                if stats {
                    agg.print(target);
                }
                if shutdown_requested() {
                    println!("soak interrupted: {total_runs} runs completed, aggregates flushed");
                    return ExitCode::SUCCESS;
                }
            }
            SoakResult::Failed { runs, report } => {
                println!("  failure on run {runs}; shrunk to a minimal reproducer:");
                print!("{report}");
                if stats {
                    agg.print(target);
                }
                return ExitCode::from(EXIT_REJECTED);
            }
        }
    }
    println!("soak clean: {total_runs} runs, every history explainable");
    ExitCode::SUCCESS
}
