//! `cal-check` — check a recorded history against one of the built-in
//! specifications, or run a single seeded chaos workload against a live
//! object and check the harvested history. Histories may be native
//! (`cal_core::text`), porcupine/Jepsen-style records, or timestamped
//! Put/Get logs (`cal_core::format`); the format is sniffed per input
//! unless `--format` pins it.
//!
//! ```text
//! Usage: cal-check <SPEC> <FILE> [--spec <FILE.cal>] [--mode cal|seq|interval|causal]
//!                  [--hb auto|session|real-time] [--object <N>]
//!                  [--format auto|native|jepsen|kvlog]
//!                  [--deadline-ms <N>] [--max-nodes <N>] [--threads <N>]
//!                  [--no-symmetry] [--stats] [--stats-json <PATH>] [--explain]
//!        cal-check <SPEC> --batch <DIR> [--spec <FILE.cal>]
//!                  [--mode cal|seq|interval|causal] [--hb auto|session|real-time]
//!                  [--object <N>] [--format auto|native|jepsen|kvlog]
//!                  [--deadline-ms <N>] [--max-nodes <N>] [--threads <N>]
//!        cal-check --chaos <PROFILE> [--seed <N>] [--target <T>]
//!                  [--threads <N>] [--check-threads <N>] [--ops <N>]
//!                  [--mode <M>] [--deadline-ms <N>]
//!
//!   SPEC     exchanger | elim-array | sync-queue | dual-stack (concurrency-aware)
//!            stack | failing-stack | register | counter | kv (sequential)
//!            write-snapshot                                  (interval)
//!   FILE     history file, or - for stdin
//!   DIR      directory of history files, checked concurrently
//!   PROFILE  light | heavy | starvation
//!   T        exchanger | buggy-exchanger | treiber-stack | elim-stack |
//!            dual-stack | sync-queue       (default exchanger)
//!   M        file/batch mode: cal | seq | interval | causal (default cal)
//!            chaos mode:      deterministic | stress        (default deterministic)
//!
//! `--format` selects the input trace format (default `auto`: sniff each
//! input, first contentful line wins). The `kv` spec — a map of
//! independent per-key integer registers — is the natural spec for
//! imported jepsen/kvlog traces and works in every `--mode`.
//!
//! `--spec <FILE.cal>` loads user-written specifications from a `.cal`
//! file (see `docs/SPEC_DSL.md`) at runtime; a compile failure prints the
//! diagnostic (code, message, line and column) and exits 3. Loaded spec
//! names *shadow* the built-ins, so a file may deliberately redefine
//! `register`. If the file defines exactly one spec, the positional SPEC
//! may be omitted; with several, name one. `kind seq` and `kind ca`
//! specs are gated like sequential and concurrency-aware built-ins.
//!
//! `--mode` selects the checker, all of which run on the shared search
//! kernel: `cal` (concurrency-aware linearizability; sequential specs
//! are lifted to singleton elements), `seq` (classical linearizability),
//! `interval` (interval-linearizability; sequential specs become
//! singleton-interval specs), or `causal` (the CAL membership search
//! constrained by a happens-before *partial* order instead of the
//! real-time total order — the weak-memory reading of a trace). The
//! spec's kind picks the modes: sequential specs check in every mode,
//! concurrency-aware specs in `cal` and `causal`, interval-native specs
//! in `interval`; any other pairing is a usage error.
//!
//! `--hb` picks causal mode's order source. `auto` (the default) uses
//! the trace's declared causality metadata — kvlog `hb session` / `hb
//! <i> <j>` lines — when present, and falls back to real time otherwise
//! (so unannotated traces behave exactly as in `--mode cal`). `session`
//! keeps only per-thread session order plus declared edges — the
//! Jepsen-`:process` reading of any input. `real-time` forces the total
//! order, making `causal` agree with `cal` on every input (the
//! differential anchor the test-suite pins).
//!
//! In file mode `--threads` sets the checker's worker threads (the
//! parallel driver engages above 1, in every mode); in batch mode it
//! sizes the pool of files checked concurrently; in chaos mode it sets
//! the *workload* threads and `--check-threads` the checker's.
//!
//! Observability (file mode, every `--mode`): `--stats` prints a one-line
//! search summary to stderr, `--stats-json <PATH>` writes the full
//! SearchReport as JSON (`-` for stdout), `--explain` prints a multi-line
//! account of where the search spent its work and why an undecided
//! verdict stopped.
//!
//! Exit status: 0 = accepted, 1 = rejected, 2 = undecided (budget,
//! deadline or cancellation), 3 = input/parse/checker error, 4 = usage.
//! Batch mode folds per-file results with the same codes (worst wins:
//! 3 > 2 > 1 > 0). Chaos mode: 0 = passed, 1 = violation, 2 = undecided,
//! 3 = checker error. A closed output pipe (e.g. `cal-check ... | head`)
//! is not an error: the process exits 0 as soon as the pipe breaks.
//! ```
//!
//! Example:
//!
//! ```bash
//! printf 't1 inv o0.exchange 3\nt2 inv o0.exchange 4\nt1 res o0.exchange (true,4)\nt2 res o0.exchange (true,3)\n' \
//!   | cargo run --bin cal-check -- exchanger - --deadline-ms 500 --stats
//! cargo run --bin cal-check -- register history.txt --mode seq --stats
//! cargo run --bin cal-check -- exchanger --batch tests/corpus --threads 4
//! cargo run --bin cal-check -- --chaos heavy --seed 7 --target elim-stack
//! ```

use std::io::{self, Read, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cal::chaos::driver::{run_once, ChaosVerdict, Mode, RunConfig, TargetKind};
use cal::chaos::Profile;
use cal::cli::{
    parse_seed, select_spec, Kind, LoadedSpecs, SelectedSpec, SpecVisitor, EXIT_ACCEPTED,
    EXIT_ERROR, EXIT_REJECTED, EXIT_UNDECIDED, EXIT_USAGE,
};
use cal::core::causal::check_causal_with;
use cal::core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, Verdict};
use cal::core::format::{self, Format};
use cal::core::history::HbRelation;
use cal::core::interval::{check_interval_with, IntervalSpec, IntervalWitness, SeqAsInterval};
use cal::core::obs::{CountingSink, SearchReport};
use cal::core::seqlin::check_linearizable_with;
use cal::core::spec::{CaSpec, SeqAsCa, SeqSpec};
use cal::core::text::format_trace;
use cal::core::{History, ObjectId};

/// Broken-pipe-safe printing: all output goes through these macros, which
/// bubble `io::Error` up to [`main`] where `BrokenPipe` becomes a clean
/// exit 0 (so `cal-check ... | head` never panics).
macro_rules! outln {
    ($($t:tt)*) => { writeln!(io::stdout(), $($t)*) }
}
macro_rules! out {
    ($($t:tt)*) => { write!(io::stdout(), $($t)*) }
}
macro_rules! errln {
    ($($t:tt)*) => { writeln!(io::stderr(), $($t)*) }
}

fn usage() -> io::Result<ExitCode> {
    errln!(
        "usage: cal-check <SPEC> <FILE> [--spec <FILE.cal>] [--mode cal|seq|interval|causal]\n\
         \x20                [--hb auto|session|real-time] [--object <N>]\n\
         \x20                [--format auto|native|jepsen|kvlog]\n\
         \x20                [--deadline-ms <N>] [--max-nodes <N>] [--threads <N>]\n\
         \x20                [--no-symmetry] [--stats] [--stats-json <PATH>] [--explain]\n\
         \x20      cal-check <SPEC> --batch <DIR> [--spec <FILE.cal>]\n\
         \x20                [--mode cal|seq|interval|causal] [--hb auto|session|real-time]\n\
         \x20                [--object <N>] [--format auto|native|jepsen|kvlog]\n\
         \x20                [--deadline-ms <N>] [--max-nodes <N>] [--threads <N>]\n\
         \x20      cal-check --chaos <PROFILE> [--seed <N>] [--target <T>]\n\
         \x20                [--threads <N>] [--check-threads <N>] [--ops <N>] [--mode <M>]\n\
         \x20                [--deadline-ms <N>]\n\
         \n\
         SPEC:    exchanger | elim-array | sync-queue | dual-stack | stack | failing-stack |\n\
         \x20        register | counter | kv | write-snapshot\n\
         FILE:    history file (native, jepsen, or kvlog format), or - for stdin\n\
         DIR:     directory of history files, checked concurrently\n\
         PROFILE: light | heavy | starvation\n\
         T:       exchanger | buggy-exchanger | treiber-stack | elim-stack | dual-stack | sync-queue\n\
         M:       cal | seq | interval | causal (file/batch; default cal)\n\
         \x20        — deterministic | stress (chaos)\n\
         \n\
         --spec         load user specs from a .cal file (docs/SPEC_DSL.md); loaded\n\
         \x20              names shadow built-ins, and with a single-spec file the\n\
         \x20              positional SPEC may be omitted\n\
         --hb           causal-mode order source (default auto): auto uses declared kvlog\n\
         \x20              `hb` metadata when present and real time otherwise; session\n\
         \x20              keeps only per-thread session order plus declared edges;\n\
         \x20              real-time forces the total order (causal ≡ cal)\n\
         --format       input trace format; auto (default) sniffs each input\n\
         --max-nodes    search node budget; exhausting it is verdict `undecided` (exit 2)\n\
         --no-symmetry  disable symmetry reduction over interchangeable ops (file mode)\n\
         --stats        print a one-line search summary to stderr (file mode)\n\
         --stats-json   write the SearchReport as JSON to PATH, or - for stdout (file mode)\n\
         --explain      print why the verdict was slow or undecided (file mode)\n\
         \n\
         exit status: 0 accepted, 1 rejected, 2 undecided, 3 input/checker error, 4 usage"
    )?;
    Ok(ExitCode::from(EXIT_USAGE))
}

/// Which checker a file/batch invocation runs. All four are thin domains
/// over the same `cal_core::engine` search kernel; `causal` is the CAL
/// domain with the order relation swapped to happens-before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckerMode {
    Cal,
    Seq,
    Interval,
    Causal,
}

/// How `--mode causal` derives the happens-before order from the input
/// (`--hb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum HbPolicy {
    /// Annotated traces (kvlog `hb` lines) use their declared edges over
    /// session order; unannotated traces fall back to the real-time
    /// order, on which causal mode agrees with CAL mode by construction.
    #[default]
    Auto,
    /// Session order only (plus any declared edges): the weak-memory
    /// reading of any trace — for Jepsen inputs this is the `:process`
    /// session-edge interpretation.
    Session,
    /// The real-time total order `≺H`; causal mode then agrees with CAL
    /// mode on every input (the differential anchor).
    RealTime,
}

impl CheckerMode {
    /// The mode × kind table: the verdict adjective for a spec of `kind`
    /// checked in this mode, or `None` where the kind has no reading in
    /// this mode (a usage error). Sequential specs check in every mode;
    /// concurrency-aware specs in cal and causal mode; interval-native
    /// specs in interval mode.
    fn adjective(self, kind: Kind) -> Option<&'static str> {
        match (self, kind) {
            (CheckerMode::Cal, Kind::Ca) => Some("concurrency-aware linearizable"),
            (CheckerMode::Cal | CheckerMode::Seq, Kind::Seq) => Some("linearizable"),
            (CheckerMode::Interval, Kind::Seq | Kind::Interval) => Some("interval-linearizable"),
            (CheckerMode::Causal, Kind::Ca) => Some("causally concurrency-aware linearizable"),
            (CheckerMode::Causal, Kind::Seq) => Some("causally linearizable"),
            _ => None,
        }
    }
}

impl HbPolicy {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(HbPolicy::Auto),
            "session" => Some(HbPolicy::Session),
            "real-time" => Some(HbPolicy::RealTime),
            _ => None,
        }
    }
}

fn main() -> ExitCode {
    match try_main() {
        Ok(code) => code,
        // A reader (head, a closed pager, …) hung up: that is a normal way
        // for output to end, not an error.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::from(EXIT_ACCEPTED),
        Err(e) => {
            let _ = writeln!(io::stderr(), "cal-check: io error: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn try_main() -> io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_name = None;
    let mut spec_file: Option<String> = None;
    let mut file = None;
    let mut batch = None;
    let mut object = None;
    let mut deadline = None;
    let mut chaos_profile = None;
    let mut seed = 0u64;
    let mut target = TargetKind::Exchanger;
    let mut threads = None;
    let mut check_threads = None;
    let mut ops = None;
    let mut chaos_mode: Option<Mode> = None;
    let mut checker_mode: Option<CheckerMode> = None;
    let mut hb_policy: Option<HbPolicy> = None;
    let mut trace_format: Option<Format> = None;
    let mut max_nodes: Option<u64> = None;
    let mut no_symmetry = false;
    let mut stats = false;
    let mut stats_json: Option<String> = None;
    let mut explain = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--object" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => object = Some(ObjectId(n)),
                None => return usage(),
            },
            "--deadline-ms" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(ms) => deadline = Some(Duration::from_millis(ms)),
                None => return usage(),
            },
            "--chaos" => match it.next().and_then(|p| Profile::parse(p)) {
                Some(p) => chaos_profile = Some(p),
                None => return usage(),
            },
            "--batch" => match it.next() {
                Some(d) => batch = Some(d.clone()),
                None => return usage(),
            },
            "--spec" => match it.next() {
                Some(p) => spec_file = Some(p.clone()),
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|n| parse_seed(n)) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--target" => match it.next().and_then(|t| TargetKind::parse(t)) {
                Some(t) => target = t,
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => threads = Some(n),
                _ => return usage(),
            },
            "--check-threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => check_threads = Some(n),
                _ => return usage(),
            },
            "--ops" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => ops = Some(n),
                _ => return usage(),
            },
            // `--mode` is overloaded: checker selection in file/batch mode,
            // schedule selection in chaos mode. The value disambiguates.
            "--mode" => match it.next().map(String::as_str) {
                Some("cal") => checker_mode = Some(CheckerMode::Cal),
                Some("seq") => checker_mode = Some(CheckerMode::Seq),
                Some("interval") => checker_mode = Some(CheckerMode::Interval),
                Some("causal") => checker_mode = Some(CheckerMode::Causal),
                Some(m) => match Mode::parse(m) {
                    Some(m) => chaos_mode = Some(m),
                    None => return usage(),
                },
                None => return usage(),
            },
            "--hb" => match it.next().and_then(|p| HbPolicy::parse(p)) {
                Some(p) => hb_policy = Some(p),
                None => return usage(),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("auto") => trace_format = None,
                Some(f) => match f.parse::<Format>() {
                    Ok(f) => trace_format = Some(f),
                    Err(e) => {
                        let _ = errln!("cal-check: {e}");
                        return usage();
                    }
                },
                None => return usage(),
            },
            "--max-nodes" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => max_nodes = Some(n),
                _ => return usage(),
            },
            "--no-symmetry" => no_symmetry = true,
            "--stats" => stats = true,
            "--stats-json" => match it.next() {
                Some(p) => stats_json = Some(p.clone()),
                None => return usage(),
            },
            "--explain" => explain = true,
            "-h" | "--help" => return usage(),
            _ if spec_name.is_none() => spec_name = Some(a.clone()),
            _ if file.is_none() => file = Some(a.clone()),
            _ => return usage(),
        }
    }

    if let Some(profile) = chaos_profile {
        if spec_name.is_some()
            || spec_file.is_some()
            || file.is_some()
            || batch.is_some()
            || checker_mode.is_some()
        {
            return usage();
        }
        if stats
            || explain
            || stats_json.is_some()
            || trace_format.is_some()
            || max_nodes.is_some()
            || no_symmetry
            || hb_policy.is_some()
        {
            return usage(); // stats/format/budget/search flags are file-mode only
        }
        let mode = chaos_mode.unwrap_or(Mode::Deterministic);
        let mut config = RunConfig { seed, target, profile, mode, ..RunConfig::default() };
        if let Some(t) = threads {
            config.threads = t;
        }
        if let Some(t) = check_threads {
            config.check_threads = t;
        }
        if let Some(o) = ops {
            config.ops_per_thread = o;
        }
        if let Some(d) = deadline {
            config.deadline = Some(d);
        }
        return run_chaos(&config);
    }
    if chaos_mode.is_some() {
        return usage(); // deterministic|stress make sense only with --chaos
    }
    let mode = checker_mode.unwrap_or(CheckerMode::Cal);
    if hb_policy.is_some() && mode != CheckerMode::Causal {
        return usage(); // --hb chooses the order source for --mode causal only
    }
    let hb_policy = hb_policy.unwrap_or_default();

    // Loading happens before any history is read, so a bad .cal file
    // fails fast (exit 3) even when the input would come from stdin.
    let loaded = match spec_file.as_deref().map(|p| LoadedSpecs::load("cal-check", p)) {
        Some(Ok(l)) => Some(l),
        Some(Err(code)) => return Ok(ExitCode::from(code)),
        None => None,
    };
    // With --spec, a single positional that names no loaded spec is the
    // input file — `cal-check --spec one.cal trace.hist` just works.
    if let (Some(l), None, Some(name)) = (&loaded, &file, &spec_name) {
        if !l.defines(name) {
            file = spec_name.take();
        }
    }
    let Some(selected) = select_spec("cal-check", loaded.as_ref(), spec_name.as_deref()) else {
        return usage();
    };
    if mode.adjective(selected.kind()).is_none() {
        errln!("cal-check: spec {:?} is not checkable in this --mode", selected.name())?;
        return usage();
    }

    if let Some(dir) = batch {
        if file.is_some() || stats || explain || stats_json.is_some() || no_symmetry {
            return usage();
        }
        return run_batch(
            &selected,
            mode,
            hb_policy,
            trace_format,
            &dir,
            object,
            deadline,
            max_nodes,
            threads.unwrap_or(1),
        );
    }

    let Some(file) = file else {
        return usage();
    };
    let input = match read_input(&file) {
        Ok(s) => s,
        Err(e) => {
            errln!("cal-check: cannot read {file}: {e}")?;
            return Ok(ExitCode::from(EXIT_ERROR));
        }
    };
    let mut options =
        CheckOptions { deadline, threads: threads.unwrap_or(1), ..CheckOptions::default() };
    if let Some(n) = max_nodes {
        options.max_nodes = n;
    }
    if no_symmetry {
        options.symmetry = false;
    }
    let want_report = stats || explain || stats_json.is_some();
    let (checked, report) =
        check_input(&selected, mode, hb_policy, trace_format, &input, object, &options, want_report);
    if let Some(report) = &report {
        if stats {
            errln!("stats: {}", report.summary())?;
        }
        if explain {
            errln!("{}", report.explain())?;
        }
        if let Some(path) = &stats_json {
            let json = report.to_json();
            if path == "-" {
                outln!("{json}")?;
            } else if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                errln!("cal-check: cannot write {path}: {e}")?;
                return Ok(ExitCode::from(EXIT_ERROR));
            }
        }
    }
    match checked {
        Checked::Accepted { adjective, witness } => {
            outln!("{adjective}: yes")?;
            out!("{witness}")?;
            io::stdout().flush()?;
            Ok(ExitCode::from(EXIT_ACCEPTED))
        }
        Checked::Rejected { adjective } => {
            outln!("{adjective}: NO")?;
            Ok(ExitCode::from(EXIT_REJECTED))
        }
        Checked::Undecided(why) => {
            errln!("cal-check: undecided — {why}")?;
            Ok(ExitCode::from(EXIT_UNDECIDED))
        }
        Checked::Error(e) => {
            errln!("cal-check: {e}")?;
            Ok(ExitCode::from(EXIT_ERROR))
        }
    }
}

/// Runs one seeded chaos workload and reports the harvested history's
/// verdict.
fn run_chaos(config: &RunConfig) -> io::Result<ExitCode> {
    let outcome = run_once(config);
    outln!(
        "chaos run: seed={:#x} target={} threads={} ops/thread={} profile={} mode={} check-threads={}",
        config.seed, config.target, config.threads, config.ops_per_thread, config.profile,
        config.mode, config.check_threads,
    )?;
    outln!("harvested history:")?;
    for line in outcome.history.to_string().lines() {
        outln!("  {line}")?;
    }
    outln!("verdict: {}", outcome.verdict)?;
    Ok(match outcome.verdict {
        ChaosVerdict::Passed(_) => ExitCode::from(EXIT_ACCEPTED),
        ChaosVerdict::Violation(_) => ExitCode::from(EXIT_REJECTED),
        ChaosVerdict::Undecided(..) => ExitCode::from(EXIT_UNDECIDED),
        ChaosVerdict::CheckerError(_) => ExitCode::from(EXIT_ERROR),
    })
}

fn read_input(file: &str) -> io::Result<String> {
    if file == "-" {
        let mut buf = String::new();
        io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        std::fs::read_to_string(file)
    }
}

/// One history's check result, renderable in single-file or batch mode.
enum Checked {
    Accepted { adjective: &'static str, witness: String },
    Rejected { adjective: &'static str },
    Undecided(String),
    Error(String),
}

/// Parses `input` (in the explicit format, or sniffed) and checks it
/// against the named specification with the selected checker. With
/// `want_report` a [`CountingSink`] rides along and the checker's
/// [`SearchReport`] is returned next to the result (absent when parsing or
/// the checker itself failed).
///
/// Parse and validation errors are line-anchored: `cal_core::format`
/// tracks the source line of every action, so even well-formedness
/// failures (nested invocation, mismatched response) name the offending
/// input line.
#[allow(clippy::too_many_arguments)]
fn check_input(
    selected: &SelectedSpec,
    mode: CheckerMode,
    hb_policy: HbPolicy,
    trace_format: Option<Format>,
    input: &str,
    object: Option<ObjectId>,
    options: &CheckOptions,
    want_report: bool,
) -> (Checked, Option<SearchReport>) {
    let fmt = trace_format.unwrap_or_else(|| format::detect(input));
    // Causal mode parses with annotations so kvlog `hb` metadata reaches
    // the order; the other modes ignore causality metadata by design.
    let (history, hb_edges) = if mode == CheckerMode::Causal {
        match format::parse_annotated(fmt, input) {
            Ok(a) => (a.history, a.hb_edges),
            Err(e) => return (Checked::Error(format!("parse error ({fmt}): {e}")), None),
        }
    } else {
        match format::parse_as(fmt, input) {
            Ok(h) => (h, None),
            Err(e) => return (Checked::Error(format!("parse error ({fmt}): {e}")), None),
        }
    };
    let object = object.or_else(|| history.objects().first().copied()).unwrap_or(ObjectId(0));
    let start = Instant::now();
    let hb = if mode == CheckerMode::Causal {
        let spans = match history.try_spans() {
            Ok(s) => s,
            Err(e) => return (Checked::Error(format!("ill-formed history: {e}")), None),
        };
        let hb = match hb_policy {
            HbPolicy::RealTime => Ok(HbRelation::real_time(&spans)),
            HbPolicy::Session => HbRelation::causal(&spans, hb_edges.as_deref().unwrap_or(&[])),
            HbPolicy::Auto => match &hb_edges {
                Some(edges) => HbRelation::causal(&spans, edges),
                None => Ok(HbRelation::real_time(&spans)),
            },
        };
        match hb {
            Ok(hb) => Some(hb),
            Err(e) => return (Checked::Error(format!("happens-before: {e}")), None),
        }
    } else {
        None
    };
    let sink = want_report.then(|| Arc::new(CountingSink::new()));
    let options = CheckOptions {
        sink: sink.clone().map(|s| s as Arc<dyn cal::core::obs::StatsSink>),
        ..options.clone()
    };
    let adjective = mode.adjective(selected.kind()).expect("mode gated before checking");
    let run = Run { mode, adjective, history: &history, hb, options, sink, start };
    selected.visit(object, run)
}

/// One history's check in one mode, dispatched on the spec's kind.
struct Run<'a> {
    mode: CheckerMode,
    adjective: &'static str,
    history: &'a History,
    /// The happens-before order; `Some` exactly in causal mode.
    hb: Option<HbRelation>,
    options: CheckOptions,
    sink: Option<Arc<CountingSink>>,
    start: Instant,
}

impl SpecVisitor for Run<'_> {
    type Output = (Checked, Option<SearchReport>);

    /// Concurrency-aware specs: cal and causal modes.
    fn ca<S: CaSpec>(self, spec: S) -> Self::Output {
        let result = match &self.hb {
            Some(hb) => check_causal_with(self.history, &spec, hb, &self.options),
            None => check_cal_with(self.history, &spec, &self.options),
        };
        self.render(result, format_trace)
    }

    /// Sequential specs: every mode, lifted through `SeqAsCa` in cal and
    /// causal mode and through `SeqAsInterval` in interval mode.
    fn seq<S: SeqSpec + Send + 'static>(self, spec: S) -> Self::Output {
        match self.mode {
            CheckerMode::Cal | CheckerMode::Causal => self.ca(SeqAsCa::new(spec)),
            CheckerMode::Seq => {
                let result = check_linearizable_with(self.history, &spec, &self.options);
                self.render(result, format_trace)
            }
            CheckerMode::Interval => self.interval(SeqAsInterval::new(spec)),
        }
    }

    /// Interval-native specs: interval mode only.
    fn interval<S: IntervalSpec>(self, spec: S) -> Self::Output {
        let result = check_interval_with(self.history, &spec, &self.options);
        self.render(result, format_interval_witness)
    }
}

impl Run<'_> {
    /// Folds a checker outcome (any witness type) into a renderable
    /// [`Checked`] plus, if a sink rode along, its [`SearchReport`].
    fn render<W>(
        &self,
        result: Result<CheckOutcome<W>, CheckError>,
        format_witness: impl Fn(&W) -> String,
    ) -> (Checked, Option<SearchReport>) {
        let report = match (&self.sink, &result) {
            (Some(sink), Ok(outcome)) => {
                Some(sink.report(outcome, &self.options, self.start.elapsed()))
            }
            _ => None,
        };
        let adjective = self.adjective;
        let checked = match result {
            Ok(outcome) => match outcome.verdict {
                Verdict::Cal(witness) => {
                    Checked::Accepted { adjective, witness: format_witness(&witness) }
                }
                Verdict::NotCal => Checked::Rejected { adjective },
                Verdict::ResourcesExhausted => {
                    Checked::Undecided("node budget exhausted".to_string())
                }
                Verdict::Interrupted { reason } => {
                    Checked::Undecided(format!("interrupted ({reason})"))
                }
            },
            Err(e) => Checked::Error(e.to_string()),
        };
        (checked, report)
    }
}

/// One witness point per line, matching the trace format's line-oriented
/// style.
fn format_interval_witness(witness: &IntervalWitness) -> String {
    witness.points().iter().map(|p| format!("{p}\n")).collect()
}

/// Checks every regular file under `dir` against the named specification,
/// spreading files across `threads` workers (each file is checked with a
/// single-threaded search — the parallelism is across files). With
/// `--format auto` each file is sniffed independently, so one directory
/// may mix native, jepsen, and kvlog traces.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    selected: &SelectedSpec,
    mode: CheckerMode,
    hb_policy: HbPolicy,
    trace_format: Option<Format>,
    dir: &str,
    object: Option<ObjectId>,
    deadline: Option<Duration>,
    max_nodes: Option<u64>,
    threads: usize,
) -> io::Result<ExitCode> {
    let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect(),
        Err(e) => {
            errln!("cal-check: cannot read directory {dir}: {e}")?;
            return Ok(ExitCode::from(EXIT_ERROR));
        }
    };
    files.sort();
    if files.is_empty() {
        errln!("cal-check: no files in {dir}")?;
        return Ok(ExitCode::from(EXIT_ERROR));
    }
    let mut options = CheckOptions { deadline, threads: 1, ..CheckOptions::default() };
    if let Some(n) = max_nodes {
        options.max_nodes = n;
    }
    let results: Mutex<Vec<Option<Checked>>> = Mutex::new((0..files.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let workers = threads.max(1).min(files.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(path) = files.get(idx) else { break };
                let checked = match std::fs::read_to_string(path) {
                    Ok(input) => {
                        check_input(
                            selected,
                            mode,
                            hb_policy,
                            trace_format,
                            &input,
                            object,
                            &options,
                            false,
                        )
                        .0
                    }
                    Err(e) => Checked::Error(format!("cannot read: {e}")),
                };
                results.lock().unwrap()[idx] = Some(checked);
            });
        }
    });
    let mut rejected = 0usize;
    let mut undecided = 0usize;
    let mut errors = 0usize;
    let mut first_error: Option<String> = None;
    let results = results.into_inner().unwrap();
    for (path, checked) in files.iter().zip(results) {
        let name = path.display();
        match checked.expect("every file was checked") {
            Checked::Accepted { adjective, .. } => outln!("{name}: {adjective}: yes")?,
            Checked::Rejected { adjective } => {
                outln!("{name}: {adjective}: NO")?;
                rejected += 1;
            }
            Checked::Undecided(why) => {
                outln!("{name}: undecided — {why}")?;
                undecided += 1;
            }
            Checked::Error(e) => {
                outln!("{name}: error — {e}")?;
                if first_error.is_none() {
                    first_error = Some(format!("{name}: {e}"));
                }
                errors += 1;
            }
        }
    }
    outln!(
        "batch: {} files, {} rejected, {} undecided, {} error(s)",
        files.len(),
        rejected,
        undecided,
        errors
    )?;
    if let Some(diag) = first_error {
        // The full line/field-anchored diagnostic of the first failing
        // input, repeated after the fold so it survives long batch output.
        outln!("batch: first error: {diag}")?;
    }
    Ok(if errors > 0 {
        ExitCode::from(EXIT_ERROR)
    } else if undecided > 0 {
        ExitCode::from(EXIT_UNDECIDED)
    } else if rejected > 0 {
        ExitCode::from(EXIT_REJECTED)
    } else {
        ExitCode::from(EXIT_ACCEPTED)
    })
}
