//! The untraced run: the release `cal-check` and `cal-serve` binaries over
//! the generated inputs, timed from outside the process.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use cal_core::format::Format;

use crate::inputs::{Inputs, Shape, Workload};
use crate::stats::{metric, ms, quantile, windowed_quantile, Metric};

/// Paths of the two binaries under test.
#[derive(Debug, Clone)]
pub struct Bins {
    pub check: PathBuf,
    pub serve: PathBuf,
}

/// What every leg adds to: attempts, failures (an exit code other than the
/// expected one, or an ack other than `ok`), and the wrong verdicts among
/// them (accepted where rejection was expected, or the reverse).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Tally {
    fn exit(&mut self, what: &str, got: Option<i32>, want: i32) {
        self.attempted += 1;
        if got != Some(want) {
            self.failed += 1;
            if matches!(got, Some(0 | 1)) {
                self.wrong
                    .push(format!("{what}: exit {got:?}, expected {want}"));
            }
        }
    }
}

/// Runs of `cal-check` (or `cal-serve` stdin replays) on an empty input,
/// after one warm-up run.
const SETUP_RUNS: usize = 15;
/// Least number of checker runs in the timed leg, however long it takes,
/// so that ten samples lie beyond `verdict_ms.p90`.
const MIN_SAMPLES: usize = 100;
/// The timed leg stops here even short of [`MIN_SAMPLES`], so a
/// run always ends well inside its time limit.
const TIMED_LEG_CAP: Duration = Duration::from_secs(110);
/// Checker runs repeated under `perfbench --peak-rss` after the timed leg.
const RSS_RUNS: usize = 20;
/// Longest wait for `cal-serve` to exit after SIGTERM.
const EXIT_WAIT: Duration = Duration::from_secs(20);

pub struct E2e {
    pub metrics: Vec<Metric>,
    /// Sample counts and the load generator's lateness, reported beside
    /// the metrics.
    pub info: Vec<(&'static str, f64)>,
}

/// Measures every end-to-end metric of `workload` in about `seconds`:
/// four fifths go to the timed leg, one fifth to the open-loop leg.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    bins: &Bins,
    dir: &Path,
    seconds: f64,
    tally: &mut Tally,
) -> io::Result<E2e> {
    let shape = workload.shape();
    let ext = if shape.format == Format::Jepsen {
        "edn"
    } else {
        "hist"
    };
    let empty = dir.join(format!("empty.{ext}"));
    fs::write(&empty, "")?;

    let mut setup = Vec::with_capacity(SETUP_RUNS);
    for run in 0..=SETUP_RUNS {
        let start = Instant::now();
        let status = if workload.is_batch() {
            quiet(Command::new(&bins.check).arg(shape.spec).arg(&empty)).status()?
        } else {
            serve_replay(bins, &shape, &empty)?.0
        };
        if run > 0 {
            setup.push(start.elapsed().as_secs_f64());
        }
        tally.exit("setup on empty input", status.code(), 0);
    }

    // The timed leg's inputs: file, operations, events, expected exit code.
    let mut jobs = Vec::new();
    if workload.is_batch() {
        for (i, h) in inputs.pool.iter().enumerate() {
            let path = dir.join(format!("h{i:04}.{ext}"));
            fs::write(&path, &h.text)?;
            jobs.push((path, h.ops, h.events, h.expect_exit));
        }
    } else {
        for (i, stream) in inputs.replays.iter().enumerate() {
            let path = dir.join(format!("r{i:04}.{ext}"));
            fs::write(&path, stream.lines.join("\n") + "\n")?;
            jobs.push((path, stream.ops, stream.lines.len(), 0));
        }
    }
    let budget = Duration::from_secs_f64(seconds * 0.8);
    let mut walls = Vec::new();
    let (mut ops, mut events) = (0usize, 0usize);
    let start = Instant::now();
    while !leg_done(start, budget, walls.len()) {
        let (path, job_ops, job_events, expect_exit) = &jobs[walls.len() % jobs.len()];
        let t = Instant::now();
        let (status, out) = if workload.is_batch() {
            let status = quiet(Command::new(&bins.check).arg(shape.spec).arg(path)).status()?;
            (status, None)
        } else {
            let (status, out) = serve_replay(bins, &shape, path)?;
            (status, Some(out))
        };
        walls.push(ms(t.elapsed()));
        let what = path.display().to_string();
        tally.exit(&what, status.code(), *expect_exit);
        if let Some(out) = out {
            final_verdict_consistent(&out, &what, tally);
        }
        ops += job_ops;
        events += job_events;
    }
    let busy_s: f64 = walls.iter().sum::<f64>() / 1e3;

    // A child's ru_maxrss starts at the RSS of the process that spawned it,
    // and this one holds every input, so peak RSS is measured apart from
    // the timing: the first jobs run again under a fresh, small
    // `perfbench --peak-rss` process.
    let mut peak_rss_kib = 0u64;
    for (path, _, _, expect_exit) in jobs.iter().cycle().take(RSS_RUNS) {
        let mut probe = Command::new(std::env::current_exe()?);
        probe.arg("--peak-rss");
        if workload.is_batch() {
            probe.arg("-").arg(&bins.check).arg(shape.spec).arg(path);
        } else {
            probe.arg(path).arg(&bins.serve).args([
                shape.spec,
                "--format",
                &shape.format.to_string(),
            ]);
        }
        let out = probe.stdin(Stdio::null()).stderr(Stdio::null()).output()?;
        tally.exit(
            &format!("peak RSS of {}", path.display()),
            out.status.code(),
            *expect_exit,
        );
        let kib = String::from_utf8_lossy(&out.stdout).trim().parse::<u64>();
        peak_rss_kib = peak_rss_kib
            .max(kib.map_err(|e| io::Error::other(format!("--peak-rss printed no size: {e}")))?);
    }

    let lines = ((seconds * 0.2 * shape.online_rate) as usize).clamp(1, inputs.online.lines.len());
    let online = open_loop(bins, &shape, &inputs.online.lines[..lines], tally)?;
    // Lines are due in order, so chunks of `rate` latencies are one-second
    // windows; the median of their p99s is not swayed by one stall.
    let second = shape.online_rate as usize;

    let metrics = vec![
        metric("verdict_ms.p50", quantile(&walls, 0.5), "ms"),
        metric("verdict_ms.p90", quantile(&walls, 0.9), "ms"),
        metric("ops_per_s", ops as f64 / busy_s, "ops/s"),
        metric("events_per_s", events as f64 / busy_s, "events/s"),
        metric("ack_ms.p50", quantile(&online.latency_ms, 0.5), "ms"),
        metric("peak_rss_mb", peak_rss_kib as f64 / 1024.0, "MB"),
        metric("setup_s", quantile(&setup, 0.5), "s"),
    ];
    let info = vec![
        ("verdict_samples", walls.len() as f64),
        ("ack_samples", online.latency_ms.len() as f64),
        ("offered_lines_per_s", shape.online_rate),
        (
            "ack_ms.p99",
            windowed_quantile(&online.latency_ms, second, 0.99),
        ),
        ("lateness_ms.p50", quantile(&online.lateness_ms, 0.5)),
        ("lateness_ms.p99", quantile(&online.lateness_ms, 0.99)),
        ("lateness_ms.max", quantile(&online.lateness_ms, 1.0)),
        ("setup_samples", setup.len() as f64),
    ];
    Ok(E2e { metrics, info })
}

fn leg_done(start: Instant, budget: Duration, samples: usize) -> bool {
    let elapsed = start.elapsed();
    (elapsed >= budget && samples >= MIN_SAMPLES) || elapsed >= TIMED_LEG_CAP
}

fn quiet(cmd: &mut Command) -> &mut Command {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
}

/// One `cal-serve` run with `input` as its stdin; returns its status and
/// standard output.
fn serve_replay(bins: &Bins, shape: &Shape, input: &Path) -> io::Result<(ExitStatus, String)> {
    let mut child = Command::new(&bins.serve)
        .args([shape.spec, "--format", &shape.format.to_string()])
        .stdin(File::open(input)?)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out)?;
    Ok((child.wait()?, out))
}

/// `cal-serve` prints `verdict: <v> (<n> events)` last; anything other
/// than `consistent` there is a wrong verdict, since every stream is
/// consistent by construction.
fn final_verdict_consistent(out: &str, what: &str, tally: &mut Tally) {
    let last = out.lines().rev().find(|l| l.starts_with("verdict: "));
    if !last.is_some_and(|l| l.starts_with("verdict: consistent ")) {
        tally.wrong.push(format!(
            "{what}: final line {last:?}, expected verdict: consistent"
        ));
    }
}

struct OpenLoop {
    /// Per line: ack arrival minus the line's due time.
    latency_ms: Vec<f64>,
    /// Per line: send time minus due time.
    lateness_ms: Vec<f64>,
}

/// Streams `lines` to `cal-serve --listen --ack` over one TCP connection at
/// the workload's fixed rate: line `i` is due `i / rate` seconds after the
/// start and is sent then, whatever state earlier acks are in. One thread
/// writes, one reads acks.
fn open_loop(
    bins: &Bins,
    shape: &Shape,
    lines: &[String],
    tally: &mut Tally,
) -> io::Result<OpenLoop> {
    let mut server = Command::new(&bins.serve)
        .args([shape.spec, "--format", &shape.format.to_string()])
        .args(["--listen", "127.0.0.1:0", "--ack"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let result = drive(&mut server, shape.online_rate, lines, tally);
    // However the session went, stop the daemon: SIGTERM flushes its
    // final report and verdict.
    let stopped = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status();
    let status = wait_or_kill(&mut server)?;
    let (online, out) = result?;
    stopped?;
    tally.exit("cal-serve over TCP", status.and_then(|s| s.code()), 0);
    let out = out.join().expect("the stdout reader does not panic")?;
    final_verdict_consistent(&out, "cal-serve over TCP", tally);
    Ok(online)
}

fn drive(
    server: &mut Child,
    rate: f64,
    lines: &[String],
    tally: &mut Tally,
) -> io::Result<(OpenLoop, thread::JoinHandle<io::Result<String>>)> {
    let mut stdout = BufReader::new(server.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner)?;
    let addr = banner
        .trim()
        .strip_prefix("cal-serve: listening on ")
        .ok_or_else(|| io::Error::other(format!("unexpected cal-serve banner {banner:?}")))?
        .to_owned();
    // The rest of the daemon's output, read as it comes so the pipe never
    // fills; it ends with the final verdict.
    let drain = thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    // A daemon that stops acking ends the reader instead of hanging it.
    conn.set_read_timeout(Some(EXIT_WAIT))?;
    let reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    let expected = lines.len() + 1; // every line, then `bye`
    let acks = thread::spawn(move || {
        let mut acks = Vec::with_capacity(expected);
        for line in reader.lines().take(expected) {
            let Ok(line) = line else { break };
            acks.push((Instant::now(), line == "ok"));
        }
        acks
    });

    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut lateness_ms = Vec::with_capacity(lines.len());
    let mut sent = 0;
    let mut batch = String::new();
    while sent < lines.len() {
        let now = Instant::now();
        // Every line already due goes out in one write.
        let ready = (((now - start).as_secs_f64() * rate) as usize + 1).min(lines.len());
        if ready <= sent {
            thread::sleep(due(sent).saturating_duration_since(now));
            continue;
        }
        batch.clear();
        for (i, line) in lines.iter().enumerate().take(ready).skip(sent) {
            batch.push_str(line);
            batch.push('\n');
            lateness_ms.push(ms(now.saturating_duration_since(due(i))));
        }
        writer.write_all(batch.as_bytes())?;
        sent = ready;
    }
    writer.write_all(b"bye\n")?;
    let acks = acks.join().expect("the ack reader does not panic");

    tally.attempted += lines.len() as u64;
    let good = acks.iter().take(lines.len()).filter(|(_, ok)| *ok).count();
    tally.failed += (lines.len() - good) as u64;
    let latency_ms = acks
        .iter()
        .take(lines.len())
        .enumerate()
        .map(|(i, (at, _))| ms(at.saturating_duration_since(due(i))))
        .collect();
    Ok((
        OpenLoop {
            latency_ms,
            lateness_ms,
        },
        drain,
    ))
}

/// Waits for `child`, killing it if it has not exited within
/// [`EXIT_WAIT`]; `None` when it had to be killed.
fn wait_or_kill(child: &mut Child) -> io::Result<Option<ExitStatus>> {
    let deadline = Instant::now() + EXIT_WAIT;
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        thread::sleep(Duration::from_millis(5));
    }
    child.kill()?;
    child.wait()?;
    Ok(None)
}

/// `perfbench --peak-rss <STDIN|-> <PROGRAM> [ARGS...]`: runs the program
/// with `STDIN` (or nothing) as its standard input, prints its peak RSS in
/// KiB, and exits with its exit code. This process allocates next to
/// nothing before it spawns, so its own RSS adds at most about 2 MB.
pub fn peak_rss_probe(args: &[String]) -> ExitCode {
    let [stdin, program, rest @ ..] = args else {
        eprintln!("perfbench: --peak-rss takes <STDIN|-> <PROGRAM> [ARGS...]");
        return ExitCode::from(2);
    };
    let stdin = if stdin == "-" {
        Ok(Stdio::null())
    } else {
        File::open(stdin).map(Stdio::from)
    };
    let status = stdin.and_then(|stdin| {
        Command::new(program)
            .args(rest)
            .stdin(stdin)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
    });
    match status {
        Ok(status) => {
            println!("{}", children_peak_rss_kib());
            ExitCode::from(status.code().map_or(255, |c| c as u8))
        }
        Err(e) => {
            eprintln!("perfbench: {program}: {e}");
            ExitCode::from(2)
        }
    }
}

/// The largest peak resident set, in KiB, of any child this process has
/// waited for.
fn children_peak_rss_kib() -> u64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the size and
    // layout the kernel fills on 64-bit Linux.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) cannot fail with a valid pointer"
    );
    u64::try_from(usage.maxrss_kib).expect("ru_maxrss is never negative")
}
