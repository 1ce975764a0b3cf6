//! `cal-serve` end-to-end: the CI streaming leg. A generated 100k-event
//! trace replays through the daemon with bounded-window retirement, a
//! TCP client is killed mid-stream without upsetting anyone, a slow
//! producer stalls the feed across the daemon's poll interval, and every
//! path lands on its documented exit code.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

const EXE: &str = env!("CARGO_BIN_EXE_cal-serve");

/// Runs `cal-serve` with `input` on stdin and waits for it.
fn serve(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(EXE)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-serve spawns");
    let mut stdin = child.stdin.take().unwrap();
    let input = input.to_owned();
    let feeder = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
    });
    let out = child.wait_with_output().expect("cal-serve exits");
    feeder.join().unwrap();
    out
}

fn field(stdout: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let rest = stdout
        .split(&key)
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} field in output:\n{stdout}"));
    let digits: String = rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} field is not a number"))
}

/// A 100k-event single-register trace: 25k write/read round-trip pairs.
fn hundred_k_trace() -> String {
    let mut text = String::with_capacity(3_000_000);
    for i in 0..25_000u64 {
        let v = i % 7;
        text.push_str(&format!("t0 inv o0.write {v}\nt0 res o0.write ()\n"));
        text.push_str(&format!("t0 inv o0.read ()\nt0 res o0.read {v}\n"));
    }
    text
}

/// The headline streaming leg: 100k events, bounded window, verdict
/// parity with what a batch check of the same trace would say, and the
/// retirement counters proving steady-state memory stayed O(window).
#[test]
fn hundred_k_event_trace_replays_clean() {
    let out = serve(
        &["register", "--window", "64", "--checkpoint-every", "256", "--stats-json", "-", "--quiet"],
        &hundred_k_trace(),
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"verdict\": \"consistent\""), "stdout: {stdout}");
    assert_eq!(field(&stdout, "events"), 100_000);
    // Memory bound via counters: admitted = retired + residual window.
    let retired = field(&stdout, "retired_actions");
    let window = field(&stdout, "window");
    assert_eq!(retired + window, 100_000);
    assert!(field(&stdout, "peak_window") <= 128, "stdout: {stdout}");
}

#[test]
fn violation_exits_one_and_is_final() {
    let out = serve(
        &["exchanger", "--stats-json", "-"],
        "t1 inv o0.exchange 3\nt1 res o0.exchange (true,9)\nt2 inv o0.exchange 1\n",
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"verdict\": \"violation\""), "stdout: {stdout}");
}

#[test]
fn window_overflow_degrades_to_the_documented_verdict() {
    // Five open invocations on distinct threads against a window of 2:
    // nothing can retire, so the daemon must degrade explicitly.
    let input = (0..5).map(|i| format!("t{i} inv o0.exchange {i}\n")).collect::<String>();
    let out = serve(&["exchanger", "--window", "2"], &input);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("undecided: window exceeded"),
        "degradation must name its cause: {stdout}"
    );
}

#[test]
fn exceeded_error_budget_refuses_the_stream_with_exit_three() {
    let garbage = "not an event\n".repeat(5);
    let out = serve(&["register", "--error-budget", "3", "--quiet"], &garbage);
    assert_eq!(out.status.code(), Some(3));
    let out = serve(&["register", "--error-budget", "16", "--quiet"], &garbage);
    assert_eq!(out.status.code(), Some(0), "within budget the stream is judged on its merits");
}

#[test]
fn usage_errors_exit_four() {
    for args in [&[][..], &["no-such-spec"][..], &["register", "--window"][..]] {
        let out = serve(args, "");
        assert_eq!(out.status.code(), Some(4), "args {args:?}");
    }
}

/// `--spec` end to end: the loaded register spec judges a stream, a SPEC
/// name the file lacks falls back to the built-in of that name, and a
/// multi-spec file with no SPEC to pick one is a usage error.
#[test]
fn loaded_spec_file_serves_a_stream() {
    let register = format!("{}/specs/register.cal", env!("CARGO_MANIFEST_DIR"));
    let consistent = "t1 inv o0.write 2\nt1 res o0.write ()\nt2 inv o0.read ()\nt2 res o0.read 2\n";
    let out = serve(&["--spec", &register, "--quiet"], consistent);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stale = "t1 inv o0.write 2\nt1 res o0.write ()\nt2 inv o0.read ()\nt2 res o0.read 1\n";
    let out = serve(&["--spec", &register, "--quiet"], stale);
    assert_eq!(out.status.code(), Some(1), "a stale read is a violation");
    // `counter` is not in register.cal: the built-in counter checks the
    // increments, which the loaded register spec would reject.
    let incs = "t1 inv o0.inc ()\nt1 res o0.inc 0\nt2 inv o0.inc ()\nt2 res o0.inc 1\n";
    let out = serve(&["counter", "--spec", &register, "--quiet"], incs);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let dir = std::env::temp_dir().join(format!("serve-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let two = dir.join("two.cal");
    let counter = format!("{}/specs/counter.cal", env!("CARGO_MANIFEST_DIR"));
    let both = [register, counter].map(|p| std::fs::read_to_string(p).unwrap()).join("\n");
    std::fs::write(&two, both).unwrap();
    let out = serve(&["--spec", two.to_str().unwrap(), "--quiet"], consistent);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A producer that stalls longer than the daemon's internal poll
/// interval must not wedge or error the stream.
#[test]
fn slow_producer_stall_is_tolerated() {
    let mut child = Command::new(EXE)
        .args(["register", "--ack", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-serve spawns");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"t0 inv o0.write 5\n").unwrap();
    stdin.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    stdin.write_all(b"t0 res o0.write ()\nbye\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let acks = String::from_utf8_lossy(&out.stdout);
    assert!(acks.contains("ok"), "acks: {acks}");
}

fn spawn_tcp() -> (Child, BufReader<std::process::ChildStdout>, String) {
    let mut child = Command::new(EXE)
        .args([
            "exchanger",
            "--listen",
            "127.0.0.1:0",
            "--ack",
            "--checkpoint-every",
            "1",
            "--stats-json",
            "-",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-serve spawns");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .unwrap_or_else(|| panic!("no address in banner {line:?}"))
        .to_owned();
    (child, stdout, addr)
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());
}

/// The full TCP session dance: one client completes a failed exchange
/// and says bye; a second is killed mid-operation. The daemon absorbs
/// the crash (the orphan op is abandoned, then explained through the
/// exchanger's timeout completion), flushes a final report on SIGTERM,
/// and exits 0.
#[test]
fn tcp_client_killed_mid_stream_is_absorbed() {
    let (mut child, mut stdout, addr) = spawn_tcp();

    // Client 1: clean session.
    let mut clean = TcpStream::connect(&addr).expect("connect");
    clean.write_all(b"t1 inv o0.exchange 3\nt1 res o0.exchange (false,3)\nbye\n").unwrap();
    let mut acks = BufReader::new(clean.try_clone().unwrap());
    for want in ["ok", "ok", "ok"] {
        let mut line = String::new();
        acks.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), want);
    }
    drop(clean);

    // Client 2: invokes, is acked, then dies without responding.
    let mut dying = TcpStream::connect(&addr).expect("connect");
    dying.write_all(b"t2 inv o0.exchange 9\n").unwrap();
    let mut line = String::new();
    BufReader::new(dying.try_clone().unwrap()).read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "ok");
    drop(dying); // mid-stream kill: no response, no bye

    // Give the daemon a beat to observe the disconnect, then shut down.
    std::thread::sleep(Duration::from_millis(200));
    sigterm(&child);
    let status = child.wait().expect("cal-serve exits");
    assert_eq!(status.code(), Some(0), "the abandoned op must be absorbed");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("\"verdict\": \"consistent\""), "final report missing: {rest}");
    assert_eq!(field(&rest, "abandoned"), 1, "report: {rest}");
}

/// A violation over TCP refuses the stream for every client and exits 1
/// once the daemon winds down.
#[test]
fn tcp_violation_latches_for_all_clients() {
    let (mut child, mut stdout, addr) = spawn_tcp();
    let mut client = TcpStream::connect(&addr).expect("connect");
    client.write_all(b"t1 inv o0.exchange 3\nt1 res o0.exchange (true,9)\n").unwrap();
    let mut acks = BufReader::new(client.try_clone().unwrap());
    let mut line = String::new();
    acks.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "ok");
    line.clear();
    acks.read_line(&mut line).unwrap();
    // The response was admitted; the checkpoint then latched the
    // violation and the daemon told the client before closing.
    assert!(line.contains("refused violation") || line.trim() == "ok", "ack: {line:?}");

    let status = child.wait().expect("cal-serve exits");
    assert_eq!(status.code(), Some(1));
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("\"verdict\": \"violation\""), "final report: {rest}");
}
