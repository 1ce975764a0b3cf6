//! `cal-check --mode`: all four checkers behind one CLI, with working
//! observability in every mode, usage errors on spec/mode mismatches, and
//! broken-pipe-safe output (`cal-check ... | head` must exit 0, not
//! panic).

use std::io::Write;
use std::process::{Command, Output, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_cal-check");

fn corpus(name: &str) -> String {
    format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn spec_file(name: &str) -> String {
    format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("cal-check runs")
}

/// Extracts `"nodes":N` from a SearchReport JSON line.
fn json_nodes(stdout: &str) -> u64 {
    let rest = stdout.split("\"nodes\":").nth(1).unwrap_or_else(|| {
        panic!("no \"nodes\" field in output:\n{stdout}");
    });
    let digits: String =
        rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("nodes field is a number")
}

#[test]
fn mode_seq_accepts_and_rejects_like_default() {
    // The default (CAL) checker lifts sequential specs to singleton
    // elements; --mode seq runs the classical checker. Same verdicts.
    for (file, code) in [("register_read_write.hist", 0), ("register_stale_read.hist", 1)] {
        let default_run = run(&["register", &corpus(file)]);
        let seq_run = run(&["register", &corpus(file), "--mode", "seq"]);
        assert_eq!(default_run.status.code(), Some(code), "default on {file}");
        assert_eq!(seq_run.status.code(), Some(code), "--mode seq on {file}");
    }
    let out = run(&["register", &corpus("register_read_write.hist"), "--mode", "seq"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("linearizable: yes"), "stdout: {stdout}");
}

#[test]
fn mode_interval_accepts_register_history() {
    let out = run(&["register", &corpus("register_read_write.hist"), "--mode", "interval"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interval-linearizable: yes"), "stdout: {stdout}");
    let bad = run(&["register", &corpus("register_stale_read.hist"), "--mode", "interval"]);
    assert_eq!(bad.status.code(), Some(1));
}

#[test]
fn stats_are_populated_in_every_mode() {
    for mode in ["cal", "seq", "interval"] {
        let out = run(&[
            "register",
            &corpus("register_read_write.hist"),
            "--mode",
            mode,
            "--stats",
            "--stats-json",
            "-",
        ]);
        assert_eq!(out.status.code(), Some(0), "mode {mode}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("stats:"), "mode {mode}: no --stats line, stderr: {stderr}");
        assert!(json_nodes(&stdout) > 0, "mode {mode}: empty SearchReport\n{stdout}");
    }
}

#[test]
fn explain_works_in_every_mode() {
    for mode in ["seq", "interval"] {
        let out =
            run(&["register", &corpus("register_read_write.hist"), "--mode", mode, "--explain"]);
        assert_eq!(out.status.code(), Some(0), "mode {mode}");
        assert!(!out.stderr.is_empty(), "mode {mode}: --explain printed nothing");
    }
}

/// The mode × kind table, for built-in and loaded specs alike: where the
/// spec's kind has no reading in a mode, the invocation is a usage error
/// (exit 4); everywhere else the verdict line carries the exact adjective
/// of that (kind, mode) pair.
#[test]
fn mode_gating_and_adjectives_follow_the_spec_kind() {
    let dir = std::env::temp_dir().join(format!("cli-modes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("write_snapshot.hist");
    std::fs::write(&snapshot, "t1 inv o0.write_snapshot 0\nt1 res o0.write_snapshot 1\n").unwrap();
    let snapshot = snapshot.to_str().unwrap().to_owned();
    let (swap, rw) = (corpus("fig1_swap.hist"), corpus("register_read_write.hist"));
    let (exchanger_cal, register_cal) = (spec_file("exchanger.cal"), spec_file("register.cal"));
    const CA: [Option<&str>; 4] = [
        Some("concurrency-aware linearizable: yes"),
        None,
        None,
        Some("causally concurrency-aware linearizable: yes"),
    ];
    const SEQ: [Option<&str>; 4] = [
        Some("linearizable: yes"),
        Some("linearizable: yes"),
        Some("interval-linearizable: yes"),
        Some("causally linearizable: yes"),
    ];
    const INTERVAL: [Option<&str>; 4] = [None, None, Some("interval-linearizable: yes"), None];
    let rows: [(Vec<&str>, [Option<&str>; 4]); 5] = [
        (vec!["exchanger", &swap], CA),
        (vec!["register", &rw], SEQ),
        (vec!["write-snapshot", &snapshot], INTERVAL),
        (vec!["--spec", &exchanger_cal, &swap], CA),
        (vec!["--spec", &register_cal, &rw], SEQ),
    ];
    for (args, expected) in &rows {
        for (mode, want) in ["cal", "seq", "interval", "causal"].into_iter().zip(expected) {
            let mut argv = args.clone();
            argv.extend(["--mode", mode]);
            let out = run(&argv);
            let stdout = String::from_utf8_lossy(&out.stdout);
            match want {
                None => assert_eq!(out.status.code(), Some(4), "{argv:?}: stdout {stdout}"),
                Some(line) => {
                    assert_eq!(out.status.code(), Some(0), "{argv:?}: stdout {stdout}");
                    assert_eq!(stdout.lines().next(), Some(*line), "{argv:?}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ca_only_spec_in_seq_mode_is_a_usage_error() {
    let out = run(&["exchanger", &corpus("fig1_swap.hist"), "--mode", "seq"]);
    assert_eq!(out.status.code(), Some(4));
    let out = run(&["exchanger", &corpus("fig1_swap.hist"), "--mode", "interval"]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn write_snapshot_is_interval_only() {
    let out = run(&["write-snapshot", &corpus("register_read_write.hist"), "--mode", "cal"]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn chaos_mode_value_outside_chaos_is_a_usage_error() {
    let out = run(&["register", &corpus("register_read_write.hist"), "--mode", "stress"]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn unknown_mode_value_is_a_usage_error() {
    let out = run(&["register", &corpus("register_read_write.hist"), "--mode", "bogus"]);
    assert_eq!(out.status.code(), Some(4));
}

/// Rust ignores SIGPIPE, so every `println!` on a closed pipe used to
/// panic ("failed printing to stdout: Broken pipe"). The CLI now treats a
/// broken pipe as end-of-output: clean exit 0, nothing on stderr.
#[test]
fn broken_stdout_pipe_exits_cleanly() {
    let mut child = Command::new(EXE)
        .args(["register", "-", "--mode", "seq", "--stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-check spawns");
    // Close the read end of stdout *before* feeding the history: by the
    // time the verdict is printed, the pipe is gone.
    drop(child.stdout.take());
    let history = "t1 inv o0.write 2\nt1 res o0.write ()\nt2 inv o0.read ()\nt2 res o0.read 2\n";
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(history.as_bytes())
        .expect("write history");
    let output = child.wait_with_output().expect("cal-check exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "CLI panicked on a broken pipe: {stderr}");
}
