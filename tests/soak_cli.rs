//! `chaos-soak --spec`: runtime-loaded `.cal` specs drive the soak
//! check, with the same compile-before-input exit-3 contract and the
//! same spec-selection exit-4 contract as `cal-check` and `cal-serve`.

use std::process::{Command, Output, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_chaos-soak");

fn spec(name: &str) -> String {
    format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("chaos-soak runs")
}

/// A `.cal` file that does not compile fails before any run starts,
/// printing its diagnostic and exiting 3 — even though the soak itself
/// would have found nothing wrong.
#[test]
fn bad_spec_file_exits_three_before_soaking() {
    let dir = std::env::temp_dir().join(format!("soak-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.cal");
    std::fs::write(&path, "spec broken { kind ca\n").unwrap();
    let out = run(&[
        "--spec",
        path.to_str().unwrap(),
        "--target",
        "exchanger",
        "--secs",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.cal"), "diagnostic names the file: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("soaking"), "no run may start: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unreadable path is the same exit-3 contract.
#[test]
fn missing_spec_file_exits_three() {
    let out = run(&["--spec", "/nonexistent/nope.cal", "--target", "exchanger"]);
    assert_eq!(out.status.code(), Some(3));
}

/// The loaded spec replaces the per-target built-ins, so it needs one
/// explicit target and one spec picked from the file. Each miss is a
/// usage error (exit 4), as in `cal-check` and `cal-serve`: bare `--spec`
/// (implicit `all`), `--spec-name` without `--spec`, a multi-spec file
/// with no `--spec-name`, and a `--spec-name` the file lacks.
#[test]
fn spec_without_single_target_is_usage_error() {
    let dir = std::env::temp_dir().join(format!("soak-cli-two-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let two = dir.join("two.cal");
    let both = [spec("exchanger.cal"), spec("register.cal")]
        .map(|p| std::fs::read_to_string(p).unwrap())
        .join("\n");
    std::fs::write(&two, both).unwrap();
    let two = two.to_str().unwrap();
    let exchanger = spec("exchanger.cal");
    let rows: [(&str, &[&str]); 4] = [
        ("--spec without --target", &["--spec", &exchanger, "--secs", "1"]),
        ("--spec-name without --spec", &["--spec-name", "exchanger", "--target", "exchanger"]),
        ("two specs, no --spec-name", &["--spec", two, "--target", "exchanger", "--secs", "1"]),
        (
            "--spec-name the file lacks",
            &["--spec", &exchanger, "--spec-name", "counter", "--target", "exchanger"],
        ),
    ];
    for (case, args) in rows {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{case}: stderr {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("soaking"), "{case}: no run may start: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The loaded exchanger spec soaks the healthy exchanger clean (exit 0)
/// and catches the planted misdelivery bug (exit 1) — proof the check
/// really runs against the `.cal` spec end to end.
#[test]
fn loaded_spec_soaks_and_catches_the_planted_bug() {
    let clean = run(&[
        "--spec",
        &spec("exchanger.cal"),
        "--target",
        "exchanger",
        "--secs",
        "1",
        "--ops",
        "3",
    ]);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&clean.stderr)
    );
    let caught = run(&[
        "--spec",
        &spec("exchanger.cal"),
        "--target",
        "buggy-exchanger",
        "--seed",
        "1",
        "--secs",
        "10",
    ]);
    assert_eq!(
        caught.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&caught.stdout)
    );
    let stdout = String::from_utf8_lossy(&caught.stdout);
    assert!(stdout.contains("minimal reproducer"), "reproducer printed: {stdout}");
}
