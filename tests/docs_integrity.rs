//! Docs-integrity suite: the DSL manual cannot drift from the
//! implementation.
//!
//! - Every diagnostic code the compiler defines ([`dsl::DiagCode::ALL`])
//!   has a section in `docs/SPEC_DSL.md`, and every `E###` the docs
//!   mention is a code that exists.
//! - Every ```cal fence in `docs/SPEC_DSL.md` and `docs/TUTORIAL.md` is
//!   a complete `.cal` file that compiles.
//! - Every ```cal-error E### fence fails to compile with exactly the
//!   code named on its fence line.
//! - The shipped `specs/*.cal` files compile and define the spec their
//!   filename promises.
//! - Every figure in EXPERIMENTS.md's E14 table matches the committed
//!   `BENCH_checker.json` to the precision quoted, and the section quotes
//!   the file's host caveat.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use cal::core::dsl;

fn doc(path: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()))
}

/// A fenced code block: the info string after ``` and the body.
struct Fence {
    info: String,
    body: String,
    line: usize,
}

fn fences(text: &str) -> Vec<Fence> {
    let mut out = Vec::new();
    let mut body: Option<(String, String, usize)> = None;
    for (i, line) in text.lines().enumerate() {
        match &mut body {
            None => {
                if let Some(info) = line.strip_prefix("```") {
                    if !info.is_empty() {
                        body = Some((info.trim().to_string(), String::new(), i + 1));
                    } else {
                        // Closing fence of an unfenced block would be a
                        // doc bug; tolerate plain ``` openers by
                        // treating them as anonymous blocks.
                        body = Some((String::new(), String::new(), i + 1));
                    }
                }
            }
            Some((info, acc, start)) => {
                if line.trim_end() == "```" {
                    out.push(Fence { info: info.clone(), body: acc.clone(), line: *start });
                    body = None;
                } else {
                    acc.push_str(line);
                    acc.push('\n');
                }
            }
        }
    }
    assert!(body.is_none(), "unclosed code fence");
    out
}

#[test]
fn every_diagnostic_code_is_documented() {
    let manual = doc("docs/SPEC_DSL.md");
    for code in dsl::DiagCode::ALL {
        let heading = format!("### {} — ", code.as_str());
        assert!(
            manual.contains(&heading),
            "docs/SPEC_DSL.md has no `{heading}...` section; every diagnostic code must be documented"
        );
    }
}

#[test]
fn every_mentioned_code_exists() {
    let known: BTreeSet<&str> = dsl::DiagCode::ALL.iter().map(|c| c.as_str()).collect();
    for path in ["docs/SPEC_DSL.md", "docs/TUTORIAL.md"] {
        let text = doc(path);
        let bytes = text.as_bytes();
        for (i, _) in text.match_indices('E') {
            if i + 4 > bytes.len() || !bytes[i + 1..i + 4].iter().all(u8::is_ascii_digit) {
                continue;
            }
            // Only exact 3-digit codes, not longer numbers (E2E, E1234).
            if bytes.get(i + 4).is_some_and(u8::is_ascii_digit) {
                continue;
            }
            // Skip prose coincidences that are not code references, like
            // "E17" (an EXPERIMENTS.md entry) — those have <3 digits and
            // were already skipped; any E### in the docs must be real.
            let code = &text[i..i + 4];
            assert!(known.contains(code), "{path} mentions unknown diagnostic {code}");
        }
    }
}

#[test]
fn every_cal_fence_in_the_docs_compiles() {
    for path in ["docs/SPEC_DSL.md", "docs/TUTORIAL.md"] {
        let text = doc(path);
        let mut checked = 0;
        for f in fences(&text) {
            if f.info == "cal" {
                dsl::parse_str(&f.body).unwrap_or_else(|d| {
                    panic!("{path}: ```cal fence at line {} does not compile: {d}", f.line)
                });
                checked += 1;
            }
        }
        assert!(checked > 0, "{path} has no ```cal fences; the docs lost their examples");
    }
}

#[test]
fn every_cal_error_fence_fails_with_its_stated_code() {
    let manual = doc("docs/SPEC_DSL.md");
    let mut seen = BTreeSet::new();
    for f in fences(&manual) {
        let Some(code) = f.info.strip_prefix("cal-error ") else { continue };
        let diag = dsl::parse_str(&f.body).err().unwrap_or_else(|| {
            panic!("docs/SPEC_DSL.md: ```cal-error {code} fence at line {} compiles", f.line)
        });
        assert_eq!(
            diag.code.as_str(),
            code,
            "docs/SPEC_DSL.md: fence at line {} promises {code} but produced: {diag}",
            f.line
        );
        seen.insert(code.to_string());
    }
    // The diagnostics reference must demonstrate every code, not just
    // name it.
    for code in dsl::DiagCode::ALL {
        assert!(
            seen.contains(code.as_str()),
            "docs/SPEC_DSL.md has no ```cal-error {} example",
            code.as_str()
        );
    }
}

#[test]
fn shipped_spec_files_compile_and_define_their_namesake() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut count = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "cal") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = fs::read_to_string(&path).unwrap();
        let file = dsl::parse_str(&src)
            .unwrap_or_else(|d| panic!("specs/{name}.cal does not compile: {d}"));
        assert!(
            file.get(&name).is_some(),
            "specs/{name}.cal must define a spec named `{name}` (found: {})",
            file.names().join(", ")
        );
        count += 1;
    }
    assert!(count >= 5, "expected at least 5 shipped specs/*.cal files, found {count}");
}

/// The number following `"key": ` in `json`, as written.
fn json_number<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let at = json.find(&pat).unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + pat.len()..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(rest.len());
    &rest[..end]
}

/// `quoted` (a figure as printed in the docs) names `value` rounded to
/// the decimals `quoted` shows.
fn matches_to_quoted_precision(quoted: &str, value: f64) -> bool {
    let decimals = quoted.split_once('.').map_or(0, |(_, frac)| frac.len());
    format!("{value:.decimals$}") == quoted
}

#[test]
fn e14_figures_match_bench_checker_json() {
    let json = doc("BENCH_checker.json");
    let experiments = doc("EXPERIMENTS.md");
    let start = experiments.find("## E14").expect("EXPERIMENTS.md has an E14 section");
    let end = experiments[start + 1..].find("\n## ").map_or(experiments.len(), |e| start + 1 + e);
    let section = &experiments[start..end];
    let series: Vec<&str> = json.lines().filter(|l| l.contains("\"name\": ")).collect();
    let mut rows = 0;
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let name = cells[1].trim_matches('`');
        let line = series
            .iter()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .unwrap_or_else(|| panic!("E14 row {name} has no series in BENCH_checker.json"));
        for (cell, key) in cells[2..5].iter().zip(["seq_ms", "par_ms", "speedup"]) {
            let quoted = cell.trim_matches('*').trim_end_matches('×');
            let value: f64 = json_number(line, key).parse().unwrap();
            assert!(
                matches_to_quoted_precision(quoted, value),
                "E14 quotes {key} of {name} as {cell}, BENCH_checker.json says {value}"
            );
        }
        rows += 1;
    }
    assert_eq!(rows, series.len(), "E14 must quote every series of BENCH_checker.json");
    for key in ["host_cores", "degraded"] {
        let value = json[json.find(&format!("\"{key}\": ")).unwrap()..].lines().next().unwrap();
        let quoted = value.trim_end_matches(',');
        assert!(section.contains(quoted), "E14 must quote the JSON's {quoted}");
    }
}
