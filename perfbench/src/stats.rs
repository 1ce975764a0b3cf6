//! Quantiles and the small JSON writer the reports use.

use std::fmt::Write;
use std::time::Duration;

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks; NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median over consecutive chunks of `chunk` samples of each chunk's
/// `q`-quantile; a final chunk shorter than half of `chunk` is left out.
pub fn windowed_quantile(samples: &[f64], chunk: usize, q: f64) -> f64 {
    let per_chunk: Vec<f64> = samples
        .chunks(chunk.max(1))
        .filter(|c| 2 * c.len() >= chunk)
        .map(|c| quantile(c, q))
        .collect();
    median(&per_chunk)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Renders metrics as `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(&[("value", num(m.value)), ("unit", string(m.unit))]),
            )
        })
        .collect();
    obj(&fields)
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (no samples) render as `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
pub fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders `(name, number)` pairs as a JSON object.
pub fn numbers_json(fields: &[(&str, f64)]) -> String {
    obj(&fields
        .iter()
        .map(|(k, v)| (*k, num(*v)))
        .collect::<Vec<_>>())
}
