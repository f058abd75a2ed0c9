//! Comparing two rendered metrics summaries.
//!
//! [`render_summary`](crate::render_summary) is the stable text form of a
//! [`MetricsRegistry`]; `repro --metrics-out`
//! writes it to disk after a replay. This module parses two such files
//! back into metric values and reports every divergence beyond a relative
//! tolerance, which is what lets CI re-run an experiment and fail the
//! build when the numbers drift.
//!
//! The comparison is structural, not textual: column alignment, metric
//! ordering, and trailing whitespace never count as differences. A
//! tolerance of `0.0` demands exact equality of every parsed value.

use crate::registry::MetricsRegistry;
use hps_core::{Error, Result};
use std::collections::BTreeMap;

/// One metric value parsed back out of a summary file.
#[derive(Clone, Debug, PartialEq)]
pub enum SummaryValue {
    /// A counter line: `name  12`.
    Counter(u64),
    /// A populated histogram line: `name  n=.. mean=.. p50=.. p99=.. max=..`.
    Histogram {
        /// Number of recorded samples.
        n: u64,
        /// Arithmetic mean of the samples.
        mean: f64,
        /// Median.
        p50: f64,
        /// 99th percentile.
        p99: f64,
        /// Largest sample.
        max: f64,
    },
    /// A histogram that recorded nothing: `name  (empty)`.
    EmptyHistogram,
}

/// One reported divergence between two summaries.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryDiff {
    /// Metric name the divergence is on.
    pub name: String,
    /// Human-readable description of what differs.
    pub detail: String,
}

impl std::fmt::Display for SummaryDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.name, self.detail)
    }
}

/// Parses the output of [`render_summary`](crate::render_summary) back
/// into named metric values.
///
/// Returns [`Error::ParseTrace`] (with the 1-based line number) on any
/// line that is not a counter, histogram, empty-histogram, or blank line.
pub fn parse_summary(text: &str) -> Result<BTreeMap<String, SummaryValue>> {
    let mut out = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        let (name, rest) = split_name(line).ok_or_else(|| Error::ParseTrace {
            line: idx + 1,
            reason: format!("expected `<name>  <value>`, got {line:?}"),
        })?;
        let value = parse_value(rest).ok_or_else(|| Error::ParseTrace {
            line: idx + 1,
            reason: format!("unrecognised metric value {rest:?}"),
        })?;
        out.insert(name.to_string(), value);
    }
    Ok(out)
}

/// Splits `name<spaces>value` at the first run of whitespace.
fn split_name(line: &str) -> Option<(&str, &str)> {
    let name_end = line.find(char::is_whitespace)?;
    let rest = line[name_end..].trim_start();
    if rest.is_empty() {
        return None;
    }
    Some((&line[..name_end], rest))
}

fn parse_value(rest: &str) -> Option<SummaryValue> {
    if rest == "(empty)" {
        return Some(SummaryValue::EmptyHistogram);
    }
    if let Ok(v) = rest.parse::<u64>() {
        return Some(SummaryValue::Counter(v));
    }
    let mut n = None;
    let mut mean = None;
    let mut p50 = None;
    let mut p99 = None;
    let mut max = None;
    for field in rest.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "n" => n = value.parse::<u64>().ok(),
            "mean" => mean = value.parse::<f64>().ok(),
            "p50" => p50 = value.parse::<f64>().ok(),
            "p99" => p99 = value.parse::<f64>().ok(),
            "max" => max = value.parse::<f64>().ok(),
            _ => return None,
        }
    }
    Some(SummaryValue::Histogram {
        n: n?,
        mean: mean?,
        p50: p50?,
        p99: p99?,
        max: max?,
    })
}

/// `true` when `a` and `b` agree to within relative tolerance `tol`:
/// `|a - b| <= tol * max(|a|, |b|)`. A tolerance of zero demands exact
/// equality.
fn close(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true;
    }
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// Compares two parsed summaries and returns every divergence beyond
/// `tolerance` (relative, per value). Metrics present on only one side
/// are always reported.
pub fn diff_summaries(
    a: &BTreeMap<String, SummaryValue>,
    b: &BTreeMap<String, SummaryValue>,
    tolerance: f64,
) -> Vec<SummaryDiff> {
    let mut diffs = Vec::new();
    for (name, va) in a {
        let Some(vb) = b.get(name) else {
            diffs.push(SummaryDiff {
                name: name.clone(),
                detail: "only in first summary".to_string(),
            });
            continue;
        };
        compare(name, va, vb, tolerance, &mut diffs);
    }
    for name in b.keys() {
        if !a.contains_key(name) {
            diffs.push(SummaryDiff {
                name: name.clone(),
                detail: "only in second summary".to_string(),
            });
        }
    }
    diffs
}

fn compare(name: &str, a: &SummaryValue, b: &SummaryValue, tol: f64, diffs: &mut Vec<SummaryDiff>) {
    use SummaryValue::*;
    match (a, b) {
        (Counter(x), Counter(y)) => {
            if !close(*x as f64, *y as f64, tol) {
                diffs.push(SummaryDiff {
                    name: name.to_string(),
                    detail: format!("counter {x} vs {y}"),
                });
            }
        }
        (EmptyHistogram, EmptyHistogram) => {}
        (
            Histogram {
                n,
                mean,
                p50,
                p99,
                max,
            },
            Histogram {
                n: n2,
                mean: m2,
                p50: p502,
                p99: p992,
                max: max2,
            },
        ) => {
            let fields = [
                ("n", *n as f64, *n2 as f64),
                ("mean", *mean, *m2),
                ("p50", *p50, *p502),
                ("p99", *p99, *p992),
                ("max", *max, *max2),
            ];
            for (field, x, y) in fields {
                if !close(x, y, tol) {
                    diffs.push(SummaryDiff {
                        name: name.to_string(),
                        detail: format!("histogram {field}={x} vs {y}"),
                    });
                }
            }
        }
        _ => diffs.push(SummaryDiff {
            name: name.to_string(),
            detail: format!("kind mismatch: {} vs {}", kind(a), kind(b)),
        }),
    }
}

fn kind(v: &SummaryValue) -> &'static str {
    match v {
        SummaryValue::Counter(_) => "counter",
        SummaryValue::Histogram { .. } => "histogram",
        SummaryValue::EmptyHistogram => "empty histogram",
    }
}

/// Round-trip helper for tests and tools: renders `registry` and parses
/// it straight back.
pub fn parse_registry(registry: &MetricsRegistry) -> Result<BTreeMap<String, SummaryValue>> {
    parse_summary(&crate::render_summary(registry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.add("emmc.requests", 12);
        reg.record("emmc.response_ms", 1.0);
        reg.record("emmc.response_ms", 3.0);
        reg.histogram("gc.pause_ms");
        reg
    }

    #[test]
    fn round_trips_rendered_summary() {
        let parsed = parse_registry(&registry()).expect("round trip");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed["emmc.requests"], SummaryValue::Counter(12));
        assert_eq!(parsed["gc.pause_ms"], SummaryValue::EmptyHistogram);
        match &parsed["emmc.response_ms"] {
            SummaryValue::Histogram { n, mean, .. } => {
                assert_eq!(*n, 2);
                assert!((mean - 2.0).abs() < 0.01);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn identical_summaries_have_no_diff() {
        let a = parse_registry(&registry()).expect("parse");
        assert!(diff_summaries(&a, &a, 0.0).is_empty());
    }

    #[test]
    fn counter_drift_is_reported_and_tolerance_waives_it() {
        let a = parse_summary("reqs  100\n").expect("parse");
        let b = parse_summary("reqs  103\n").expect("parse");
        let diffs = diff_summaries(&a, &b, 0.0);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].detail.contains("100 vs 103"));
        assert!(diff_summaries(&a, &b, 0.05).is_empty());
    }

    #[test]
    fn histogram_field_drift_is_reported_per_field() {
        let a = parse_summary("h  n=2 mean=2.000 p50=1.000 p99=3.000 max=3.000\n").expect("a");
        let b = parse_summary("h  n=2 mean=2.000 p50=1.000 p99=9.000 max=9.000\n").expect("b");
        let diffs = diff_summaries(&a, &b, 0.01);
        assert_eq!(diffs.len(), 2);
        assert!(diffs.iter().any(|d| d.detail.contains("p99")));
        assert!(diffs.iter().any(|d| d.detail.contains("max")));
    }

    #[test]
    fn missing_and_extra_metrics_always_diff() {
        let a = parse_summary("only_a  1\nshared  2\n").expect("a");
        let b = parse_summary("shared  2\nonly_b  3\n").expect("b");
        let diffs = diff_summaries(&a, &b, 1.0);
        assert_eq!(diffs.len(), 2);
        assert!(diffs
            .iter()
            .any(|d| d.name == "only_a" && d.detail.contains("first")));
        assert!(diffs
            .iter()
            .any(|d| d.name == "only_b" && d.detail.contains("second")));
    }

    #[test]
    fn kind_mismatch_always_diffs() {
        let a = parse_summary("m  5\n").expect("a");
        let b = parse_summary("m  (empty)\n").expect("b");
        let diffs = diff_summaries(&a, &b, 1.0);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].detail.contains("kind mismatch"));
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let err = parse_summary("good  1\nbad line here ???\n").expect_err("must fail");
        match err {
            Error::ParseTrace { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
