//! Plain-text rendering of a [`MetricsRegistry`].

use std::fmt::Write as _;

use crate::registry::{Metric, MetricsRegistry};

/// Renders the registry as an aligned text table: counters as bare
/// values, histograms as `count / mean / p50 / p99 / max`.
#[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
pub fn render_summary(registry: &MetricsRegistry) -> String {
    let entries = registry.iter_sorted();
    let width = entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, metric) in entries {
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(out, "{name:<width$}  {v}");
            }
            Metric::Histogram(h) => {
                if h.count() == 0 {
                    let _ = writeln!(out, "{name:<width$}  (empty)");
                } else {
                    let _ = writeln!(
                        out,
                        "{name:<width$}  n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
                        h.count(),
                        h.mean(),
                        h.quantile(0.50).unwrap_or(0.0),
                        h.quantile(0.99).unwrap_or(0.0),
                        h.max().unwrap_or(0.0),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.add("emmc.requests", 12);
        reg.record("emmc.response_ms", 1.0);
        reg.record("emmc.response_ms", 3.0);
        reg.histogram("empty.hist");
        let text = render_summary(&reg);
        assert!(text.contains("emmc.requests"));
        assert!(text.contains("12"));
        assert!(text.contains("n=2"));
        assert!(text.contains("(empty)"));
    }
}
