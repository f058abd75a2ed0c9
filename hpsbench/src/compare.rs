//! `hpsbench compare` (judges a change's runs against its parent's runs,
//! pair by pair) and `hpsbench summary` (medians and quartiles of a set
//! of runs).

use std::collections::BTreeMap;
use std::process::ExitCode;

use hps_obs::json::Value;

use crate::report::{num, read_runs, RunResult};
use crate::stats::{median, quartiles};

/// A gain needs the change to win at least this share of the pairs.
const GAIN_WIN_SHARE: f64 = 0.9;

/// What `BENCHMARK.json` says about one metric.
#[derive(Clone, Debug)]
struct MetricSpec {
    higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    bound: Option<f64>,
}

fn read_spec(path: &str) -> Result<BTreeMap<String, MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = hps_obs::json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let mut spec = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        for m in doc.get(list).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            spec.insert(
                name.to_string(),
                MetricSpec {
                    higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(spec)
}

/// The outcome of comparing one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 0.9 of the pairs and the medians differ
    /// by more than the parent's interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// Either side's spread exceeds the bound, so "no worse" cannot be
    /// told apart from noise (unless every change run beats every parent
    /// run).
    Unresolved,
    /// Within the bound.
    NoWorse,
    /// Per-layer metric whose values repeat exactly on both sides and
    /// agree.
    Same,
    /// Per-layer metric whose values repeat exactly on both sides and
    /// differ.
    Moved,
    /// Per-layer metric that varies run to run: medians only.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NoWorse => "no worse",
            Verdict::Same => "same",
            Verdict::Moved => "moved",
            Verdict::Info => "-",
        }
    }
}

/// A verdict with the pair count it rests on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Judgement {
    pub verdict: Verdict,
    /// Pairs the change won.
    pub wins: usize,
    pub pairs: usize,
}

/// Judges `change` against `parent`. Pairs are the runs at equal
/// positions; ties count for neither side.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> Judgement {
    // Signed improvement of `b` over `a`: positive is better.
    let better = |a: f64, b: f64| if higher_is_better { b - a } else { a - b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| better(parent[i], change[i]) > 0.0)
        .count();
    let verdict = match bound {
        None => {
            let exact = |v: &[f64]| v.iter().all(|x| *x == v[0]);
            match (exact(parent), exact(change)) {
                (true, true) if parent[0] == change[0] => Verdict::Same,
                (true, true) => Verdict::Moved,
                _ => Verdict::Info,
            }
        }
        Some(bound) => {
            let (pm, cm) = (median(parent), median(change));
            let (pq1, pq3) = quartiles(parent);
            let (cq1, cq3) = quartiles(change);
            let spread = ((pq3 - pq1) / pm.abs()).max((cq3 - cq1) / cm.abs());
            let gap = better(pm, cm);
            let every_better = parent
                .iter()
                .all(|&p| change.iter().all(|&c| better(p, c) > 0.0));
            if pairs > 0 && wins as f64 >= GAIN_WIN_SHARE * pairs as f64 && gap > pq3 - pq1 {
                Verdict::Gain
            } else if every_better {
                Verdict::NoWorse
            } else if spread > bound {
                Verdict::Unresolved
            } else if -gap > bound * pm.abs() {
                Verdict::Regression
            } else {
                Verdict::NoWorse
            }
        }
    };
    Judgement {
        verdict,
        wins,
        pairs,
    }
}

type Grouped = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

/// Values per workload and metric, in file and run order.
fn group(runs: &[RunResult]) -> Grouped {
    let mut out: Grouped = BTreeMap::new();
    for r in runs {
        for m in r.listed.iter().chain(&r.extra) {
            out.entry(r.workload.clone())
                .or_default()
                .entry(m.name.clone())
                .or_insert_with(|| (m.unit.clone(), Vec::new()))
                .1
                .push(m.value);
        }
    }
    out
}

fn load(paths: &[String]) -> Result<Vec<RunResult>, String> {
    let mut runs = Vec::new();
    for p in paths {
        runs.extend(read_runs(p)?);
    }
    Ok(runs)
}

/// `hpsbench compare <parent.json…> -- <change.json…>`, run from the
/// repository root: bounds and directions come from `BENCHMARK.json`.
pub fn compare_cmd(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: hpsbench compare <parent.json...> -- <change.json...>");
        return ExitCode::from(2);
    };
    let loaded = read_spec("BENCHMARK.json")
        .and_then(|spec| Ok((spec, load(&args[..split])?, load(&args[split + 1..])?)));
    let (spec, parent, change) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("hpsbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let (pg, cg) = (group(&parent), group(&change));
    let mut bad = false;
    println!(
        "{:<13} {:<36} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "gap", "wins"
    );
    for (workload, metrics) in &pg {
        let Some(cmetrics) = cg.get(workload) else {
            continue;
        };
        for (name, (unit, pv)) in metrics {
            let (Some((_, cv)), Some(ms)) = (cmetrics.get(name), spec.get(name)) else {
                continue;
            };
            let j = judge(pv, cv, ms.higher_is_better, ms.bound);
            bad |= j.verdict == Verdict::Regression;
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{:.6}, {:.6}]", median(v), q1, q3)
            };
            println!(
                "{workload:<13} {:<36} {:>30} {:>30} {:>+7.2}% {:>3}/{:<2}  {}",
                format!("{name} ({unit})"),
                side(pv),
                side(cv),
                100.0 * (median(cv) / median(pv) - 1.0),
                j.wins,
                j.pairs,
                j.verdict.label()
            );
        }
        let failures = |runs: &[RunResult]| {
            runs.iter()
                .filter(|r| &r.workload == workload)
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
        };
        let ((pf, pa), (cf, ca)) = (failures(&parent), failures(&change));
        let worse = cf as f64 / ca.max(1) as f64 > pf as f64 / pa.max(1) as f64;
        bad |= worse;
        println!(
            "{workload:<13} {:<36} {:>30} {:>30} {:>8} {:>6}  {}",
            "fail_frac (failed/attempted)",
            format!("{pf}/{pa}"),
            format!("{cf}/{ca}"),
            "",
            "",
            if worse { "MORE FAILURES" } else { "no worse" }
        );
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `hpsbench summary <run.json…>`: per workload and metric, the count,
/// median, quartiles and IQR/median, as JSON.
pub fn summary_cmd(args: &[String]) -> ExitCode {
    let runs = match load(args) {
        Ok(runs) if !runs.is_empty() => runs,
        Ok(_) => {
            eprintln!("usage: hpsbench summary <run.json...>");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("hpsbench summary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads = Vec::new();
    for (workload, metrics) in group(&runs) {
        let rows: Vec<String> = metrics
            .iter()
            .map(|(name, (unit, v))| {
                let (q1, q3) = quartiles(v);
                let m = median(v);
                format!(
                    "    \"{name}\": {{\"unit\": \"{unit}\", \"n\": {}, \"median\": {}, \"q1\": {}, \
                     \"q3\": {}, \"iqr_rel\": {}}}",
                    v.len(),
                    num(m),
                    num(q1),
                    num(q3),
                    num((q3 - q1) / m.abs())
                )
            })
            .collect();
        workloads.push(format!("  \"{workload}\": {{\n{}\n  }}", rows.join(",\n")));
    }
    println!("{{\n{}\n}}", workloads.join(",\n"));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];

    fn shifted(by: f64) -> Vec<f64> {
        PARENT.iter().map(|v| v + by).collect()
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        // Lower is better: every pair wins and the gap (1.0) exceeds the
        // parent's IQR.
        assert_eq!(
            judge(&PARENT, &shifted(-1.0), false, Some(0.05)).verdict,
            Verdict::Gain
        );
        assert_eq!(
            judge(&PARENT, &shifted(1.0), true, Some(0.05)).verdict,
            Verdict::Gain
        );
    }

    #[test]
    fn a_loss_beyond_the_bound_is_a_regression() {
        assert_eq!(
            judge(&PARENT, &shifted(1.0), false, Some(0.05)).verdict,
            Verdict::Regression
        );
        // The same loss within a wider bound is no worse.
        assert_eq!(
            judge(&PARENT, &shifted(1.0), false, Some(0.15)).verdict,
            Verdict::NoWorse
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Identical runs: no wins, so no gain; nothing worse either.
        assert_eq!(
            judge(&PARENT, &PARENT, false, Some(0.05)).verdict,
            Verdict::NoWorse
        );
        // Nine wins and one tie out of ten pairs is still 0.9 of them.
        let mut change = shifted(-1.0);
        change[3] = PARENT[3];
        let j = judge(&PARENT, &change, false, Some(0.05));
        assert_eq!((j.verdict, j.wins, j.pairs), (Verdict::Gain, 9, 10));
        change[4] = PARENT[4];
        assert_eq!(
            judge(&PARENT, &change, false, Some(0.05)).verdict,
            Verdict::NoWorse
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<f64> = PARENT
            .iter()
            .enumerate()
            .map(|(i, v)| v * if i % 2 == 0 { 0.8 } else { 1.25 })
            .collect();
        assert_eq!(
            judge(&PARENT, &noisy, false, Some(0.05)).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_counters_are_same_or_moved() {
        assert_eq!(
            judge(&[3.0, 3.0], &[3.0, 3.0], false, None).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(&[3.0, 3.0], &[2.0, 2.0], false, None).verdict,
            Verdict::Moved
        );
        assert_eq!(
            judge(&[3.0, 3.1], &[3.0, 3.0], false, None).verdict,
            Verdict::Info
        );
    }
}
