//! `benchmark compare A.jsonl B.jsonl`: one row per (workload,
//! metric) over two sets of `--out` reports, A the parent and B the
//! change. End-to-end rows are judged against the metric's bound;
//! per-layer rows have no bound and only show where a change landed.
//!
//! `benchmark spread A.jsonl`: the run-to-run spread of one set, and
//! the bound that spread would justify.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{parse, Json};
use crate::stats::{bound_from_range, median, spread, verdict, worsening, Verdict};

/// `samples[(workload, metric)]`, one value per report that has it.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let report = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = report
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let metrics = report
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}:{}: no metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(samples)
}

/// Every catalogue metric, end-to-end ones (flagged) first.
fn catalogue() -> impl Iterator<Item = (&'static crate::catalog::Metric, bool)> {
    END_TO_END
        .iter()
        .map(|m| (m, true))
        .chain(PER_LAYER.iter().map(|m| (m, false)))
}

pub fn spread_report(path: &str) -> ExitCode {
    let samples = match load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<22} {:<32} {:>3} {:>13} {:>7} {:>7}  bound (stated, from range)",
        "workload", "metric", "n", "median", "iqr", "range"
    );
    for w in &WORKLOADS {
        for (m, bounded) in catalogue() {
            let Some(x) = samples.get(&(w.name.to_string(), m.name.to_string())) else {
                continue;
            };
            let med = median(x);
            let (lo, hi) = x
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let range = if med == 0.0 {
                0.0
            } else {
                (hi - lo) / med.abs()
            };
            let bound = if bounded {
                format!("{:.2}, {:.2}", m.bound, bound_from_range(range))
            } else {
                "-".to_string()
            };
            println!(
                "{:<22} {:<32} {:>3} {:>13.6} {:>6.1}% {:>6.1}%  {bound}",
                w.name,
                m.name,
                x.len(),
                med,
                100.0 * spread(x),
                100.0 * range,
            );
        }
    }
    ExitCode::SUCCESS
}

pub fn run(a: &str, b: &str) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<22} {:<32} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse", "A iqr", "B iqr"
    );
    let mut worse = 0;
    for w in &WORKLOADS {
        for (m, bounded) in catalogue() {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let v = if bounded {
                let v = verdict(xa, xb, m.better, m.bound);
                worse += usize::from(v == Verdict::Worse);
                v.as_str()
            } else {
                "-"
            };
            println!(
                "{:<22} {:<32} {:>13.6} {:>13.6} {:>+7.1}% {:>6.1}% {:>6.1}%  {v}",
                w.name,
                m.name,
                median(xa),
                median(xb),
                100.0 * worsening(median(xa), median(xb), m.better),
                100.0 * spread(xa),
                100.0 * spread(xb),
            );
        }
    }
    if worse > 0 {
        println!("{worse} end-to-end rows are worse than their bound allows");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
