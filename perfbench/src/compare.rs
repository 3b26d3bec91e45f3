//! Comparison of two sets of results (A = baseline, B = candidate), one
//! row per (workload, end-to-end metric), by the paired rule: B improved
//! only if it wins at least nine tenths of the seed-paired runs and its
//! median beats A's by more than A's own interquartile range.

use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::NAMES;
use ehdl_fleet::Json;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn beats(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// Pairs (a, b) in which B beats A; ties count for neither side.
fn wins(metric: &Metric, pairs: &[(f64, f64)]) -> usize {
    pairs
        .iter()
        .filter(|(x, y)| beats(metric.better, *y, *x))
        .count()
}

/// Judges B against A. `pairs` holds (a, b) values of runs made with
/// the same seed.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64], pairs: &[(f64, f64)]) -> Option<Verdict> {
    let (med_a, med_b) = (median(a)?, median(b)?);
    let [q1, _, q3] = quartiles(a)?;
    let iqr = q3 - q1;
    let bound = metric.bound.unwrap_or(0.0) * med_a.abs();
    let gain = match metric.better {
        Better::Lower => med_a - med_b,
        Better::Higher => med_b - med_a,
    };
    if !pairs.is_empty() && wins(metric, pairs) * 10 >= pairs.len() * 9 && gain > iqr {
        return Some(Verdict::Improved);
    }
    if iqr > bound {
        let all_better = b
            .iter()
            .all(|&y| a.iter().all(|&x| beats(metric.better, y, x)));
        return Some(if all_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        });
    }
    Some(if -gain > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    })
}

/// Untraced results in `dir`: workload → seed → metric → value.
type Results = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn load(dir: &Path) -> Result<Results, String> {
    let mut out = Results::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let header = doc.get("header");
        let field = |k: &str| header.and_then(|h| h.get(k));
        if field("tracing").and_then(|t| match t {
            Json::Bool(b) => Some(*b),
            _ => None,
        }) != Some(false)
        {
            continue;
        }
        let (Some(workload), Some(seed)) = (
            field("workload").and_then(Json::as_str),
            field("seed").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            continue;
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.entry(workload.to_string())
            .or_default()
            .insert(seed, values);
    }
    Ok(out)
}

fn spread(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some([q1, _, q3])) => format!("{m:.6} [{q1:.6}, {q3:.6}]"),
        (Some(m), None) => format!("{m:.6}"),
        _ => "-".to_string(),
    }
}

/// Prints the comparison table of results in `a` (baseline) and `b`.
pub fn run(a: &Path, b: &Path) -> Result<(), String> {
    let (ra, rb) = (load(a)?, load(b)?);
    println!(
        "{:<14} {:<22} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let mut rows = 0;
    for workload in NAMES {
        let (Some(wa), Some(wb)) = (ra.get(workload), rb.get(workload)) else {
            continue;
        };
        for metric in END_TO_END {
            let values = |side: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<f64> {
                side.values()
                    .filter_map(|m| m.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(wa), values(wb));
            let pairs: Vec<(f64, f64)> = wa
                .iter()
                .filter_map(|(seed, m)| {
                    Some((*m.get(metric.name)?, *wb.get(seed)?.get(metric.name)?))
                })
                .collect();
            let verdict = verdict(metric, &va, &vb, &pairs).map_or("no data", Verdict::name);
            // Modelled statistics repeat exactly for a seed, so any paired
            // difference means the simulated device changed.
            let changed = pairs.iter().filter(|(x, y)| x != y).count();
            let exact = match (metric.modelled, changed) {
                (false, _) => String::new(),
                (true, 0) => "; modelled values identical".to_string(),
                (true, k) => format!("; modelled values changed on {k} of {} seeds", pairs.len()),
            };
            println!(
                "{workload:<14} {:<22} {:>34} {:>34} {:>7}  {verdict}{exact}",
                metric.name,
                spread(&va),
                spread(&vb),
                format!("{}/{}", wins(metric, &pairs), pairs.len()),
            );
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("no workload has untraced results on both sides".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lookup;

    fn paired(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_paired_rule() {
        let rate = lookup("runs_per_s").unwrap(); // higher is better, bound 0.25
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // Every pair won, gain far beyond A's IQR.
        let b: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(
            verdict(rate, &a, &b, &paired(&a, &b)),
            Some(Verdict::Improved)
        );
        // A/A: identical values win nothing and stay within the bound.
        assert_eq!(
            verdict(rate, &a, &a, &paired(&a, &a)),
            Some(Verdict::WithinBound)
        );
        // 40% slower everywhere is beyond the 25% bound.
        let c: Vec<f64> = a.iter().map(|x| x * 0.6).collect();
        assert_eq!(
            verdict(rate, &a, &c, &paired(&a, &c)),
            Some(Verdict::Regressed)
        );
        // A baseline spread wider than the bound cannot vouch for "within".
        let wide: Vec<f64> = (0..10).map(|i| 50.0 + 30.0 * f64::from(i)).collect();
        let same = wide.clone();
        assert_eq!(
            verdict(rate, &wide, &same, &paired(&wide, &same)),
            Some(Verdict::Unresolved)
        );
        // Eight wins in ten is not enough to claim a gain.
        let mut mixed = b.clone();
        mixed[0] = a[0] * 0.99;
        mixed[1] = a[1] * 0.99;
        assert_eq!(
            verdict(rate, &a, &mixed, &paired(&a, &mixed)),
            Some(Verdict::WithinBound)
        );
    }
}
