//! `cabench compare`: two run documents (or two directories of them) side
//! by side, one row per (workload, end-to-end metric), judged against the
//! bound the benchmark fixed for that metric.

use crate::json::{self, Value};
use crate::run::RUN_SCHEMA;
use crate::spec::{Better, END_TO_END};
use crate::stats::{fast_decile, median, quartile_spread};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
        }
    }
}

/// How much worse `b` is than the base `a`, as a share of `a` (negative
/// when `b` is better), in the metric's own direction.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Worse: more than `bound` worse than the base. Better: more than `bound`
/// better. Exactly at the bound still counts as within.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    let w = worsening(a, b, better);
    if !w.is_finite() || w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The untraced runs of one document, which may hold one run or a set.
fn runs_of(doc: &Value) -> Vec<&Value> {
    let list = match doc.get("runs").and_then(Value::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    };
    list.into_iter()
        .filter(|run| {
            run.get("schema").and_then(Value::as_str) == Some(RUN_SCHEMA)
                && run.get("trace").and_then(Value::as_bool) == Some(false)
        })
        .collect()
}

pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// What the metric would have read from the wall-clock samples alone — the
/// same fast decile, without the yardstick. `None` for untimed metrics.
fn wall_only_value(run: &Value, name: &str) -> Option<f64> {
    let metric = run.get("metrics")?.get(name)?;
    let list = |key| -> Option<Vec<f64>> {
        Some(metric.get(key)?.as_arr()?.iter().filter_map(Value::as_f64).collect())
    };
    let (normalized, wall) = (fast_decile(&list("raw")?), fast_decile(&list("raw_wall")?));
    let value = metric.get("value")?.as_f64()?;
    // a time scales with its samples, a throughput against them
    Some(if name.ends_with("_mibps") {
        value * normalized / wall
    } else {
        value * wall / normalized
    })
}

fn failure_share(run: &Value) -> f64 {
    let count = |key| run.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    count("failed") / count("attempted")
}

fn workload_of(run: &Value) -> String {
    run.get("workload").and_then(Value::as_str).unwrap_or("?").to_string()
}

/// `compare A.json B.json`: prints the table, returns whether any row is worse.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    let by_workload = |doc| -> BTreeMap<String, &Value> {
        runs_of(doc).into_iter().map(|r| (workload_of(r), r)).collect()
    };
    let (runs_a, runs_b) = (by_workload(&doc_a), by_workload(&doc_b));
    if runs_a.is_empty() || runs_b.is_empty() {
        return Err("no untraced cabench run in one of the documents".into());
    }
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict   (ratio = B / A, base A = {})",
        "workload",
        "metric",
        "A",
        "B",
        "ratio",
        "bound",
        a.display()
    );
    let mut any_worse = false;
    for (workload, run_a) in &runs_a {
        let Some(run_b) = runs_b.get(workload) else {
            println!("{workload:<18} only in A");
            any_worse = true;
            continue;
        };
        for metric in &END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics are gated");
            let (va, vb) =
                match (metric_value(run_a, metric.name), metric_value(run_b, metric.name)) {
                    (Some(va), Some(vb)) => (va, vb),
                    _ => {
                        println!("{workload:<18} {:<18} missing", metric.name);
                        any_worse = true;
                        continue;
                    }
                };
            let v = verdict(va, vb, metric.better, bound);
            any_worse |= v == Verdict::Worse;
            println!(
                "{workload:<18} {:<18} {va:>14.6} {vb:>14.6} {:>9.4} {:>5.0}%  {}",
                metric.name,
                vb / va,
                bound * 100.0,
                v.as_str()
            );
        }
        let (fa, fb) = (failure_share(run_a), failure_share(run_b));
        let worse = fb > fa || !fb.is_finite();
        any_worse |= worse;
        println!(
            "{workload:<18} {:<18} {fa:>14.6} {fb:>14.6} {:>9} {:>6}  {}",
            "failed/attempted",
            "-",
            "0%",
            if worse { "WORSE" } else { "within" }
        );
    }
    for workload in runs_b.keys().filter(|w| !runs_a.contains_key(*w)) {
        println!("{workload:<18} only in B");
    }
    Ok(any_worse)
}

/// Every untraced run below `dir`, grouped by workload.
fn load_set(dir: &Path) -> Result<BTreeMap<String, Vec<Value>>, String> {
    let mut set: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let doc = load(&path)?;
        for run in runs_of(&doc) {
            set.entry(workload_of(run)).or_default().push(run.clone());
        }
    }
    Ok(set)
}

/// `compare --aa SET_A/ SET_B/`: two sets of runs of the same code. Prints
/// per metric both medians, their disagreement and each set's own quartile
/// spread beside the bound — and, for timed metrics, the same three numbers
/// as they would read without the yardstick; returns whether any
/// disagreement exceeds its bound.
pub fn compare_sets(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    if set_a.is_empty() || set_b.is_empty() {
        return Err("a set holds no untraced cabench run".into());
    }
    println!(
        "| workload | metric | n | median A | median B | disagreement | spread A | spread B | bound \
         | verdict | wall-clock only: disagreement | spread A | spread B |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut any_beyond = false;
    for (workload, runs_a) in &set_a {
        let Some(runs_b) = set_b.get(workload) else { continue };
        for metric in &END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics are gated");
            let values = |runs: &[Value]| -> Vec<f64> {
                runs.iter().filter_map(|r| metric_value(r, metric.name)).collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let disagreement = (mb - ma).abs() / ma;
            let beyond = disagreement > bound;
            any_beyond |= beyond;
            let verdict = if beyond {
                "BEYOND BOUND"
            } else if disagreement > bound / 2.0 {
                "over half the bound"
            } else {
                "ok"
            };
            let wall = |runs: &[Value]| -> Vec<f64> {
                runs.iter().filter_map(|r| wall_only_value(r, metric.name)).collect()
            };
            let (wa, wb) = (wall(runs_a), wall(runs_b));
            let wall_columns = if wa.is_empty() || wb.is_empty() {
                "| | |".to_string()
            } else {
                format!(
                    "| {:.2} % | {:.2} % | {:.2} %",
                    (median(&wb) - median(&wa)).abs() / median(&wa) * 100.0,
                    quartile_spread(&wa) * 100.0,
                    quartile_spread(&wb) * 100.0
                )
            };
            println!(
                "| {workload} | {} | {}+{} | {ma:.6} | {mb:.6} | {:.2} % | {:.2} % | {:.2} % | {:.0} % \
                 | {verdict} {wall_columns} |",
                metric.name,
                va.len(),
                vb.len(),
                disagreement * 100.0,
                quartile_spread(&va) * 100.0,
                quartile_spread(&vb) * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(any_beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_and_around_the_bound() {
        // lower is better, 10 % bound, base 100
        assert_eq!(verdict(100.0, 100.0, Better::Lower, 0.10), Verdict::Within);
        assert_eq!(
            verdict(100.0, 110.0, Better::Lower, 0.10),
            Verdict::Within,
            "exactly at the bound"
        );
        assert_eq!(verdict(100.0, 110.01, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 90.0, Better::Lower, 0.10), Verdict::Within);
        assert_eq!(verdict(100.0, 89.99, Better::Lower, 0.10), Verdict::Better);
        // higher is better: the same numbers mirror
        assert_eq!(verdict(100.0, 90.0, Better::Higher, 0.10), Verdict::Within);
        assert_eq!(verdict(100.0, 89.99, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 110.01, Better::Higher, 0.10), Verdict::Better);
        // a zero bound tolerates nothing but equality
        assert_eq!(verdict(3176.12, 3176.12, Better::Lower, 0.0), Verdict::Within);
        assert_eq!(verdict(3176.12, 3176.13, Better::Lower, 0.0), Verdict::Worse);
        // a missing measurement is never acceptable
        assert_eq!(verdict(100.0, f64::NAN, Better::Lower, 0.10), Verdict::Worse);
    }

    #[test]
    fn worsening_is_relative_to_the_base() {
        assert!((worsening(200.0, 220.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(200.0, 220.0, Better::Higher) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn traced_and_foreign_documents_are_skipped() {
        let run = |trace| {
            Value::obj([
                ("schema", Value::str(RUN_SCHEMA)),
                ("workload", Value::str("w")),
                ("trace", Value::Bool(trace)),
            ])
        };
        let set = Value::obj([(
            "runs",
            Value::Arr(vec![run(false), run(true), Value::obj([("x", Value::Null)])]),
        )]);
        assert_eq!(runs_of(&set).len(), 1);
        assert_eq!(runs_of(&run(false)).len(), 1);
        assert!(runs_of(&run(true)).is_empty());
    }
}
