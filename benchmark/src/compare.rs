//! Result files and their comparison.
//!
//! A result file is tab-separated text, one row per metric per run
//! (`workload seed metric unit value`), appended to by `--tsv`. `spread`
//! judges one file against the benchmark's own bounds; `compare` judges a
//! change against its parent, one row per (end-to-end metric, workload).

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::summary::{median, spread};
use std::collections::BTreeMap;

/// `(workload, metric)` → the value of every run, keyed by seed.
pub type Results = BTreeMap<(String, String), Vec<(u64, Option<f64>)>>;

/// Parses a result file; a run that failed its checks carries `failed`
/// instead of a value.
pub fn parse(text: &str) -> Result<Results, String> {
    let mut out = Results::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}: `{line}`", n + 1);
        let cols: Vec<&str> = line.split('\t').collect();
        let [workload, seed, metric, _unit, value] = cols[..] else {
            return Err(bad("expected 5 tab-separated fields"));
        };
        let seed = seed.parse().map_err(|_| bad("seed is not a number"))?;
        let value = match value {
            "failed" => None,
            v => Some(v.parse::<f64>().map_err(|_| bad("value is not a number"))?),
        };
        out.entry((workload.to_string(), metric.to_string()))
            .or_default()
            .push((seed, value));
    }
    Ok(out)
}

/// How a change's metric stands against its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound: no verdict.
    Unresolved,
}

/// One side's runs of one (metric, workload) pair: `(seed, value)`.
type Runs = [(u64, Option<f64>)];

/// One row of a comparison.
pub struct Row {
    pub workload: String,
    pub metric: &'static EndToEnd,
    /// Medians of the two sides.
    pub parent: f64,
    pub change: f64,
    /// Signed share of the parent's median by which the change is *worse*.
    pub worse_by: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
    pub class: Class,
}

/// Judges one (metric, workload) pair.
pub fn classify(workload: &str, metric: &'static EndToEnd, parent: &Runs, change: &Runs) -> Row {
    let row = |parent, change, worse_by, spread, class| Row {
        workload: workload.to_string(),
        metric,
        parent,
        change,
        worse_by,
        spread,
        class,
    };
    let values = |runs: &Runs| -> Option<Vec<f64>> { runs.iter().map(|(_, v)| *v).collect() };
    let (Some(a), Some(b)) = (values(parent), values(change)) else {
        // A run that failed its correctness checks has no numbers to trust.
        let ok = |runs| values(runs).map_or(f64::NAN, |v| median(&v));
        let class = if values(change).is_none() {
            Class::Regressed
        } else {
            Class::Unresolved
        };
        return row(ok(parent), ok(change), f64::NAN, f64::NAN, class);
    };
    let (ma, mb) = (median(&a), median(&b));
    let sign = if metric.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let worse_by = if ma != 0.0 {
        sign * (mb - ma) / ma.abs()
    } else {
        0.0
    };
    let wider = spread(&a).max(spread(&b));

    let seeds = |runs: &Runs| runs.iter().map(|(s, _)| *s).collect::<Vec<u64>>();
    let class = if metric.unit == "modeled_ms" && seeds(parent) == seeds(change) {
        // Same inputs: the modeled clock repeats exactly or it changed. The
        // run that moved furthest decides the direction.
        let furthest = a
            .iter()
            .zip(&b)
            .map(|(x, y)| sign * (y - x))
            .fold(0.0, |far: f64, d| if d.abs() > far.abs() { d } else { far });
        match furthest {
            d if d > 0.0 => Class::Regressed,
            d if d < 0.0 => Class::Improved,
            _ => Class::Unchanged,
        }
    } else if wider > metric.bound {
        Class::Unresolved
    } else if worse_by > metric.bound {
        Class::Regressed
    } else if -worse_by > metric.bound {
        // The same yardstick in both directions. (A *claim* of a gain needs
        // the ten alternating pairs of the choosing-metrics guide as well.)
        Class::Improved
    } else {
        Class::Unchanged
    };
    row(ma, mb, worse_by, wider, class)
}

/// One row per (end-to-end metric, workload) present on both sides.
pub fn compare(parent: &Results, change: &Results) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, name), a) in parent {
        let (Some(metric), Some(b)) = (
            END_TO_END.iter().find(|m| m.name == name),
            change.get(&(workload.clone(), name.clone())),
        ) else {
            continue;
        };
        rows.push(classify(workload, metric, a, b));
    }
    rows
}

/// Prints a comparison; returns how many rows regressed.
pub fn print_comparison(rows: &[Row]) -> usize {
    println!(
        "{:<17} {:<18} {:<10} {:>14} {:>14} {:>9} {:>7} {:>8}  class",
        "workload", "metric", "unit", "parent p50", "change p50", "worse by", "bound", "spread"
    );
    for r in rows {
        println!(
            "{:<17} {:<18} {:<10} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}% {:>7.2}%  {}",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.parent,
            r.change,
            100.0 * r.worse_by,
            100.0 * r.metric.bound,
            100.0 * r.spread,
            format!("{:?}", r.class).to_lowercase()
        );
    }
    let count = |c| rows.iter().filter(|r| r.class == c).count();
    println!(
        "{} rows: {} improved, {} unchanged, {} regressed, {} unresolved",
        rows.len(),
        count(Class::Improved),
        count(Class::Unchanged),
        count(Class::Regressed),
        count(Class::Unresolved)
    );
    count(Class::Regressed)
}

/// Prints each (metric, workload)'s median and quartile spread against its
/// bound; returns how many spreads reach a third of their bound (the
/// steadiness the benchmark asks of itself) — `setup_s` excepted, whose
/// spread the driver does not judge.
pub fn print_spreads(results: &Results) -> usize {
    println!(
        "{:<17} {:<18} {:<10} {:>4} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "unit", "runs", "median", "spread", "bound"
    );
    let mut unsteady = 0;
    for ((workload, name), runs) in results {
        let Some(metric) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let values: Vec<f64> = runs.iter().filter_map(|(_, v)| *v).collect();
        let s = spread(&values);
        let verdict = if values.len() < runs.len() {
            unsteady += 1;
            "FAILED RUNS"
        } else if metric.name == "setup_s" {
            "not judged"
        } else if s < metric.bound / 3.0 {
            "steady"
        } else {
            unsteady += 1;
            if s <= metric.bound {
                "above a third of the bound"
            } else {
                "ABOVE THE BOUND"
            }
        };
        println!(
            "{:<17} {:<18} {:<10} {:>4} {:>14.4} {:>7.2}% {:>6.1}%  {verdict}",
            workload,
            metric.name,
            metric.unit,
            values.len(),
            median(&values),
            100.0 * s,
            100.0 * metric.bound
        );
    }
    unsteady
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn runs(values: &[f64]) -> Vec<(u64, Option<f64>)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, Some(*v)))
            .collect()
    }

    #[test]
    fn parses_rows_and_failed_runs() {
        let r = parse("scan_cold\t7\tround_wall_ms_p50\tms\t81.5\nscan_cold\t8\tround_wall_ms_p50\tms\tfailed\n\n").unwrap();
        assert_eq!(
            r[&("scan_cold".to_string(), "round_wall_ms_p50".to_string())],
            vec![(7, Some(81.5)), (8, None)]
        );
        assert!(parse("a\tb\tc").is_err());
        assert!(parse("w\tx\tm\tu\t1").is_err());
        assert!(parse("w\t1\tm\tu\tfast").is_err());
    }

    /// Five runs scattered ±0.5 % around `centre`.
    fn around(centre: f64) -> Vec<(u64, Option<f64>)> {
        runs(&[1.0, 1.005, 0.995, 1.002, 0.998].map(|f| f * centre))
    }

    #[test]
    fn classes_follow_direction_bound_and_spread() {
        let p50 = metric("round_wall_ms_p50"); // lower is better
        let class =
            |m: &'static EndToEnd, change: &Runs| classify("w", m, &around(100.0), change).class;
        let beyond = 100.0 * (p50.bound + 0.05);
        assert_eq!(class(p50, &around(100.1)), Class::Unchanged);
        assert_eq!(
            class(p50, &around(100.0 + 100.0 * p50.bound / 2.0)),
            Class::Unchanged
        );
        assert_eq!(class(p50, &around(100.0 + beyond)), Class::Regressed);
        assert_eq!(class(p50, &around(100.0 - beyond)), Class::Improved);
        assert_eq!(
            class(p50, &around(100.0 - 100.0 * p50.bound / 2.0)),
            Class::Unchanged
        );
        // About as fast, but the runs disagree by more than the bound: no verdict.
        let wild = 100.0 * p50.bound;
        assert_eq!(
            class(
                p50,
                &runs(&[
                    100.0 - wild,
                    100.0 + wild,
                    100.0,
                    100.0 - wild / 2.0,
                    100.0 + wild
                ])
            ),
            Class::Unresolved
        );
        // Higher-is-better flips the sign.
        let qps = metric("queries_per_s");
        assert_eq!(
            class(qps, &around(100.0 + 100.0 * (qps.bound + 0.05))),
            Class::Improved
        );
        assert_eq!(
            class(qps, &around(100.0 - 100.0 * (qps.bound + 0.05))),
            Class::Regressed
        );
    }

    #[test]
    fn modeled_clock_is_exact_on_the_same_seeds() {
        let m = metric("modeled_ms_total");
        let base = runs(&[10.0, 10.1, 10.2]);
        assert_eq!(classify("w", m, &base, &base).class, Class::Unchanged);
        assert_eq!(
            classify("w", m, &base, &runs(&[10.0, 10.1, 10.2000001])).class,
            Class::Regressed
        );
        assert_eq!(
            classify("w", m, &base, &runs(&[10.0, 10.1, 10.1999999])).class,
            Class::Improved
        );
        // Other seeds: judged like any other metric, by median and bound.
        let other: Vec<(u64, Option<f64>)> =
            vec![(7, Some(10.0)), (8, Some(10.1)), (9, Some(10.21))];
        assert_eq!(classify("w", m, &base, &other).class, Class::Unchanged);
    }

    #[test]
    fn a_failed_change_regresses() {
        let m = metric("round_wall_ms_p50");
        let base = runs(&[1.0, 1.0]);
        let broken = vec![(0, Some(1.0)), (1, None)];
        assert_eq!(classify("w", m, &base, &broken).class, Class::Regressed);
        assert_eq!(classify("w", m, &broken, &base).class, Class::Unresolved);
    }

    #[test]
    fn compare_pairs_rows_by_workload_and_metric() {
        let text = |v: f64| {
            format!("w\t1\tround_wall_ms_p50\tms\t{v}\nw\t2\tround_wall_ms_p50\tms\t{v}\nw\t1\tnot.a.metric\tms\t1\n")
        };
        let rows = compare(&parse(&text(10.0)).unwrap(), &parse(&text(14.0)).unwrap());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].class, Class::Regressed);
        assert!((rows[0].worse_by - 0.4).abs() < 1e-12);
        assert_eq!(print_comparison(&rows), 1);
    }
}
