//! `compare A.jsonl B.jsonl`: judge a change (B) against its parent (A).
//!
//! Each file holds the JSONL of any number of `run` invocations.  For
//! every (workload, end-to-end metric) pair the two sides' medians and
//! quartiles are printed with a verdict under that metric's bound from
//! `BENCHMARK.json` (read from the working directory).

use std::collections::BTreeMap;
use std::process::ExitCode;

use flowcon_metrics::export::text_table;

use crate::json::Json;
use crate::stats::{median, quartiles};

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than A's own spread.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The runs spread wider than the bound, so a difference within it
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's direction and bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub share: f64,
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values).unwrap_or((0.0, 0.0));
    match median(values) {
        Some(m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The verdict for B against A (both non-empty).
///
/// A zero bound (`error_rate`) admits no worsening in any single run, so it
/// compares the worst run of each side instead of the medians.
pub fn verdict(a: &[f64], b: &[f64], bound: Bound) -> Verdict {
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    if bound.share == 0.0 {
        let worst = |v: &[f64]| {
            v.iter()
                .copied()
                .reduce(|x, y| if better(x, y) { y } else { x })
                .unwrap_or(0.0)
        };
        let (wa, wb) = (worst(a), worst(b));
        return if better(wa, wb) {
            Verdict::Regressed
        } else if better(wb, wa) {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
    }
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    // Relative worsening of B; an exact zero baseline compares absolutely.
    let worse = {
        let d = if bound.lower_is_better {
            mb - ma
        } else {
            ma - mb
        };
        if ma != 0.0 {
            d / ma.abs()
        } else {
            d
        }
    };
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let noise = spread(a).max(spread(b));
    if noise > bound.share && !every_b_better {
        Verdict::Unresolved
    } else if worse > bound.share {
        Verdict::Regressed
    } else if worse < 0.0 && -worse > spread(a) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(workload, metric)` → values of every e2e record in a results file.
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if rec.get("kind").and_then(Json::as_str) != Some("e2e") {
            continue;
        }
        let field = |k: &str| {
            rec.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("{path}:{}: record without `{k}`", i + 1))
        };
        let value = rec
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("{path}:{}: record without a numeric value", i + 1))?;
        out.entry((field("workload")?.to_string(), field("metric")?.to_string()))
            .or_default()
            .push(value);
    }
    Ok(out)
}

/// End-to-end bounds from `BENCHMARK.json`, plus `error_rate`, which must
/// not rise at all.
pub fn bounds(doc: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let mut out = BTreeMap::new();
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    for m in metrics {
        let name = m.get("name").and_then(Json::as_str);
        let better = m.get("better").and_then(Json::as_str);
        let share = m.get("bound").and_then(Json::as_f64);
        let (Some(name), Some(better @ ("lower" | "higher")), Some(share)) = (name, better, share)
        else {
            return Err("BENCHMARK.json: malformed end_to_end entry".into());
        };
        out.insert(
            name.to_string(),
            Bound {
                lower_is_better: better == "lower",
                share,
            },
        );
    }
    out.insert(
        "error_rate".into(),
        Bound {
            lower_is_better: true,
            share: 0.0,
        },
    );
    Ok(out)
}

fn fmt_side(values: Option<&Vec<f64>>) -> String {
    match values {
        Some(v) => {
            let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            format!(
                "{:.6} [{:.6}, {:.6}] n={}",
                median(v).unwrap_or(f64::NAN),
                q1,
                q3,
                v.len()
            )
        }
        None => "-".into(),
    }
}

/// Print the comparison; exit 1 if any pair regressed.
pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = bounds(&Json::parse(&doc).map_err(|e| format!("BENCHMARK.json: {e}"))?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut keys: Vec<&(String, String)> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut rows = Vec::new();
    let mut regressed = 0;
    for key in keys {
        let (workload, metric) = key;
        let Some(&bound) = bounds.get(metric) else {
            continue;
        };
        let (va, vb) = (a.get(key), b.get(key));
        let verdict = match (va, vb) {
            (Some(va), Some(vb)) => verdict(va, vb, bound).label(),
            _ => "missing",
        };
        if verdict == "regressed" || verdict == "missing" {
            regressed += 1;
        }
        rows.push(vec![
            workload.clone(),
            metric.clone(),
            fmt_side(va),
            fmt_side(vb),
            format!("{:.2}%", bound.share * 100.0),
            verdict.to_string(),
        ]);
    }
    print!(
        "{}",
        text_table(
            &[
                "workload",
                "metric",
                "A median [q1, q3]",
                "B median [q1, q3]",
                "bound",
                "verdict"
            ],
            &rows
        )
    );
    println!("{regressed} regressed or missing of {} pairs", rows.len());
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Bound = Bound {
        lower_is_better: false,
        share: 0.08,
    };
    const LOWER: Bound = Bound {
        lower_is_better: true,
        share: 0.1,
    };

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, HIGHER), Verdict::Unchanged);
        let slower = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(verdict(&a, &slower, HIGHER), Verdict::Regressed);
        let faster = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(verdict(&a, &faster, HIGHER), Verdict::Improved);
        // For lower-is-better metrics the same move is a regression.
        assert_eq!(verdict(&a, &faster, LOWER), Verdict::Unchanged);
        assert_eq!(verdict(&slower, &a, LOWER), Verdict::Regressed);
        // Runs spread wider than the bound: unresolved...
        let wide = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&a, &wide, HIGHER), Verdict::Unresolved);
        // ...unless every B run beats every A run.
        let wide_but_better = [200.0, 400.0, 300.0, 210.0, 390.0];
        assert_eq!(verdict(&a, &wide_but_better, HIGHER), Verdict::Improved);
    }

    #[test]
    fn deterministic_metrics_compare_exactly() {
        let a = [1234.5; 5];
        assert_eq!(verdict(&a, &a, LOWER), Verdict::Unchanged);
        let zero = [0.0; 3];
        let err = Bound {
            lower_is_better: true,
            share: 0.0,
        };
        assert_eq!(verdict(&zero, &zero, err), Verdict::Unchanged);
        // One failing run is enough, whatever the median says.
        assert_eq!(verdict(&zero, &[0.0, 0.001, 0.0], err), Verdict::Regressed);
        assert_eq!(verdict(&[0.0, 0.002], &zero, err), Verdict::Improved);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_description() {
        let doc = Json::parse(
            r#"{"end_to_end": [
                {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.08},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}
            ]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b["jobs_per_s"], HIGHER);
        assert_eq!(b["setup_s"], LOWER);
        assert_eq!(b["error_rate"].share, 0.0);
        assert!(bounds(&Json::parse(r#"{"end_to_end": [{"name": "x"}]}"#).unwrap()).is_err());
    }
}
