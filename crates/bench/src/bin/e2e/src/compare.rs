//! `e2e compare <a.json> <b.json>` — two result files written by
//! `e2e --out`, judged metric by metric against the benchmark's bounds.
//!
//! For every (workload, end-to-end metric) it prints the base median, the
//! new median, the relative change in the direction that counts as
//! worse, and a verdict: `ok`, `REGRESSED` (worse by more than the
//! bound), or `unresolved` when either set's own run-to-run spread
//! exceeds the bound — unless every new run beats every base run.
//! Selection hashes and failure counts must match exactly.

use crate::stats::{iqr_share, median};
use lpvs_obs::json::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|_| format!("{path}: not a result file"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges one metric. `worse` is the change as a share of the base
/// median, positive when the new set is worse.
pub fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (b, n) = (median(base), median(new));
    let worse = if b == 0.0 {
        0.0
    } else if higher_is_better {
        (b - n) / b
    } else {
        (n - b) / b
    };
    let spread = iqr_share(base).max(iqr_share(new));
    let new_always_better = base.iter().all(|&x| {
        new.iter()
            .all(|&y| if higher_is_better { y > x } else { y < x })
    });
    let verdict = if spread > bound && !new_always_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Returns whether nothing regressed and nothing differed that must be
/// equal.
pub fn run(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: e2e compare <a.json> <b.json>".to_owned());
    };
    let (base, new) = (load(a)?, load(b)?);
    let Some(Json::Obj(bounds)) = base.get("bounds") else {
        return Err(format!("{a}: no bounds"));
    };
    let Some(Json::Obj(workloads)) = base.get("workloads") else {
        return Err(format!("{a}: no workloads"));
    };
    let same_seed = base.get("seed") == new.get("seed");
    let mut clean = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    for (workload, entry) in workloads {
        for (metric, spec) in bounds {
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = spec.get("better").and_then(Json::as_str) == Some("higher");
            let (x, y) = (
                values(&base, workload, metric),
                values(&new, workload, metric),
            );
            if x.is_empty() || y.is_empty() {
                println!("{workload:<14} {metric:<22} missing from one file");
                clean = false;
                continue;
            }
            let (worse, verdict) = judge(&x, &y, higher, bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<14} {metric:<22} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
                median(&x),
                median(&y),
                100.0 * worse,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let other = new.get("workloads").and_then(|w| w.get(workload));
        let field = |doc: Option<&Json>, key: &str| doc.and_then(|d| d.get(key)).cloned();
        if field(other, "failed") != Some(Json::Num(0.0))
            || field(Some(entry), "failed") != Some(Json::Num(0.0))
        {
            println!(
                "{workload:<14} failed operations: base {:?}, new {:?}",
                field(Some(entry), "failed"),
                field(other, "failed")
            );
            clean = false;
        }
        if same_seed {
            let (h0, h1) = (
                field(Some(entry), "selection_hash"),
                field(other, "selection_hash"),
            );
            let equal = h0 == h1;
            println!(
                "{workload:<14} selection hash {}",
                if equal {
                    "equal".to_owned()
                } else {
                    format!("DIFFERS: {h0:?} vs {h1:?}")
                }
            );
            clean &= equal;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_change_inside_the_bound_is_ok_and_one_beyond_it_regressed() {
        let base = [1.00, 1.01, 0.99];
        assert_eq!(
            judge(&base, &[1.05, 1.04, 1.06], false, 0.10).1,
            Verdict::Ok
        );
        let (worse, verdict) = judge(&base, &[1.20, 1.21, 1.19], false, 0.10);
        assert!((worse - 0.20).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // A rate that fell is worse; one that rose is not.
        assert_eq!(judge(&[100.0], &[80.0], true, 0.10).1, Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[120.0], true, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(
            judge(&noisy, &[1.1, 1.0, 1.2, 0.9, 1.3], false, 0.10).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[0.5, 0.6, 0.4, 0.7, 0.55], false, 0.10).1,
            Verdict::Ok
        );
    }
}
