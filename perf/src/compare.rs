//! `perf compare A.json B.json`: one row per end-to-end metric and workload
//! of two `perf run` reports, A the baseline.

use crate::json::Json;
use crate::spec::Better;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between repeats is wider than the bound, or as wide as
    /// the difference: the runs cannot tell.
    Unresolved,
}

/// One side of a row: the median and the quartile spread as a share of it.
/// A value sampled once has no spread to show; `None` then.
#[derive(Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: Option<f64>,
}

/// By how much of A's median B is worse (negative when better), and what
/// that means under `bound`.
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> (f64, Verdict) {
    let worse = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    // Without a spread, only a difference beyond the bound says anything.
    let spread = match (a.spread, b.spread) {
        (Some(a), Some(b)) => a.max(b),
        _ => bound,
    };
    let verdict = if worse > bound {
        if worse > spread {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < 0.0 && -worse > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

fn side(metric: &Json) -> Option<Side> {
    let field = |key| metric.get(key).and_then(Json::as_f64);
    let value = field("value")?;
    let spread = match (field("q1"), field("q3"), field("n")) {
        (Some(q1), Some(q3), Some(n)) if n > 1.0 && value != 0.0 => {
            Some((q3 - q1).abs() / value.abs())
        }
        _ => None,
    };
    Some(Side { value, spread })
}

fn failed_frac(workload: &Json) -> f64 {
    let count = |key| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    count("failed") / count("attempted").max(1.0)
}

/// Prints the rows; `true` when B regressed on a metric or fails more.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |report: &Json| {
        report
            .get("workloads")
            .map(|w| w.members().to_vec())
            .ok_or("not a perf report: no \"workloads\"")
    };
    let b_workloads = workloads(b)?;
    let mut bad = false;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "spread", "bound"
    );
    for (name, in_a) in workloads(a)? {
        let Some((_, in_b)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            println!("{name:<12} only in A");
            continue;
        };
        let (fa, fb) = (failed_frac(&in_a), failed_frac(in_b));
        let failing = fb > fa;
        bad |= failing;
        println!(
            "{name:<12} {:<26} {fa:>14.6} {fb:>14.6} {:>9} {:>7} {:>7}  {}",
            "failed_frac",
            "",
            "",
            "any",
            if failing { "REGRESSED" } else { "unchanged" }
        );
        let metrics = |w: &Json| w.get("end_to_end").map(|m| m.members().to_vec());
        let b_metrics = metrics(in_b).unwrap_or_default();
        for (metric, ma) in metrics(&in_a).unwrap_or_default() {
            let Some((_, mb)) = b_metrics.iter().find(|(n, _)| *n == metric) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (side(&ma), side(mb)) else {
                continue;
            };
            let better = match ma.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (worse, verdict) = judge(sa, sb, better, bound);
            bad |= verdict == Verdict::Regressed;
            println!(
                "{name:<12} {metric:<26} {:>14.4} {:>14.4} {:>+8.2}% {:>6.2}% {:>6.2}%  {}",
                sa.value,
                sb.value,
                worse * 100.0,
                sa.spread.zip(sb.spread).map_or(0.0, |(a, b)| a.max(b)) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Layers carry no bound: their rows show where a change sits.
        let layers = |w: &Json| w.get("per_layer").map(|m| m.members().to_vec());
        let b_layers = layers(in_b).unwrap_or_default();
        for (metric, ma) in layers(&in_a).unwrap_or_default() {
            let found = b_layers.iter().find(|(n, _)| *n == metric);
            let (Some(sa), Some(sb)) = (side(&ma), found.and_then(|(_, mb)| side(mb))) else {
                continue;
            };
            if sa.value == 0.0 && sb.value == 0.0 {
                continue;
            }
            println!(
                "{name:<12} {metric:<40} {:>14.4} {:>14.4} {:>+8.2}%",
                sa.value,
                sb.value,
                (sb.value - sa.value) / sa.value * 100.0
            );
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{combine, Metric, WorkloadReport};
    use crate::spec;
    use crate::stats::Summary;

    fn side(value: f64, spread: f64) -> Side {
        Side {
            value,
            spread: Some(spread),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        use Verdict::*;
        let quiet = |v| side(v, 0.01);
        assert_eq!(judge(quiet(100.0), quiet(101.0), Lower, 0.1).1, Unchanged);
        assert_eq!(judge(quiet(100.0), quiet(115.0), Lower, 0.1).1, Regressed);
        assert_eq!(judge(quiet(100.0), quiet(85.0), Lower, 0.1).1, Improved);
        assert_eq!(judge(quiet(100.0), quiet(85.0), Higher, 0.1).1, Regressed);
        assert_eq!(judge(quiet(100.0), quiet(115.0), Higher, 0.1).1, Improved);
        // Spread wider than the bound: the runs cannot tell.
        let noisy = |v| side(v, 0.2);
        assert_eq!(judge(noisy(100.0), noisy(105.0), Lower, 0.1).1, Unresolved);
        assert_eq!(judge(noisy(100.0), noisy(115.0), Lower, 0.1).1, Unresolved);
        // Far outside even a wide spread is still a regression.
        assert_eq!(judge(noisy(100.0), noisy(200.0), Lower, 0.1).1, Regressed);
        // Sampled once: no spread, so inside the bound is no news either way.
        let once = |value| Side {
            value,
            spread: None,
        };
        assert_eq!(judge(once(100.0), once(95.0), Lower, 0.1).1, Unchanged);
        assert_eq!(judge(once(100.0), once(80.0), Lower, 0.1).1, Improved);
        assert_eq!(judge(once(100.0), once(120.0), Lower, 0.1).1, Regressed);
        let (worse, _) = judge(quiet(100.0), quiet(90.0), Higher, 0.1);
        assert!((worse - 0.1).abs() < 1e-12);
    }

    fn report(req_per_s: f64, failed: u64) -> Json {
        let run = |traced, metrics| {
            WorkloadReport {
                workload: spec::SVC_PING,
                traced,
                attempted: 100,
                failed,
                metrics,
            }
            .to_json(Json::Obj(vec![]))
        };
        let plain = run(
            false,
            vec![Metric::new(
                spec::REQ_PER_S,
                Summary::of(&[req_per_s, req_per_s * 1.01, req_per_s * 0.99]),
            )],
        );
        let traced = run(true, Vec::new());
        let written = combine(&[(plain, traced)]).pretty();
        Json::parse(&written).expect("written report parses")
    }

    #[test]
    fn written_reports_compare_through_the_parser() {
        let base = report(1000.0, 0);
        assert_eq!(compare(&base, &report(1005.0, 0)), Ok(false));
        assert_eq!(compare(&base, &report(700.0, 0)), Ok(true));
        assert_eq!(compare(&base, &report(1400.0, 0)), Ok(false));
        // More failures fail the comparison whatever the speed.
        assert_eq!(compare(&base, &report(1400.0, 4)), Ok(true));
        assert!(compare(&Json::Null, &base).is_err());
    }
}
