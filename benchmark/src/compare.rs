//! `benchmark compare A.json… -- B.json…`: for each workload and
//! end-to-end metric, each set's median and quartiles, and whether set
//! B stays within the metric's bound of set A.

use monolith3d::json_str_field;

use crate::spec::{Better, Spec, END_TO_END, WORKLOADS};
use crate::stats;

/// How set B compares with set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's own spread is wider than the bound, so the runs cannot
    /// tell either way.
    Unresolved,
}

/// Judges `b` against `a`; also returns how much worse B's median is,
/// as a share of A's (negative when better).
pub fn verdict(spec: &Spec, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = match spec.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let bound = spec.bound.unwrap_or(0.0);
    let v = if stats::spread(a).max(stats::spread(b)) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (v, worse)
}

/// The value of metric `name` in a result line written by `--out`.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Reads result files: `(workload, result line)` each.
fn load(paths: &[String]) -> Result<Vec<(String, String)>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let line = text
                .lines()
                .rev()
                .find(|l| l.starts_with('{'))
                .ok_or_else(|| format!("{p}: no result line"))?;
            let w = json_str_field(line, "workload").ok_or_else(|| format!("{p}: no workload"))?;
            Ok((w, line.to_string()))
        })
        .collect()
}

fn summary(v: &[f64]) -> String {
    let [q1, q2, q3] = stats::quartiles(v);
    format!("{q2:>12.4} [{q1:.4}, {q3:.4}] n={}", v.len())
}

/// Runs the comparison; `Ok(true)` when nothing regressed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let usage = "usage: benchmark compare A.json... -- B.json...";
    let split = args.iter().position(|a| a == "--").ok_or(usage)?;
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err(usage.to_string());
    }
    let mut clean = true;
    println!("workload       metric        A median [q1, q3]                  B median [q1, q3]                  worse   bound  verdict");
    for (workload, _) in WORKLOADS {
        for spec in &END_TO_END {
            let values = |set: &[(String, String)]| -> Vec<f64> {
                set.iter()
                    .filter(|(w, _)| w == workload)
                    .filter_map(|(_, l)| metric_value(l, spec.name))
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (v, worse) = verdict(spec, &va, &vb);
            clean &= v != Verdict::Regressed;
            println!(
                "{workload:<14} {:<12} {}  {}  {:>+6.1}%  {:>4.0}%  {v:?}",
                spec.name,
                summary(&va),
                summary(&vb),
                worse * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::find;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let lat = find("lat_p50_ms").expect("metric");
        let step = lat.bound.expect("bounded") + 0.1;
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(verdict(lat, &a, &a).0, Verdict::Within);
        let slower: Vec<f64> = a.iter().map(|x| x * (1.0 + step)).collect();
        let (v, worse) = verdict(lat, &a, &slower);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - step).abs() < 1e-9);
        let faster: Vec<f64> = a.iter().map(|x| x * (1.0 - step)).collect();
        assert_eq!(verdict(lat, &a, &faster).0, Verdict::Within);
        // For a higher-is-better metric the same numbers flip.
        let rate = Spec {
            better: Better::Higher,
            ..*lat
        };
        assert_eq!(verdict(&rate, &a, &faster).0, Verdict::Regressed);
        assert_eq!(verdict(&rate, &a, &slower).0, Verdict::Within);
        // A set whose own quartiles straddle more than the bound cannot
        // resolve anything.
        let noisy = [30.0, 60.0, 100.0, 140.0, 170.0];
        assert_eq!(verdict(lat, &a, &noisy).0, Verdict::Unresolved);
    }

    #[test]
    fn metric_values_are_read_from_result_lines() {
        let line =
            "{\"workload\":\"serve\",\"seed\":1,\"correct\":true,\"attempted\":3,\"failed\":0,\
                    \"metrics\":{\"lat_p50_ms\":{\"value\":0.125,\"unit\":\"ms\",\"n\":40000},\
                    \"setup_s\":{\"value\":1.5,\"unit\":\"s\",\"n\":3}}}";
        assert_eq!(metric_value(line, "lat_p50_ms"), Some(0.125));
        assert_eq!(metric_value(line, "setup_s"), Some(1.5));
        assert_eq!(metric_value(line, "peak_rss_mb"), None);
    }
}
