//! `bcs-perf compare A.json B.json`: B against A under the bounds
//! `BENCHMARK.json` fixes, one row per (metric, workload).

use crate::harness::format_value;
use crate::json::Json;
use crate::spec::Spec;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Better,
    WithinBound,
    Regressed,
    /// A side's own spread (IQR over median) is wider than the bound, so a
    /// difference inside the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge a lower-is-better metric: `(median, iqr)` of A and of B.
pub fn judge(a: (f64, f64), b: (f64, f64), bound: f64) -> Verdict {
    let change = (b.0 - a.0) / a.0;
    let spread = (a.1 / a.0).max(b.1 / b.0);
    if change > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub struct Outcome {
    pub rows: Vec<String>,
    /// Reasons the comparison fails (a regression, a count that moved, a
    /// higher error rate, a run missing from B).
    pub problems: Vec<String>,
    pub unresolved: usize,
}

fn runs(doc: &Json) -> Result<&[Json], String> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no `runs` list".to_string())
}

fn key(run: &Json) -> Option<(&str, bool)> {
    Some((run.get("workload")?.as_str()?, run.get("trace")?.as_bool()?))
}

fn field(metric: &Json, name: &str) -> f64 {
    metric.get(name).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<Outcome, String> {
    let mut out = Outcome {
        rows: Vec::new(),
        problems: Vec::new(),
        unresolved: 0,
    };
    let b_runs = runs(b)?;
    for run_a in runs(a)? {
        let (workload, traced) = key(run_a).ok_or("a run in A has no workload/trace")?;
        if !spec.workloads.iter().any(|w| w == workload) {
            out.problems.push(format!(
                "{workload}: not a workload BENCHMARK.json declares"
            ));
            continue;
        }
        let Some(run_b) = b_runs.iter().find(|r| key(r) == Some((workload, traced))) else {
            out.problems.push(format!(
                "{workload} (trace {}): missing from B",
                u8::from(traced)
            ));
            continue;
        };
        let metrics_a = run_a
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("a run in A has no metrics")?;
        let metrics_b = run_b.get("metrics").ok_or("a run in B has no metrics")?;

        let (ea, eb) = (field(run_a, "error_rate"), field(run_b, "error_rate"));
        out.rows.push(format!(
            "{workload:<16} {:<28} {ea:>14} -> {eb:<14} {}",
            if traced {
                "error_rate (traced)"
            } else {
                "error_rate"
            },
            if eb > ea { "HIGHER" } else { "ok" }
        ));
        if eb > ea || eb.is_nan() || ea.is_nan() {
            out.problems
                .push(format!("{workload}: error_rate rose from {ea} to {eb}"));
        }

        for (name, ma) in metrics_a {
            let Some(mb) = metrics_b.get(name) else {
                out.problems
                    .push(format!("{workload}: `{name}` missing from B"));
                continue;
            };
            let (va, vb) = (field(ma, "value"), field(mb, "value"));
            if ma.get("exact").and_then(Json::as_bool) == Some(true) {
                if va != vb {
                    out.rows.push(format!(
                        "{workload:<16} {name:<28} {va:>14} -> {vb:<14} COUNT DIFFERS"
                    ));
                    out.problems.push(format!(
                        "{workload}: count `{name}` changed from {va} to {vb}"
                    ));
                }
                continue;
            }
            let Some(&(_, bound)) = spec.end_to_end.iter().find(|(n, _)| n == name) else {
                // A timed per-layer figure: informative, unbounded.
                if !spec.per_layer.contains(name) {
                    out.problems.push(format!(
                        "{workload}: `{name}` is not a metric BENCHMARK.json declares"
                    ));
                }
                continue;
            };
            let verdict = judge((va, field(ma, "iqr")), (vb, field(mb, "iqr")), bound);
            out.rows.push(format!(
                "{workload:<16} {name:<28} {:>14} -> {:<14} {:+7.2}% (bound {:.0}%)  {}",
                format_value(va),
                format_value(vb),
                (vb - va) / va * 100.0,
                bound * 100.0,
                verdict.label()
            ));
            match verdict {
                Verdict::Regressed => out.problems.push(format!(
                    "{workload}: `{name}` regressed from {va} to {vb} (bound {bound})"
                )),
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Better | Verdict::WithinBound => {}
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(judge((1.0, 0.01), (1.05, 0.01), 0.07), Verdict::WithinBound);
        assert_eq!(judge((1.0, 0.01), (1.08, 0.01), 0.07), Verdict::Regressed);
        assert_eq!(judge((1.0, 0.01), (0.90, 0.01), 0.07), Verdict::Better);
        assert_eq!(judge((1.0, 0.09), (1.02, 0.01), 0.07), Verdict::Unresolved);
        // A regression beyond the bound is reported even when noisy.
        assert_eq!(judge((1.0, 0.09), (1.20, 0.01), 0.07), Verdict::Regressed);
    }

    fn results(host_s: f64, events: f64, error_rate: f64) -> Json {
        Json::parse(&format!(
            "{{\"runs\": [\
               {{\"workload\": \"w\", \"trace\": false, \"error_rate\": {error_rate}, \"metrics\": \
                 {{\"host_s\": {{\"value\": {host_s}, \"iqr\": 0.001, \"exact\": false}}}}}},\
               {{\"workload\": \"w\", \"trace\": true, \"error_rate\": 0, \"metrics\": \
                 {{\"simcore.events\": {{\"value\": {events}, \"iqr\": 0, \"exact\": true}},\
                   \"simcore.ns_per_event\": {{\"value\": {host_s}, \"iqr\": 0, \"exact\": false}}}}}}]}}"
        ))
        .unwrap()
    }

    fn spec() -> Spec {
        Spec {
            workloads: vec!["w".into()],
            end_to_end: vec![("host_s".into(), 0.07)],
            per_layer: vec!["simcore.events".into(), "simcore.ns_per_event".into()],
        }
    }

    #[test]
    fn equal_runs_pass_and_each_kind_of_difference_fails() {
        let base = results(1.0, 100.0, 0.0);
        let same = compare(&spec(), &base, &results(1.03, 100.0, 0.0)).unwrap();
        assert!(same.problems.is_empty(), "{:?}", same.problems);
        assert_eq!(same.unresolved, 0);

        let slower = compare(&spec(), &base, &results(1.2, 100.0, 0.0)).unwrap();
        assert_eq!(slower.problems.len(), 1);
        let moved = compare(&spec(), &base, &results(1.0, 101.0, 0.0)).unwrap();
        assert_eq!(moved.problems.len(), 1);
        let failing = compare(&spec(), &base, &results(1.0, 100.0, 0.2)).unwrap();
        assert_eq!(failing.problems.len(), 1);
        let missing = compare(&spec(), &base, &Json::parse("{\"runs\": []}").unwrap()).unwrap();
        assert_eq!(missing.problems.len(), 2);
    }
}
