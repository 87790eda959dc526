//! `bench compare A.json B.json`: judge B (the change) against A (the
//! parent) metric by metric and workload by workload, by the bounds the
//! benchmark fixed. A combined score is never formed.

use crate::metrics::{median, quartile_spread, Better, Class, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sut::Json;
use std::io;
use std::process::ExitCode;

/// One workload's runs: metric -> one value per run.
type Runs = Vec<(String, Vec<f64>)>;

/// Every run of one `bench run` invocation, workload by workload.
pub struct Results {
    seed: u64,
    workloads: Vec<(String, Runs)>,
}

impl Results {
    pub fn new(seed: u64) -> Results {
        Results { seed, workloads: Vec::new() }
    }

    /// Add one run from its result line (`{"metrics": {name: {"value": ..}}}`).
    pub fn add(&mut self, workload: &str, result: &Json) {
        let Some(Json::Obj(values)) = result.get("metrics") else { return };
        let at = self.workloads.iter().position(|(w, _)| w == workload).unwrap_or_else(|| {
            self.workloads.push((workload.to_string(), Vec::new()));
            self.workloads.len() - 1
        });
        let metrics = &mut self.workloads[at].1;
        for (name, value) in values {
            let Some(value) = value.get("value").and_then(Json::as_f64) else { continue };
            match metrics.iter_mut().find(|(n, _)| n == name) {
                Some((_, runs)) => runs.push(value),
                None => metrics.push((name.clone(), vec![value])),
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|(w, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(m, runs)| {
                        (m.clone(), Json::Arr(runs.iter().map(|&v| Json::Num(v)).collect()))
                    })
                    .collect();
                (w.clone(), Json::Obj(metrics))
            })
            .collect();
        Json::Obj(vec![
            ("seed".into(), Json::Num(self.seed as f64)),
            ("workloads".into(), Json::Obj(workloads)),
        ])
    }

    fn from_json(json: &Json) -> Option<Results> {
        let seed = json.get("seed")?.as_f64()? as u64;
        let Json::Obj(workloads) = json.get("workloads")? else {
            return None;
        };
        let workloads = workloads
            .iter()
            .map(|(w, metrics)| {
                let Json::Obj(metrics) = metrics else {
                    return None;
                };
                let metrics = metrics
                    .iter()
                    .map(|(m, runs)| {
                        let runs = runs
                            .as_arr()?
                            .iter()
                            .map(Json::as_f64)
                            .collect::<Option<Vec<f64>>>()?;
                        Some((m.clone(), runs))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some((w.clone(), metrics))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Results { seed, workloads })
    }

    fn runs(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        let (_, metrics) = self.workloads.iter().find(|(w, _)| w == workload)?;
        metrics.iter().find(|(m, _)| m == metric).map(|(_, runs)| runs.as_slice())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Improved,
    Regressed,
    /// The spread between runs is wider than the bound: neither "same" nor
    /// a gain can be claimed.
    Unresolved,
    /// A per-layer metric: no bound, reported for information.
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// How B's runs of one metric stand against A's.
pub fn judge(better: Better, class: Class, a: &[f64], b: &[f64]) -> Verdict {
    match class {
        Class::Layer => Verdict::Info,
        Class::Exact => {
            let same = a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits());
            if same {
                Verdict::Same
            } else {
                Verdict::Regressed
            }
        }
        Class::EndToEnd { bound } => {
            let (ma, mb) = (median(a), median(b));
            // Both as shares of the parent's median.
            let (worse, gain) = match better {
                Better::Lower => ((mb - ma) / ma, (ma - mb) / ma),
                Better::Higher => ((ma - mb) / ma, (mb - ma) / ma),
            };
            let spread = |v: &[f64]| if v.len() < 2 { 0.0 } else { quartile_spread(v) };
            let noisy = spread(a) > bound || spread(b) > bound;
            let beats = |x: f64, y: f64| match better {
                Better::Lower => x < y,
                Better::Higher => x > y,
            };
            let b_always_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
            if worse > bound {
                Verdict::Regressed
            } else if noisy {
                if b_always_better {
                    Verdict::Improved
                } else {
                    Verdict::Unresolved
                }
            } else if gain > bound {
                Verdict::Improved
            } else {
                Verdict::Same
            }
        }
    }
}

fn load(path: &str) -> io::Result<Results> {
    let text = std::fs::read_to_string(path)?;
    Json::parse(&text)
        .ok()
        .as_ref()
        .and_then(Results::from_json)
        .ok_or_else(|| io::Error::other(format!("{path} is not a `bench run` results file")))
}

pub fn run(path_a: &str, path_b: &str) -> io::Result<ExitCode> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "A = {path_a} (seed {}), B = {path_b} (seed {}); ratios are B/A, base A",
        a.seed, b.seed
    );
    println!(
        "{:<20} {:<38} {:>14} {:>14} {:>8} {:>7} {:>5} {:>5}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "nA", "nB"
    );
    let mut bad = 0;
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let (Some(ra), Some(rb)) = (a.runs(workload, m.name), b.runs(workload, m.name)) else {
                continue;
            };
            let verdict = judge(m.better, m.class, ra, rb);
            bad += usize::from(verdict == Verdict::Regressed);
            let (ma, mb) = (median(ra), median(rb));
            let bound = match m.class {
                Class::EndToEnd { bound } => format!("{:.0}%", bound * 100.0),
                Class::Exact => "exact".to_string(),
                Class::Layer => "-".to_string(),
            };
            println!(
                "{workload:<20} {:<38} {ma:>14.6} {mb:>14.6} {:>8.4} {bound:>7} {:>5} {:>5}  {} [{} is better, {}]",
                m.name,
                mb / ma,
                ra.len(),
                rb.len(),
                verdict.name(),
                m.better.name(),
                m.unit,
            );
        }
    }
    println!("{bad} regressed");
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    const E2E: Class = Class::EndToEnd { bound: 0.10 };

    #[test]
    fn bounds_decide_same_improved_regressed() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(Better::Lower, E2E, &a, &[104.0, 105.0, 103.0]), Verdict::Same);
        assert_eq!(judge(Better::Lower, E2E, &a, &[111.0, 112.0, 110.5]), Verdict::Regressed);
        assert_eq!(judge(Better::Lower, E2E, &a, &[85.0, 86.0, 84.0]), Verdict::Improved);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(judge(Better::Higher, E2E, &a, &[85.0, 86.0, 84.0]), Verdict::Regressed);
        assert_eq!(judge(Better::Higher, E2E, &a, &[115.0, 116.0, 114.0]), Verdict::Improved);
        // One run each still compares medians.
        assert_eq!(judge(Better::Lower, E2E, &[100.0], &[105.0]), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(Better::Lower, E2E, &noisy, &[95.0, 100.0, 105.0]), Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, E2E, &noisy, &[70.0, 75.0, 72.0]), Verdict::Improved);
        assert_eq!(judge(Better::Lower, E2E, &noisy, &[130.0, 125.0, 140.0]), Verdict::Regressed);
    }

    #[test]
    fn exact_counts_must_match_exactly_and_layers_are_informational() {
        assert_eq!(judge(Better::Lower, Class::Exact, &[12.5, 12.5], &[12.5]), Verdict::Same);
        assert_eq!(
            judge(Better::Lower, Class::Exact, &[12.5, 12.5], &[12.500001]),
            Verdict::Regressed
        );
        assert_eq!(judge(Better::Lower, Class::Layer, &[1.0], &[9.0]), Verdict::Info);
    }

    #[test]
    fn results_round_trip_through_json() {
        let mut r = Results::new(7);
        let line = |setup_s: f64| {
            let text = format!(
                r#"{{"correct":true,"metrics":{{"setup_s":{{"value":{setup_s},"unit":"s"}},"core.detections":{{"value":16,"unit":"count"}}}}}}"#
            );
            Json::parse(&text).unwrap()
        };
        r.add("catalogue_1k", &line(0.25));
        r.add("catalogue_1k", &line(0.5));
        let back = Results::from_json(&Json::parse(&r.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back.seed, 7);
        assert_eq!(back.runs("catalogue_1k", "setup_s"), Some(&[0.25, 0.5][..]));
        assert_eq!(back.runs("catalogue_1k", "core.detections"), Some(&[16.0, 16.0][..]));
        assert_eq!(back.runs("serve_live", "setup_s"), None);
    }
}
