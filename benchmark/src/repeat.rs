//! Running the benchmark as child processes: once over every workload, or
//! in repeated sets to show that the metrics repeat within their bounds.
//!
//! One process per workload, always: `peak_rss_mb` is the process's
//! high-water mark, and no workload may inherit another's warmed state.

use crate::{Contract, MetricSpec};
use agg_server::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

type Metrics = BTreeMap<String, f64>;

struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed no result"))?;
    let doc = json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("no `{key}`"))
    };
    let Some(Json::Obj(entries)) = doc.get("metrics") else {
        return Err(format!("{workload} result has no metrics"));
    };
    Ok(ChildRun {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics: entries
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Every workload once with tracing off and once traced; every metric by
/// name with its unit.
pub fn all_workloads(contract: &Contract, seed: u64, seconds: Option<f64>) -> Result<(), String> {
    let seconds = seconds.unwrap_or(contract.run_seconds);
    let mut all_correct = true;
    for workload in &contract.workloads {
        for (trace, specs) in [(false, &contract.end_to_end), (true, &contract.per_layer)] {
            let run = child(workload, seed, seconds, trace)?;
            all_correct &= run.correct;
            println!(
                "## {workload} ({}): attempted {}, failed {}",
                if trace {
                    "traced, per layer"
                } else {
                    "end to end"
                },
                run.attempted,
                run.failed
            );
            for spec in specs {
                let value = run.metrics.get(&spec.name).copied().unwrap_or(f64::NAN);
                println!("{:<42} {:>16.4} {}", spec.name, value, spec.unit);
            }
        }
    }
    if all_correct {
        Ok(())
    } else {
        Err("some operations failed their output checks".into())
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default, exclusive
/// method), which is how the spread of a metric is judged.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return [x[0]; 3];
    }
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *q = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// `sets` × `runs` runs of every workload, each run on another seed,
/// workload order alternating between sets. Per metric and workload:
/// each set's median and quartile spread, and how much worse the second
/// set's median is than the first's. PASS needs every spread within the
/// metric's bound (`setup_s` is exempt from the spread rule, as in the
/// driver) and every drift within half of it; a spread above a third of
/// the bound — the margin to aim for — is marked `wide`.
pub fn repeatability(
    contract: &Contract,
    sets: usize,
    runs: usize,
    base_seed: u64,
    seconds: Option<f64>,
) -> Result<(), String> {
    let seconds = seconds.unwrap_or(contract.run_seconds);
    // samples[set][workload][metric] -> values over runs
    let mut samples: Vec<BTreeMap<String, BTreeMap<String, Vec<f64>>>> = Vec::new();
    for set in 0..sets {
        let mut order: Vec<&String> = contract.workloads.iter().collect();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut by_workload: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
        for run in 0..runs {
            let seed = base_seed + (set * runs + run) as u64 + 1;
            for workload in &order {
                let result = child(workload, seed, seconds, false)?;
                if !result.correct {
                    return Err(format!("{workload} (seed {seed}) failed its output checks"));
                }
                let slot = by_workload.entry((*workload).clone()).or_default();
                for (name, value) in result.metrics {
                    slot.entry(name).or_default().push(value);
                }
            }
        }
        samples.push(by_workload);
    }

    println!("| workload | metric | bound | set | median | q1 | q3 | spread | drift vs set 1 | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let bound = spec.bound.expect("end-to-end metrics carry a bound");
            let mut first_median = None;
            for (set, by_workload) in samples.iter().enumerate() {
                let values = &by_workload[workload][&spec.name];
                let [q1, med, q3] = quartiles(values);
                let spread = (q3 - q1) / med;
                let drift = first_median.map(|first: f64| worse_by(spec, first, med));
                first_median.get_or_insert(med);
                let exempt = spec.name == "setup_s";
                let spread_ok = exempt || spread <= bound;
                let drift_ok = drift.is_none_or(|d| d <= bound / 2.0);
                all_pass &= spread_ok && drift_ok;
                let verdict = match (spread_ok && drift_ok, exempt || spread <= bound / 3.0) {
                    (false, _) => "FAIL",
                    (true, false) => "PASS (wide)",
                    (true, true) => "PASS",
                };
                println!(
                    "| {workload} | {} ({}) | {bound} | {} | {med:.4} | {q1:.4} | {q3:.4} | {:.1}% | {} | {} |",
                    spec.name,
                    spec.unit,
                    set + 1,
                    spread * 100.0,
                    drift.map_or("—".to_string(), |d| format!("{:+.1}%", d * 100.0)),
                    verdict
                );
            }
        }
    }
    if all_pass {
        Ok(())
    } else {
        Err("some metric does not repeat within its bound".into())
    }
}

/// By what share of `first` the later median is worse (negative: better).
fn worse_by(spec: &MetricSpec, first: f64, later: f64) -> f64 {
    if spec.higher_is_better {
        (first - later) / first
    } else {
        (later - first) / first
    }
}
