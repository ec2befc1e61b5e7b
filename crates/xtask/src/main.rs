//! Repo automation (`cargo run -p xtask -- bench-gate`): the one CI check
//! that compares two files. Every single-run invariant is judged by the
//! program that measured it (`bench_cube`, `bench_pipeline`,
//! `examples/chaos_matrix.rs` exit non-zero on their own violations).
//!
//! `bench-gate` compares a freshly emitted benchmark JSON
//! (`BENCH_cube.json` shape — a `"variants"` array of objects carrying
//! `"name"` and a throughput metric) against the committed baseline and
//! exits non-zero when any gated variant's throughput regressed more than
//! the threshold. Improvements never fail the gate; the baseline is only
//! tightened by committing a new `BENCH_cube.json`.
//!
//! ```text
//! cargo run -p xtask -- bench-gate \
//!     --baseline BENCH_cube.json --current BENCH_cube.current.json \
//!     --threshold 0.15 --variants dense_1t --metric rows_per_sec \
//!     --normalize-to seed_hashmap_1t
//! ```

use agg_server::json::{self, Json};
use std::process::ExitCode;

/// `(name, metric)` of every object in the top-level `"variants"` array
/// that carries both; a file that is not valid JSON is an error.
fn extract_variants(text: &str, metric: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let Some(Json::Arr(variants)) = doc.get("variants") else {
        return Ok(Vec::new());
    };
    let pair = |v: &Json| {
        Some((
            v.get("name")?.as_str()?.to_string(),
            v.get(metric)?.as_f64()?,
        ))
    };
    Ok(variants.iter().filter_map(pair).collect())
}

struct GateOutcome {
    failures: Vec<String>,
    report: Vec<String>,
}

/// Compare gated variants: a failure is a current metric below
/// `baseline * (1 - threshold)`.
///
/// With `normalize_to`, each gated variant's metric is divided by the named
/// variant's metric **from the same file** before comparing. Gating the
/// dense grid's speedup over the in-run seed executor instead of absolute
/// throughput makes the gate robust to CI runners of different speeds:
/// machine pace cancels out, a genuine dense-grid regression does not.
fn run_gate(
    baseline_json: &str,
    current_json: &str,
    metric: &str,
    gated: &[&str],
    threshold: f64,
    normalize_to: Option<&str>,
) -> Result<GateOutcome, String> {
    let baseline = extract_variants(baseline_json, metric).map_err(|e| format!("baseline: {e}"))?;
    let current = extract_variants(current_json, metric).map_err(|e| format!("current: {e}"))?;
    if baseline.is_empty() {
        return Err(format!(
            "no variants with \"{metric}\" in the baseline file"
        ));
    }
    if current.is_empty() {
        return Err(format!("no variants with \"{metric}\" in the current file"));
    }
    let lookup = |set: &[(String, f64)], name: &str, which: &str| -> Result<f64, String> {
        set.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("variant \"{name}\" missing from the {which} file"))
    };
    let (base_norm, cur_norm) = match normalize_to {
        None => (1.0, 1.0),
        Some(anchor) => (
            lookup(&baseline, anchor, "baseline")?,
            lookup(&current, anchor, "current")?,
        ),
    };
    if base_norm <= 0.0 || cur_norm <= 0.0 {
        return Err("normalization anchor metric must be positive".into());
    }
    let mut failures = Vec::new();
    let mut report = Vec::new();
    for &name in gated {
        let base = lookup(&baseline, name, "baseline")? / base_norm;
        let cur = lookup(&current, name, "current")? / cur_norm;
        let ratio = cur / base;
        let line = match normalize_to {
            None => format!(
                "{name}: baseline {base:.0}, current {cur:.0} ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ),
            Some(anchor) => format!(
                "{name} (vs {anchor}): baseline {base:.2}x, current {cur:.2}x ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ),
        };
        if cur < base * (1.0 - threshold) {
            failures.push(format!(
                "{line} — regressed beyond the {:.0}% threshold",
                threshold * 100.0
            ));
        } else {
            report.push(line);
        }
    }
    Ok(GateOutcome { failures, report })
}

fn bench_gate(args: &[String]) -> ExitCode {
    let mut baseline = String::from("BENCH_cube.json");
    let mut current = String::from("BENCH_cube.current.json");
    let mut threshold = 0.15f64;
    let mut metric = String::from("rows_per_sec");
    let mut variants = String::from("dense_1t");
    let mut normalize_to: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| it.next().cloned().unwrap_or_else(|| panic!("{what} PATH"));
        match arg.as_str() {
            "--baseline" => baseline = take("--baseline"),
            "--current" => current = take("--current"),
            "--threshold" => threshold = take("--threshold").parse().expect("--threshold FRACTION"),
            "--metric" => metric = take("--metric"),
            "--variants" => variants = take("--variants"),
            "--normalize-to" => normalize_to = Some(take("--normalize-to")),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let gated: Vec<&str> = variants.split(',').filter(|s| !s.is_empty()).collect();
    let outcome = read(&baseline)
        .and_then(|b| read(&current).map(|c| (b, c)))
        .and_then(|(b, c)| run_gate(&b, &c, &metric, &gated, threshold, normalize_to.as_deref()));
    match outcome {
        Err(msg) => {
            eprintln!("bench-gate error: {msg}");
            ExitCode::from(2)
        }
        Ok(outcome) => {
            for line in &outcome.report {
                println!("bench-gate ok: {line}");
            }
            if outcome.failures.is_empty() {
                println!("bench-gate: no regression beyond {:.0}%", threshold * 100.0);
                ExitCode::SUCCESS
            } else {
                for failure in &outcome.failures {
                    eprintln!("bench-gate FAIL: {failure}");
                }
                ExitCode::FAILURE
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-gate") => bench_gate(&args[1..]),
        _ => {
            eprintln!("usage: xtask bench-gate [--baseline PATH] [--current PATH] [--threshold FRACTION] [--metric NAME] [--variants a,b] [--normalize-to NAME]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "rows": 10000,
  "variants": [
    {"name": "seed_hashmap_1t", "mode": "seed-hashmap", "effective_parallelism": 1.00, "median_ns": 529196, "rows_per_sec": 18896590},
    {"name": "dense_1t", "mode": "dense", "effective_parallelism": 1.00, "median_ns": 104226, "rows_per_sec": 95945350},
    {"name": "dense_4t", "mode": "dense", "effective_parallelism": 0.25, "median_ns": 107148, "rows_per_sec": 93328854}
  ],
  "speedup_dense4t_requested_vs_seed": 4.94,
  "speedup_measured_at_threads": 1
}"#;

    fn with_throughput(dense_1t: f64, dense_4t: f64) -> String {
        format!(
            r#"{{"variants": [
  {{"name": "dense_1t", "rows_per_sec": {dense_1t}}},
  {{"name": "dense_4t", "rows_per_sec": {dense_4t}}}
]}}"#
        )
    }

    #[test]
    fn unchanged_throughput_passes() {
        let out = run_gate(
            SAMPLE,
            SAMPLE,
            "rows_per_sec",
            &["dense_1t", "dense_4t"],
            0.15,
            None,
        )
        .unwrap();
        assert!(out.failures.is_empty());
        assert_eq!(out.report.len(), 2);
    }

    #[test]
    fn improvement_passes() {
        let current = with_throughput(2e8, 2e8);
        let out = run_gate(
            SAMPLE,
            &current,
            "rows_per_sec",
            &["dense_1t", "dense_4t"],
            0.15,
            None,
        )
        .unwrap();
        assert!(out.failures.is_empty());
    }

    #[test]
    fn small_wobble_passes_but_real_regression_fails() {
        // -10%: within the 15% threshold.
        let wobble = with_throughput(95945350.0 * 0.9, 93328854.0 * 0.9);
        let out = run_gate(
            SAMPLE,
            &wobble,
            "rows_per_sec",
            &["dense_1t", "dense_4t"],
            0.15,
            None,
        )
        .unwrap();
        assert!(out.failures.is_empty());
        // -20% on one gated variant: fail.
        let regressed = with_throughput(95945350.0 * 0.8, 93328854.0);
        let out = run_gate(
            SAMPLE,
            &regressed,
            "rows_per_sec",
            &["dense_1t", "dense_4t"],
            0.15,
            None,
        )
        .unwrap();
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("dense_1t"), "{:?}", out.failures);
    }

    #[test]
    fn normalized_gate_ignores_machine_speed_but_catches_real_regressions() {
        // A runner 3x slower across the board: absolute throughput drops
        // 67%, but the dense/seed ratio is unchanged — normalized gate
        // passes where the absolute gate would fail.
        let slower_machine = format!(
            r#"{{"variants": [
  {{"name": "seed_hashmap_1t", "rows_per_sec": {}}},
  {{"name": "dense_1t", "rows_per_sec": {}}},
  {{"name": "dense_4t", "rows_per_sec": {}}}
]}}"#,
            18896590.0 / 3.0,
            95945350.0 / 3.0,
            93328854.0 / 3.0
        );
        let out = run_gate(
            SAMPLE,
            &slower_machine,
            "rows_per_sec",
            &["dense_1t", "dense_4t"],
            0.15,
            Some("seed_hashmap_1t"),
        )
        .unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        // Dense path genuinely 30% slower while the seed anchor holds: the
        // normalized ratio drops 30% and the gate fails.
        let dense_regressed = format!(
            r#"{{"variants": [
  {{"name": "seed_hashmap_1t", "rows_per_sec": 18896590}},
  {{"name": "dense_1t", "rows_per_sec": {}}},
  {{"name": "dense_4t", "rows_per_sec": 93328854}}
]}}"#,
            95945350.0 * 0.7
        );
        let out = run_gate(
            SAMPLE,
            &dense_regressed,
            "rows_per_sec",
            &["dense_1t", "dense_4t"],
            0.15,
            Some("seed_hashmap_1t"),
        )
        .unwrap();
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("dense_1t"), "{:?}", out.failures);
    }

    #[test]
    fn missing_variant_is_an_error_not_a_pass() {
        let current = r#"{"variants": [{"name": "dense_1t", "rows_per_sec": 1e8}]}"#;
        assert!(run_gate(SAMPLE, current, "rows_per_sec", &["dense_4t"], 0.15, None).is_err());
        assert!(run_gate("{}", SAMPLE, "rows_per_sec", &["dense_1t"], 0.15, None).is_err());
    }

    /// A truncated emitter write: every variant is readable, the closing
    /// brace never arrived. The string scraper gated such a file as if it
    /// were whole.
    #[test]
    fn malformed_json_is_an_error_not_a_pass() {
        let truncated = SAMPLE.trim_end_matches('}');
        let err = run_gate(SAMPLE, truncated, "rows_per_sec", &["dense_1t"], 0.15, None)
            .err()
            .expect("a truncated current file must not gate");
        assert!(err.contains("current: invalid JSON"), "{err}");
        assert!(run_gate(truncated, SAMPLE, "rows_per_sec", &["dense_1t"], 0.15, None).is_err());
    }
}
