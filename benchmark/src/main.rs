//! The repo's benchmark: four workloads, the end-to-end metrics a user of
//! the verifier would see, and an outside-in layer trace. `README.md` has
//! the design; `../BENCHMARK.json` is the contract this binary prints to.
//!
//! ```text
//! agg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! agg-benchmark                      # every workload, both modes, as a table
//! agg-benchmark --sets 2 --runs 10   # repeatability of the metrics
//! ```

mod check;
mod closed;
mod inputs;
mod measure;
mod outcome;
mod repeat;
mod replay;
mod serve;
mod trace;

use agg_server::json::{self, Json};
use inputs::Inputs;
use outcome::Outcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The contract: metric names, units and bounds live there and only there.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Input hashes of [`DEFAULT_SEED`], so a change to the corpus generator
/// fails the run instead of silently moving the baseline.
const PINS_JSON: &str = include_str!("../pins.json");

pub const DEFAULT_SEED: u64 = 20190630;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

pub fn contract() -> Contract {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<Json> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json: `{key}` must be a list"),
        }
    };
    let text = |item: &Json, key: &str| -> String {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
            .to_string()
    };
    let metrics = |key: &str| -> Vec<MetricSpec> {
        list(key)
            .iter()
            .map(|m| MetricSpec {
                name: text(m, "name"),
                unit: text(m, "unit"),
                higher_is_better: text(m, "better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json: run_seconds"),
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    runs: usize,
    print_hashes: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        sets: 0,
        runs: 5,
        print_hashes: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--sets" => {
                args.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--print-hashes" => args.print_hashes = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn generate(workload: &str, seed: u64) -> Option<Inputs> {
    Some(match workload {
        "paper_solo" => inputs::solo(seed),
        "shared_warm" | "serve_open" => {
            inputs::shared(seed, inputs::SHARED_ROWS, inputs::SHARED_ARTICLES)
        }
        "scan_append" => inputs::shared(seed, inputs::SCAN_ROWS, inputs::SCAN_ARTICLES),
        _ => return None,
    })
}

/// The two workloads over the small shared table draw the same inputs;
/// they are pinned under one name.
fn pin_name(workload: &str) -> &str {
    if workload == "serve_open" {
        "shared_warm"
    } else {
        workload
    }
}

fn check_pin(workload: &str, seed: u64, hash: &str) -> Result<(), String> {
    let pins = json::parse(PINS_JSON).map_err(|e| format!("pins.json: {e}"))?;
    if pins.get("seed").and_then(Json::as_u64) != Some(seed) {
        return Ok(());
    }
    let pinned = pins
        .get("hashes")
        .and_then(|h| h.get(pin_name(workload)))
        .and_then(Json::as_str)
        .ok_or(format!("pins.json has no hash for {workload}"))?;
    if pinned == hash {
        Ok(())
    } else {
        Err(format!(
            "inputs of {workload} at the pinned seed {seed} hash to {hash}, pins.json says {pinned}: \
             the generator changed, so earlier results are not comparable \
             (re-pin with --print-hashes in the change that re-measures the baseline)"
        ))
    }
}

fn run(workload: &str, inputs: &Inputs, seconds: f64, trace: bool) -> Outcome {
    match (workload, inputs) {
        ("paper_solo", Inputs::Solo(cases)) => closed::paper_solo(cases, seconds, trace),
        ("shared_warm", Inputs::Shared(case)) => closed::shared_warm(case, seconds, trace),
        ("scan_append", Inputs::Shared(case)) => closed::scan_append(case, seconds, trace),
        ("serve_open", Inputs::Shared(case)) => serve::serve_open(case, seconds, trace),
        _ => unreachable!("generate() pairs workloads with their input kind"),
    }
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&dir)
        .join("benchmark")
        .join(format!("trace-{workload}.json"))
}

fn one_workload(contract: &Contract, args: &Args, workload: &str) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let calib_before = measure::calibrate_ms();
    let started = Instant::now();
    let inputs = generate(workload, args.seed).ok_or(format!(
        "unknown workload {workload}; BENCHMARK.json lists {}",
        contract.workloads.join(", ")
    ))?;
    let generate_s = started.elapsed().as_secs_f64();
    let hash = inputs.hash();
    eprintln!(
        "{workload}: seed {} -> {} articles, input hash {hash}",
        args.seed,
        inputs.articles()
    );
    check_pin(workload, args.seed, &hash)?;

    let mut out = run(workload, &inputs, seconds, args.trace);
    if let Err(why) = &out.valid {
        return Err(format!("{workload}: run invalid, nothing reported: {why}"));
    }
    let calib_after = measure::calibrate_ms();

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("setup_s", out.setup_s);
    values.insert("doc_ms_p50", measure::percentile(&out.op_ms, 0.5));
    values.insert("docs_per_s", out.docs_per_s);
    values.insert("cpu_ms_per_doc", out.cpu_ms_per_doc);
    values.insert("bench.peak_rss_mb", measure::peak_rss_mb());
    values.insert("top10_coverage", out.accuracy.top10_coverage());
    values.insert("bench.f1", out.accuracy.f1());
    values.insert("bench.doc_ms_p90", measure::percentile(&out.op_ms, 0.9));
    values.insert("bench.doc_ms_p99", measure::percentile(&out.op_ms, 0.99));
    values.insert("bench.latency_ops", out.op_ms.len() as f64);
    values.insert("bench.claims", out.accuracy.claims() as f64);
    values.insert("bench.generate_s", generate_s);
    values.insert("bench.calib_ms", 0.5 * (calib_before + calib_after));
    for (name, value) in &out.layers {
        values.insert(name, *value);
    }

    if let Some(tracer) = out.tracer.take() {
        let ratio = values
            .get("bench.trace_overhead_ratio")
            .copied()
            .unwrap_or(1.0);
        if (ratio - 1.0).abs() > 0.05 {
            out.tally.fail(format!(
                "{workload}: replayed layers sum to {ratio:.3} of the untraced operation time (limit 5%)"
            ));
        }
        let path = trace_path(workload);
        tracer
            .write(&path, workload)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "{workload}: {} spans -> {}",
            tracer.spans.len(),
            path.display()
        );
    }

    let specs = if args.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed
    );
    for (i, spec) in specs.iter().enumerate() {
        // A layer a workload never enters reports 0 for its metrics.
        let value = match values.get(spec.name.as_str()) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => return Err(format!("no value for end-to-end metric {}", spec.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} is not a finite number", spec.name));
        }
        eprintln!("  {:<40} {:>14.4} {}", spec.name, value, spec.unit);
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let contract = contract();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: agg-benchmark [--workload NAME --seed N --seconds S --trace 0|1] | [--sets N --runs M] | [--print-hashes]"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.print_hashes {
        for workload in &contract.workloads {
            let inputs = generate(workload, args.seed).expect("contract workloads are known");
            println!("\"{}\": \"{}\"", pin_name(workload), inputs.hash());
        }
        Ok(())
    } else if let Some(workload) = &args.workload {
        one_workload(&contract, &args, workload)
    } else if args.sets > 0 {
        repeat::repeatability(&contract, args.sets, args.runs, args.seed, args.seconds)
    } else {
        repeat::all_workloads(&contract, args.seed, args.seconds)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
