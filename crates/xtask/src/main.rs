//! Repo automation tasks (`cargo run -p xtask -- <task>`).
//!
//! # `bench-gate`
//!
//! The CI bench-regression gate: compares a freshly emitted benchmark JSON
//! (`BENCH_cube.json` shape — a `"variants"` array of objects carrying
//! `"name"` and a throughput metric) against the committed baseline and
//! exits non-zero when any gated variant's throughput regressed more than
//! the threshold. Improvements never fail the gate; the baseline is only
//! tightened by committing a new `BENCH_cube.json`.
//!
//! ```text
//! cargo run -p xtask -- bench-gate \
//!     --baseline BENCH_cube.json --current BENCH_cube.current.json \
//!     --threshold 0.15 --variants dense_1t --metric rows_per_sec
//! ```
//!
//! No serde in the offline build environment, so the parser is a tiny
//! purpose-built scanner over the benchmark files' known shape.
//!
//! # `dedup-gate`
//!
//! The single-flight determinism gate: asserts that a metric is **exactly
//! equal** across the named variants of one benchmark file. Used on
//! `BENCH_pipeline.json`'s `rows_scanned_per_run` for `batch_1w` vs
//! `batch_4w` — the cube-task scheduler's single-flight latch makes the
//! batched pipeline scan exactly as many rows at 4 workers as at 1, so
//! unlike a timing gate this check is deterministic: any inequality is a
//! real duplicated (or lost) cube execution, never runner noise.
//!
//! ```text
//! cargo run -p xtask -- dedup-gate \
//!     --file BENCH_pipeline.current.json \
//!     --metric rows_scanned_per_run --variants batch_1w,batch_4w
//! ```
//!
//! The gate takes any number of variants, so the same invocation also
//! covers the **streaming** service: for a fixed arrival order,
//! `StreamingVerifier`'s `rows_scanned` and `scan_passes` must be exactly
//! worker-count-independent across `stream_1w,stream_2w,stream_4w,stream_8w`
//! — dynamic admission must never duplicate (or lose) a cube execution,
//! whatever the pool size.
//!
//! With `--le-variant NAME` the gate additionally asserts the (equal)
//! batched metric does not exceed the named variant's — used to pin fused
//! `scan_passes` at or below `sequential_shared`'s pass count.
//!
//! # `min-gate`
//!
//! Floor check on one top-level numeric field of a benchmark file, for
//! in-run normalized metrics where runner speed cancels by construction:
//! the batch-vs-fresh speedup is a ratio of two timings from the same
//! process on the same machine, so unlike absolute docs/sec it can be
//! gated with a fixed floor.
//!
//! ```text
//! cargo run -p xtask -- min-gate \
//!     --file BENCH_pipeline.current.json \
//!     --field speedup_batch_vs_sequential_fresh --min 1.2
//! ```
//!
//! # `chaos-gate`
//!
//! The robustness gate: judges `target/CHAOS_matrix.json` (emitted by
//! `cargo run --release --example chaos_matrix`, one record per seeded
//! fault-matrix cell) and fails when any cell left a ticket unsettled,
//! left a dangling in-flight cache entry after drain, broke the
//! every-document-lands-in-exactly-one-bin accounting, or overspent its
//! worker-respawn budget. Unlike the timing gates this is fully
//! deterministic: the fault plans are seeded, so any failure is a real
//! robustness regression, never runner noise.
//!
//! ```text
//! cargo run -p xtask -- chaos-gate --file target/CHAOS_matrix.json
//! ```
//!
//! # `skip-gate`
//!
//! The compressed-scan gate over `BENCH_cube.json`'s 1M-row clustered
//! corpus variants: fails CI when (a) the selective-literal case skipped
//! **zero** blocks (zone-map pruning silently stopped working), (b) the
//! encoded path's cube results drifted from the plain path
//! (`encoded_matches_plain != 1` — a correctness bug, not a perf one), or
//! (c) the encoded full scan fell more than `--max-slowdown` behind the
//! plain in-RAM scan on the same corpus. The slowdown bound is an in-run
//! ratio of two timings from the same process, so runner pace cancels
//! out, like `min-gate`'s normalized fields.
//!
//! ```text
//! cargo run -p xtask -- skip-gate --file BENCH_cube.current.json \
//!     --selective encoded_selective_1t \
//!     --encoded encoded_full_1t --plain plain_full_1t --max-slowdown 2.0
//! ```
//!
//! # `partition-gate`
//!
//! The partition-determinism gate over `BENCH_pipeline.json`'s
//! `partitioned_1t/2t/4t` variants (a 1M-row corpus whose every fused
//! pass fans out into partition subtasks): fails CI when (a) the
//! partitioned reports drifted from the partition-span-1 control
//! (`partition_fingerprints_match != 1`), (b) `rows_scanned` or
//! `scan_passes` varied across worker counts or spans — worker count
//! leaking into the scan shape — or (c) any variant scanned zero
//! partitions (the fan-out silently stopped engaging). Deterministic
//! counters only; never a timing judgement.
//!
//! ```text
//! cargo run -p xtask -- partition-gate --file BENCH_pipeline.current.json
//! ```

use std::process::ExitCode;

/// The object bodies of the top-level `"variants"` array.
fn variant_objects(json: &str) -> Vec<String> {
    array_objects(json, "variants")
}

/// The object bodies of a named top-level array of flat objects.
fn array_objects(json: &str, key: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let Some(open) = json[start..].find('[') else {
        return Vec::new();
    };
    let body_start = start + open + 1;
    let Some(close) = json[body_start..].find(']') else {
        return Vec::new();
    };
    let body = &json[body_start..body_start + close];

    let mut out = Vec::new();
    let mut rest = body;
    while let Some(obj_open) = rest.find('{') {
        let Some(obj_close) = rest[obj_open..].find('}') else {
            break;
        };
        out.push(rest[obj_open + 1..obj_open + obj_close].to_string());
        rest = &rest[obj_open + obj_close + 1..];
    }
    out
}

/// Extract `(name, metric)` per object of the top-level `"variants"` array.
fn extract_variants(json: &str, metric: &str) -> Vec<(String, f64)> {
    variant_objects(json)
        .iter()
        .filter_map(|obj| Some((string_field(obj, "name")?, number_field(obj, metric)?)))
        .collect()
}

/// The string value of `"key": "value"` inside one flat JSON object body.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let tail = field_tail(obj, key)?;
    let first_quote = tail.find('"')?;
    let rest = &tail[first_quote + 1..];
    let second_quote = rest.find('"')?;
    Some(rest[..second_quote].to_string())
}

/// The numeric value of `"key": 123.45` inside one flat JSON object body.
fn number_field(obj: &str, key: &str) -> Option<f64> {
    let tail = field_tail(obj, key)?;
    let num: String = tail
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| {
            c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == 'E' || *c == '+'
        })
        .collect();
    num.parse().ok()
}

/// The text after `"key":`.
fn field_tail<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)?;
    let tail = &obj[at + pat.len()..];
    let colon = tail.find(':')?;
    Some(&tail[colon + 1..])
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
    let baseline = extract_variants(baseline_json, metric);
    let current = extract_variants(current_json, metric);
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

/// Exact-equality check across variants of one file: `Ok(per-variant
/// report lines)` when every gated variant's metric is identical, `Err`
/// describing the first inequality or missing variant otherwise.
///
/// With `le_bound`, the gated variants' (equal) metric must additionally
/// not exceed the bound variant's — e.g. the batched pipeline's fused
/// `scan_passes` must stay at or below `sequential_shared`'s, or fusion
/// has silently stopped sharing passes.
fn run_dedup_gate(
    json: &str,
    metric: &str,
    gated: &[&str],
    le_bound: Option<&str>,
) -> Result<Vec<String>, String> {
    if gated.len() < 2 {
        return Err("dedup-gate needs at least two variants to compare".into());
    }
    let variants = extract_variants(json, metric);
    if variants.is_empty() {
        return Err(format!("no variants with \"{metric}\" in the file"));
    }
    let lookup = |name: &str| -> Result<f64, String> {
        variants
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("variant \"{name}\" missing from the file"))
    };
    let mut report = Vec::new();
    let mut first: Option<(&str, f64)> = None;
    for &name in gated {
        let value = lookup(name)?;
        report.push(format!("{name}: {metric} = {value:.0}"));
        match first {
            None => first = Some((name, value)),
            Some((first_name, first_value)) => {
                // Counters are integers rendered exactly; equality is exact.
                if value != first_value {
                    return Err(format!(
                        "{name} ({value:.0}) differs from {first_name} ({first_value:.0}) — \
                         a cube execution was duplicated or lost across worker counts"
                    ));
                }
            }
        }
    }
    if let Some(bound_name) = le_bound {
        let bound = lookup(bound_name)?;
        let (name, value) = first.expect("at least two gated variants");
        if value > bound {
            return Err(format!(
                "{name} ({value:.0}) exceeds {bound_name} ({bound:.0}) — \
                 batched {metric} must not regress past the shared sequential run"
            ));
        }
        report.push(format!("bound {bound_name}: {metric} = {bound:.0}"));
    }
    Ok(report)
}

fn dedup_gate(args: &[String]) -> ExitCode {
    let mut file = String::from("BENCH_pipeline.current.json");
    let mut metric = String::from("rows_scanned_per_run");
    let mut variants = String::from("batch_1w,batch_4w");
    let mut le_variant: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| it.next().cloned().unwrap_or_else(|| panic!("{what} VALUE"));
        match arg.as_str() {
            "--file" => file = take("--file"),
            "--metric" => metric = take("--metric"),
            "--variants" => variants = take("--variants"),
            "--le-variant" => le_variant = Some(take("--le-variant")),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let gated: Vec<&str> = variants.split(',').filter(|s| !s.is_empty()).collect();
    let outcome = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {file}: {e}"))
        .and_then(|json| run_dedup_gate(&json, &metric, &gated, le_variant.as_deref()));
    match outcome {
        Ok(report) => {
            for line in &report {
                println!("dedup-gate ok: {line}");
            }
            println!("dedup-gate: {metric} identical across {}", variants.trim());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("dedup-gate FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Minimum-value check on one top-level numeric field of a benchmark file.
/// Used for in-run *normalized* metrics (e.g. the batch-vs-fresh speedup,
/// a ratio of two timings from the same run), where machine pace cancels
/// out by construction — the same trick the bench-gate's `--normalize-to`
/// uses across files.
fn run_min_gate(json: &str, field: &str, min: f64) -> Result<String, String> {
    let value = number_field(json, field)
        .ok_or_else(|| format!("no numeric field \"{field}\" in the file"))?;
    if value < min {
        return Err(format!(
            "{field} = {value:.2} fell below the {min:.2} floor"
        ));
    }
    Ok(format!("{field} = {value:.2} (floor {min:.2})"))
}

fn min_gate(args: &[String]) -> ExitCode {
    let mut file = String::from("BENCH_pipeline.current.json");
    let mut field = String::from("speedup_batch_vs_sequential_fresh");
    let mut min = 1.2f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| it.next().cloned().unwrap_or_else(|| panic!("{what} VALUE"));
        match arg.as_str() {
            "--file" => file = take("--file"),
            "--field" => field = take("--field"),
            "--min" => min = take("--min").parse().expect("--min NUMBER"),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let outcome = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {file}: {e}"))
        .and_then(|json| run_min_gate(&json, &field, min));
    match outcome {
        Ok(line) => {
            println!("min-gate ok: {line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("min-gate FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Judge one chaos-matrix file: every cell must have settled every
/// ticket, drained its in-flight cache to empty, reconciled its outcome
/// bins, and stayed within its respawn budget. Returns per-cell report
/// lines and the list of violations.
fn run_chaos_gate(json: &str) -> Result<GateOutcome, String> {
    let cells = variant_objects(json);
    if cells.is_empty() {
        return Err("no \"variants\" cells in the chaos matrix file".into());
    }
    let mut failures = Vec::new();
    let mut report = Vec::new();
    for (i, obj) in cells.iter().enumerate() {
        let name = string_field(obj, "name").unwrap_or_else(|| format!("cell #{i}"));
        let field = |key: &str| -> Result<f64, String> {
            number_field(obj, key).ok_or_else(|| format!("{name}: missing numeric field \"{key}\""))
        };
        let unsettled = field("unsettled")?;
        let inflight = field("inflight_len")?;
        let bins_ok = field("bins_ok")?;
        let respawns = field("respawns")?;
        let max_respawns = field("max_respawns")?;
        let before = failures.len();
        if unsettled != 0.0 {
            failures.push(format!("{name}: {unsettled:.0} ticket(s) never settled"));
        }
        if inflight != 0.0 {
            failures.push(format!(
                "{name}: {inflight:.0} in-flight cache entr(ies) dangling after drain"
            ));
        }
        if bins_ok != 1.0 {
            failures.push(format!(
                "{name}: outcome bins do not reconcile (submitted != settled)"
            ));
        }
        if respawns > max_respawns {
            failures.push(format!(
                "{name}: {respawns:.0} respawns exceed the budget of {max_respawns:.0}"
            ));
        }
        if failures.len() == before {
            report.push(format!(
                "{name}: settled all, inflight 0, bins ok, respawns {respawns:.0}/{max_respawns:.0}"
            ));
        }
    }
    Ok(GateOutcome { failures, report })
}

fn chaos_gate(args: &[String]) -> ExitCode {
    let mut file = String::from("target/CHAOS_matrix.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--file" => file = it.next().cloned().expect("--file PATH"),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let outcome = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {file}: {e}"))
        .and_then(|json| run_chaos_gate(&json));
    match outcome {
        Err(msg) => {
            eprintln!("chaos-gate error: {msg}");
            ExitCode::from(2)
        }
        Ok(outcome) if outcome.failures.is_empty() => {
            for line in &outcome.report {
                println!("chaos-gate ok: {line}");
            }
            println!(
                "chaos-gate: all {} cells settled cleanly",
                outcome.report.len()
            );
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            for failure in &outcome.failures {
                eprintln!("chaos-gate FAIL: {failure}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Judge the compressed-scan variants of one cube benchmark file: the
/// selective-literal case must have skipped at least one block, the
/// encoded path must have produced exactly the plain path's results
/// (`encoded_matches_plain == 1` at top level), and the encoded full
/// scan's throughput must stay within `max_slowdown` of the plain scan's.
fn run_skip_gate(
    json: &str,
    selective: &str,
    encoded: &str,
    plain: &str,
    max_slowdown: f64,
) -> Result<Vec<String>, String> {
    if max_slowdown < 1.0 {
        return Err("--max-slowdown must be >= 1.0".into());
    }
    let lookup = |metric: &str, name: &str| -> Result<f64, String> {
        extract_variants(json, metric)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("variant \"{name}\" has no \"{metric}\" in the file"))
    };
    let mut report = Vec::new();

    // Correctness first: a fast encoded path that disagrees with the
    // plain scan is a bug, not a win.
    let matches_plain = number_field(json, "encoded_matches_plain")
        .ok_or("no top-level \"encoded_matches_plain\" field in the file")?;
    if matches_plain != 1.0 {
        return Err(
            "encoded_matches_plain != 1 — encoded-path results drifted from the plain scan".into(),
        );
    }
    report.push("encoded results identical to the plain scan".to_string());

    let skipped = lookup("blocks_skipped", selective)?;
    let scanned = lookup("blocks_scanned", selective)?;
    if skipped <= 0.0 {
        return Err(format!(
            "{selective} skipped 0 of {:.0} blocks — zone-map pruning is not firing on the \
             selective-literal corpus",
            scanned + skipped
        ));
    }
    report.push(format!(
        "{selective}: skipped {skipped:.0} of {:.0} blocks ({:.1}%)",
        scanned + skipped,
        100.0 * skipped / (scanned + skipped)
    ));

    let enc = lookup("rows_per_sec", encoded)?;
    let pla = lookup("rows_per_sec", plain)?;
    if enc <= 0.0 || pla <= 0.0 {
        return Err("rows_per_sec must be positive for the slowdown bound".into());
    }
    let slowdown = pla / enc;
    if slowdown > max_slowdown {
        return Err(format!(
            "{encoded} is {slowdown:.2}x slower than {plain} — past the {max_slowdown:.2}x bound"
        ));
    }
    report.push(format!(
        "{encoded} vs {plain}: {slowdown:.2}x (bound {max_slowdown:.2}x)"
    ));
    Ok(report)
}

fn skip_gate(args: &[String]) -> ExitCode {
    let mut file = String::from("BENCH_cube.current.json");
    let mut selective = String::from("encoded_selective_1t");
    let mut encoded = String::from("encoded_full_1t");
    let mut plain = String::from("plain_full_1t");
    let mut max_slowdown = 2.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| it.next().cloned().unwrap_or_else(|| panic!("{what} VALUE"));
        match arg.as_str() {
            "--file" => file = take("--file"),
            "--selective" => selective = take("--selective"),
            "--encoded" => encoded = take("--encoded"),
            "--plain" => plain = take("--plain"),
            "--max-slowdown" => {
                max_slowdown = take("--max-slowdown")
                    .parse()
                    .expect("--max-slowdown NUMBER")
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let outcome = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {file}: {e}"))
        .and_then(|json| run_skip_gate(&json, &selective, &encoded, &plain, max_slowdown));
    match outcome {
        Ok(report) => {
            for line in &report {
                println!("skip-gate ok: {line}");
            }
            println!("skip-gate: zone-map skipping live, encoded path faithful and within bounds");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("skip-gate FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Judge the partition-parallel variants of one pipeline benchmark file:
/// the corpus must actually have fanned out (`partitions_scanned > 0` in
/// every `partitioned_*` variant), every worker count must have scanned
/// identical rows, formed identical passes, and executed identical
/// partition counts, and the partition-span-1 control must have produced
/// bit-identical reports (`partition_fingerprints_match == 1`). All
/// checks are deterministic counters — a failure is a real determinism
/// regression, never runner noise.
fn run_partition_gate(json: &str) -> Result<Vec<String>, String> {
    let objs = array_objects(json, "partitioned");
    if objs.is_empty() {
        return Err("no \"partitioned\" variants in the file".into());
    }
    let flag = |key: &str| -> Result<f64, String> {
        number_field(json, key).ok_or_else(|| format!("no top-level \"{key}\" field in the file"))
    };
    let mut report = Vec::new();

    // Correctness first: fast partitioned scans that change report bits
    // break the determinism contract.
    if flag("partition_fingerprints_match")? != 1.0 {
        return Err(
            "partition_fingerprints_match != 1 — partitioned reports drifted from the \
             partition-span-1 control"
                .into(),
        );
    }
    report.push("partitioned reports bit-identical to the span-1 control".to_string());
    if flag("partition_rows_scanned_equal")? != 1.0 {
        return Err(
            "partition_rows_scanned_equal != 1 — rows_scanned varied with the worker \
             count or partition span"
                .into(),
        );
    }
    if flag("partition_scan_passes_equal")? != 1.0 {
        return Err(
            "partition_scan_passes_equal != 1 — scan_passes varied with the worker \
             count or partition span"
                .into(),
        );
    }

    // Re-derive the counter equalities from the variants themselves, so
    // the gate judges the recorded numbers, not just the emitter's flags.
    let mut first: Option<(f64, f64, f64)> = None;
    for (i, obj) in objs.iter().enumerate() {
        let name = string_field(obj, "name").unwrap_or_else(|| format!("variant #{i}"));
        let field = |key: &str| -> Result<f64, String> {
            number_field(obj, key).ok_or_else(|| format!("{name}: missing field \"{key}\""))
        };
        let rows = field("rows_scanned_per_run")?;
        let passes = field("scan_passes")?;
        let partitions = field("partitions_scanned")?;
        if partitions <= 0.0 {
            return Err(format!(
                "{name}: scanned 0 partitions — the corpus never fanned out (too small, or \
                 partitioning is off)"
            ));
        }
        match first {
            None => first = Some((rows, passes, partitions)),
            Some(f) if f != (rows, passes, partitions) => {
                return Err(format!(
                    "{name}: (rows, passes, partitions) = ({rows:.0}, {passes:.0}, \
                     {partitions:.0}) diverges from ({:.0}, {:.0}, {:.0}) — worker count leaked \
                     into the scan shape",
                    f.0, f.1, f.2
                ));
            }
            Some(_) => {}
        }
        report.push(format!(
            "{name}: rows {rows:.0}, passes {passes:.0}, partitions {partitions:.0}"
        ));
    }
    Ok(report)
}

fn partition_gate(args: &[String]) -> ExitCode {
    let mut file = String::from("BENCH_pipeline.current.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--file" => file = it.next().cloned().expect("--file PATH"),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let outcome = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {file}: {e}"))
        .and_then(|json| run_partition_gate(&json));
    match outcome {
        Ok(report) => {
            for line in &report {
                println!("partition-gate ok: {line}");
            }
            println!(
                "partition-gate: partitioned scans deterministic across worker counts and spans"
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("partition-gate FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Judge the incremental re-verification variants of one pipeline
/// benchmark file: after a ~1% append, every `append_*` variant must have
/// patched at least one grid, scanned only a small tail
/// (`delta_rows_scanned` under `max_fraction` of the cold full-corpus
/// rows), produced reports bit-identical to a cold verification of the
/// grown corpus (`append_fingerprints_match == 1`), and done identical
/// patch work at every worker count. All checks are deterministic
/// counters — a failure is a real delta-path regression, never runner
/// noise.
fn run_delta_gate(json: &str, max_fraction: f64) -> Result<Vec<String>, String> {
    let objs = array_objects(json, "append_reverify");
    if objs.is_empty() {
        return Err("no \"append_reverify\" variants in the file".into());
    }
    let flag = |key: &str| -> Result<f64, String> {
        number_field(json, key).ok_or_else(|| format!("no top-level \"{key}\" field in the file"))
    };
    let mut report = Vec::new();

    // Correctness first: a fast patch that changes report bits is a stale
    // read wearing a speedup costume.
    if flag("append_fingerprints_match")? != 1.0 {
        return Err(
            "append_fingerprints_match != 1 — patched reports drifted from a cold \
             verification of the grown corpus"
                .into(),
        );
    }
    report.push("patched reports bit-identical to cold verification of the grown corpus".into());
    if flag("append_patch_work_equal")? != 1.0 {
        return Err(
            "append_patch_work_equal != 1 — patch work varied with the worker count".into(),
        );
    }

    // Re-derive the counter equalities and the delta bound from the
    // variants themselves, so the gate judges the recorded numbers, not
    // just the emitter's flags.
    let mut first: Option<(f64, f64)> = None;
    for (i, obj) in objs.iter().enumerate() {
        let name = string_field(obj, "name").unwrap_or_else(|| format!("variant #{i}"));
        let field = |key: &str| -> Result<f64, String> {
            number_field(obj, key).ok_or_else(|| format!("{name}: missing field \"{key}\""))
        };
        let delta = field("delta_rows_scanned")?;
        let patched = field("grids_patched")?;
        let cold = field("rows_scanned_cold")?;
        if patched <= 0.0 {
            return Err(format!(
                "{name}: patched 0 grids — the re-verification fell back to cold rescans \
                 (checkpoints never captured, or the cache dropped them)"
            ));
        }
        if cold <= 0.0 {
            return Err(format!("{name}: rows_scanned_cold is 0 — no cold baseline"));
        }
        let fraction = delta / cold;
        if fraction >= max_fraction {
            return Err(format!(
                "{name}: delta_rows_scanned {delta:.0} is {:.1}% of the cold scan's \
                 {cold:.0} rows — past the {:.1}% bound; the patch path is rescanning \
                 instead of resuming",
                fraction * 100.0,
                max_fraction * 100.0
            ));
        }
        match first {
            None => first = Some((delta, patched)),
            Some(f) if f != (delta, patched) => {
                return Err(format!(
                    "{name}: (delta_rows_scanned, grids_patched) = ({delta:.0}, {patched:.0}) \
                     diverges from ({:.0}, {:.0}) — worker count leaked into the patch work",
                    f.0, f.1
                ));
            }
            Some(_) => {}
        }
        report.push(format!(
            "{name}: {patched:.0} grids patched over {delta:.0} delta rows ({:.2}% of cold)",
            fraction * 100.0
        ));
    }
    Ok(report)
}

fn delta_gate(args: &[String]) -> ExitCode {
    let mut file = String::from("BENCH_pipeline.current.json");
    let mut max_fraction = 0.10f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--file" => file = it.next().cloned().expect("--file PATH"),
            "--max-fraction" => {
                max_fraction = it
                    .next()
                    .cloned()
                    .expect("--max-fraction FRACTION")
                    .parse()
                    .expect("--max-fraction FRACTION")
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let outcome = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {file}: {e}"))
        .and_then(|json| run_delta_gate(&json, max_fraction));
    match outcome {
        Ok(report) => {
            for line in &report {
                println!("delta-gate ok: {line}");
            }
            println!(
                "delta-gate: incremental re-verification patches instead of rescanning, \
                 bit-identical at every worker count"
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("delta-gate FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-gate") => bench_gate(&args[1..]),
        Some("dedup-gate") => dedup_gate(&args[1..]),
        Some("min-gate") => min_gate(&args[1..]),
        Some("chaos-gate") => chaos_gate(&args[1..]),
        Some("skip-gate") => skip_gate(&args[1..]),
        Some("partition-gate") => partition_gate(&args[1..]),
        Some("delta-gate") => delta_gate(&args[1..]),
        _ => {
            eprintln!("usage: xtask bench-gate [--baseline PATH] [--current PATH] [--threshold FRACTION] [--metric NAME] [--variants a,b] [--normalize-to NAME]");
            eprintln!("       xtask dedup-gate [--file PATH] [--metric NAME] [--variants a,b] [--le-variant NAME]");
            eprintln!("       xtask min-gate [--file PATH] [--field NAME] [--min NUMBER]");
            eprintln!("       xtask chaos-gate [--file PATH]");
            eprintln!("       xtask skip-gate [--file PATH] [--selective NAME] [--encoded NAME] [--plain NAME] [--max-slowdown NUMBER]");
            eprintln!("       xtask partition-gate [--file PATH]");
            eprintln!("       xtask delta-gate [--file PATH] [--max-fraction FRACTION]");
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
    fn extracts_names_and_metric() {
        let v = extract_variants(SAMPLE, "rows_per_sec");
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].0, "seed_hashmap_1t");
        assert_eq!(v[1], ("dense_1t".to_string(), 95945350.0));
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

    fn pipeline_sample(rows_1w: u64, rows_4w: u64) -> String {
        format!(
            r#"{{"variants": [
  {{"name": "sequential_fresh", "rows_scanned_per_run": 625140}},
  {{"name": "batch_1w", "rows_scanned_per_run": {rows_1w}}},
  {{"name": "batch_4w", "rows_scanned_per_run": {rows_4w}}}
]}}"#
        )
    }

    #[test]
    fn dedup_gate_passes_on_exact_equality() {
        let json = pipeline_sample(121900, 121900);
        let report = run_dedup_gate(
            &json,
            "rows_scanned_per_run",
            &["batch_1w", "batch_4w"],
            None,
        )
        .unwrap();
        assert_eq!(report.len(), 2);
        assert!(report[0].contains("batch_1w"), "{report:?}");
    }

    #[test]
    fn dedup_gate_fails_on_any_inequality() {
        // A single duplicated cube execution (one 460-row scan) must fail.
        let json = pipeline_sample(121900, 122360);
        let err = run_dedup_gate(
            &json,
            "rows_scanned_per_run",
            &["batch_1w", "batch_4w"],
            None,
        )
        .unwrap_err();
        assert!(err.contains("batch_4w"), "{err}");
        // Fewer rows is just as wrong: a lost execution means a report was
        // built from a slice that was never computed for it.
        let json = pipeline_sample(121900, 121440);
        assert!(run_dedup_gate(
            &json,
            "rows_scanned_per_run",
            &["batch_1w", "batch_4w"],
            None
        )
        .is_err());
    }

    #[test]
    fn dedup_gate_rejects_missing_variants_and_degenerate_input() {
        let json = pipeline_sample(121900, 121900);
        assert!(run_dedup_gate(
            &json,
            "rows_scanned_per_run",
            &["batch_1w", "batch_8w"],
            None
        )
        .is_err());
        assert!(run_dedup_gate(&json, "rows_scanned_per_run", &["batch_1w"], None).is_err());
        assert!(run_dedup_gate(
            "{}",
            "rows_scanned_per_run",
            &["batch_1w", "batch_4w"],
            None
        )
        .is_err());
    }

    fn stream_sample(rows: [u64; 4], passes: [u64; 4]) -> String {
        let variants: Vec<String> = [1usize, 2, 4, 8]
            .iter()
            .zip(rows.iter().zip(&passes))
            .map(|(w, (r, p))| {
                format!(
                    r#"  {{"name": "stream_{w}w", "rows_scanned_per_run": {r}, "scan_passes": {p}}}"#
                )
            })
            .collect();
        format!("{{\"variants\": [\n{}\n]}}", variants.join(",\n"))
    }

    /// The streaming dedup invariant: for a fixed arrival order, rows and
    /// passes must be exactly equal across all four worker counts; a
    /// single drifted variant — anywhere in the list — fails the gate.
    #[test]
    fn dedup_gate_covers_streaming_worker_sweep() {
        let gated = ["stream_1w", "stream_2w", "stream_4w", "stream_8w"];
        let json = stream_sample([5060; 4], [11; 4]);
        let rows = run_dedup_gate(&json, "rows_scanned_per_run", &gated, None).unwrap();
        assert_eq!(rows.len(), 4);
        let passes = run_dedup_gate(&json, "scan_passes", &gated, None).unwrap();
        assert!(passes[3].contains("stream_8w"), "{passes:?}");
        // One duplicated execution at 8 workers: the dedup-gate fails.
        let json = stream_sample([5060, 5060, 5060, 5520], [11; 4]);
        let err = run_dedup_gate(&json, "rows_scanned_per_run", &gated, None).unwrap_err();
        assert!(err.contains("stream_8w"), "{err}");
        // A pass formed differently at 2 workers: just as fatal, even
        // with rows equal (a pass could have been split and re-merged).
        let json = stream_sample([5060; 4], [11, 12, 11, 11]);
        let err = run_dedup_gate(&json, "scan_passes", &gated, None).unwrap_err();
        assert!(err.contains("stream_2w"), "{err}");
    }

    #[test]
    fn dedup_gate_le_bound_pins_batch_at_or_below_sequential() {
        // Equal batch counts below the sequential_fresh bound: pass.
        let json = pipeline_sample(121900, 121900);
        let report = run_dedup_gate(
            &json,
            "rows_scanned_per_run",
            &["batch_1w", "batch_4w"],
            Some("sequential_fresh"),
        )
        .unwrap();
        assert_eq!(report.len(), 3, "{report:?}");
        assert!(report[2].contains("sequential_fresh"), "{report:?}");
        // Batch exceeding the bound: fail even though equal across workers.
        let json = pipeline_sample(999999, 999999);
        let err = run_dedup_gate(
            &json,
            "rows_scanned_per_run",
            &["batch_1w", "batch_4w"],
            Some("sequential_fresh"),
        )
        .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // A missing bound variant is an error, not a pass.
        let json = pipeline_sample(121900, 121900);
        assert!(run_dedup_gate(
            &json,
            "rows_scanned_per_run",
            &["batch_1w", "batch_4w"],
            Some("sequential_shared"),
        )
        .is_err());
    }

    fn chaos_sample(unsettled: u64, inflight: u64, bins_ok: u64, respawns: u64) -> String {
        format!(
            r#"{{"docs_per_cell": 10, "variants": [
  {{"name": "panic_1w", "workers": 1, "unsettled": 0, "inflight_len": 0, "bins_ok": 1, "respawns": 2, "max_respawns": 6}},
  {{"name": "combined_8w", "workers": 8, "unsettled": {unsettled}, "inflight_len": {inflight}, "bins_ok": {bins_ok}, "respawns": {respawns}, "max_respawns": 6}}
]}}"#
        )
    }

    #[test]
    fn chaos_gate_passes_clean_matrix() {
        let out = run_chaos_gate(&chaos_sample(0, 0, 1, 6)).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.report.len(), 2);
    }

    #[test]
    fn chaos_gate_fails_each_violation_class() {
        // A ticket that never settled.
        let out = run_chaos_gate(&chaos_sample(1, 0, 1, 0)).unwrap();
        assert_eq!(out.failures.len(), 1);
        assert!(
            out.failures[0].contains("never settled"),
            "{:?}",
            out.failures
        );
        // A dangling in-flight cache entry after drain.
        let out = run_chaos_gate(&chaos_sample(0, 3, 1, 0)).unwrap();
        assert!(out.failures[0].contains("dangling"), "{:?}", out.failures);
        // Outcome bins that do not reconcile.
        let out = run_chaos_gate(&chaos_sample(0, 0, 0, 0)).unwrap();
        assert!(out.failures[0].contains("reconcile"), "{:?}", out.failures);
        // A respawn budget overrun.
        let out = run_chaos_gate(&chaos_sample(0, 0, 1, 7)).unwrap();
        assert!(out.failures[0].contains("budget"), "{:?}", out.failures);
        // The clean cell still reports ok alongside the failing one.
        assert_eq!(out.report.len(), 1);
        assert!(out.report[0].contains("panic_1w"), "{:?}", out.report);
    }

    #[test]
    fn chaos_gate_rejects_malformed_input() {
        assert!(run_chaos_gate("{}").is_err());
        let missing = r#"{"variants": [{"name": "panic_1w", "unsettled": 0}]}"#;
        assert!(run_chaos_gate(missing).is_err());
    }

    #[test]
    fn min_gate_floors_normalized_speedup() {
        let json = r#"{"docs": 8, "speedup_batch_vs_sequential_fresh": 1.40}"#;
        let line = run_min_gate(json, "speedup_batch_vs_sequential_fresh", 1.2).unwrap();
        assert!(line.contains("1.40"), "{line}");
        let err = run_min_gate(json, "speedup_batch_vs_sequential_fresh", 1.5).unwrap_err();
        assert!(err.contains("below"), "{err}");
        assert!(run_min_gate(json, "no_such_field", 1.0).is_err());
    }

    fn skip_sample(matches: u64, skipped: u64, enc_rps: f64, plain_rps: f64) -> String {
        format!(
            r#"{{"rows": 10000, "block_corpus_rows": 1000000, "encoded_matches_plain": {matches},
  "variants": [
    {{"name": "dense_1t", "rows_per_sec": 95945350}},
    {{"name": "encoded_selective_1t", "rows_per_sec": 1250000000, "blocks_scanned": 2, "blocks_skipped": {skipped}, "blocks_skipped_pct": 99.6}},
    {{"name": "encoded_full_1t", "rows_per_sec": {enc_rps}, "blocks_scanned": 489, "blocks_skipped": 0, "blocks_skipped_pct": 0.0}},
    {{"name": "plain_full_1t", "rows_per_sec": {plain_rps}}}
]}}"#
        )
    }

    #[test]
    fn skip_gate_passes_when_skipping_and_parity_hold() {
        let json = skip_sample(1, 487, 1.2e8, 1.5e8);
        let report = run_skip_gate(
            &json,
            "encoded_selective_1t",
            "encoded_full_1t",
            "plain_full_1t",
            2.0,
        )
        .unwrap();
        assert_eq!(report.len(), 3, "{report:?}");
        assert!(report[1].contains("487"), "{report:?}");
        // The encoded path being *faster* than plain is fine too.
        let json = skip_sample(1, 487, 2.0e8, 1.5e8);
        assert!(run_skip_gate(
            &json,
            "encoded_selective_1t",
            "encoded_full_1t",
            "plain_full_1t",
            2.0
        )
        .is_ok());
    }

    #[test]
    fn skip_gate_fails_each_violation_class() {
        // Encoded results drifted from the plain scan: correctness trumps
        // everything else, whatever the counters say.
        let err = run_skip_gate(
            &skip_sample(0, 487, 1.2e8, 1.5e8),
            "encoded_selective_1t",
            "encoded_full_1t",
            "plain_full_1t",
            2.0,
        )
        .unwrap_err();
        assert!(err.contains("drifted"), "{err}");
        // Zero blocks skipped on the selective corpus.
        let err = run_skip_gate(
            &skip_sample(1, 0, 1.2e8, 1.5e8),
            "encoded_selective_1t",
            "encoded_full_1t",
            "plain_full_1t",
            2.0,
        )
        .unwrap_err();
        assert!(err.contains("zone-map"), "{err}");
        // Encoded full scan slower than the 2x bound.
        let err = run_skip_gate(
            &skip_sample(1, 487, 0.6e8, 1.5e8),
            "encoded_selective_1t",
            "encoded_full_1t",
            "plain_full_1t",
            2.0,
        )
        .unwrap_err();
        assert!(err.contains("slower"), "{err}");
    }

    #[test]
    fn skip_gate_rejects_missing_fields_and_bad_bound() {
        let json = skip_sample(1, 487, 1.2e8, 1.5e8);
        // A missing variant is an error, never a silent pass.
        assert!(run_skip_gate(&json, "no_such", "encoded_full_1t", "plain_full_1t", 2.0).is_err());
        assert!(run_skip_gate(
            &json,
            "encoded_selective_1t",
            "no_such",
            "plain_full_1t",
            2.0
        )
        .is_err());
        // A file without the parity flag predates the encoded path.
        assert!(run_skip_gate(
            "{\"variants\": []}",
            "encoded_selective_1t",
            "encoded_full_1t",
            "plain_full_1t",
            2.0
        )
        .is_err());
        // Nonsensical bound.
        assert!(run_skip_gate(
            &json,
            "encoded_selective_1t",
            "encoded_full_1t",
            "plain_full_1t",
            0.5
        )
        .is_err());
    }

    fn partition_sample(
        fingerprints_match: u8,
        rows_4t: u64,
        partitions_2t: u64,
        flags_equal: u8,
    ) -> String {
        format!(
            r#"{{
  "docs": 8,
  "partitioned": [
    {{"name": "partitioned_1t", "threads_requested": 1, "threads_used": 1, "median_ns": 100, "rows_scanned_per_run": 600000, "scan_passes": 2, "partitions_scanned": 6, "partition_merges": 4}},
    {{"name": "partitioned_2t", "threads_requested": 2, "threads_used": 2, "median_ns": 90, "rows_scanned_per_run": 600000, "scan_passes": 2, "partitions_scanned": {partitions_2t}, "partition_merges": 4}},
    {{"name": "partitioned_4t", "threads_requested": 4, "threads_used": 3, "median_ns": 80, "rows_scanned_per_run": {rows_4t}, "scan_passes": 2, "partitions_scanned": 6, "partition_merges": 4}}
  ],
  "partition_corpus_rows": 300000,
  "partition_fingerprints_match": {fingerprints_match},
  "partition_rows_scanned_equal": {flags_equal},
  "partition_scan_passes_equal": {flags_equal}
}}"#
        )
    }

    #[test]
    fn partition_gate_passes_on_deterministic_counters() {
        let report = run_partition_gate(&partition_sample(1, 600000, 6, 1)).unwrap();
        assert_eq!(report.len(), 4, "{report:?}");
        assert!(report[0].contains("bit-identical"), "{report:?}");
        assert!(report[3].contains("partitioned_4t"), "{report:?}");
    }

    #[test]
    fn partition_gate_catches_every_violation() {
        // Fingerprint drift vs the span-1 control.
        let err = run_partition_gate(&partition_sample(0, 600000, 6, 1)).unwrap_err();
        assert!(err.contains("partition_fingerprints_match"), "{err}");
        // A worker-count-dependent rows_scanned recorded in the variants,
        // even with the emitter's flags claiming equality.
        let err = run_partition_gate(&partition_sample(1, 700000, 6, 1)).unwrap_err();
        assert!(
            err.contains("partitioned_4t") && err.contains("leaked"),
            "{err}"
        );
        // Emitter flags reporting inequality.
        let err = run_partition_gate(&partition_sample(1, 600000, 6, 0)).unwrap_err();
        assert!(err.contains("partition_rows_scanned_equal"), "{err}");
        // A variant that never fanned out.
        let err = run_partition_gate(&partition_sample(1, 600000, 0, 1)).unwrap_err();
        assert!(err.contains("0 partitions"), "{err}");
        // A file without the partitioned family at all.
        let err = run_partition_gate(r#"{"variants": []}"#).unwrap_err();
        assert!(err.contains("partitioned"), "{err}");
    }

    fn delta_sample(
        fingerprints_match: u8,
        delta_4w: u64,
        patched_2w: u64,
        work_equal: u8,
    ) -> String {
        format!(
            r#"{{
  "docs": 8,
  "append_reverify": [
    {{"name": "append_1w", "workers": 1, "reverify_median_ns": 100, "reverify_docs_per_sec": 80.0, "delta_rows_scanned": 16176, "grids_patched": 26, "rows_scanned_reverify": 622176, "rows_scanned_cold": 606000}},
    {{"name": "append_2w", "workers": 2, "reverify_median_ns": 90, "reverify_docs_per_sec": 88.0, "delta_rows_scanned": 16176, "grids_patched": {patched_2w}, "rows_scanned_reverify": 622176, "rows_scanned_cold": 606000}},
    {{"name": "append_4w", "workers": 4, "reverify_median_ns": 80, "reverify_docs_per_sec": 100.0, "delta_rows_scanned": {delta_4w}, "grids_patched": 26, "rows_scanned_reverify": 622176, "rows_scanned_cold": 606000}}
  ],
  "append_corpus_rows": 202000,
  "append_batch_rows": 2000,
  "append_fingerprints_match": {fingerprints_match},
  "append_patch_work_equal": {work_equal},
  "append_delta_fraction": 0.0267
}}"#
        )
    }

    #[test]
    fn delta_gate_passes_on_patched_counters() {
        let report = run_delta_gate(&delta_sample(1, 16176, 26, 1), 0.10).unwrap();
        assert_eq!(report.len(), 4, "{report:?}");
        assert!(report[0].contains("bit-identical"), "{report:?}");
        assert!(report[3].contains("append_4w"), "{report:?}");
    }

    #[test]
    fn delta_gate_catches_every_violation() {
        // Fingerprint drift vs a cold verification of the grown corpus.
        let err = run_delta_gate(&delta_sample(0, 16176, 26, 1), 0.10).unwrap_err();
        assert!(err.contains("append_fingerprints_match"), "{err}");
        // Emitter flag reporting worker-dependent patch work.
        let err = run_delta_gate(&delta_sample(1, 16176, 26, 0), 0.10).unwrap_err();
        assert!(err.contains("append_patch_work_equal"), "{err}");
        // A worker-count-dependent delta recorded in the variants, even
        // with the emitter's flag claiming equality.
        let err = run_delta_gate(&delta_sample(1, 17000, 26, 1), 0.10).unwrap_err();
        assert!(err.contains("append_4w") && err.contains("leaked"), "{err}");
        // Worker-count-dependent grids_patched.
        let err = run_delta_gate(&delta_sample(1, 16176, 30, 1), 0.10).unwrap_err();
        assert!(err.contains("append_2w") && err.contains("leaked"), "{err}");
        // A variant that never patched — the delta path silently dead.
        let err = run_delta_gate(&delta_sample(1, 16176, 0, 1), 0.10).unwrap_err();
        assert!(err.contains("0 grids"), "{err}");
        // The delta bound: a "patch" that rescans most of the corpus.
        let err = run_delta_gate(&delta_sample(1, 16176, 26, 1), 0.01).unwrap_err();
        assert!(err.contains("past the 1.0% bound"), "{err}");
        // A file without the append family at all.
        let err = run_delta_gate(r#"{"variants": []}"#, 0.10).unwrap_err();
        assert!(err.contains("append_reverify"), "{err}");
    }
}
