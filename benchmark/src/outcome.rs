//! What a workload hands back to `main`, and the derivations every
//! workload shares.

use crate::check::{Accuracy, Tally};
use crate::measure::median;
use crate::trace::Tracer;
use agg_core::VerificationReport;
use std::collections::BTreeMap;

pub struct Outcome {
    pub tally: Tally,
    /// Median of the repeated set-ups.
    pub setup_s: f64,
    /// One latency per operation that counts towards `doc_ms_*`.
    pub op_ms: Vec<f64>,
    pub docs_per_s: f64,
    pub cpu_ms_per_doc: f64,
    pub accuracy: Accuracy,
    /// `Err` marks a run whose load generator misbehaved (open loop only).
    pub valid: Result<(), String>,
    /// Per-layer metrics of a traced run (absent names report 0).
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            tally: Tally::default(),
            setup_s: 0.0,
            op_ms: Vec::new(),
            docs_per_s: 0.0,
            cpu_ms_per_doc: 0.0,
            accuracy: Accuracy::default(),
            valid: Ok(()),
            layers: BTreeMap::new(),
            tracer: None,
        }
    }
}

/// Every set-up is repeated this many times and the median reported, so
/// one slow page-in or scheduler hiccup cannot move `setup_s`.
const SETUP_REPEATS: usize = 3;

/// Documents verified at the end of each set-up (the untimed-as-latency
/// warm-up): every `setup_s` holds a second or so of deterministic work and
/// lazy first-use costs land in set-up, not in the first timed operation.
pub const WARMUP_DOCS: usize = 16;

/// Run `setup` [`SETUP_REPEATS`] times (once in a traced run, which
/// reports no `setup_s`); returns the median time in seconds and the last
/// state built.
pub fn repeat_setup<S>(trace: bool, mut setup: impl FnMut() -> S) -> (f64, S) {
    let repeats = if trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let started = std::time::Instant::now();
        state = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (median(&times), state.expect("at least one set-up"))
}

/// Fingerprint of a report, hashed: what operations are compared by.
pub fn fingerprint(report: &VerificationReport) -> u64 {
    crate::measure::fnv1a(
        crate::measure::FNV_OFFSET,
        report.content_fingerprint().as_bytes(),
    )
}

/// The layer metrics every replayed workload derives from its spans and
/// counts. `untraced_ms` is the real checker's time per document on the
/// same operations (the base of the residual and of the overhead ratio).
pub fn core_layers(tr: &Tracer, untraced_ms: f64, layers: &mut BTreeMap<&'static str, f64>) {
    let spans = [
        ("core.evaluate_ms", "core.evaluate"),
        ("core.model.estep_ms", "core.model.estep"),
        ("core.model.mstep_ms", "core.model.mstep"),
        ("core.scope_ms", "core.scope"),
        ("core.candidates_ms", "core.candidates"),
        ("core.keywords_ms", "core.keywords"),
        ("core.matching_ms", "core.matching"),
        ("nlp.parse_ms", "nlp.parse"),
        ("nlp.detect_ms", "nlp.detect"),
        ("core.fragments.build_ms", "core.fragments.build"),
    ];
    let mut replayed = 0.0;
    for (metric, span) in spans {
        let v = tr.layer_ms(span);
        replayed += v;
        layers.insert(metric, v);
    }
    // The rest of a document: report building, checker construction
    // besides the catalog, and glue between the calls.
    layers.insert("core.pipeline.report_ms", (untraced_ms - replayed).max(0.0));
    let replay_ms = tr.layer_ms("doc");
    layers.insert("bench.trace_overhead_ratio", replay_ms / untraced_ms);

    let evaluate_ms = layers["core.evaluate_ms"];
    let candidates = tr.count_per_op(|c| c.eval.candidates_evaluated);
    let cubes = tr.count_per_op(|c| c.eval.cubes_executed);
    let cached = tr.count_per_op(|c| c.eval.cubes_cached);
    let rows = tr.count_per_op(|c| c.eval.rows_scanned);
    let passes = tr.count_per_op(|c| c.eval.scan_passes);
    let tasks = tr.count_per_op(|c| c.eval.tasks_executed);
    let scanned = tr.count_per_op(|c| c.eval.blocks_scanned);
    let skipped = tr.count_per_op(|c| c.eval.blocks_skipped);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    layers.insert("core.candidates_per_doc", candidates);
    layers.insert(
        "core.evaluate.ns_per_candidate",
        ratio(evaluate_ms * 1e6, candidates),
    );
    layers.insert(
        "core.pipeline.em_iterations",
        tr.count_per_op(|c| c.em_iterations),
    );
    layers.insert("relational.cube.cubes_executed", cubes);
    layers.insert(
        "relational.cube.us_per_cube",
        ratio(evaluate_ms * 1e3, cubes),
    );
    layers.insert("relational.cache.hit_ratio", ratio(cached, cached + cubes));
    layers.insert("relational.cube.rows_scanned", rows);
    layers.insert("relational.cube.scan_passes", passes);
    // Grid updates per second: each row of a pass updates one grid per
    // fused task.
    layers.insert(
        "relational.cube.row_updates_per_s",
        ratio(rows * ratio(tasks, passes), evaluate_ms / 1e3),
    );
    layers.insert(
        "relational.block.skipped_ratio",
        ratio(skipped, skipped + scanned),
    );
    layers.insert(
        "relational.cube.partitions_scanned",
        tr.count_per_op(|c| c.eval.partitions_scanned),
    );
}
