//! Whole-pipeline determinism counters: runs every execution front-end
//! once, emits `BENCH_pipeline.json`, then judges its own numbers and
//! exits 1 listing every violated invariant.
//!
//! ```text
//! cargo run --release -p agg-bench --bin bench_pipeline
//! cargo run --release -p agg-bench --bin bench_pipeline -- --docs 12 --out path.json
//! ```
//!
//! Nothing here is timed — end-to-end throughput is the `benchmark/`
//! package's job. Each variant verifies the same documents over one shared
//! database (parse → match → EM with cube evaluation → report) and records
//! its folded scan counters and whether its reports fingerprint exactly
//! like per-document verification:
//!
//! * `sequential_fresh` — a fresh checker (cold cache, cold catalog) per
//!   document: the paper's single-document deployment, repeated, and the
//!   fingerprint reference for every other variant.
//! * `sequential_shared` — one checker reused document-after-document
//!   (warm sharded cache, no batching layer).
//! * `batch_1w` / `batch_4w` — `BatchVerifier` with 1 and 4 workers: one
//!   shared cube-task scheduler, shared sharded cache with single-flight.
//! * `stream_1w` / `stream_2w` / `stream_4w` / `stream_8w` —
//!   `StreamingVerifier` with a persistent worker pool: documents
//!   submitted one by one (fixed arrival order = input order) to the
//!   bounded intake, tickets awaited.
//! * `stream_deadline` — 8 streaming workers, each document submitted
//!   twice: once with a generous deadline, once already expired. Expired
//!   documents settle as `TimedOut` partial reports without scanning a row
//!   (`partial_rate` is exactly 0.5 by construction); the counters are the
//!   completed half's.
//! * `server_loopback` — the same corpus over real TCP on 127.0.0.1:
//!   `VerifyServer` (4 workers), one `BinaryClient` submitting every
//!   document then awaiting each, reports reassembled from the streamed
//!   verdict frames. One client = one intake lane = the same arrival order.
//! * `partitioned_1t` / `partitioned_2t` / `partitioned_4t` — one checker
//!   with `CheckerConfig::threads` = 1/2/4 over a second, much larger
//!   corpus (`--partition-rows`, default 1M rows) whose every fused pass
//!   fans out into fixed 64-block partitions, plus a partition-span-1
//!   control run. `threads_used` is the `partition_parallelism` gauge:
//!   often 1 on a single-core runner, reported rather than faked.
//! * `append_1w` / `append_2w` / `append_4w` / `append_8w` — incremental
//!   re-verification over the large corpus: verify cold, append ~1% more
//!   rows (cloned from the biggest table's tail), re-verify; the counters
//!   are the re-verification's. The control is a fresh checker over the
//!   already-grown corpus.
//!
//! # The invariants
//!
//! The backend may merge queries and cache results only because doing so
//! never changes a verdict, so [`violations`] holds every variant to:
//!
//! * **Reports.** Every variant's completed reports fingerprint exactly
//!   like per-document verification; partitioned reports like the span-1
//!   control; patched re-verifications like the cold grown-corpus control.
//! * **Single-flight.** `tasks_executed` is exactly equal across
//!   `batch_*`, `stream_*`, `stream_deadline` and `server_loopback`: no
//!   cube is executed twice or lost, whatever the worker count, the
//!   deadlines or the wire. That is what single-flight promises. How the
//!   tasks group into passes is only pinned where it is deterministic: the
//!   1-worker variants must agree exactly on `scan_passes` and
//!   `rows_scanned` and stay at or below `sequential_shared`'s pass count
//!   (more would mean fusion stopped sharing scans). With more workers,
//!   racing waves whose miss sets partially overlap may legitimately move
//!   a pass between them (`relational::schedule`, "Atomic wave probes"),
//!   so there every pass must still be one whole-table scan
//!   (`rows_scanned == scan_passes × db_rows`) and the pass count must lie
//!   between `sequential_shared`'s and `sequential_fresh`'s.
//! * **Deadlines.** Exactly half of `stream_deadline`'s submissions expire,
//!   and an expired document never reaches the scan substrate.
//! * **Partitions.** Every `partitioned_*` variant fans out
//!   (`partitions_scanned > 0`), all scan counters but the parallelism
//!   gauge are identical across thread counts, and rows and passes equal
//!   the span-1 control's: partition shape is a function of the data alone.
//! * **Appends.** Every `append_*` variant patches (`grids_patched > 0`)
//!   instead of rescanning (`delta_rows_scanned` under 10% of the cold
//!   control's rows), with identical patch work at every worker count.
//!
//! The JSON is written before judging, so a failing run still leaves its
//! numbers (and its `"violations"`) on disk for the CI artifact.

use agg_core::{
    AggChecker, BatchVerifier, CheckerConfig, ReportStatus, StreamConfig, StreamStats,
    StreamingVerifier, VerificationReport,
};
use agg_corpus::{generate_multi_doc_case, CorpusSpec};
use agg_relational::{Database, ScanCounters, Value};
use agg_server::client::BinaryClient;
use agg_server::{json, ServerConfig, VerifyServer};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One variant of the small-corpus family: its reports' counters folded
/// the way the streaming service folds them.
struct Variant {
    name: &'static str,
    workers: u32,
    totals: StreamStats,
}

/// One variant of the large-corpus families (`partitioned_*`: workers are
/// scan threads; `append_*`: the re-verification's counters).
struct ScanVariant {
    name: String,
    workers: u32,
    scan: ScanCounters,
}

/// Everything one run measured — what the JSON renders and what
/// [`violations`] judges.
struct Summary {
    docs: usize,
    db_rows: u64,
    case: String,
    reports_identical: bool,
    variants: Vec<Variant>,
    partial_rate: f64,
    expired_rows_scanned: u64,
    partitioned: Vec<ScanVariant>,
    partition_span1: ScanCounters,
    partition_corpus_rows: usize,
    partition_docs: usize,
    partition_fingerprints_match: bool,
    append_reverify: Vec<ScanVariant>,
    append_cold_rows: u64,
    append_corpus_rows: usize,
    append_batch_rows: usize,
    append_fingerprints_match: bool,
}

/// Every invariant of the module doc that `s` breaks, one line each;
/// empty means the run is clean.
fn violations(s: &Summary) -> Vec<String> {
    let mut out = Vec::new();
    if !s.reports_identical {
        out.push(
            "reports_identical: a variant's reports drifted from per-document verification".into(),
        );
    }
    let totals = |name: &str| {
        let v = s.variants.iter().find(|v| v.name == name);
        &v.unwrap_or_else(|| panic!("variant {name} is always run"))
            .totals
    };
    let (fresh, shared) = (totals("sequential_fresh"), totals("sequential_shared"));
    let anchor = totals("batch_1w");
    for v in s
        .variants
        .iter()
        .filter(|v| !v.name.starts_with("sequential_"))
    {
        let (name, t) = (v.name, &v.totals);
        if t.tasks_executed != anchor.tasks_executed {
            out.push(format!(
                "{name}: tasks_executed {} differs from batch_1w's {} — a cube execution was \
                 duplicated or lost",
                t.tasks_executed, anchor.tasks_executed
            ));
        } else if v.workers == 1 {
            if (t.scan_passes, t.rows_scanned) != (anchor.scan_passes, anchor.rows_scanned) {
                out.push(format!(
                    "{name}: {} passes / {} rows differ from batch_1w's {} / {} — 1-worker pass \
                     formation must be deterministic",
                    t.scan_passes, t.rows_scanned, anchor.scan_passes, anchor.rows_scanned
                ));
            } else if t.scan_passes > shared.scan_passes {
                out.push(format!(
                    "{name}: {} passes exceed sequential_shared's {} — fusion stopped sharing \
                     scans",
                    t.scan_passes, shared.scan_passes
                ));
            }
        } else if t.rows_scanned != t.scan_passes * s.db_rows {
            out.push(format!(
                "{name}: {} rows over {} passes is not whole scans of the {}-row table",
                t.rows_scanned, t.scan_passes, s.db_rows
            ));
        } else if t.scan_passes < shared.scan_passes || t.scan_passes > fresh.scan_passes {
            out.push(format!(
                "{name}: {} passes outside [sequential_shared {}, sequential_fresh {}]",
                t.scan_passes, shared.scan_passes, fresh.scan_passes
            ));
        }
    }
    if s.partial_rate != 0.5 {
        out.push(format!(
            "partial_rate {} — every already-expired submission (and only those) must settle \
             TimedOut",
            s.partial_rate
        ));
    }
    if s.expired_rows_scanned != 0 {
        out.push(format!(
            "expired documents scanned {} rows — they must never reach the scan substrate",
            s.expired_rows_scanned
        ));
    }

    if !s.partition_fingerprints_match {
        out.push(
            "partition_fingerprints_match: partitioned reports drifted from the span-1 control"
                .into(),
        );
    }
    let (first, span1) = (&s.partitioned[0].scan, &s.partition_span1);
    if (first.rows_scanned, first.scan_passes) != (span1.rows_scanned, span1.scan_passes) {
        out.push(format!(
            "{}: {} rows / {} passes differ from the span-1 control's {} / {} — partition span \
             leaked into the scan shape",
            s.partitioned[0].name,
            first.rows_scanned,
            first.scan_passes,
            span1.rows_scanned,
            span1.scan_passes
        ));
    }
    for v in &s.partitioned {
        let same_gauge = ScanCounters {
            partition_parallelism: first.partition_parallelism,
            ..v.scan
        };
        if v.scan.partitions_scanned == 0 {
            out.push(format!(
                "{}: scanned 0 partitions — the corpus never fanned out (too small, or \
                 partitioning is off)",
                v.name
            ));
        } else if same_gauge != *first {
            out.push(format!(
                "{}: {:?} diverges from {}'s {first:?} — worker count leaked into the scan shape",
                v.name, v.scan, s.partitioned[0].name
            ));
        }
    }

    if !s.append_fingerprints_match {
        out.push(
            "append_fingerprints_match: patched reports drifted from a cold verification of \
             the grown corpus"
                .into(),
        );
    }
    let first = &s.append_reverify[0].scan;
    for v in &s.append_reverify {
        let (delta, patched) = (v.scan.delta_rows_scanned, v.scan.grids_patched);
        if patched == 0 {
            out.push(format!(
                "{}: patched 0 grids — the re-verification fell back to cold rescans",
                v.name
            ));
        } else if delta * 10 >= s.append_cold_rows {
            out.push(format!(
                "{}: delta_rows_scanned {delta} is not under 10% of the cold scan's {} rows — \
                 the patch path is rescanning instead of resuming",
                v.name, s.append_cold_rows
            ));
        } else if (delta, patched) != (first.delta_rows_scanned, first.grids_patched) {
            out.push(format!(
                "{}: {patched} grids patched over {delta} delta rows diverges from {}'s {} over \
                 {} — worker count leaked into the patch work",
                v.name, s.append_reverify[0].name, first.grids_patched, first.delta_rows_scanned
            ));
        }
    }
    out
}

fn render_json(s: &Summary, violations: &[String]) -> String {
    fn array(rows: Vec<String>) -> String {
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
    let variants = s.variants.iter().map(|v| {
        format!(
            "{{\"name\": \"{}\", \"workers\": {}, \"rows_scanned_per_run\": {}, \
             \"tasks_executed\": {}, \"tasks_deduped\": {}, \"singleflight_waits\": {}, \
             \"scan_passes\": {}, \"fused_tasks_per_pass\": {:.1}}}",
            v.name,
            v.workers,
            v.totals.rows_scanned,
            v.totals.tasks_executed,
            v.totals.tasks_deduped,
            v.totals.singleflight_waits,
            v.totals.scan_passes,
            v.totals.fused_tasks_per_pass(),
        )
    });
    let partitioned = s.partitioned.iter().map(|v| {
        format!(
            "{{\"name\": \"{}\", \"threads_requested\": {}, \"threads_used\": {}, \
             \"rows_scanned_per_run\": {}, \"scan_passes\": {}, \"partitions_scanned\": {}, \
             \"partition_merges\": {}}}",
            v.name,
            v.workers,
            v.scan.partition_parallelism.max(1),
            v.scan.rows_scanned,
            v.scan.scan_passes,
            v.scan.partitions_scanned,
            v.scan.partition_merges,
        )
    });
    let append = s.append_reverify.iter().map(|v| {
        format!(
            "{{\"name\": \"{}\", \"workers\": {}, \"delta_rows_scanned\": {}, \
             \"grids_patched\": {}, \"rows_scanned_reverify\": {}, \"rows_scanned_cold\": {}}}",
            v.name,
            v.workers,
            v.scan.delta_rows_scanned,
            v.scan.grids_patched,
            v.scan.rows_scanned,
            s.append_cold_rows,
        )
    });
    let violations = violations
        .iter()
        .map(|v| format!("\"{}\"", json::escape(v)))
        .collect::<Vec<_>>();
    format!(
        "{{\n  \"docs\": {},\n  \"db_rows\": {},\n  \"case\": \"{}\",\n  \
         \"reports_identical\": {},\n  \"variants\": {},\n  \"partial_rate\": {:.2},\n  \
         \"partitioned\": {},\n  \"partition_corpus_rows\": {},\n  \"partition_docs\": {},\n  \
         \"partition_fingerprints_match\": {},\n  \"append_reverify\": {},\n  \
         \"append_corpus_rows\": {},\n  \"append_batch_rows\": {},\n  \
         \"append_fingerprints_match\": {},\n  \"violations\": [{}]\n}}\n",
        s.docs,
        s.db_rows,
        json::escape(&s.case),
        s.reports_identical,
        array(variants.collect()),
        s.partial_rate,
        array(partitioned.collect()),
        s.partition_corpus_rows,
        s.partition_docs,
        s.partition_fingerprints_match as u8,
        array(append.collect()),
        s.append_corpus_rows,
        s.append_batch_rows,
        s.append_fingerprints_match as u8,
        violations.join(", "),
    )
}

fn stream_service(db: &Database, cfg: &CheckerConfig, workers: usize) -> StreamingVerifier {
    let stream_cfg = StreamConfig {
        workers,
        ..StreamConfig::default()
    };
    StreamingVerifier::new(db.clone(), cfg.clone(), stream_cfg).unwrap()
}

/// One streaming run: spin up the service, submit every document in input
/// order (the fixed arrival order), await every ticket, shut down.
fn run_streaming(
    db: &Database,
    cfg: &CheckerConfig,
    texts: &[&str],
    workers: usize,
) -> Vec<VerificationReport> {
    let service = stream_service(db, cfg, workers);
    let tickets: Vec<_> = texts
        .iter()
        .map(|t| service.submit_text(t).unwrap())
        .collect();
    let reports = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    drop(service.into_checker());
    reports
}

/// The deadline-pressure run: every document submitted twice — once with a
/// deadline far past any realistic run time, once already expired (the
/// worker's pop-time deadline check fires before any evaluation). Returns
/// the reports in submission order: even = generous, odd = expired.
fn run_stream_deadline(
    db: &Database,
    cfg: &CheckerConfig,
    texts: &[&str],
    workers: usize,
) -> Vec<VerificationReport> {
    let service = stream_service(db, cfg, workers);
    let mut tickets = Vec::with_capacity(texts.len() * 2);
    for t in texts {
        for deadline in [Instant::now() + Duration::from_secs(60), Instant::now()] {
            tickets.push(
                service
                    .submit_text_with_deadline(t, Some(deadline))
                    .unwrap(),
            );
        }
    }
    let reports = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    drop(service.into_checker());
    reports
}

/// One networked run: a `VerifyServer` on an ephemeral loopback port, a
/// single `BinaryClient` submitting every document in input order and then
/// awaiting each, reports reassembled from the streamed verdict frames.
fn run_server_loopback(
    db: &Database,
    cfg: &CheckerConfig,
    texts: &[&str],
    workers: usize,
) -> Vec<VerificationReport> {
    let server = VerifyServer::start(
        "127.0.0.1:0",
        vec![("bench".to_string(), stream_service(db, cfg, workers))],
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = BinaryClient::connect(server.local_addr(), "bench").unwrap();
    let docs: Vec<u64> = texts
        .iter()
        .map(|t| client.submit(t, None).unwrap())
        .collect();
    let reports = docs
        .into_iter()
        .map(|d| client.await_report(d).unwrap())
        .collect();
    client.goodbye().unwrap();
    server.shutdown();
    reports
}

/// Verify `texts` one after another on `checker`: fingerprints and the
/// summed scan counters.
fn check_all(checker: &AggChecker, texts: &[&str]) -> (Vec<String>, ScanCounters) {
    let mut scan = ScanCounters::default();
    let prints = texts
        .iter()
        .map(|t| {
            let r = checker.check_text(t).unwrap();
            scan.merge(&r.stats.scan);
            r.content_fingerprint()
        })
        .collect();
    (prints, scan)
}

fn measure(docs: usize, case_index: usize, partition_rows: usize) -> Summary {
    let case = generate_multi_doc_case(&CorpusSpec::default(), case_index, docs);
    let cfg = CheckerConfig::default();
    let texts: Vec<&str> = case.articles.iter().map(String::as_str).collect();

    let fresh: Vec<VerificationReport> = texts
        .iter()
        .map(|t| {
            let checker = AggChecker::new(case.db.clone(), cfg.clone()).unwrap();
            checker.check_text(t).unwrap()
        })
        .collect();
    let reference: Vec<String> = fresh
        .iter()
        .map(VerificationReport::content_fingerprint)
        .collect();
    let mut reports_identical = true;
    let mut variants = Vec::new();
    let mut record = |name, workers: u32, reports: &[VerificationReport]| {
        reports_identical &= reports.len() == reference.len();
        for (i, (r, expected)) in reports.iter().zip(&reference).enumerate() {
            if &r.content_fingerprint() != expected {
                eprintln!("{name} disagrees with per-document verification on doc {i}");
                reports_identical = false;
            }
        }
        let mut totals = StreamStats::default();
        for r in reports {
            totals.absorb(&r.stats);
        }
        variants.push(Variant {
            name,
            workers,
            totals,
        });
    };
    record("sequential_fresh", 1, &fresh);
    let shared = AggChecker::new(case.db.clone(), cfg.clone()).unwrap();
    let reports: Vec<_> = texts
        .iter()
        .map(|t| shared.check_text(t).unwrap())
        .collect();
    record("sequential_shared", 1, &reports);
    for (name, workers) in [("batch_1w", 1), ("batch_4w", 4)] {
        let batch_cfg = CheckerConfig {
            threads: workers,
            ..cfg.clone()
        };
        let batch = BatchVerifier::new(case.db.clone(), batch_cfg).unwrap();
        record(name, workers as u32, &batch.verify_texts(&texts).unwrap());
    }
    for (name, workers) in [
        ("stream_1w", 1),
        ("stream_2w", 2),
        ("stream_4w", 4),
        ("stream_8w", 8),
    ] {
        let reports = run_streaming(&case.db, &cfg, &texts, workers);
        record(name, workers as u32, &reports);
    }
    let deadline = run_stream_deadline(&case.db, &cfg, &texts, 8);
    let completed: Vec<_> = deadline.iter().step_by(2).cloned().collect();
    record("stream_deadline", 8, &completed);
    let partial = deadline
        .iter()
        .filter(|r| r.status == ReportStatus::TimedOut)
        .count();
    let expired = deadline.iter().skip(1).step_by(2);
    let expired_rows_scanned = expired.map(|r| r.stats.rows_scanned).sum();
    let reports = run_server_loopback(&case.db, &cfg, &texts, 4);
    record("server_loopback", 4, &reports);

    // --- Partition-parallel scans: a corpus big enough to split. ---------
    // The families above parallelize documents over a small database; this
    // one parallelizes the scan itself over a corpus whose every fused
    // pass spans multiple fixed 64-block partitions.
    let part_docs = 2usize;
    let part_spec = CorpusSpec {
        min_rows: partition_rows,
        max_rows: partition_rows,
        ..CorpusSpec::default()
    };
    let part_case = generate_multi_doc_case(&part_spec, case_index, part_docs);
    let part_texts: Vec<&str> = part_case.articles.iter().map(String::as_str).collect();
    let part_run = |threads: usize, partition_blocks: usize| {
        let run_cfg = CheckerConfig {
            threads,
            partition_blocks,
            ..cfg.clone()
        };
        let checker = AggChecker::new(part_case.db.clone(), run_cfg).unwrap();
        check_all(&checker, &part_texts)
    };
    let (span1_prints, partition_span1) = part_run(1, 1);
    let mut partition_fingerprints_match = true;
    let partitioned = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let (prints, scan) = part_run(threads, cfg.partition_blocks);
            partition_fingerprints_match &= prints == span1_prints;
            ScanVariant {
                name: format!("partitioned_{threads}t"),
                workers: threads as u32,
                scan,
            }
        })
        .collect();

    // --- Incremental re-verification over appends. -----------------------
    // A finer partition span than the partitioned family keeps the prefix
    // checkpoints near the corpus tail, so a 1% append costs ~1% of a full
    // rescan rather than most of a 64-block span.
    let append_cfg = CheckerConfig {
        partition_blocks: 4,
        ..cfg.clone()
    };
    // The append batch: the last 1% of the biggest table's rows, cloned —
    // schema-valid by construction, and value-skewed exactly like the
    // corpus so patched aggregates move in every claim's scope.
    let (append_table, append_batch): (String, Vec<Vec<Value>>) = {
        let tables = part_case.db.tables().iter();
        let t = tables
            .max_by_key(|t| t.row_count())
            .expect("partition corpus has tables");
        let n = t.row_count();
        let batch = (n - (n / 100).max(1)..n)
            .map(|r| (0..t.column_count()).map(|c| t.get(r, c)).collect())
            .collect();
        (t.name().to_string(), batch)
    };
    let mut grown_db = part_case.db.clone();
    grown_db
        .append_rows(&append_table, &append_batch)
        .expect("append cloned rows");
    let append_corpus_rows = grown_db.total_rows();
    let cold = AggChecker::new(grown_db, append_cfg.clone()).unwrap();
    let (append_reference, cold_scan) = check_all(&cold, &part_texts);
    let mut append_fingerprints_match = true;
    let append_reverify = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let run_cfg = CheckerConfig {
                threads,
                ..append_cfg.clone()
            };
            let mut checker = AggChecker::new(part_case.db.clone(), run_cfg).unwrap();
            check_all(&checker, &part_texts); // cold pass warms cache + checkpoints
            checker.append_rows(&append_table, &append_batch).unwrap();
            let (prints, scan) = check_all(&checker, &part_texts);
            append_fingerprints_match &= prints == append_reference;
            ScanVariant {
                name: format!("append_{threads}w"),
                workers: threads as u32,
                scan,
            }
        })
        .collect();

    Summary {
        docs,
        db_rows: case.db.total_rows() as u64,
        case: case.name,
        reports_identical,
        variants,
        partial_rate: partial as f64 / deadline.len() as f64,
        expired_rows_scanned,
        partitioned,
        partition_span1,
        partition_corpus_rows: part_case.db.total_rows(),
        partition_docs: part_docs,
        partition_fingerprints_match,
        append_reverify,
        append_cold_rows: cold_scan.rows_scanned,
        append_corpus_rows,
        append_batch_rows: append_batch.len(),
        append_fingerprints_match,
    }
}

fn main() -> ExitCode {
    let mut docs = 8usize;
    let mut case_index = 1usize;
    let mut partition_rows = 1_000_000usize;
    let mut out = String::from("BENCH_pipeline.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |what: &str| -> usize {
            let value = args.next().and_then(|v| v.parse().ok());
            value.unwrap_or_else(|| panic!("{what} N"))
        };
        match arg.as_str() {
            "--docs" => docs = number("--docs"),
            "--case-index" => case_index = number("--case-index"),
            "--partition-rows" => partition_rows = number("--partition-rows"),
            "--out" => out = args.next().expect("--out PATH"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_pipeline [--docs N] [--case-index N] [--partition-rows N] [--out PATH]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let summary = measure(docs, case_index, partition_rows);
    let violations = violations(&summary);
    let json = render_json(&summary, &violations);
    std::fs::write(&out, &json).expect("write BENCH_pipeline.json");
    print!("{json}");
    for v in &violations {
        eprintln!("bench_pipeline FAIL: {v}");
    }
    if violations.is_empty() {
        eprintln!("wrote {out}: every determinism invariant holds");
        ExitCode::SUCCESS
    } else {
        eprintln!("wrote {out}: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCH_pipeline.json`'s numbers.
    fn clean() -> Summary {
        let variant = |name, workers, tasks_executed, scan_passes| {
            let scan = ScanCounters {
                tasks_executed,
                scan_passes,
                rows_scanned: scan_passes * 460,
                ..ScanCounters::default()
            };
            let totals = StreamStats {
                scan,
                ..StreamStats::default()
            };
            Variant {
                name,
                workers,
                totals,
            }
        };
        let large = |name: String, workers, scan| ScanVariant {
            name,
            workers,
            scan,
        };
        let partitioned = ScanCounters {
            rows_scanned: 2_000_000,
            scan_passes: 2,
            partitions_scanned: 16,
            partition_merges: 28,
            ..ScanCounters::default()
        };
        let append = ScanCounters {
            rows_scanned: 10_576,
            delta_rows_scanned: 10_576,
            grids_patched: 1,
            ..ScanCounters::default()
        };
        Summary {
            docs: 8,
            db_rows: 460,
            case: "survey-batch-01x8".into(),
            reports_identical: true,
            variants: vec![
                variant("sequential_fresh", 1, 2553, 13),
                variant("sequential_shared", 1, 1237, 11),
                variant("batch_1w", 1, 2835, 11),
                variant("batch_4w", 4, 2835, 11),
                variant("stream_1w", 1, 2835, 11),
                variant("stream_2w", 2, 2835, 11),
                variant("stream_4w", 4, 2835, 11),
                variant("stream_8w", 8, 2835, 11),
                variant("stream_deadline", 8, 2835, 11),
                variant("server_loopback", 4, 2835, 11),
            ],
            partial_rate: 0.5,
            expired_rows_scanned: 0,
            partitioned: [1, 2, 4]
                .map(|t| large(format!("partitioned_{t}t"), t, partitioned))
                .into(),
            partition_span1: ScanCounters {
                partitions_scanned: 978,
                partition_merges: 1936,
                ..partitioned
            },
            partition_corpus_rows: 1_000_000,
            partition_docs: 2,
            partition_fingerprints_match: true,
            append_reverify: [1, 2, 4, 8]
                .map(|w| large(format!("append_{w}w"), w, append))
                .into(),
            append_cold_rows: 1_010_000,
            append_corpus_rows: 1_010_000,
            append_batch_rows: 10_000,
            append_fingerprints_match: true,
        }
    }

    fn scan<'s>(s: &'s mut Summary, name: &str) -> &'s mut ScanCounters {
        let small = s.variants.iter_mut().map(|v| (v.name, &mut v.totals.scan));
        let large = s.partitioned.iter_mut().chain(&mut s.append_reverify);
        let mut all = small.chain(large.map(|v| (v.name.as_str(), &mut v.scan)));
        all.find(|(n, _)| *n == name).expect("variant exists").1
    }

    /// `passes` whole-table scans.
    fn passes(s: &mut Summary, name: &str, passes: u64) {
        let c = scan(s, name);
        (c.scan_passes, c.rows_scanned) = (passes, passes * 460);
    }

    /// One seeded mutation per violation class: exactly the named
    /// violations are reported, in order, and nothing else.
    #[test]
    fn violations_names_exactly_the_broken_invariant() {
        type Mutation = fn(&mut Summary);
        let table: &[(Mutation, &[&str])] = &[
            (|_| {}, &[]),
            // The measured multi-worker shift — one extra whole pass at 8
            // workers, tasks unchanged — is legitimate.
            (|s| passes(s, "stream_8w", 12), &[]),
            (|s| s.reports_identical = false, &["reports_identical"]),
            // A duplicated, and a lost, cube execution.
            (
                |s| scan(s, "batch_4w").tasks_executed += 1,
                &["batch_4w: tasks_executed 2836"],
            ),
            (
                |s| scan(s, "server_loopback").tasks_executed -= 1,
                &["server_loopback: tasks_executed 2834"],
            ),
            // 1-worker pass formation is exact: passes, then rows alone.
            (
                |s| passes(s, "stream_1w", 12),
                &["stream_1w: 12 passes / 5520 rows differ"],
            ),
            (
                |s| scan(s, "stream_1w").rows_scanned += 460,
                &["stream_1w: 11 passes / 5520 rows differ"],
            ),
            (
                |s| scan(s, "sequential_shared").scan_passes = 10,
                &[
                    "batch_1w: 11 passes exceed sequential_shared's 10",
                    "stream_1w: 11 passes exceed",
                ],
            ),
            // Multi-worker: whole scans, pass count inside the bounds.
            (
                |s| scan(s, "stream_8w").rows_scanned += 460,
                &["stream_8w: 5520 rows over 11 passes"],
            ),
            (
                |s| passes(s, "stream_deadline", 14),
                &["stream_deadline: 14 passes outside"],
            ),
            (
                |s| passes(s, "stream_2w", 10),
                &["stream_2w: 10 passes outside"],
            ),
            (|s| s.partial_rate = 0.4375, &["partial_rate 0.4375"]),
            (
                |s| s.expired_rows_scanned = 460,
                &["expired documents scanned 460 rows"],
            ),
            (
                |s| s.partition_fingerprints_match = false,
                &["partition_fingerprints_match"],
            ),
            (
                |s| scan(s, "partitioned_4t").rows_scanned += 100_000,
                &["partitioned_4t: ScanCounters"],
            ),
            (
                |s| scan(s, "partitioned_2t").partitions_scanned = 15,
                &["partitioned_2t: ScanCounters"],
            ),
            (
                |s| scan(s, "partitioned_2t").partitions_scanned = 0,
                &["partitioned_2t: scanned 0 partitions"],
            ),
            (
                |s| s.partition_span1.scan_passes = 3,
                &["partitioned_1t: 2000000 rows / 2 passes differ"],
            ),
            (
                |s| s.append_fingerprints_match = false,
                &["append_fingerprints_match"],
            ),
            (
                |s| scan(s, "append_4w").delta_rows_scanned = 17_000,
                &["append_4w: 1 grids patched over 17000"],
            ),
            (
                |s| scan(s, "append_2w").grids_patched = 2,
                &["append_2w: 2 grids patched"],
            ),
            (
                |s| scan(s, "append_2w").grids_patched = 0,
                &["append_2w: patched 0 grids"],
            ),
            (
                |s| scan(s, "append_8w").delta_rows_scanned = 101_000,
                &["append_8w: delta_rows_scanned 101000"],
            ),
            // No cold baseline at all.
            (
                |s| s.append_cold_rows = 0,
                &["append_1w: ", "append_2w: ", "append_4w: ", "append_8w: "],
            ),
        ];
        for (i, (mutate, expected)) in table.iter().enumerate() {
            let mut s = clean();
            mutate(&mut s);
            let got = violations(&s);
            assert_eq!(got.len(), expected.len(), "row {i}: {got:?}");
            for (line, needle) in got.iter().zip(*expected) {
                assert!(line.contains(needle), "row {i}: {line:?} lacks {needle:?}");
            }
        }
    }

    #[test]
    fn rendered_summary_is_valid_json_carrying_its_violations() {
        let mut s = clean();
        s.reports_identical = false;
        let parsed = json::parse(&render_json(&s, &violations(&s))).unwrap();
        let rows = |key: &str| match parsed.get(key) {
            Some(json::Json::Arr(rows)) => rows.as_slice(),
            other => panic!("{key}: {other:?}"),
        };
        assert_eq!(rows("variants").len(), 10);
        assert_eq!(rows("partitioned").len(), 3);
        assert_eq!(rows("append_reverify").len(), 4);
        assert_eq!(rows("violations").len(), 1);
        let tasks = rows("variants")[2].get("tasks_executed");
        assert_eq!(tasks.and_then(json::Json::as_u64), Some(2835));
    }
}
