//! Machine-readable end-to-end pipeline benchmark: emits
//! `BENCH_pipeline.json`.
//!
//! ```text
//! cargo run --release -p agg-bench --bin bench_pipeline
//! cargo run --release -p agg-bench --bin bench_pipeline -- --docs 12 --out path.json
//! ```
//!
//! Where `bench_cube` times the cube kernel in isolation, this bin times the
//! **whole verification pipeline** (parse → match → EM with cube evaluation
//! → report) over a batch of documents summarizing one shared database —
//! the workload `BatchVerifier` exists for. Variants:
//!
//! * `sequential_fresh` — per-document verification: a fresh checker (cold
//!   cache, cold catalog) per document. The paper's single-document
//!   deployment, repeated.
//! * `sequential_shared` — one checker reused document-after-document
//!   (warm sharded cache, no batching layer).
//! * `batch_1w` / `batch_4w` — `BatchVerifier` with 1 and 4 workers: one
//!   shared cube-task scheduler, shared sharded cache with single-flight,
//!   per-worker dense-grid arenas.
//! * `stream_1w` / `stream_2w` / `stream_4w` / `stream_8w` —
//!   `StreamingVerifier` with a persistent worker pool: documents
//!   submitted one by one (fixed arrival order = input order) to the
//!   bounded intake, verified by whatever workers are free, tickets
//!   awaited. Measures the dynamic-admission front-end over the same
//!   substrate.
//! * `stream_deadline` — `StreamingVerifier` with 8 workers under
//!   per-document deadlines: each corpus document is submitted twice,
//!   once with a generous deadline and once already expired. Expired
//!   documents settle as partial reports without ever scanning a row
//!   (`partial_rate` is exactly 0.5 by construction), so the completed
//!   half's `rows_scanned_per_run`/`scan_passes` stay bit-equal to the
//!   deadline-free streaming variants — the CI dedup gates include this
//!   variant to pin that.
//! * `server_loopback` — the same corpus submitted over real TCP on
//!   127.0.0.1: `VerifyServer` (4 workers) in front of the service, one
//!   `BinaryClient` submitting every document then awaiting each, reports
//!   reassembled from the streamed verdict frames. One client = one
//!   intake lane = the same fixed arrival order as the in-process
//!   streaming variants, so the dedup gates hold over the wire too.
//!
//! * `partitioned_1t` / `partitioned_2t` / `partitioned_4t` — one checker
//!   with `CheckerConfig::threads` = 1/2/4 (the per-wave pool that steals
//!   partition subtasks) verifying a second, much larger corpus
//!   (`--partition-rows`, default 1M rows — big enough that every fused
//!   pass spans multiple fixed 64-block partitions). Where the families
//!   above parallelize *documents*, these parallelize the *scan itself*:
//!   partition boundaries are a pure function of row count (never worker
//!   count) and partition grids merge in ascending order, so all three
//!   thread counts — and a partition-span-1 control run — must produce
//!   bit-identical `content_fingerprint()`s and identical
//!   `rows_scanned`/`scan_passes`/`partitions_scanned`. `threads_used`
//!   (from `partition_parallelism`) and `effective_parallelism` are
//!   reported honestly: on a 1-core runner they stay 1/0.25 rather than
//!   faking a speedup, and multi-core CI shows the real one. The
//!   top-level `partition_*` fields feed `xtask partition-gate`.
//!
//! * `append_1w` / `append_2w` / `append_4w` / `append_8w` — incremental
//!   re-verification over the same large corpus: verify cold, append ~1%
//!   more rows (cloned from the biggest table's tail), re-verify. The
//!   watermark/checkpoint machinery must *patch* the stale cached grids
//!   over just the appended tail — `delta_rows_scanned` stays a small
//!   fraction of a cold run's `rows_scanned`, patched reports are
//!   bit-identical to a fresh checker over the grown corpus, and the
//!   patch work (`grids_patched`, `delta_rows_scanned`) is identical at
//!   every worker count. Only the re-verification is timed. The
//!   `append_reverify` variants and top-level `append_*` fields feed
//!   `xtask delta-gate`.
//!
//! All variants are checked to produce identical reports before timing.
//! Each variant reports `rows_scanned_per_run` (real rows read by its
//! fused scan passes over one full batch), `scan_passes` and
//! `fused_tasks_per_pass` (the fusion factor: cube tasks per physical
//! table scan), plus the scheduler's dedup counters. Single-flight plus
//! atomic wave probes make `batch_4w` rows *and* passes *exactly* equal
//! `batch_1w` — `xtask dedup-gate` enforces both in CI, deterministically,
//! unlike any timing gate — and the fused pass count must not exceed
//! `sequential_shared`'s. The same exact equality holds across all four
//! streaming worker counts for the fixed arrival order (the streaming
//! dedup gates).

use agg_bench::metrics::median_timed_ns;
use agg_core::{
    AggChecker, BatchVerifier, CheckerConfig, ReportStatus, StreamConfig, StreamStats,
    StreamingVerifier, VerificationReport,
};
use agg_corpus::{generate_multi_doc_case, CorpusSpec};
use agg_relational::ScanCounters;
use agg_server::client::BinaryClient;
use agg_server::{ServerConfig, VerifyServer};
use std::time::{Duration, Instant};

/// One run's reports folded the way the streaming service folds them: the
/// shared scan counters plus the dedup pair, summed over documents.
fn counters(reports: &[VerificationReport]) -> StreamStats {
    let mut totals = StreamStats::default();
    for r in reports {
        totals.absorb(&r.stats);
    }
    totals
}

struct Variant {
    name: &'static str,
    workers: u32,
    median_ns: u64,
    docs_per_sec: f64,
    /// The median run's folded counters: rows its cube executions
    /// scanned (caching and single-flight make this differ across
    /// variants), tasks executed/deduped, single-flight waits, fused
    /// passes — emitted under the JSON names the xtask gates select on.
    totals: StreamStats,
}

/// One streaming run: spin up the service, submit every document in input
/// order (the fixed arrival order the dedup gates assume), await every
/// ticket, shut down. Service startup/teardown is deliberately inside the
/// measured region — a docs/sec figure for the front-end should include
/// what a deployment pays.
fn run_streaming(
    db: &agg_relational::Database,
    cfg: &CheckerConfig,
    texts: &[&str],
    workers: usize,
) -> Vec<VerificationReport> {
    let service = StreamingVerifier::new(
        db.clone(),
        cfg.clone(),
        StreamConfig {
            workers,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let tickets: Vec<_> = texts
        .iter()
        .map(|t| service.submit_text(t).unwrap())
        .collect();
    let reports = tickets
        .into_iter()
        .map(|t| t.wait().unwrap())
        .collect::<Vec<_>>();
    drop(service.into_checker());
    reports
}

/// The deadline-pressure run: every document submitted twice — once with a
/// deadline far past any realistic run time, once already expired. The
/// expired copy must settle as a partial report without scanning a row
/// (the worker's pop-time deadline check fires before any evaluation), so
/// exactly half the accepted documents land in the `timed_out` bin and the
/// other half produce reports identical to the deadline-free service.
fn run_stream_deadline(
    db: &agg_relational::Database,
    cfg: &CheckerConfig,
    texts: &[&str],
    workers: usize,
) -> Vec<VerificationReport> {
    let service = StreamingVerifier::new(
        db.clone(),
        cfg.clone(),
        StreamConfig {
            workers,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let mut tickets = Vec::with_capacity(texts.len() * 2);
    for t in texts {
        tickets.push(
            service
                .submit_text_with_deadline(t, Some(Instant::now() + Duration::from_secs(60)))
                .unwrap(),
        );
        tickets.push(
            service
                .submit_text_with_deadline(t, Some(Instant::now()))
                .unwrap(),
        );
    }
    let reports = tickets
        .into_iter()
        .map(|t| t.wait().unwrap())
        .collect::<Vec<_>>();
    drop(service.into_checker());
    reports
}

/// One networked run: a `VerifyServer` on an ephemeral loopback port, a
/// single `BinaryClient` submitting every document in input order and then
/// awaiting each, reports reassembled from the streamed verdict frames.
/// A single client means a single intake lane, so the service sees the
/// same fixed arrival order as `run_streaming` and the dedup gates apply
/// unchanged. Server startup/teardown and all framing/socket costs are
/// inside the measured region.
fn run_server_loopback(
    db: &agg_relational::Database,
    cfg: &CheckerConfig,
    texts: &[&str],
    workers: usize,
) -> Vec<VerificationReport> {
    let service = StreamingVerifier::new(
        db.clone(),
        cfg.clone(),
        StreamConfig {
            workers,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let server = VerifyServer::start(
        "127.0.0.1:0",
        vec![("bench".to_string(), service)],
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = BinaryClient::connect(server.local_addr(), "bench").unwrap();
    let docs: Vec<u64> = texts
        .iter()
        .map(|t| client.submit(t, None).unwrap())
        .collect();
    let reports: Vec<VerificationReport> = docs
        .into_iter()
        .map(|d| client.await_report(d).unwrap())
        .collect();
    client.goodbye().unwrap();
    server.shutdown();
    reports
}

fn main() {
    let mut docs = 8usize;
    let mut samples = 5usize;
    let mut case_index = 1usize;
    let mut partition_rows = 1_000_000usize;
    let mut out = String::from("BENCH_pipeline.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--docs" => docs = args.next().and_then(|v| v.parse().ok()).expect("--docs N"),
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples N")
            }
            "--case-index" => {
                case_index = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--case-index N")
            }
            "--partition-rows" => {
                partition_rows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--partition-rows N")
            }
            "--out" => out = args.next().expect("--out PATH"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_pipeline [--docs N] [--samples N] [--case-index N] [--partition-rows N] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let case = generate_multi_doc_case(&CorpusSpec::default(), case_index, docs);
    let db_rows = case.db.total_rows();
    let cfg = CheckerConfig::default();
    let texts: Vec<&str> = case.articles.iter().map(String::as_str).collect();

    // --- Correctness gate: every variant must produce identical reports. --
    let reference: Vec<String> = texts
        .iter()
        .map(|t| {
            let checker = AggChecker::new(case.db.clone(), cfg.clone()).unwrap();
            checker.check_text(t).unwrap().content_fingerprint()
        })
        .collect();
    for workers in [1usize, 4] {
        let batch_cfg = CheckerConfig {
            threads: workers,
            ..cfg.clone()
        };
        let batch = BatchVerifier::new(case.db.clone(), batch_cfg).unwrap();
        let reports = batch.verify_texts(&texts).unwrap();
        for (i, (r, expected)) in reports.iter().zip(&reference).enumerate() {
            assert_eq!(
                &r.content_fingerprint(),
                expected,
                "batch({workers}w) disagrees with per-document verification on doc {i}"
            );
        }
    }
    for workers in [1usize, 2, 4, 8] {
        let reports = run_streaming(&case.db, &cfg, &texts, workers);
        for (i, (r, expected)) in reports.iter().zip(&reference).enumerate() {
            assert_eq!(
                &r.content_fingerprint(),
                expected,
                "stream({workers}w) disagrees with per-document verification on doc {i}"
            );
        }
    }
    // Wire correctness: a report reassembled from streamed verdict frames
    // must fingerprint identically to solo verification.
    {
        let reports = run_server_loopback(&case.db, &cfg, &texts, 4);
        for (i, (r, expected)) in reports.iter().zip(&reference).enumerate() {
            assert_eq!(
                &r.content_fingerprint(),
                expected,
                "server_loopback disagrees with per-document verification on doc {i}"
            );
        }
    }
    // Deadline-pressure correctness: exactly half the submissions expire
    // (partial, zero rows scanned), the surviving half is bit-identical to
    // per-document verification.
    let deadline_reports = run_stream_deadline(&case.db, &cfg, &texts, 8);
    let partial = deadline_reports
        .iter()
        .filter(|r| r.status.is_partial())
        .count();
    let partial_rate = partial as f64 / deadline_reports.len() as f64;
    assert_eq!(
        partial * 2,
        deadline_reports.len(),
        "every already-expired submission (and only those) must settle partial"
    );
    for (i, r) in deadline_reports.iter().enumerate() {
        if i % 2 == 0 {
            assert_eq!(
                &r.content_fingerprint(),
                &reference[i / 2],
                "stream_deadline completed doc {} disagrees with per-document verification",
                i / 2
            );
        } else {
            assert_eq!(r.status, ReportStatus::TimedOut);
            assert_eq!(
                r.stats.rows_scanned, 0,
                "an expired document must never reach the scan substrate"
            );
        }
    }

    // --- Timed variants. ------------------------------------------------
    let run_sequential_fresh = || {
        let reports: Vec<VerificationReport> = texts
            .iter()
            .map(|t| {
                let checker = AggChecker::new(case.db.clone(), cfg.clone()).unwrap();
                checker.check_text(t).unwrap()
            })
            .collect();
        counters(&reports)
    };
    let run_sequential_shared = || {
        let checker = AggChecker::new(case.db.clone(), cfg.clone()).unwrap();
        let reports: Vec<VerificationReport> = texts
            .iter()
            .map(|t| checker.check_text(t).unwrap())
            .collect();
        counters(&reports)
    };
    let run_batch = |workers: usize| {
        let batch_cfg = CheckerConfig {
            threads: workers,
            ..cfg.clone()
        };
        let batch = BatchVerifier::new(case.db.clone(), batch_cfg).unwrap();
        counters(&batch.verify_texts(&texts).unwrap())
    };
    let run_stream = |workers: usize| counters(&run_streaming(&case.db, &cfg, &texts, workers));
    // Expired documents contribute zero to every scheduling counter, so
    // summing over all reports counts exactly the completed half.
    let run_deadline = || counters(&run_stream_deadline(&case.db, &cfg, &texts, 8));
    let run_loopback = || counters(&run_server_loopback(&case.db, &cfg, &texts, 4));

    let variant = |name, workers: u32, (median_ns, totals): (u64, StreamStats)| Variant {
        name,
        workers,
        median_ns,
        docs_per_sec: docs as f64 / (median_ns as f64 / 1e9),
        totals,
    };
    let variants = [
        variant(
            "sequential_fresh",
            1,
            median_timed_ns(samples, run_sequential_fresh),
        ),
        variant(
            "sequential_shared",
            1,
            median_timed_ns(samples, run_sequential_shared),
        ),
        variant("batch_1w", 1, median_timed_ns(samples, || run_batch(1))),
        variant("batch_4w", 4, median_timed_ns(samples, || run_batch(4))),
        variant("stream_1w", 1, median_timed_ns(samples, || run_stream(1))),
        variant("stream_2w", 2, median_timed_ns(samples, || run_stream(2))),
        variant("stream_4w", 4, median_timed_ns(samples, || run_stream(4))),
        variant("stream_8w", 8, median_timed_ns(samples, || run_stream(8))),
        variant("stream_deadline", 8, median_timed_ns(samples, run_deadline)),
        variant("server_loopback", 4, median_timed_ns(samples, run_loopback)),
    ];

    let sequential_ns = variants[0].median_ns as f64;
    let best_batch_ns = variants[2].median_ns.min(variants[3].median_ns) as f64;
    let speedup = sequential_ns / best_batch_ns;
    let dedup_exact = variants[2].totals.rows_scanned == variants[3].totals.rows_scanned;
    let passes_exact = variants[2].totals.scan_passes == variants[3].totals.scan_passes;
    let stream = &variants[4..8];
    let stream_rows_exact = stream
        .iter()
        .all(|v| v.totals.rows_scanned == stream[0].totals.rows_scanned);
    let stream_passes_exact = stream
        .iter()
        .all(|v| v.totals.scan_passes == stream[0].totals.scan_passes);
    let best_stream_ns = stream.iter().map(|v| v.median_ns).min().unwrap() as f64;
    let stream_speedup = sequential_ns / best_stream_ns;
    // The deadline variant's completed half must scan exactly what the
    // deadline-free streaming runs scan — expired docs change admission,
    // never the substrate (the CI dedup gates pin this too).
    let deadline_variant = &variants[8];
    assert_eq!(
        deadline_variant.totals.rows_scanned, stream[0].totals.rows_scanned,
        "stream_deadline's completed docs scanned different rows than the dedup-gated baseline"
    );
    assert_eq!(
        deadline_variant.totals.scan_passes, stream[0].totals.scan_passes,
        "stream_deadline's completed docs formed different passes than the dedup-gated baseline"
    );
    // The wire changes how documents arrive, never what the substrate
    // scans: one client = one lane = the in-process arrival order.
    let loopback_variant = &variants[9];
    assert_eq!(
        loopback_variant.totals.rows_scanned, stream[0].totals.rows_scanned,
        "server_loopback scanned different rows than the dedup-gated baseline"
    );
    assert_eq!(
        loopback_variant.totals.scan_passes, stream[0].totals.scan_passes,
        "server_loopback formed different passes than the dedup-gated baseline"
    );

    // --- Partition-parallel scans: a corpus big enough to split. ---------
    // The families above parallelize documents over a small database; this
    // one parallelizes the scan itself over a corpus whose every fused
    // pass spans multiple fixed 64-block partitions. The determinism
    // contract says worker count — and partition span, on the generator's
    // integer-valued columns — must never show up in a report.
    let part_docs = 2usize;
    let part_case = generate_multi_doc_case(
        &CorpusSpec {
            min_rows: partition_rows,
            max_rows: partition_rows,
            ..CorpusSpec::default()
        },
        case_index,
        part_docs,
    );
    let part_texts: Vec<&str> = part_case.articles.iter().map(String::as_str).collect();
    let part_rows = part_case.db.total_rows();
    let part_run = |threads: usize, partition_blocks: Option<usize>| {
        let run_cfg = CheckerConfig {
            threads,
            partition_blocks: partition_blocks.unwrap_or(cfg.partition_blocks),
            ..cfg.clone()
        };
        let checker = AggChecker::new(part_case.db.clone(), run_cfg).unwrap();
        let mut fingerprints = Vec::with_capacity(part_texts.len());
        let mut c = ScanCounters::default();
        for t in &part_texts {
            let r = checker.check_text(t).unwrap();
            c.merge(&r.stats.scan);
            fingerprints.push(r.content_fingerprint());
        }
        (fingerprints, c)
    };
    let (part_reference, part_ref_counters) = part_run(1, None);
    assert!(
        part_ref_counters.partitions_scanned > 0,
        "the {part_rows}-row partition corpus must span multiple partitions"
    );
    let (size1_prints, size1_counters) = part_run(1, Some(1));
    assert_eq!(
        size1_prints, part_reference,
        "partition-span-1 control diverged from the default span — integer \
         corpus sums must merge associatively"
    );
    for threads in [2usize, 4] {
        let (prints, c) = part_run(threads, None);
        assert_eq!(
            prints, part_reference,
            "{threads}-thread partitioned run diverged from the 1-thread report"
        );
        assert_eq!(
            ScanCounters {
                partition_parallelism: part_ref_counters.partition_parallelism,
                ..c
            },
            part_ref_counters,
            "{threads}-thread partitioned counters diverged (only the parallelism gauge may)"
        );
    }

    struct PartitionVariant {
        name: &'static str,
        threads_requested: u32,
        threads_used: u32,
        median_ns: u64,
        docs_per_sec: f64,
        scan: ScanCounters,
    }
    let part_variants: Vec<PartitionVariant> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let name: &'static str = match threads {
                1 => "partitioned_1t",
                2 => "partitioned_2t",
                _ => "partitioned_4t",
            };
            let (median_ns, c) = median_timed_ns(samples, || part_run(threads, None).1);
            PartitionVariant {
                name,
                threads_requested: threads as u32,
                // The parallelism gauge from the median run: distinct
                // workers that actually scanned partitions — often 1 on a
                // single-core runner, honestly reported rather than
                // echoing the request.
                threads_used: c.partition_parallelism.max(1),
                median_ns,
                docs_per_sec: part_docs as f64 / (median_ns as f64 / 1e9),
                scan: c,
            }
        })
        .collect();
    let partition_rows_equal = part_variants
        .iter()
        .all(|v| v.scan.rows_scanned == size1_counters.rows_scanned);
    let partition_passes_equal = part_variants
        .iter()
        .all(|v| v.scan.scan_passes == size1_counters.scan_passes);

    // --- Incremental re-verification over appends. -----------------------
    // The watermark/checkpoint machinery's headline: verify the big corpus
    // cold, append ~1% more rows, and re-verify — the stale cached grids
    // must be *patched* over just the appended tail instead of rescanned.
    // A finer partition span than the partitioned family keeps the prefix
    // checkpoints near the corpus tail, so a 1% append costs ~1% of a full
    // rescan rather than most of a 64-block span. The `append_*` variants
    // and top-level `append_*` fields feed `xtask delta-gate`.
    let append_cfg = CheckerConfig {
        partition_blocks: 4,
        ..cfg.clone()
    };
    // The append batch: the last 1% of the biggest table's rows, cloned —
    // schema-valid by construction, and value-skewed exactly like the
    // corpus so patched aggregates move in every claim's scope.
    let (append_table, append_batch): (String, Vec<Vec<agg_relational::Value>>) = {
        let t = part_case
            .db
            .tables()
            .iter()
            .max_by_key(|t| t.row_count())
            .expect("partition corpus has tables");
        let n = t.row_count();
        let batch_len = (n / 100).max(1);
        let batch = (n - batch_len..n)
            .map(|r| (0..t.column_count()).map(|c| t.get(r, c)).collect())
            .collect();
        (t.name().to_string(), batch)
    };
    // The cold control: a fresh checker over the already-grown corpus.
    // Patched reports must be bit-identical to this, at every worker count.
    let grown_db = {
        let mut db = part_case.db.clone();
        db.append_rows(&append_table, &append_batch)
            .expect("append cloned rows");
        db
    };
    let grown_rows = grown_db.total_rows();
    let (append_reference, append_cold_rows) = {
        let checker = AggChecker::new(grown_db.clone(), append_cfg.clone()).unwrap();
        let mut prints = Vec::with_capacity(part_texts.len());
        let mut rows = 0u64;
        for t in &part_texts {
            let r = checker.check_text(t).unwrap();
            rows += r.stats.rows_scanned;
            prints.push(r.content_fingerprint());
        }
        (prints, rows)
    };
    let append_run = |threads: usize| -> (u64, ScanCounters) {
        let run_cfg = CheckerConfig {
            threads,
            ..append_cfg.clone()
        };
        let mut checker = AggChecker::new(part_case.db.clone(), run_cfg).unwrap();
        for t in &part_texts {
            checker.check_text(t).unwrap(); // cold pass warms cache + checkpoints
        }
        checker.append_rows(&append_table, &append_batch).unwrap();
        let start = Instant::now();
        let mut c = ScanCounters::default();
        let mut prints = Vec::with_capacity(part_texts.len());
        for t in &part_texts {
            let r = checker.check_text(t).unwrap();
            c.merge(&r.stats.scan);
            prints.push(r.content_fingerprint());
        }
        let reverify_ns = start.elapsed().as_nanos() as u64;
        assert_eq!(
            prints, append_reference,
            "{threads}-thread patched re-verification diverged from a cold checker \
             over the grown corpus"
        );
        (reverify_ns, c)
    };
    struct AppendVariant {
        name: &'static str,
        workers: u32,
        reverify_median_ns: u64,
        reverify_docs_per_sec: f64,
        /// The re-verification pass's counters (the patch work).
        scan: ScanCounters,
    }
    let append_variants: Vec<AppendVariant> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let name: &'static str = match threads {
                1 => "append_1w",
                2 => "append_2w",
                4 => "append_4w",
                _ => "append_8w",
            };
            let mut runs: Vec<(u64, ScanCounters)> =
                (0..samples.max(1)).map(|_| append_run(threads)).collect();
            runs.sort_unstable_by_key(|run| run.0);
            let (reverify_median_ns, c) = runs[runs.len() / 2];
            AppendVariant {
                name,
                workers: threads as u32,
                reverify_median_ns,
                reverify_docs_per_sec: part_docs as f64 / (reverify_median_ns as f64 / 1e9),
                scan: c,
            }
        })
        .collect();
    let first_append = &append_variants[0];
    assert!(
        first_append.scan.grids_patched > 0,
        "the re-verification never patched a grid — checkpoint capture or the \
         delta path is dead"
    );
    let append_patch_equal = append_variants.iter().all(|v| {
        (v.scan.delta_rows_scanned, v.scan.grids_patched)
            == (
                first_append.scan.delta_rows_scanned,
                first_append.scan.grids_patched,
            )
    });
    assert!(
        append_patch_equal,
        "patch work varied with the worker count — grids_patched/delta_rows_scanned \
         must be a pure function of the appended rows"
    );
    let append_delta_fraction =
        first_append.scan.delta_rows_scanned as f64 / append_cold_rows.max(1) as f64;
    assert!(
        append_delta_fraction < 0.10,
        "re-verifying after a 1% append scanned {:.1}% of what a cold run scans — \
         the delta path is not saving work",
        append_delta_fraction * 100.0
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"docs\": {docs},\n"));
    json.push_str(&format!("  \"db_rows\": {db_rows},\n"));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"case\": \"{}\",\n", case.name));
    json.push_str("  \"reports_identical\": true,\n");
    json.push_str("  \"variants\": [\n");
    for (i, v) in variants.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"workers\": {}, \"median_ns\": {}, \"docs_per_sec\": {:.2}, \"rows_scanned_per_run\": {}, \"rows_scanned_per_sec\": {:.0}, \"tasks_executed\": {}, \"tasks_deduped\": {}, \"singleflight_waits\": {}, \"scan_passes\": {}, \"fused_tasks_per_pass\": {:.1}}}{}\n",
            v.name,
            v.workers,
            v.median_ns,
            v.docs_per_sec,
            v.totals.rows_scanned,
            v.totals.rows_scanned as f64 / (v.median_ns as f64 / 1e9),
            v.totals.tasks_executed,
            v.totals.tasks_deduped,
            v.totals.singleflight_waits,
            v.totals.scan_passes,
            v.totals.fused_tasks_per_pass(),
            if i + 1 < variants.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"rows_scanned_equal_across_workers\": {dedup_exact},\n"
    ));
    json.push_str(&format!(
        "  \"scan_passes_equal_across_workers\": {passes_exact},\n"
    ));
    json.push_str(&format!(
        "  \"stream_rows_scanned_equal_across_workers\": {stream_rows_exact},\n"
    ));
    json.push_str(&format!(
        "  \"stream_scan_passes_equal_across_workers\": {stream_passes_exact},\n"
    ));
    json.push_str("  \"partitioned\": [\n");
    for (i, v) in part_variants.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads_requested\": {}, \"threads_used\": {}, \"effective_parallelism\": {:.2}, \"median_ns\": {}, \"docs_per_sec\": {:.2}, \"rows_scanned_per_run\": {}, \"scan_passes\": {}, \"partitions_scanned\": {}, \"partition_merges\": {}}}{}\n",
            v.name,
            v.threads_requested,
            v.threads_used,
            v.threads_used as f64 / v.threads_requested as f64,
            v.median_ns,
            v.docs_per_sec,
            v.scan.rows_scanned,
            v.scan.scan_passes,
            v.scan.partitions_scanned,
            v.scan.partition_merges,
            if i + 1 < part_variants.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"partition_corpus_rows\": {part_rows},\n"));
    json.push_str(&format!("  \"partition_docs\": {part_docs},\n"));
    // Reaching this point means the fingerprint asserts above all passed.
    json.push_str("  \"partition_fingerprints_match\": 1,\n");
    json.push_str(&format!(
        "  \"partition_rows_scanned_equal\": {},\n",
        partition_rows_equal as u8
    ));
    json.push_str(&format!(
        "  \"partition_scan_passes_equal\": {},\n",
        partition_passes_equal as u8
    ));
    json.push_str("  \"append_reverify\": [\n");
    for (i, v) in append_variants.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"workers\": {}, \"reverify_median_ns\": {}, \"reverify_docs_per_sec\": {:.2}, \"delta_rows_scanned\": {}, \"grids_patched\": {}, \"rows_scanned_reverify\": {}, \"rows_scanned_cold\": {}}}{}\n",
            v.name,
            v.workers,
            v.reverify_median_ns,
            v.reverify_docs_per_sec,
            v.scan.delta_rows_scanned,
            v.scan.grids_patched,
            v.scan.rows_scanned,
            append_cold_rows,
            if i + 1 < append_variants.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"append_corpus_rows\": {grown_rows},\n"));
    json.push_str(&format!(
        "  \"append_batch_rows\": {},\n",
        append_batch.len()
    ));
    // Reaching this point means the append fingerprint asserts passed.
    json.push_str("  \"append_fingerprints_match\": 1,\n");
    json.push_str(&format!(
        "  \"append_patch_work_equal\": {},\n",
        append_patch_equal as u8
    ));
    json.push_str(&format!(
        "  \"append_delta_fraction\": {append_delta_fraction:.4},\n"
    ));
    json.push_str(&format!(
        "  \"speedup_stream_vs_sequential_fresh\": {stream_speedup:.2},\n"
    ));
    json.push_str(&format!("  \"partial_rate\": {partial_rate:.2},\n"));
    json.push_str(&format!(
        "  \"speedup_batch_vs_sequential_fresh\": {speedup:.2}\n"
    ));
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("write BENCH_pipeline.json");
    print!("{json}");
    eprintln!(
        "wrote {out} (best batch variant is {speedup:.2}x sequential per-document verification)"
    );
}
