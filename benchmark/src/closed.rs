//! The three closed-loop workloads: one thread verifies a fixed, seeded
//! list of operations pass after pass.

use crate::inputs::{SharedCase, SoloCase};
use crate::measure::{cpu_ms, median, ms, percentile, run_passes, OpSeries};
use crate::outcome::{core_layers, fingerprint, repeat_setup, Outcome, WARMUP_DOCS};
use crate::replay::Engine;
use crate::trace::{mean, Tracer};
use agg_core::{AggChecker, CheckerConfig, CheckerError, VerificationReport};
use agg_relational::csv::load_csv;
use agg_relational::{Table, Value};
use std::hint::black_box;
use std::time::Instant;

/// Passes every closed loop makes at least, so an operation's estimate is
/// the better of two repetitions even when one pass outlasts `--seconds`.
/// Seed-to-seed spread falls with the number of *documents*, run-to-run
/// noise with the number of *repetitions*; at ~15 s the first is three times
/// the second, so the list is sized for two passes rather than six.
const MIN_PASSES: usize = 2;
/// A traced pass is an untraced pass plus a replayed one.
const MIN_TRACED_PASSES: usize = 1;

fn min_passes(trace: bool) -> usize {
    if trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    }
}

type Checked = Result<VerificationReport, CheckerError>;

/// Set-up of the workloads over one shared table: load it, build the
/// checker, verify the first `warmup` articles.
fn warmed_checker(case: &SharedCase, cfg: &CheckerConfig, warmup: usize) -> AggChecker {
    let checker = AggChecker::new(case.load(), cfg.clone()).expect("checker over the table");
    for article in case.articles.iter().take(warmup) {
        black_box(
            checker
                .check_text(&article.text)
                .expect("warm-up verification"),
        );
    }
    checker
}

/// Time `load_csv` and, on its own, the sealing it ends with.
fn load_layers(case: &SharedCase, out: &mut Outcome) {
    let started = Instant::now();
    let mut table = load_csv(&case.table_name, &case.csv).expect("generated CSV loads");
    out.layers
        .insert("relational.csv.load_s", started.elapsed().as_secs_f64());
    table.unseal();
    let started = Instant::now();
    table.seal();
    out.layers
        .insert("relational.table.seal_s", started.elapsed().as_secs_f64());
}

/// One operation of a pass: `real`, and in a traced run its `replay` right
/// beside it. Whichever of the two runs second finds the document's working
/// set in cache, and a burst of interference hits both alike, so they take
/// turns at going first and the replayed ÷ untraced ratio stays fair.
pub fn beside<T>(i: usize, replay: Option<impl FnOnce()>, real: impl FnOnce() -> T) -> T {
    match replay {
        None => real(),
        Some(replay) if i.is_multiple_of(2) => {
            let out = real();
            replay();
            out
        }
        Some(replay) => {
            replay();
            real()
        }
    }
}

/// Fail every operation whose replayed report differs from the reference.
fn check_replays(
    out: &mut Outcome,
    workload: &str,
    replayed: &[Option<u64>],
    reference: &[Option<u64>],
) {
    for (i, fp) in replayed.iter().enumerate() {
        if fp.is_some() && *fp != reference[i] {
            out.tally.fail(format!(
                "{workload} doc {i}: replay differs from check_text"
            ));
        }
    }
}

/// `paper_solo`: a fresh checker over the article's own database for every
/// verification. Every cube is a miss on a tiny relation, so per-cube fixed
/// cost and the catalog build are paid in full; stream and server are
/// bypassed.
pub fn paper_solo(cases: &[SoloCase], seconds: f64, trace: bool) -> Outcome {
    let cfg = CheckerConfig::default();
    let verify = |case: &SoloCase| -> Checked {
        AggChecker::new(case.db.clone(), cfg.clone())?.check_text(&case.article.text)
    };
    let mut out = Outcome::new();
    // Nothing outlives a verification here, so set-up is the warm-up alone.
    (out.setup_s, _) = repeat_setup(trace, || {
        for case in cases.iter().take(WARMUP_DOCS) {
            black_box(verify(case).expect("warm-up verification"));
        }
    });

    let n = cases.len();
    let mut series = OpSeries::new(n);
    let mut reference: Vec<Option<u64>> = vec![None; n];
    let mut cpu = 0.0;
    let mut tracer = trace.then(Tracer::new);
    let mut replayed: Vec<Option<u64>> = vec![None; n];
    let passes = run_passes(seconds, min_passes(trace), |pass| {
        let cpu0 = cpu_ms();
        let results: Vec<Checked> = cases
            .iter()
            .enumerate()
            .map(|(i, case)| {
                let replay = tracer.as_mut().map(|tr| {
                    let slot = &mut replayed[i];
                    let cfg = &cfg;
                    move || {
                        tr.set_pass(pass);
                        let root = tr.begin("doc", i, None);
                        let engine = Engine::build(case.db.clone(), cfg, None, tr, i, root);
                        let report = engine.check_text(&case.article.text, tr, i, root);
                        // The real operation drops its checker inside the
                        // timer too.
                        drop(engine);
                        tr.end(root);
                        *slot = Some(fingerprint(&report));
                    }
                });
                beside(i, replay, || {
                    let started = Instant::now();
                    let result = verify(case);
                    series.record(i, ms(started.elapsed()));
                    result
                })
            })
            .collect();
        cpu += cpu_ms() - cpu0;
        // Every operation is a cold solo run, so the first pass is the
        // reference the later ones must reproduce.
        for (i, result) in results.iter().enumerate() {
            let what = || format!("paper_solo doc {i} pass {pass}");
            if let Some((report, fp)) = out.tally.check(what, result, reference[i]) {
                if reference[i].is_none() {
                    reference[i] = Some(fp);
                    out.accuracy.record(report, &cases[i].article.truth);
                }
            }
        }
        check_replays(&mut out, "paper_solo", &replayed, &reference);
    });

    let estimates = series.estimates();
    out.docs_per_s = n as f64 / (estimates.iter().sum::<f64>() / 1e3);
    if let Some(tr) = tracer {
        core_layers(&tr, mean(&estimates), &mut out.layers);
        out.tracer = Some(tr);
    }
    out.cpu_ms_per_doc = cpu / (n * passes) as f64;
    out.op_ms = estimates;
    out
}

/// `shared_warm`: many articles over one small table, one checker, the
/// cache made resident before timing. Scans zero rows and executes zero
/// cubes, so what remains is planning, probing, demultiplexing and EM —
/// where the incremental candidate plane must show and a cube-kernel
/// change must not.
pub fn shared_warm(case: &SharedCase, seconds: f64, trace: bool) -> Outcome {
    let cfg = CheckerConfig::default();
    let mut out = Outcome::new();
    let (setup_s, checker) = repeat_setup(trace, || warmed_checker(case, &cfg, WARMUP_DOCS));
    out.setup_s = setup_s;

    // First touch of every document: makes the cache resident and yields
    // the reference every timed repetition must reproduce.
    let n = case.articles.len();
    let mut reference: Vec<Option<u64>> = vec![None; n];
    for (i, article) in case.articles.iter().enumerate() {
        let result = checker.check_text(&article.text);
        let what = || format!("shared_warm doc {i} first touch");
        if let Some((report, fp)) = out.tally.check(what, &result, None) {
            reference[i] = Some(fp);
            out.accuracy.record(report, &article.truth);
        }
    }

    let mut traced = trace.then(|| {
        load_layers(case, &mut out);
        let (engine, setup) =
            Engine::for_case(case, &cfg, Some(checker.cache().clone()), Instant::now());
        let tr = Tracer::starting_at(setup.t0());
        (engine, tr, setup)
    });

    let mut series = OpSeries::new(n);
    let mut cpu = 0.0;
    let mut replayed: Vec<Option<u64>> = vec![None; n];
    let passes = run_passes(seconds, min_passes(trace), |pass| {
        let cpu0 = cpu_ms();
        let results: Vec<Checked> = case
            .articles
            .iter()
            .enumerate()
            .map(|(i, article)| {
                let replay = traced.as_mut().map(|(engine, tr, _)| {
                    let slot = &mut replayed[i];
                    move || {
                        tr.set_pass(pass);
                        let report = engine.check_doc("doc", &article.text, tr, i);
                        *slot = Some(fingerprint(&report));
                    }
                });
                beside(i, replay, || {
                    let started = Instant::now();
                    let result = checker.check_text(&article.text);
                    series.record(i, ms(started.elapsed()));
                    result
                })
            })
            .collect();
        cpu += cpu_ms() - cpu0;
        for (i, result) in results.iter().enumerate() {
            let what = || format!("shared_warm doc {i} pass {pass}");
            out.tally.check(what, result, reference[i]);
        }
        check_replays(&mut out, "shared_warm", &replayed, &reference);
    });

    let estimates = series.estimates();
    out.docs_per_s = n as f64 / (estimates.iter().sum::<f64>() / 1e3);
    if let Some((_, mut tr, setup)) = traced {
        core_layers(&tr, mean(&estimates), &mut out.layers);
        tr.absorb(setup, SETUP_OPS);
        out.tracer = Some(tr);
    }
    out.cpu_ms_per_doc = cpu / (n * passes) as f64;
    out.op_ms = estimates;
    out
}

/// Operation-id offsets that keep the kinds of `scan_append` operations
/// (and every workload's set-up spans) apart in the span file.
const REVERIFY_OPS: u32 = 1000;
const APPEND_OPS: u32 = 3000;
pub const SETUP_OPS: u32 = 9000;

/// Documents re-verified cold after the last round.
const FINAL_COLD_CHECKS: usize = 8;
/// Rows appended per round.
const APPEND_ROWS: usize = 2048;

fn tail_rows(table: &Table, rows: usize) -> Vec<Vec<Value>> {
    let n = table.row_count();
    (n - rows.min(n)..n)
        .map(|r| (0..table.column_count()).map(|c| table.get(r, c)).collect())
        .collect()
}

/// `scan_append`: one table large enough that row work dominates, used two
/// ways at once. Each round verifies every article cold (cache cleared
/// before each: the operations `doc_ms_*` report), verifies them again to
/// make the cache resident, appends rows cloned from the table's tail, and
/// re-verifies every article over the patched grids. `docs_per_s` counts
/// every verification against the whole round, append included, so a
/// read-side gain bought with heavier sealing, encoding or patching shows
/// up as a write-side loss.
pub fn scan_append(case: &SharedCase, seconds: f64, trace: bool) -> Outcome {
    let cfg = CheckerConfig::default();
    let mut out = Outcome::new();
    // Cold verifications here take ~130 ms each: a quarter of the usual
    // warm-up keeps three set-ups within a few seconds.
    let warmup = WARMUP_DOCS / 4;
    let (setup_s, mut checker) = repeat_setup(trace, || warmed_checker(case, &cfg, warmup));
    out.setup_s = setup_s;
    let table_name = case.table_name.as_str();

    let mut traced = trace.then(|| {
        load_layers(case, &mut out);
        let (engine, setup) = Engine::for_case(case, &cfg, None, Instant::now());
        let cold = Tracer::starting_at(setup.t0());
        let delta = Tracer::starting_at(setup.t0());
        (engine, cold, delta, setup)
    });

    let n = case.articles.len();
    let mut cold = OpSeries::new(n);
    let mut warm = OpSeries::new(n);
    let mut append = OpSeries::new(1);
    let mut reverify = OpSeries::new(n);
    // What the previous round's patched re-verification produced: the
    // next round's cold runs are over the same snapshot and must agree.
    let mut patched: Vec<Option<u64>> = vec![None; n];
    let mut replayed: Vec<Option<u64>> = vec![None; n];
    let mut cpu = 0.0;
    let texts: Vec<&str> = case.articles.iter().map(|a| a.text.as_str()).collect();

    let rounds = run_passes(seconds, min_passes(trace), |round| {
        let cpu0 = cpu_ms();
        let timed = |series: &mut OpSeries, i: usize, checker: &AggChecker| -> Checked {
            let started = Instant::now();
            let result = checker.check_text(texts[i]);
            series.record(i, ms(started.elapsed()));
            result
        };
        let cold_results: Vec<Checked> = (0..n)
            .map(|i| {
                let replay = traced.as_mut().map(|(engine, tr, _, _)| {
                    let slot = &mut replayed[i];
                    let text = texts[i];
                    move || {
                        tr.set_pass(round);
                        engine.cache().clear();
                        *slot = Some(fingerprint(&engine.check_doc("doc", text, tr, i)));
                    }
                });
                beside(i, replay, || {
                    checker.cache().clear();
                    timed(&mut cold, i, &checker)
                })
            })
            .collect();
        let warm_results: Vec<Checked> = (0..n).map(|i| timed(&mut warm, i, &checker)).collect();
        let rows = tail_rows(checker.db().table(0), APPEND_ROWS);
        let started = Instant::now();
        let appended = checker.append_rows(table_name, &rows);
        append.record(0, ms(started.elapsed()));
        let reverify_results: Vec<Checked> =
            (0..n).map(|i| timed(&mut reverify, i, &checker)).collect();
        cpu += cpu_ms() - cpu0;

        out.tally.attempted += 1;
        if !matches!(appended, Ok(r) if r == rows.len()) {
            out.tally
                .fail(format!("scan_append round {round}: append failed"));
        }
        for i in 0..n {
            let what = || format!("scan_append doc {i} round {round} cold");
            let checked = out.tally.check(what, &cold_results[i], patched[i]);
            let cold_fp = checked.map(|(report, fp)| {
                if round == 0 {
                    out.accuracy.record(report, &case.articles[i].truth);
                }
                fp
            });
            let what = || format!("scan_append doc {i} round {round} resident");
            out.tally.check(what, &warm_results[i], cold_fp);
            let what = || format!("scan_append doc {i} round {round} re-verify");
            patched[i] = out
                .tally
                .check(what, &reverify_results[i], None)
                .map(|(_, fp)| fp);
        }

        // Each replay ran over the same snapshot as the cold run beside it.
        let cold_fps: Vec<Option<u64>> = cold_results
            .iter()
            .map(|r| r.as_ref().ok().map(fingerprint))
            .collect();
        check_replays(&mut out, "scan_append", &replayed, &cold_fps);
        if let Some((engine, _, delta, _)) = traced.as_mut() {
            delta.set_pass(round);
            // The resident pass feeds no metric; its spans are dropped.
            let mut scratch = Tracer::new();
            for (i, text) in texts.iter().enumerate() {
                engine.check_doc("doc.resident", text, &mut scratch, i);
            }
            let root = delta.begin("append", APPEND_OPS as usize, None);
            engine.append_rows(table_name, &rows, delta, APPEND_OPS as usize, root);
            delta.end(root);
            for (i, text) in texts.iter().enumerate() {
                engine.check_doc("doc.reverify", text, delta, REVERIFY_OPS as usize + i);
            }
        }
    });

    // The last round's patched reports against a cold run over the final
    // snapshot (earlier rounds were checked by the round after them); a
    // few documents suffice, every round before checked them all.
    for (i, text) in texts.iter().enumerate().take(FINAL_COLD_CHECKS) {
        checker.cache().clear();
        let result = checker.check_text(text);
        let what = || format!("scan_append doc {i} final cold");
        out.tally.check(what, &result, patched[i]);
    }

    let estimates = cold.estimates();
    let round_ms: f64 = [&cold, &warm, &append, &reverify]
        .iter()
        .map(|s| s.estimates().iter().sum::<f64>())
        .sum();
    out.docs_per_s = (3 * n) as f64 / (round_ms / 1e3);
    if let Some((_, mut tr, delta, setup)) = traced {
        core_layers(&tr, mean(&estimates), &mut out.layers);
        out.layers.insert(
            "relational.table.append_ms_p50",
            median(&append.estimates()),
        );
        out.layers.insert(
            "core.reverify_ms_p50",
            percentile(&reverify.estimates(), 0.5),
        );
        // `delta` holds counts of the re-verifications only.
        let patched_grids = delta.count_total(|c| c.eval.grids_patched);
        let delta_rows = delta.count_total(|c| c.eval.delta_rows_scanned);
        let cold_rows = tr.count_total(|c| c.eval.rows_scanned);
        out.layers.insert(
            "relational.cube.grids_patched",
            patched_grids as f64 / rounds as f64,
        );
        out.layers.insert(
            "relational.cube.delta_rows_ratio",
            if cold_rows > 0 {
                delta_rows as f64 / cold_rows as f64
            } else {
                0.0
            },
        );
        tr.absorb(delta, 0);
        tr.absorb(setup, SETUP_OPS);
        out.tracer = Some(tr);
    }
    out.cpu_ms_per_doc = cpu / (3 * n * rounds) as f64;
    out.op_ms = estimates;
    out
}
