//! Cross-crate integration tests: corpus generation → verification →
//! metrics, plus the paper's hand-built cases end to end.

use agg_bench::runner::run_corpus;
use aggchecker::corpus::builtin::{all_builtin, campaign_donations, developer_survey};
use aggchecker::corpus::stats::align_claims;
use aggchecker::corpus::{generate_corpus, CorpusSpec};
use aggchecker::relational::execute_query;
use aggchecker::{AggChecker, CheckerConfig, Verdict};

#[test]
fn builtin_table9_cases_are_flagged() {
    // The paper's Table 9: each of these articles contains a claim its
    // author later confirmed to be wrong. The checker must flag all three.
    for tc in all_builtin() {
        let checker = AggChecker::new(tc.db.clone(), CheckerConfig::default()).unwrap();
        let report = checker.check_text(&tc.article_html).unwrap();
        let detected: Vec<f64> = report.claims.iter().map(|c| c.claimed_value).collect();
        let aligned = align_claims(&detected, &tc.ground_truth);
        for (g, slot) in tc.ground_truth.iter().zip(aligned) {
            let claim = &report.claims[slot.expect("claim detected")];
            if !g.is_correct {
                assert_eq!(
                    claim.verdict,
                    Verdict::Erroneous,
                    "{}: wrong claim {} must be flagged",
                    tc.name,
                    g.claimed_value
                );
            } else {
                assert_eq!(
                    claim.verdict,
                    Verdict::Correct,
                    "{}: correct claim {} must not be flagged",
                    tc.name,
                    g.claimed_value
                );
            }
        }
    }
}

#[test]
fn donations_ground_truth_ranks_first() {
    // The CountDistinct(recipient) query should be the checker's own top
    // suggestion for the donations claim.
    let tc = campaign_donations();
    let checker = AggChecker::new(tc.db.clone(), CheckerConfig::default()).unwrap();
    let report = checker.check_text(&tc.article_html).unwrap();
    let top = report.claims[0].ml_query().unwrap();
    assert!(
        top.query.semantically_equal(&tc.ground_truth[0].query),
        "top query was {}",
        top.query.to_sql(&tc.db)
    );
    assert_eq!(top.result, Some(63.0));
}

#[test]
fn survey_percentage_query_is_found_in_top_k() {
    let tc = developer_survey();
    let checker = AggChecker::new(tc.db.clone(), CheckerConfig::default()).unwrap();
    let report = checker.check_text(&tc.article_html).unwrap();
    let rank = report.claims[0]
        .top_queries
        .iter()
        .position(|rq| rq.query.semantically_equal(&tc.ground_truth[0].query));
    assert!(
        rank.is_some(),
        "Percentage(self-taught) must be a candidate"
    );
}

#[test]
fn reports_are_deterministic() {
    let tc = aggchecker::corpus::generate_test_case(&CorpusSpec::small(1, 99), 0);
    let run = |threads: usize| {
        let cfg = CheckerConfig {
            threads,
            ..CheckerConfig::default()
        };
        let checker = AggChecker::new(tc.db.clone(), cfg).unwrap();
        let report = checker.check_text(&tc.article_html).unwrap();
        report
            .claims
            .iter()
            .map(|c| {
                (
                    c.claimed_value.to_bits(),
                    c.verdict == Verdict::Erroneous,
                    c.ml_query().map(|q| q.query.to_sql(&tc.db)),
                )
            })
            .collect::<Vec<_>>()
    };
    let a = run(1);
    let b = run(1);
    let c = run(4);
    assert_eq!(a, b, "same-config reruns must agree");
    assert_eq!(a, c, "thread count must not change results");
}

#[test]
fn corpus_run_beats_baseline_shapes() {
    // A small corpus run must reproduce the paper's qualitative shape:
    // good top-10 coverage, decent recall, correct claims covered better
    // than incorrect ones.
    let corpus = generate_corpus(&CorpusSpec::small(12, 2024));
    let run = run_corpus(&corpus, &CheckerConfig::default());
    let cov = run.coverage();
    assert!(cov.at(10) > 0.5, "top-10 coverage {:.3}", cov.at(10));
    let (correct, incorrect) = run.coverage_split();
    if incorrect.total() >= 5 {
        // Small-sample slack: the paper's Figure 10 gap is large, but a
        // dozen articles only contain a handful of erroneous claims.
        assert!(
            correct.at(10) + 0.2 >= incorrect.at(10),
            "correct-claim coverage must dominate (Fig. 10 shape): {:.3} vs {:.3}",
            correct.at(10),
            incorrect.at(10)
        );
    }
}

#[test]
fn ground_truth_queries_always_evaluate() {
    let corpus = generate_corpus(&CorpusSpec::small(4, 7));
    for tc in &corpus {
        for g in &tc.ground_truth {
            let v = execute_query(&tc.db, &g.query)
                .expect("valid query")
                .expect("non-null result");
            assert!((v - g.true_value).abs() < 1e-9);
        }
    }
}

#[test]
fn checker_survives_adversarial_documents() {
    let tc = aggchecker::corpus::builtin::nfl_suspensions();
    let checker = AggChecker::new(tc.db.clone(), CheckerConfig::default()).unwrap();
    for text in [
        "",
        "no claims at all",
        "<p></p><h1></h1>",
        "<p>999999999999 and 0 and -5 and 3.14159</p>",
        "<h1>1</h1><h2>2</h2><h3>3</h3>",
        "<p>Sentence with 1,234,567 large and 0.00001 small numbers.</p>",
        "&amp;&lt;&gt; <p>busted &quot;entities&quot; with 3 claims</p>",
    ] {
        let report = checker.check_text(text).expect("no panic");
        // Every detected claim must carry a coherent verdict.
        for claim in &report.claims {
            if claim.verdict != Verdict::Unverifiable {
                assert!(!claim.top_queries.is_empty());
            }
            assert!((0.0..=1.0).contains(&claim.correctness_probability));
        }
    }
}

#[test]
fn join_cases_verify_across_tables() {
    // A two-table star schema: claims with predicates on the dimension
    // attribute force join-path discovery through the whole pipeline.
    let tc = aggchecker::corpus::generate_join_case(&CorpusSpec::small(1, 31), 0);
    assert_eq!(tc.db.table_count(), 2);
    let run = run_corpus(std::slice::from_ref(&tc), &CheckerConfig::default());
    assert!(!run.outcomes.is_empty());
    assert!(run.outcomes.iter().all(|o| o.detected));
    // The cross-table claims must be *resolvable*: their ground-truth query
    // appears among the top candidates for at least half of them.
    let cross: Vec<_> = tc
        .ground_truth
        .iter()
        .zip(&run.outcomes)
        .filter(|(g, _)| g.query.tables_referenced().len() > 1)
        .collect();
    assert!(!cross.is_empty());
    let found = cross.iter().filter(|(_, o)| o.truth_rank.is_some()).count();
    assert!(
        found * 2 >= cross.len(),
        "join queries must be reachable: {found}/{}",
        cross.len()
    );
}

// ---------------------------------------------------------------------------
// Golden reports
// ---------------------------------------------------------------------------

/// The four corpora the `examples/` programs run — Figure 2's NFL
/// passage, the two Table 9 cases (campaign donations, developer survey),
/// and the quickstart sales CSV. Each pairs a deterministic database with
/// a fixed article, so its full report fingerprint can be pinned.
fn golden_cases() -> Vec<(&'static str, aggchecker::relational::Database, String)> {
    use aggchecker::relational::csv::load_csv;
    use aggchecker::relational::Database;

    let nfl = aggchecker::corpus::builtin::nfl_suspensions();
    let donations = campaign_donations();
    let survey = developer_survey();

    // The quickstart example's data set and write-up — the same files
    // `examples/quickstart.rs` includes, so the fixture can never drift
    // from what the example actually runs.
    let csv = include_str!("../examples/data/quickstart_sales.csv");
    let article = include_str!("../examples/data/quickstart_article.html");
    let table = load_csv("sales", csv).unwrap();
    let mut sales_db = Database::new("quickstart");
    sales_db.add_table(table);

    vec![
        ("nfl_suspensions", nfl.db, nfl.article_html),
        ("campaign_donations", donations.db, donations.article_html),
        ("developer_survey", survey.db, survey.article_html),
        ("quickstart_sales", sales_db, article.to_string()),
    ]
}

/// Golden-report snapshots: the `content_fingerprint()` of each example
/// corpus is pinned in `tests/golden/`, so any change that shifts a
/// verdict, a ranking, a probability, or a query description fails loudly
/// with a named corpus instead of silently drifting. Regenerate
/// intentionally with `UPDATE_GOLDEN=1 cargo test golden_reports`.
///
/// `generated_solo` pins the paper's deployment shape on generated data:
/// one digest over [`generated_solo_fingerprints`]. The hand-built corpora
/// carry few `CountDistinct`/`Median` cubes; these articles carry many, so
/// a drift in how cubes are finished fails here too.
#[test]
fn golden_reports_match_fixtures() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    let mut pinned: Vec<(&str, String)> = golden_cases()
        .into_iter()
        .map(|(name, db, article)| {
            let checker = AggChecker::new(db, CheckerConfig::default()).unwrap();
            let report = checker.check_text(&article).unwrap();
            assert!(
                !report.claims.is_empty(),
                "{name}: a golden corpus must contain claims"
            );
            (name, report.content_fingerprint())
        })
        .collect();
    pinned.push(("generated_solo", digest(&generated_solo_fingerprints())));
    for (name, fingerprint) in pinned {
        let path = dir.join(format!("{name}.fingerprint"));
        if update {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &fingerprint).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden fixture {} ({e}); \
                 run UPDATE_GOLDEN=1 cargo test golden_reports to create it",
                path.display()
            )
        });
        assert_eq!(
            fingerprint, expected,
            "{name}: report content drifted from tests/golden/{name}.fingerprint — \
             if the change is intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test golden_reports"
        );
    }
}

/// The first 24 articles of the paper's deployment as the benchmark's
/// `paper_solo` lays it out (every 13th a two-table join case, 8 claims
/// each, table sizes on a fixed 60–600-row ladder), generated at
/// `CorpusSpec::default().seed` and each verified by a fresh checker over
/// its own database. Returns each report's `content_fingerprint()`.
fn generated_solo_fingerprints() -> Vec<String> {
    const LADDER: usize = 150;
    let base = CorpusSpec::default();
    (0..24)
        .map(|i| {
            let rows =
                base.min_rows + (i * 37 % LADDER) * (base.max_rows - base.min_rows) / (LADDER - 1);
            let spec = CorpusSpec {
                n_articles: LADDER,
                min_rows: rows,
                max_rows: rows,
                min_claims: 8,
                max_claims: 8,
                ..base.clone()
            };
            let case = if i % 13 == 4 {
                aggchecker::corpus::generate_join_case(&spec, i)
            } else {
                aggchecker::corpus::generate_test_case(&spec, i)
            };
            let checker = AggChecker::new(case.db, CheckerConfig::default()).unwrap();
            checker
                .check_text(&case.article_html)
                .unwrap()
                .content_fingerprint()
        })
        .collect()
}

/// FNV-1a over the fingerprints, each terminated by a newline, as 16 hex
/// digits.
fn digest(fingerprints: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for fp in fingerprints {
        for b in fp.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The golden corpora stream bit-identically too: the fixtures pin not
/// just solo runs but the whole service surface.
#[test]
fn golden_reports_hold_under_streaming() {
    use aggchecker::{StreamConfig, StreamingVerifier};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    for (name, db, article) in golden_cases() {
        let path = dir.join(format!("{name}.fingerprint"));
        let Ok(expected) = std::fs::read_to_string(&path) else {
            // `golden_reports_match_fixtures` owns the missing-fixture error.
            continue;
        };
        let service = StreamingVerifier::new(
            db,
            CheckerConfig::default(),
            StreamConfig {
                workers: 4,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let tickets: Vec<_> = (0..3)
            .map(|_| service.submit_text(&article).unwrap())
            .collect();
        for ticket in tickets {
            assert_eq!(
                ticket.wait().unwrap().content_fingerprint(),
                expected,
                "{name}: streamed report drifted from the golden fixture"
            );
        }
    }
}

/// `AggChecker::check_text` re-composed from the public functions of each
/// layer, the way the traced benchmark run does it
/// (`benchmark/src/replay.rs`): solo execution shape, one wave per EM
/// iteration, the report rebuilt by hand. Returns the report's
/// `content_fingerprint()`.
fn replayed_fingerprint(db: aggchecker::relational::Database, text: &str) -> String {
    use aggchecker::core::evaluate::document_literal_union;
    use aggchecker::core::matching::{match_claim_with_form, ClaimScores};
    use aggchecker::core::model::{m_step, score_claim, ClaimDistribution};
    use aggchecker::core::scope::pick_scope;
    use aggchecker::core::{
        claim_keywords, matches_claim, Candidate, CandidateSet, CatalogConfig, EvalStats,
        Evaluator, FragmentCatalog, ResultsMatrix, RunStats, TaskBundling, Theta,
    };
    use aggchecker::nlp::claims::detect_claims;
    use aggchecker::nlp::structure::parse_document;
    use aggchecker::nlp::synonyms::SynonymDict;
    use aggchecker::relational::{CostModel, EvalCache};
    use aggchecker::{CheckedClaim, RankedQuery, ReportStatus, VerificationReport};
    use std::sync::Arc;

    let cfg = CheckerConfig::default();
    let catalog = FragmentCatalog::build(&db, &CatalogConfig::default());
    let cost = CostModel::new(&db);
    let db = Arc::new(db);
    let synonyms = SynonymDict::embedded();
    let cache = EvalCache::new();

    let doc = parse_document(text);
    let claims = detect_claims(&doc, &cfg.claim_detector);
    let scores: Vec<ClaimScores> = claims
        .iter()
        .map(|claim| {
            let kws = claim_keywords(&doc, claim, &synonyms, &cfg.context, cfg.synonym_weight);
            match_claim_with_form(&catalog, &kws, cfg.lucene_hits, claim.number.is_percentage)
        })
        .collect();

    let mut theta = Theta::uniform(
        catalog.functions.len(),
        catalog.agg_columns.len(),
        catalog.predicate_columns.len(),
    );
    let mut em_iterations = 0usize;
    let mut eval_stats = EvalStats::default();
    let mut final_state: Vec<(CandidateSet, ResultsMatrix, ClaimDistribution)> = Vec::new();
    for _ in 0..cfg.max_em_iterations {
        em_iterations += 1;
        let candidate_sets: Vec<CandidateSet> = scores
            .iter()
            .map(|s| {
                let scope = pick_scope(
                    &catalog,
                    s,
                    Some(&theta),
                    &cost,
                    db.total_rows(),
                    &cfg.scope,
                );
                CandidateSet::enumerate(
                    &catalog,
                    &scope,
                    cfg.max_predicates,
                    cfg.max_combos_per_claim,
                )
            })
            .collect();

        let mut evaluator = Evaluator::new(&db, &catalog, Some(cache.clone()));
        evaluator.set_threads(cfg.threads);
        evaluator.set_bundling(TaskBundling::Wave);
        evaluator.set_fusion(cfg.fuse_scans);
        evaluator.set_partition_blocks(cfg.partition_blocks);
        evaluator.set_document_literals(document_literal_union(
            catalog.predicate_columns.len(),
            candidate_sets
                .iter()
                .flat_map(|set| set.combos.iter())
                .flat_map(|combo| combo.iter().map(|(c, l)| (*c as usize, *l as usize))),
        ));
        let results = evaluator.evaluate_all(&candidate_sets).unwrap();
        eval_stats.merge(&evaluator.stats);

        let distributions: Vec<ClaimDistribution> = (0..claims.len())
            .map(|i| {
                score_claim(
                    &catalog,
                    &scores[i],
                    &candidate_sets[i],
                    &results[i],
                    Some(&theta),
                    &claims[i].number,
                    &cfg,
                )
            })
            .collect();
        let ml: Vec<(Option<Candidate>, &CandidateSet)> = distributions
            .iter()
            .zip(&candidate_sets)
            .map(|(d, set)| (d.ml(), set))
            .collect();
        let new_theta = m_step(&catalog, &ml, cfg.prior_smoothing);
        let converged = theta.max_change(&new_theta) < cfg.em_epsilon;
        theta = new_theta;

        final_state = candidate_sets
            .into_iter()
            .zip(results)
            .zip(distributions)
            .map(|((set, res), dist)| (set, res, dist))
            .collect();
        if converged {
            break;
        }
    }

    let checked: Vec<CheckedClaim> = claims
        .iter()
        .zip(&final_state)
        .map(|(claim, (set, results, dist))| {
            let sentence = doc
                .section(&claim.section)
                .and_then(|s| s.paragraphs.get(claim.paragraph))
                .and_then(|p| p.sentences.get(claim.sentence))
                .map(|s| s.text.clone())
                .unwrap_or_default();
            let top_queries: Vec<RankedQuery> = dist
                .top
                .iter()
                .map(|(cand, prob)| {
                    let query = set.to_query(&catalog, *cand);
                    let result = results.get(cand.combo as usize, cand.pair as usize);
                    RankedQuery {
                        description: query.describe(&db),
                        matches: result.is_some_and(|r| matches_claim(r, &claim.number)),
                        query,
                        probability: *prob,
                        result,
                    }
                })
                .collect();
            let verdict = match top_queries.first() {
                None => Verdict::Unverifiable,
                Some(ml) if ml.matches => Verdict::Correct,
                Some(_) => Verdict::Erroneous,
            };
            CheckedClaim {
                mention: claim.clone(),
                sentence,
                claimed_value: claim.number.value,
                top_queries,
                correctness_probability: dist.correctness,
                verdict,
            }
        })
        .collect();
    VerificationReport {
        claims: checked,
        stats: RunStats {
            claims: claims.len(),
            em_iterations,
            candidates_evaluated: eval_stats.candidates_evaluated,
            ..RunStats::default()
        },
        status: ReportStatus::Complete,
    }
    .content_fingerprint()
}

/// The benchmark's traced run replays `check_text` layer by layer from
/// public functions and fails every operation whose replayed fingerprint
/// differs. The same composition is held to the golden fixtures here, so a
/// public function that drifts from what the pipeline does inside — or a
/// signature the replay can no longer call — fails `cargo test` before the
/// external benchmark sees it.
#[test]
fn public_function_replay_matches_check_text_on_golden_reports() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    for (name, db, article) in golden_cases() {
        let replayed = replayed_fingerprint(db.clone(), &article);
        let checker = AggChecker::new(db, CheckerConfig::default()).unwrap();
        let real = checker.check_text(&article).unwrap().content_fingerprint();
        assert_eq!(replayed, real, "{name}: replay differs from check_text");
        let golden = std::fs::read_to_string(dir.join(format!("{name}.fingerprint"))).unwrap();
        assert_eq!(replayed, golden, "{name}: replay differs from the fixture");
    }
}

#[test]
fn experiments_registry_smoke() {
    use agg_bench::experiments::{run_experiment, ExpContext, Scale};
    let ctx = ExpContext::new(Scale::Quick, 5);
    // The cheap, corpus-analysis experiments must run and mention their
    // paper artifact.
    for (name, needle) in [
        ("fig8", "query candidates"),
        ("fig9a", "Distribution of claims"),
        ("fig9b", "top-N"),
        ("fig9c", "predicates"),
    ] {
        let out = run_experiment(name, &ctx).expect("known experiment");
        assert!(out.contains(needle), "{name}: {out}");
    }
}

// ---------------------------------------------------------------------------
// Accuracy pin
// ---------------------------------------------------------------------------

/// Precision/recall/F1 and top-1/5/10 coverage as six-decimal text, the
/// form the pins below are written in.
fn accuracy_line(run: &agg_bench::runner::CorpusRun) -> String {
    let c = run.confusion();
    let cov = run.coverage();
    format!(
        "claims {} tp {} fp {} fn {} | p {:.6} r {:.6} f1 {:.6} | top1 {:.6} top5 {:.6} top10 {:.6}",
        c.total(),
        c.true_positives,
        c.false_positives,
        c.false_negatives,
        c.precision(),
        c.recall(),
        c.f1(),
        cov.at(1),
        cov.at(5),
        cov.at(10),
    )
}

/// The reproduction's accuracy numbers (paper Tables 5/10, Fig. 10) are a
/// pure function of the corpus and the default configuration, so they are
/// pinned as literals: a change to planning, evaluation or scoring that
/// trades accuracy for speed fails here, by name, before any benchmark
/// runs. The built-in cases carry no seed; the generated corpus is drawn at
/// `CorpusSpec::default().seed`.
#[test]
fn accuracy_is_pinned_at_the_default_seed() {
    let builtin = run_corpus(&all_builtin(), &CheckerConfig::default());
    assert_eq!(accuracy_line(&builtin), "claims 5 tp 3 fp 0 fn 0 | p 1.000000 r 1.000000 f1 1.000000 | top1 0.400000 top5 0.600000 top10 0.600000");
    let spec = CorpusSpec::small(16, CorpusSpec::default().seed);
    let generated = run_corpus(&generate_corpus(&spec), &CheckerConfig::default());
    assert_eq!(accuracy_line(&generated), "claims 84 tp 2 fp 0 fn 6 | p 1.000000 r 0.250000 f1 0.400000 | top1 0.738095 top5 0.904762 top10 0.952381");
}
