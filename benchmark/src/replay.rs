//! The traced run's re-composition of `AggChecker::check_text`, built only
//! from public functions so that a span can sit around every call into a
//! layer. It follows `agg_core::pipeline::check_document_with` step for
//! step (solo execution shape: per-wave pool of `threads`, `Wave`
//! bundling) and rebuilds the report the same way, so its
//! `content_fingerprint()` must equal the real checker's — the traced run
//! asserts that for every operation.

use crate::trace::{OpCounts, Tracer};
use agg_core::candidates::{Candidate, CandidateSet};
use agg_core::evaluate::document_literal_union;
use agg_core::matching::{match_claim_with_form, ClaimScores};
use agg_core::model::{m_step, score_claim, ClaimDistribution};
use agg_core::scope::pick_scope;
use agg_core::{
    claim_keywords, matches_claim, CatalogConfig, CheckedClaim, CheckerConfig, EvalStats,
    EvalStrategy, Evaluator, FragmentCatalog, RankedQuery, ReportStatus, ResultsMatrix, RunStats,
    TaskBundling, Theta, Verdict, VerificationReport,
};
use agg_nlp::claims::detect_claims;
use agg_nlp::structure::parse_document;
use agg_nlp::synonyms::SynonymDict;
use agg_relational::{CostModel, Database, EvalCache, Value, DEFAULT_CACHE_SHARDS};
use std::sync::Arc;
use std::time::Instant;

/// What `AggChecker` holds, held by the benchmark so each piece can be
/// built and called under its own span.
pub struct Engine {
    db: Arc<Database>,
    catalog: FragmentCatalog,
    cost: CostModel,
    synonyms: SynonymDict,
    cache: EvalCache,
    cfg: CheckerConfig,
}

impl Engine {
    /// [`Engine::build`] over a shared case's table, under a `setup` root
    /// span in a tracer of its own (set-up is not part of any document)
    /// whose clock starts at `t0`, like the run's other tracers.
    pub fn for_case(
        case: &crate::inputs::SharedCase,
        cfg: &CheckerConfig,
        cache: Option<EvalCache>,
        t0: Instant,
    ) -> (Engine, Tracer) {
        let mut setup = Tracer::starting_at(t0);
        let root = setup.begin("setup", 0, None);
        let engine = Engine::build(case.load(), cfg, cache, &mut setup, 0, root);
        setup.end(root);
        (engine, setup)
    }

    /// `AggChecker::new`, with the catalog build under its own span.
    /// `cache` lets the replay probe a cache the real checker already made
    /// resident (a clone shares storage; keys carry the database version,
    /// which loading the same table the same way reproduces).
    pub fn build(
        db: Database,
        cfg: &CheckerConfig,
        cache: Option<EvalCache>,
        tr: &mut Tracer,
        op: usize,
        parent: u32,
    ) -> Engine {
        cfg.validate().expect("default configuration is valid");
        db.validate().expect("generated database is valid");
        assert!(
            cfg.strategy != EvalStrategy::Naive,
            "the replay covers the merged strategies the benchmark runs"
        );
        let catalog = tr.call("core.fragments.build", op, parent, || {
            FragmentCatalog::build(&db, &CatalogConfig::default())
        });
        let cost = CostModel::new(&db);
        let shards = if cfg.cache_shards == 0 {
            DEFAULT_CACHE_SHARDS
        } else {
            cfg.cache_shards
        };
        Engine {
            db: Arc::new(db),
            catalog,
            cost,
            synonyms: SynonymDict::embedded(),
            cache: cache.unwrap_or_else(|| EvalCache::with_shards(shards)),
            cfg: cfg.clone(),
        }
    }

    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// `AggChecker::append_rows`: the table append and the catalog rebuild
    /// each under a span.
    pub fn append_rows(
        &mut self,
        table: &str,
        rows: &[Vec<Value>],
        tr: &mut Tracer,
        op: usize,
        parent: u32,
    ) {
        let db = Arc::make_mut(&mut self.db);
        tr.call("relational.table.append", op, parent, || {
            db.append_rows(table, rows).expect("append to sealed table")
        });
        self.catalog = tr.call("core.fragments.build", op, parent, || {
            FragmentCatalog::build(db, &CatalogConfig::default())
        });
        self.cost = CostModel::new(db);
    }

    /// [`Engine::check_text`] under a root span called `root` that covers
    /// the whole operation.
    pub fn check_doc(
        &self,
        root: &'static str,
        text: &str,
        tr: &mut Tracer,
        op: usize,
    ) -> VerificationReport {
        let span = tr.begin(root, op, None);
        let report = self.check_text(text, tr, op, span);
        tr.end(span);
        report
    }

    /// `AggChecker::check_text`, one span per call into a layer, plus the
    /// evaluator's counts for this operation.
    pub fn check_text(
        &self,
        text: &str,
        tr: &mut Tracer,
        op: usize,
        parent: u32,
    ) -> VerificationReport {
        let started = Instant::now();
        let cfg = &self.cfg;
        let doc = tr.call("nlp.parse", op, parent, || parse_document(text));
        let claims = tr.call("nlp.detect", op, parent, || {
            detect_claims(&doc, &cfg.claim_detector)
        });
        let n = claims.len();

        let scores: Vec<ClaimScores> = claims
            .iter()
            .map(|claim| {
                let kws = tr.call("core.keywords", op, parent, || {
                    claim_keywords(
                        &doc,
                        claim,
                        &self.synonyms,
                        &cfg.context,
                        cfg.synonym_weight,
                    )
                });
                tr.call("core.matching", op, parent, || {
                    match_claim_with_form(
                        &self.catalog,
                        &kws,
                        cfg.lucene_hits,
                        claim.number.is_percentage,
                    )
                })
            })
            .collect();

        let mut theta = Theta::uniform(
            self.catalog.functions.len(),
            self.catalog.agg_columns.len(),
            self.catalog.predicate_columns.len(),
        );
        let mut em_iterations = 0usize;
        let mut eval_stats = EvalStats::default();
        let mut final_state: Vec<(CandidateSet, ResultsMatrix, ClaimDistribution)> = Vec::new();
        let max_iters = if cfg.model.use_priors {
            cfg.max_em_iterations
        } else {
            1
        };

        for _ in 0..max_iters {
            em_iterations += 1;
            let theta_opt = cfg.model.use_priors.then_some(&theta);

            let candidate_sets: Vec<CandidateSet> = scores
                .iter()
                .map(|s| {
                    let scope = tr.call("core.scope", op, parent, || {
                        pick_scope(
                            &self.catalog,
                            s,
                            theta_opt,
                            &self.cost,
                            self.db.total_rows(),
                            &cfg.scope,
                        )
                    });
                    tr.call("core.candidates", op, parent, || {
                        CandidateSet::enumerate(
                            &self.catalog,
                            &scope,
                            cfg.max_predicates,
                            cfg.max_combos_per_claim,
                        )
                    })
                })
                .collect();

            let results: Vec<ResultsMatrix> = tr.call("core.evaluate", op, parent, || {
                let doc_literals = document_literal_union(
                    self.catalog.predicate_columns.len(),
                    candidate_sets
                        .iter()
                        .flat_map(|set| set.combos.iter())
                        .flat_map(|combo| combo.iter().map(|(c, l)| (*c as usize, *l as usize))),
                );
                let cache =
                    (cfg.strategy == EvalStrategy::MergedCached).then(|| self.cache.clone());
                let mut evaluator = Evaluator::new(&self.db, &self.catalog, cache);
                evaluator.set_threads(cfg.threads);
                evaluator.set_bundling(TaskBundling::Wave);
                evaluator.set_fusion(cfg.fuse_scans);
                evaluator.set_partition_blocks(cfg.partition_blocks);
                evaluator.set_document_literals(doc_literals);
                let out = evaluator
                    .evaluate_all(&candidate_sets)
                    .expect("evaluation succeeds on generated inputs");
                eval_stats.merge(&evaluator.stats);
                out
            });

            let distributions: Vec<ClaimDistribution> = (0..n)
                .map(|i| {
                    tr.call("core.model.estep", op, parent, || {
                        score_claim(
                            &self.catalog,
                            &scores[i],
                            &candidate_sets[i],
                            &results[i],
                            theta_opt,
                            &claims[i].number,
                            cfg,
                        )
                    })
                })
                .collect();

            let converged = if cfg.model.use_priors {
                tr.call("core.model.mstep", op, parent, || {
                    let ml: Vec<(Option<Candidate>, &CandidateSet)> = distributions
                        .iter()
                        .zip(&candidate_sets)
                        .map(|(d, set)| (d.ml(), set))
                        .collect();
                    let new_theta = m_step(&self.catalog, &ml, cfg.prior_smoothing);
                    let change = theta.max_change(&new_theta);
                    theta = new_theta;
                    change < cfg.em_epsilon
                })
            } else {
                true
            };

            final_state = candidate_sets
                .into_iter()
                .zip(results)
                .zip(distributions)
                .map(|((set, res), dist)| (set, res, dist))
                .collect();
            if converged || em_iterations == max_iters {
                break;
            }
        }

        let checked: Vec<CheckedClaim> = tr.call("core.pipeline.report", op, parent, || {
            claims
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
                            let query = set.to_query(&self.catalog, *cand);
                            let result = results.get(cand.combo as usize, cand.pair as usize);
                            let matches = result.is_some_and(|r| matches_claim(r, &claim.number));
                            let description = query.describe(&self.db);
                            RankedQuery {
                                query,
                                probability: *prob,
                                result,
                                matches,
                                description,
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
                .collect()
        });

        tr.counts.push(OpCounts {
            op: op as u32,
            pass: tr.pass(),
            claims: n as u64,
            em_iterations: em_iterations as u64,
            eval: eval_stats,
        });
        VerificationReport {
            claims: checked,
            stats: RunStats {
                claims: n,
                em_iterations,
                candidates_evaluated: eval_stats.candidates_evaluated,
                elapsed: started.elapsed(),
                ..RunStats::default()
            },
            status: ReportStatus::Complete,
        }
    }
}
