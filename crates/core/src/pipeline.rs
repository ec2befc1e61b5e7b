//! The end-to-end verification pipeline (Figure 1 of the paper).

use crate::candidates::CandidateSet;
use crate::config::{CheckerConfig, EvalStrategy};
use crate::evaluate::{
    document_literal_union, evaluate_naive, EvalStats, Evaluator, ResultsMatrix, TaskBundling,
};
use crate::fragments::{CatalogConfig, FragmentCatalog};
use crate::keywords::claim_keywords;
use crate::matching::{match_claim_with_form, ClaimScores};
use crate::model::{m_step, score_claim, ClaimDistribution, Theta};
use crate::scope::pick_scope;
use agg_nlp::claims::{detect_claims, ClaimMention};
use agg_nlp::structure::{parse_document, Document};
use agg_nlp::synonyms::SynonymDict;
use agg_relational::{
    CostModel, CubeScheduler, Database, EvalCache, GridArena, ScanCounters, SimpleAggregateQuery,
    DEFAULT_CACHE_SHARDS,
};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors from the verification pipeline.
#[derive(Debug)]
pub enum CheckerError {
    Config(String),
    Relational(agg_relational::RelationalError),
    /// A streaming submission was abandoned before verification: the
    /// service shut down (or its worker died) with the document still
    /// queued. See [`crate::stream::StreamingVerifier`].
    Stream(String),
}

impl fmt::Display for CheckerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckerError::Config(msg) => write!(f, "configuration error: {msg}"),
            CheckerError::Relational(e) => write!(f, "relational error: {e}"),
            CheckerError::Stream(msg) => write!(f, "streaming error: {msg}"),
        }
    }
}

impl std::error::Error for CheckerError {}

impl From<agg_relational::RelationalError> for CheckerError {
    fn from(e: agg_relational::RelationalError) -> Self {
        CheckerError::Relational(e)
    }
}

/// Verdict for one claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The most likely query's result rounds to the claimed value.
    Correct,
    /// It does not — the claim is marked up as probably wrong.
    Erroneous,
    /// No candidate query could be formed.
    Unverifiable,
    /// Verification never ran for this claim: its document hit a deadline
    /// or was cancelled before the claim's candidate queries were
    /// evaluated. Only appears in partial reports (see [`ReportStatus`]);
    /// a fault-free run without a deadline never produces it.
    Unverified,
}

/// How a document's verification run ended. Anything other than
/// [`ReportStatus::Complete`] marks the report as *partial*: claims whose
/// verdicts settled before the abort keep them, the rest come back
/// [`Verdict::Unverified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportStatus {
    /// Every claim ran to completion — the only status solo and batch
    /// verification ever produce.
    #[default]
    Complete,
    /// The document's deadline expired before the run finished.
    TimedOut,
    /// The submission was cancelled before the run finished.
    Cancelled,
}

impl ReportStatus {
    /// True for every status other than [`ReportStatus::Complete`].
    pub fn is_partial(&self) -> bool {
        *self != ReportStatus::Complete
    }
}

/// One entry of a claim's top-k list.
#[derive(Debug, Clone)]
pub struct RankedQuery {
    pub query: SimpleAggregateQuery,
    /// Normalized probability under the claim's distribution.
    pub probability: f64,
    /// Evaluated result (SQL NULL → `None`).
    pub result: Option<f64>,
    /// Does the result round to the claimed value?
    pub matches: bool,
    /// Natural-language description (hover text, Figure 3(b)).
    pub description: String,
}

/// The verification outcome for one claim.
#[derive(Debug, Clone)]
pub struct CheckedClaim {
    pub mention: ClaimMention,
    /// The claim sentence's text.
    pub sentence: String,
    pub claimed_value: f64,
    /// Top-k most likely query translations, descending.
    pub top_queries: Vec<RankedQuery>,
    /// Probability mass on candidates matching the claimed value.
    pub correctness_probability: f64,
    pub verdict: Verdict,
}

impl CheckedClaim {
    /// The most likely query, if any.
    pub fn ml_query(&self) -> Option<&RankedQuery> {
        self.top_queries.first()
    }
}

/// Run statistics (Table 6 instrumentation and general diagnostics): the
/// document's own ledger plus the shared scan-plane counters, readable as
/// plain fields (`stats.rows_scanned`) through `Deref`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    pub claims: usize,
    pub em_iterations: usize,
    pub candidates_evaluated: u64,
    pub cubes_executed: u64,
    pub cubes_cached: u64,
    /// Cube requests resolved without a new execution (merged across
    /// claims at planning time, or absorbed by single-flight).
    pub tasks_deduped: u64,
    /// Requests that blocked on another worker's in-flight cube.
    pub singleflight_waits: u64,
    /// What this document's waves executed and scanned.
    pub scan: ScanCounters,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Wall-clock time inside query evaluation only.
    pub query_time: Duration,
    /// log₁₀ of the candidate query space (Figure 8).
    pub candidate_space_log10: f64,
}

impl std::ops::Deref for RunStats {
    type Target = ScanCounters;
    fn deref(&self) -> &ScanCounters {
        &self.scan
    }
}

/// The result of verifying one document.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    pub claims: Vec<CheckedClaim>,
    pub stats: RunStats,
    /// Whether the run completed or settled early (deadline or
    /// cancellation). Deliberately excluded from
    /// [`content_fingerprint`](VerificationReport::content_fingerprint):
    /// the fingerprint compares *evaluated* content, and a partial
    /// report's unevaluated claims already surface as
    /// [`Verdict::Unverified`] inside `claims`.
    pub status: ReportStatus,
}

impl VerificationReport {
    /// A deterministic fingerprint of the report's observable content:
    /// claims (verdicts, probabilities, top-k queries) plus the
    /// scheduling-independent stats, with wall-clock timing excluded.
    /// The batch tests and `bench_pipeline` compare sequential and
    /// batched runs through this one projection (see [`BatchVerifier`]
    /// for the floating-point caveat that scopes the comparison).
    pub fn content_fingerprint(&self) -> String {
        format!(
            "{:?}|claims={}|em={}|cand={}",
            self.claims,
            self.stats.claims,
            self.stats.em_iterations,
            self.stats.candidates_evaluated
        )
    }

    /// Claims flagged as erroneous.
    pub fn flagged(&self) -> impl Iterator<Item = &CheckedClaim> {
        self.claims
            .iter()
            .filter(|c| c.verdict == Verdict::Erroneous)
    }

    /// Apply a user correction (the semi-automated mode of Figure 3): the
    /// user declares `query` to be the claim's true translation — picked
    /// from the top-k list or assembled from fragments. The query is
    /// executed, the claim's verdict recomputed from its result, and the
    /// chosen query pinned at the top of the claim's list with
    /// probability 1.
    pub fn apply_correction(
        &mut self,
        claim_idx: usize,
        query: SimpleAggregateQuery,
        db: &Database,
    ) -> Result<Verdict, CheckerError> {
        let claim = self
            .claims
            .get_mut(claim_idx)
            .ok_or_else(|| CheckerError::Config(format!("no claim #{claim_idx}")))?;
        let result = agg_relational::execute_query(db, &query)?;
        let matches =
            result.is_some_and(|r| crate::rounding::matches_claim(r, &claim.mention.number));
        let verdict = if matches {
            Verdict::Correct
        } else {
            Verdict::Erroneous
        };
        let description = query.describe(db);
        claim
            .top_queries
            .retain(|rq| !rq.query.semantically_equal(&query));
        claim.top_queries.insert(
            0,
            RankedQuery {
                query,
                probability: 1.0,
                result,
                matches,
                description,
            },
        );
        claim.correctness_probability = if matches { 1.0 } else { 0.0 };
        claim.verdict = verdict;
        Ok(verdict)
    }
}

/// Cooperative per-document abort control, shared between a streaming
/// [`Ticket`](crate::stream::Ticket) and the worker driving its document.
/// The pipeline polls it at wave boundaries (between EM iterations),
/// never mid-scan: aborting yields a clean *partial* report — settled
/// verdicts kept, the rest [`Verdict::Unverified`] — not a torn one.
#[derive(Debug)]
pub(crate) struct DocControl {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl DocControl {
    pub(crate) fn new(deadline: Option<Instant>) -> DocControl {
        DocControl {
            cancelled: AtomicBool::new(false),
            deadline,
        }
    }

    /// Flag the document for abort at its next wave boundary.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Why the document should stop now, if it should. An explicit
    /// cancellation wins over an expired deadline when both hold.
    pub(crate) fn should_abort(&self) -> Option<ReportStatus> {
        if self.cancelled.load(Ordering::Acquire) {
            return Some(ReportStatus::Cancelled);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(ReportStatus::TimedOut),
            _ => None,
        }
    }
}

/// One claim's state at an evaluation-wave boundary, pushed to a
/// [`ProgressObserver`]. A cheap projection of what the final
/// [`CheckedClaim`] will carry: the verdict and correctness probability
/// of the wave that just completed, without materializing top-k query
/// descriptions. `claim` is the stable document-order id
/// ([`ClaimMention::id`](agg_nlp::claims::ClaimMention)), so subscribers
/// can correlate progress updates with the settled report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimProgress {
    /// Stable claim id (document order); equals the index into
    /// [`VerificationReport::claims`].
    pub claim: usize,
    /// The value the text claims.
    pub claimed_value: f64,
    /// Verdict as of this wave. Later waves may revise it: the EM loop
    /// re-ranks candidate queries as document priors sharpen.
    pub verdict: Verdict,
    /// Probability mass on candidates matching the claimed value, as of
    /// this wave.
    pub correctness_probability: f64,
}

/// Subscription to per-wave verdict progress, threaded through the
/// streaming service into the pipeline's EM loop (the mechanism behind
/// the binary protocol's incremental verdict frames — see
/// `crates/server`). Called on the worker thread driving the document, at
/// every wave boundary, with every claim's current state.
///
/// `last` is true for the wave whose verdicts are final *if the run
/// completes*; a deadline or cancellation striking at a later wave
/// boundary can still end the run with an earlier wave's state, so only
/// the settled [`VerificationReport`] is authoritative. Implementations
/// must be cheap and must not block: the EM loop waits for the callback
/// to return before starting the next wave.
pub trait ProgressObserver: Send + Sync {
    /// One completed evaluation wave: `wave` is the 1-based EM iteration,
    /// `claims` holds every claim's state after it.
    fn wave_complete(&self, wave: usize, last: bool, claims: &[ClaimProgress]);
}

/// How one document's evaluation work is executed — the plumbing that
/// lets solo, batched, and streaming verification share
/// `check_document_with` while drawing parallelism from different places.
pub(crate) struct ExecContext<'e> {
    /// Dense-grid buffer pool persisted across this caller's documents.
    pub(crate) arena: Option<&'e GridArena>,
    /// Shared cube-task scheduler (batch and streaming modes). `None` =
    /// each evaluation wave spawns its own scoped pool of `threads`
    /// workers.
    pub(crate) scheduler: Option<&'e CubeScheduler>,
    /// Worker threads for claim scoring and (without a shared scheduler)
    /// per-wave cube execution. Batch workers pass 1: the shared pool
    /// already provides the parallelism, so per-document thread fan-out
    /// would only oversubscribe the machine.
    pub(crate) threads: usize,
    /// How missing aggregates bundle into cube tasks. Solo verification
    /// uses `Wave` (fewest tasks); batched verification uses `Canonical`
    /// at every worker count so its executed-task set — and therefore the
    /// fused pass structure and `rows_scanned` — is identical from 1
    /// worker to N (`bench_pipeline`'s `violations()` holds
    /// `tasks_executed` to it). Bundling never changes results.
    pub(crate) bundling: TaskBundling,
    /// Per-document abort control (streaming deadlines and cancellation).
    /// `None` for solo and batch runs, which always run to completion.
    pub(crate) ctrl: Option<&'e DocControl>,
    /// Per-wave verdict subscription (streaming incremental delivery).
    /// `None` everywhere else; observation never changes evaluation.
    pub(crate) observer: Option<&'e dyn ProgressObserver>,
}

/// The AggChecker: verify text summaries of a relational data set.
pub struct AggChecker {
    db: Arc<Database>,
    catalog: FragmentCatalog,
    config: CheckerConfig,
    synonyms: SynonymDict,
    cache: EvalCache,
    cost: CostModel,
}

impl AggChecker {
    /// Create a checker over a database with the given configuration.
    pub fn new(db: Database, config: CheckerConfig) -> Result<AggChecker, CheckerError> {
        config.validate().map_err(CheckerError::Config)?;
        db.validate()?;
        let catalog = FragmentCatalog::build(&db, &CatalogConfig::default());
        let cost = CostModel::new(&db);
        let shards = if config.cache_shards == 0 {
            DEFAULT_CACHE_SHARDS
        } else {
            config.cache_shards
        };
        Ok(AggChecker {
            db: Arc::new(db),
            catalog,
            config,
            synonyms: SynonymDict::embedded(),
            cache: EvalCache::with_shards(shards),
            cost,
        })
    }

    /// Replace the synonym dictionary (e.g. domain extensions or
    /// [`SynonymDict::empty`] for ablations).
    pub fn with_synonyms(mut self, synonyms: SynonymDict) -> AggChecker {
        self.synonyms = synonyms;
        self
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Append rows to `table` and refresh the derived metadata (fragment
    /// catalog, cost model) over the grown corpus. The database version is
    /// unchanged — appends move only the row-visibility watermark — so
    /// resident cache entries stay reachable: on the next verification
    /// their stale-stamped grids are *patched* forward over just the
    /// appended rows (see `agg_relational::cube::ScanCheckpoint`) instead
    /// of being recomputed. Returns the number of rows appended.
    pub fn append_rows(
        &mut self,
        table: &str,
        rows: &[Vec<agg_relational::Value>],
    ) -> Result<usize, CheckerError> {
        let db = Arc::make_mut(&mut self.db);
        let appended = db.append_rows(table, rows)?;
        self.catalog = FragmentCatalog::build(db, &CatalogConfig::default());
        self.cost = CostModel::new(db);
        Ok(appended)
    }

    /// Non-destructive [`AggChecker::append_rows`]: build a successor
    /// checker over the grown database, sharing this one's cache (an
    /// [`EvalCache`] clone shares storage). The streaming service swaps
    /// its checker through this path so documents pinning the current
    /// generation keep their snapshot.
    pub(crate) fn with_appended(
        &self,
        table: &str,
        rows: &[Vec<agg_relational::Value>],
    ) -> Result<(AggChecker, usize), CheckerError> {
        let mut db = (*self.db).clone();
        let appended = db.append_rows(table, rows)?;
        Ok((self.rebuilt_over(Arc::new(db)), appended))
    }

    /// A twin of this checker over the same database snapshot and shared
    /// cache, with freshly derived metadata.
    pub(crate) fn fork(&self) -> AggChecker {
        self.rebuilt_over(self.db.clone())
    }

    fn rebuilt_over(&self, db: Arc<Database>) -> AggChecker {
        AggChecker {
            catalog: FragmentCatalog::build(&db, &CatalogConfig::default()),
            cost: CostModel::new(&db),
            config: self.config.clone(),
            synonyms: self.synonyms.clone(),
            cache: self.cache.clone(),
            db,
        }
    }

    pub fn catalog(&self) -> &FragmentCatalog {
        &self.catalog
    }

    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// Shared evaluation cache (persists across documents over the same
    /// database).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Parse and verify a text document (HTML subset or plain text).
    pub fn check_text(&self, text: &str) -> Result<VerificationReport, CheckerError> {
        let doc = parse_document(text);
        self.check_document(&doc)
    }

    /// Verify a parsed document.
    pub fn check_document(&self, doc: &Document) -> Result<VerificationReport, CheckerError> {
        self.check_document_with(
            doc,
            &ExecContext {
                arena: None,
                scheduler: None,
                threads: self.config.threads,
                bundling: TaskBundling::Wave,
                ctrl: None,
                observer: None,
            },
        )
    }

    /// Verify a parsed document under an explicit execution context (see
    /// [`ExecContext`]). Always runs under `self.config` — batch,
    /// streaming, and solo runs must share every knob, or their reports
    /// could diverge.
    pub(crate) fn check_document_with(
        &self,
        doc: &Document,
        ctx: &ExecContext<'_>,
    ) -> Result<VerificationReport, CheckerError> {
        let started = Instant::now();
        let cfg = &self.config;
        let claims = detect_claims(doc, &cfg.claim_detector);
        let n = claims.len();

        // Keyword contexts and relevance scores are EM-invariant.
        let scores: Vec<ClaimScores> = claims
            .iter()
            .map(|claim| {
                let kws =
                    claim_keywords(doc, claim, &self.synonyms, &cfg.context, cfg.synonym_weight);
                match_claim_with_form(
                    &self.catalog,
                    &kws,
                    cfg.lucene_hits,
                    claim.number.is_percentage,
                )
            })
            .collect();

        let mut theta = Theta::uniform(
            self.catalog.functions.len(),
            self.catalog.agg_columns.len(),
            self.catalog.predicate_columns.len(),
        );
        let mut em_iterations = 0usize;
        let mut eval_stats = EvalStats::default();
        let mut query_time = Duration::ZERO;
        let mut status = ReportStatus::Complete;
        let mut final_state: Vec<(CandidateSet, ResultsMatrix, ClaimDistribution)> = Vec::new();

        let max_iters = if cfg.model.use_priors {
            cfg.max_em_iterations
        } else {
            1
        };

        for _ in 0..max_iters {
            // Wave boundary: the only place a deadline or cancellation
            // takes effect. `final_state` always holds the last *completed*
            // wave, so aborting here settles a consistent partial report.
            if let Some(s) = ctx.ctrl.and_then(|c| c.should_abort()) {
                status = s;
                break;
            }
            em_iterations += 1;
            let theta_opt = cfg.model.use_priors.then_some(&theta);

            // Scope + candidate enumeration per claim.
            let candidate_sets: Vec<CandidateSet> = scores
                .iter()
                .map(|s| {
                    let scope = pick_scope(
                        &self.catalog,
                        s,
                        theta_opt,
                        &self.cost,
                        self.db.total_rows(),
                        &cfg.scope,
                    );
                    CandidateSet::enumerate(
                        &self.catalog,
                        &scope,
                        cfg.max_predicates,
                        cfg.max_combos_per_claim,
                    )
                })
                .collect();

            // Document-wide literal sets for cache-friendly cubes (§6.3).
            let doc_literals = document_literal_union(
                self.catalog.predicate_columns.len(),
                candidate_sets
                    .iter()
                    .flat_map(|set| set.combos.iter())
                    .flat_map(|combo| combo.iter().map(|(c, l)| (*c as usize, *l as usize))),
            );

            // Evaluation phase.
            let eval_started = Instant::now();
            let results: Vec<ResultsMatrix> = match cfg.strategy {
                EvalStrategy::Naive => {
                    let mut out = Vec::with_capacity(n);
                    for set in &candidate_sets {
                        out.push(evaluate_naive(
                            &self.db,
                            &self.catalog,
                            set,
                            &mut eval_stats,
                        )?);
                    }
                    out
                }
                EvalStrategy::Merged | EvalStrategy::MergedCached => {
                    let cache =
                        (cfg.strategy == EvalStrategy::MergedCached).then(|| self.cache.clone());
                    let mut evaluator = Evaluator::new(&self.db, &self.catalog, cache);
                    evaluator.set_threads(ctx.threads);
                    evaluator.set_bundling(ctx.bundling);
                    evaluator.set_fusion(cfg.fuse_scans);
                    evaluator.set_partition_blocks(cfg.partition_blocks);
                    if let Some(arena) = ctx.arena {
                        evaluator.set_arena(arena);
                    }
                    if let Some(scheduler) = ctx.scheduler {
                        evaluator.set_scheduler(scheduler);
                    }
                    evaluator.set_document_literals(doc_literals);
                    // One wave: every cube of every claim is planned,
                    // deduplicated, and scheduled together.
                    let out = evaluator.evaluate_all(&candidate_sets)?;
                    eval_stats.merge(&evaluator.stats);
                    out
                }
            };
            query_time += eval_started.elapsed();

            // E-step: claim distributions (parallel when configured).
            let distributions = self.score_all(
                &claims,
                &scores,
                &candidate_sets,
                &results,
                theta_opt,
                ctx.threads,
            );

            // M-step.
            let converged = if cfg.model.use_priors {
                let ml: Vec<(Option<crate::candidates::Candidate>, &CandidateSet)> = distributions
                    .iter()
                    .zip(&candidate_sets)
                    .map(|(d, set)| (d.ml(), set))
                    .collect();
                let new_theta = m_step(&self.catalog, &ml, cfg.prior_smoothing);
                let change = theta.max_change(&new_theta);
                theta = new_theta;
                change < cfg.em_epsilon
            } else {
                true
            };

            // Keep this wave's state: it becomes the report if this is the
            // last iteration *or* a later wave boundary aborts the run.
            final_state = candidate_sets
                .into_iter()
                .zip(results)
                .zip(distributions)
                .map(|((set, res), dist)| (set, res, dist))
                .collect();
            let last = converged || em_iterations == max_iters;
            if let Some(observer) = ctx.observer {
                let progress: Vec<ClaimProgress> = claims
                    .iter()
                    .zip(&final_state)
                    .map(|(claim, (_, results, dist))| {
                        // Same most-likely-candidate rule the final report
                        // applies in `build_checked_claim`, minus the top-k
                        // materialization.
                        let verdict = match dist.top.first() {
                            None => Verdict::Unverifiable,
                            Some((cand, _)) => {
                                let matched = results
                                    .get(cand.combo as usize, cand.pair as usize)
                                    .is_some_and(|r| {
                                        crate::rounding::matches_claim(r, &claim.number)
                                    });
                                if matched {
                                    Verdict::Correct
                                } else {
                                    Verdict::Erroneous
                                }
                            }
                        };
                        ClaimProgress {
                            claim: claim.id,
                            claimed_value: claim.number.value,
                            verdict,
                            correctness_probability: dist.correctness,
                        }
                    })
                    .collect();
                observer.wave_complete(em_iterations, last, &progress);
            }
            if last {
                break;
            }
        }

        // Build the report from the last completed wave. A run aborted
        // before its first wave completed has no evaluated state at all:
        // every claim settles as `Unverified`.
        let checked: Vec<CheckedClaim> = if final_state.len() == n {
            claims
                .iter()
                .zip(&final_state)
                .map(|(claim, (set, results, dist))| {
                    self.build_checked_claim(doc, claim, set, results, dist)
                })
                .collect()
        } else {
            debug_assert!(final_state.is_empty(), "waves evaluate every claim");
            claims
                .iter()
                .map(|claim| self.unverified_claim(doc, claim))
                .collect()
        };

        let stats = RunStats {
            claims: n,
            em_iterations,
            candidates_evaluated: eval_stats.candidates_evaluated,
            cubes_executed: eval_stats.cubes_executed,
            cubes_cached: eval_stats.cubes_cached,
            tasks_deduped: eval_stats.tasks_deduped,
            singleflight_waits: eval_stats.singleflight_waits,
            scan: eval_stats.scan,
            elapsed: started.elapsed(),
            query_time,
            candidate_space_log10: self.catalog.candidate_space_log10(),
        };
        Ok(VerificationReport {
            claims: checked,
            stats,
            status,
        })
    }

    /// The placeholder for a claim whose document aborted before the claim
    /// was evaluated: no ranked queries, zero probability, `Unverified`.
    fn unverified_claim(&self, doc: &Document, claim: &ClaimMention) -> CheckedClaim {
        let sentence = doc
            .section(&claim.section)
            .and_then(|s| s.paragraphs.get(claim.paragraph))
            .and_then(|p| p.sentences.get(claim.sentence))
            .map(|s| s.text.clone())
            .unwrap_or_default();
        CheckedClaim {
            mention: claim.clone(),
            sentence,
            claimed_value: claim.number.value,
            top_queries: Vec::new(),
            correctness_probability: 0.0,
            verdict: Verdict::Unverified,
        }
    }

    /// The partial report of a document that never reached a worker: claims
    /// are detected (so the caller still sees *what* went unchecked) but
    /// nothing is evaluated — every claim comes back [`Verdict::Unverified`].
    /// Used by streaming cancellation/expiry of still-queued documents.
    pub(crate) fn unverified_report(
        &self,
        doc: &Document,
        status: ReportStatus,
    ) -> VerificationReport {
        let started = Instant::now();
        let claims = detect_claims(doc, &self.config.claim_detector);
        let checked: Vec<CheckedClaim> = claims
            .iter()
            .map(|claim| self.unverified_claim(doc, claim))
            .collect();
        let stats = RunStats {
            claims: checked.len(),
            elapsed: started.elapsed(),
            candidate_space_log10: self.catalog.candidate_space_log10(),
            ..RunStats::default()
        };
        VerificationReport {
            claims: checked,
            stats,
            status,
        }
    }

    /// Score all claims, chunked over `threads` workers. Chunking never
    /// changes per-claim results — each distribution is computed
    /// independently — so batch workers score with `threads = 1` (the
    /// pool already provides document-level parallelism) and still match
    /// solo runs exactly.
    fn score_all(
        &self,
        claims: &[ClaimMention],
        scores: &[ClaimScores],
        candidate_sets: &[CandidateSet],
        results: &[ResultsMatrix],
        theta: Option<&Theta>,
        threads: usize,
    ) -> Vec<ClaimDistribution> {
        let cfg = &self.config;
        let work = |i: usize| {
            score_claim(
                &self.catalog,
                &scores[i],
                &candidate_sets[i],
                &results[i],
                theta,
                &claims[i].number,
                cfg,
            )
        };
        if threads <= 1 || claims.len() < 2 {
            return (0..claims.len()).map(work).collect();
        }
        let n_threads = threads.min(claims.len());
        let mut out: Vec<Option<ClaimDistribution>> = vec![None; claims.len()];
        std::thread::scope(|s| {
            for (t, chunk) in out.chunks_mut(claims.len().div_ceil(n_threads)).enumerate() {
                let work = &work;
                let base = t * claims.len().div_ceil(n_threads);
                s.spawn(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(work(base + j));
                    }
                });
            }
        });
        out.into_iter().map(|d| d.expect("scored")).collect()
    }

    fn build_checked_claim(
        &self,
        doc: &Document,
        claim: &ClaimMention,
        set: &CandidateSet,
        results: &ResultsMatrix,
        dist: &ClaimDistribution,
    ) -> CheckedClaim {
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
                let matches =
                    result.is_some_and(|r| crate::rounding::matches_claim(r, &claim.number));
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
    }
}

/// Batched multi-document verification: many parsed documents checked
/// against **one** shared [`Database`], fragment catalog, and sharded
/// [`EvalCache`] (the Scrutinizer deployment shape — an organization's
/// document stream over one fact base).
///
/// All work drains through **one** scoped-thread pool of
/// [`CheckerConfig::threads`] workers sharing a single [`CubeScheduler`]:
/// a worker pulls the next unclaimed document from a shared queue and
/// drives it, submitting every cube of every claim as tasks to the shared
/// scheduler; while its own tasks are pending it helps execute *other*
/// documents' tasks, and once the document queue is empty it keeps
/// draining cube tasks until the batch closes. Each worker keeps one
/// [`GridArena`] for every cube it executes (dense grids are reused
/// instead of reallocated), and all workers fill the same sharded cache —
/// with **single-flight**, so N workers missing the same cube key execute
/// it exactly once: total `rows_scanned` at any worker count equals the
/// 1-worker run (the unit tests below pin it at 1/2/4/8 workers;
/// `bench_pipeline`'s `violations()` holds `tasks_executed` to it).
///
/// Reports match per-document [`AggChecker::check_document`] runs:
/// batching changes scheduling and reuse, never verdicts or query
/// rankings. Cube tasks always scan sequentially, so f64 accumulation
/// order is identical across worker counts. One caveat inherent to cache
/// reuse (warm solo caches share it): a floating-point Sum/Avg served
/// from a wider cached slice can differ from a cold evaluation in the
/// last ulp, because rollup merge order follows the slice's literal
/// partition. Count-like aggregates and integer-exact data — the paper's
/// workload — are bit-identical.
pub struct BatchVerifier {
    checker: AggChecker,
}

impl BatchVerifier {
    /// Create a batch verifier over a database.
    pub fn new(db: Database, config: CheckerConfig) -> Result<BatchVerifier, CheckerError> {
        Ok(BatchVerifier {
            checker: AggChecker::new(db, config)?,
        })
    }

    /// Wrap an existing checker (shares its warmed cache).
    pub fn from_checker(checker: AggChecker) -> BatchVerifier {
        BatchVerifier { checker }
    }

    /// The underlying checker (database, catalog, cache accessors).
    pub fn checker(&self) -> &AggChecker {
        &self.checker
    }

    /// Recover the checker, keeping the warmed cache.
    pub fn into_checker(self) -> AggChecker {
        self.checker
    }

    /// Parse and verify a batch of text documents.
    pub fn verify_texts<S: AsRef<str> + Sync>(
        &self,
        texts: &[S],
    ) -> Result<Vec<VerificationReport>, CheckerError> {
        let docs: Vec<Document> = texts.iter().map(|t| parse_document(t.as_ref())).collect();
        self.verify_documents(&docs)
    }

    /// Verify a batch of parsed documents. Reports come back in input
    /// order. On failure the batch stops early — documents not yet started
    /// are skipped — and the lowest-input-index error observed is returned.
    pub fn verify_documents(
        &self,
        docs: &[Document],
    ) -> Result<Vec<VerificationReport>, CheckerError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        // One pool: `threads` workers in total, sharing one cube-task
        // scheduler. This replaces the old threads-per-document × workers
        // split — a document's cubes run wherever a worker is idle, so
        // small machines are never oversubscribed and big ones keep every
        // worker busy even when one document dominates the tail.
        let workers = self.checker.config.threads.max(1).min(docs.len());

        if workers <= 1 {
            let arena = GridArena::new();
            let ctx = ExecContext {
                arena: Some(&arena),
                scheduler: None,
                threads: self.checker.config.threads,
                bundling: TaskBundling::Canonical,
                ctrl: None,
                observer: None,
            };
            return docs
                .iter()
                .map(|doc| self.checker.check_document_with(doc, &ctx))
                .collect();
        }

        let scheduler = CubeScheduler::new();
        let next = AtomicUsize::new(0);
        let failed = std::sync::atomic::AtomicBool::new(false);
        // Workers still driving a document (and therefore still able to
        // submit cube tasks); the last one out closes the scheduler.
        let drivers = AtomicUsize::new(workers);
        let mut results: Vec<Option<VerificationReport>> = Vec::new();
        results.resize_with(docs.len(), || None);
        let collected: Vec<Vec<(usize, Result<VerificationReport, CheckerError>)>> =
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (next, failed, drivers) = (&next, &failed, &drivers);
                        let (checker, scheduler) = (&self.checker, &scheduler);
                        s.spawn(move || {
                            // One arena per worker, shared by every cube
                            // task this worker executes.
                            let arena = GridArena::new();
                            let ctx = ExecContext {
                                arena: Some(&arena),
                                scheduler: Some(scheduler),
                                threads: 1,
                                bundling: TaskBundling::Canonical,
                                ctrl: None,
                                observer: None,
                            };
                            let mut out = Vec::new();
                            while !failed.load(Ordering::Relaxed) {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= docs.len() {
                                    break;
                                }
                                let result = checker.check_document_with(&docs[i], &ctx);
                                if result.is_err() {
                                    failed.store(true, Ordering::Relaxed);
                                }
                                out.push((i, result));
                            }
                            // No more documents for this worker: close the
                            // scheduler if it is the last driver, then keep
                            // helping with other documents' cube tasks
                            // until the batch is done.
                            if drivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                                scheduler.close();
                            }
                            scheduler.run_worker(Some(&arena));
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch verification worker"))
                    .collect()
            });
        let mut first_error: Option<(usize, CheckerError)> = None;
        for (i, result) in collected.into_iter().flatten() {
            match result {
                Ok(report) => results[i] = Some(report),
                Err(e) => {
                    if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_error = Some((i, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_error {
            return Err(e);
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every document verified or the batch aborted"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_relational::{Table, Value};

    /// Figure 2's database.
    fn nfl_db() -> Database {
        let mut t = Table::from_columns(
            "nflsuspensions",
            vec![
                (
                    "games",
                    vec![
                        "indef".into(),
                        "indef".into(),
                        "indef".into(),
                        "indef".into(),
                        "10".into(),
                        "4".into(),
                        "2".into(),
                        "6".into(),
                    ],
                ),
                (
                    // Five distinct values, so CountDistinct(category) = 5
                    // cannot collide with the "four lifetime bans" claim.
                    "category",
                    vec![
                        "substance abuse, repeated offense".into(),
                        "substance abuse, repeated offense".into(),
                        "substance abuse, repeated offense".into(),
                        "gambling".into(),
                        "substance abuse".into(),
                        "personal conduct".into(),
                        "deflategate".into(),
                        "bounty program".into(),
                    ],
                ),
                (
                    "year",
                    vec![
                        Value::Int(1989),
                        Value::Int(1995),
                        Value::Int(2014),
                        Value::Int(1983),
                        Value::Int(2014),
                        Value::Int(2014),
                        Value::Int(2013),
                        Value::Int(2012),
                    ],
                ),
            ],
        )
        .unwrap();
        t.schema.columns[0].description =
            Some("games suspended; indef means an indefinite lifetime ban".into());
        let mut db = Database::new("nfl");
        db.add_table(t);
        db
    }

    const ARTICLE: &str = r#"
<title>The NFL's Uneven History Of Punishing Domestic Violence</title>
<h1>Indefinite suspensions</h1>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"#;

    #[test]
    fn paper_running_example_verifies_correct_claims() {
        let checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        let report = checker.check_text(ARTICLE).unwrap();
        assert_eq!(report.claims.len(), 3, "claims four/three/one");
        for claim in &report.claims {
            assert_eq!(
                claim.verdict,
                Verdict::Correct,
                "claim {} flagged: ML {:?}",
                claim.claimed_value,
                claim.ml_query().map(|q| q.query.to_sql(checker.db()))
            );
        }
        assert!(report.stats.candidates_evaluated > 0);
    }

    #[test]
    fn erroneous_claim_is_flagged() {
        let checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        // The data has FOUR lifetime bans; the text claims seven. (A claim
        // of "five" would coincidentally match CountDistinct(games) = 5 and
        // be judged plausible — exactly the spurious-match behaviour behind
        // the paper's ~36% precision. Seven matches no candidate.)
        let article = r#"
<h1>Indefinite suspensions</h1>
<p>There were seven previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"#;
        let report = checker.check_text(article).unwrap();
        let seven = report
            .claims
            .iter()
            .find(|c| c.claimed_value == 7.0)
            .unwrap();
        assert_eq!(seven.verdict, Verdict::Erroneous);
        assert!(seven.correctness_probability < 0.5);
        // The correct claims stay green.
        let one = report
            .claims
            .iter()
            .find(|c| c.claimed_value == 1.0)
            .unwrap();
        assert_eq!(one.verdict, Verdict::Correct);
    }

    /// The stale-cache regression this series fixes: a warmed checker
    /// whose table then grows must not keep serving verdicts computed
    /// over the old rows. Before cached grids carried watermark stamps,
    /// the second check below hit the resident count grid (four lifetime
    /// bans) and kept the claim green even though the data now holds five.
    #[test]
    fn append_rows_refreshes_warmed_verdicts() {
        let fifth_ban = || {
            vec![
                Value::from("indef"),
                Value::from("gambling"),
                Value::Int(2015),
            ]
        };
        let mut checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        let before = checker.check_text(ARTICLE).unwrap();
        let four = before
            .claims
            .iter()
            .find(|c| c.claimed_value == 4.0)
            .unwrap();
        assert_eq!(four.verdict, Verdict::Correct);
        assert!(checker.cache().stats().entries() > 0, "cache is warm");

        assert_eq!(
            checker
                .append_rows("nflsuspensions", &[fifth_ban()])
                .unwrap(),
            1
        );

        let after = checker.check_text(ARTICLE).unwrap();
        let four = after
            .claims
            .iter()
            .find(|c| c.claimed_value == 4.0)
            .unwrap();
        assert_ne!(
            four.verdict,
            Verdict::Correct,
            "five bans now — a stale cached grid was served"
        );
        // The warm re-check is bit-identical to a cold checker built over
        // the same grown database: patched grids are not approximately
        // fresh, they are the grids a full rescan produces.
        let mut db = nfl_db();
        db.append_rows("nflsuspensions", &[fifth_ban()]).unwrap();
        let cold = AggChecker::new(db, CheckerConfig::default()).unwrap();
        assert_eq!(
            after.content_fingerprint(),
            cold.check_text(ARTICLE).unwrap().content_fingerprint()
        );
    }

    #[test]
    fn ml_query_matches_ground_truth_for_easy_claim() {
        let checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        let report = checker.check_text(ARTICLE).unwrap();
        let four = report
            .claims
            .iter()
            .find(|c| c.claimed_value == 4.0)
            .unwrap();
        let ml = four.ml_query().unwrap();
        let sql = ml.query.to_sql(checker.db());
        assert!(
            sql.contains("games = 'indef'"),
            "expected restriction on games: {sql}"
        );
        assert_eq!(ml.result, Some(4.0));
    }

    #[test]
    fn strategies_agree_on_verdicts() {
        let db = nfl_db();
        let mut verdicts = Vec::new();
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::Merged,
            EvalStrategy::MergedCached,
        ] {
            let cfg = CheckerConfig {
                strategy,
                // Keep the naive run affordable.
                lucene_hits: 8,
                ..CheckerConfig::default()
            };
            let checker = AggChecker::new(db.clone(), cfg).unwrap();
            let report = checker.check_text(ARTICLE).unwrap();
            verdicts.push(report.claims.iter().map(|c| c.verdict).collect::<Vec<_>>());
        }
        assert_eq!(verdicts[0], verdicts[1]);
        assert_eq!(verdicts[1], verdicts[2]);
    }

    #[test]
    fn parallel_scoring_matches_sequential() {
        let db = nfl_db();
        let run = |threads: usize| {
            let cfg = CheckerConfig {
                threads,
                ..CheckerConfig::default()
            };
            let checker = AggChecker::new(db.clone(), cfg).unwrap();
            let report = checker.check_text(ARTICLE).unwrap();
            report
                .claims
                .iter()
                .map(|c| (c.verdict, c.correctness_probability))
                .collect::<Vec<_>>()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.len(), par.len());
        for ((v1, p1), (v2, p2)) in seq.iter().zip(&par) {
            assert_eq!(v1, v2);
            assert!((p1 - p2).abs() < 1e-12);
        }
    }

    #[test]
    fn cache_persists_across_documents() {
        let checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        checker.check_text(ARTICLE).unwrap();
        let hits_before = checker.cache().stats().hits();
        checker.check_text(ARTICLE).unwrap();
        assert!(
            checker.cache().stats().hits() > hits_before,
            "second document reuses cached cubes"
        );
    }

    #[test]
    fn document_without_claims_is_empty_report() {
        let checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        let report = checker
            .check_text("<p>No numbers here at all.</p>")
            .unwrap();
        assert!(report.claims.is_empty());
        assert_eq!(report.stats.claims, 0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = CheckerConfig {
            p_true: 2.0,
            ..CheckerConfig::default()
        };
        assert!(matches!(
            AggChecker::new(nfl_db(), cfg),
            Err(CheckerError::Config(_))
        ));
    }

    #[test]
    fn user_corrections_override_verdicts() {
        use agg_relational::Predicate;
        let db = nfl_db();
        let checker = AggChecker::new(db, CheckerConfig::default()).unwrap();
        let mut report = checker.check_text(ARTICLE).unwrap();
        let idx = report
            .claims
            .iter()
            .position(|c| c.claimed_value == 4.0)
            .unwrap();
        // The user pins the true query: Count(*) WHERE games = 'indef' → 4.
        let games = checker.db().resolve("nflsuspensions", "games").unwrap();
        let q = SimpleAggregateQuery::count_star(vec![Predicate::new(games, "indef")]);
        let verdict = report
            .apply_correction(idx, q.clone(), checker.db())
            .unwrap();
        assert_eq!(verdict, Verdict::Correct);
        assert!(report.claims[idx].top_queries[0]
            .query
            .semantically_equal(&q));
        assert_eq!(report.claims[idx].correctness_probability, 1.0);

        // A wrong correction flips the verdict to erroneous.
        let category = checker.db().resolve("nflsuspensions", "category").unwrap();
        let wrong = SimpleAggregateQuery::count_star(vec![Predicate::new(category, "gambling")]);
        let verdict = report.apply_correction(idx, wrong, checker.db()).unwrap();
        assert_eq!(verdict, Verdict::Erroneous);

        // Out-of-range index is a clean error.
        assert!(report.apply_correction(99, q, checker.db()).is_err());
    }

    #[test]
    fn batch_reports_match_sequential_per_document_runs() {
        let db = nfl_db();
        let wrong = r#"
<h1>Indefinite suspensions</h1>
<p>There were seven previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"#;
        let texts = [ARTICLE, wrong, ARTICLE, wrong, ARTICLE];
        for threads in [1usize, 4] {
            let cfg = CheckerConfig {
                threads,
                ..CheckerConfig::default()
            };
            let batch = BatchVerifier::new(db.clone(), cfg.clone()).unwrap();
            let reports = batch.verify_texts(&texts).unwrap();
            assert_eq!(reports.len(), texts.len());
            for (text, report) in texts.iter().zip(&reports) {
                let solo = AggChecker::new(db.clone(), cfg.clone()).unwrap();
                let expected = solo.check_text(text).unwrap();
                assert_eq!(
                    report.content_fingerprint(),
                    expected.content_fingerprint(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn batch_shares_cache_across_documents() {
        let batch = BatchVerifier::new(nfl_db(), CheckerConfig::default()).unwrap();
        let texts = [ARTICLE; 4];
        batch.verify_texts(&texts).unwrap();
        let stats = batch.checker().cache().stats();
        assert!(
            stats.hits() > 0,
            "later documents must reuse cubes cached by earlier ones"
        );
        // The same claims re-verified can only add hits, never new entries.
        let entries_before = stats.entries();
        batch.verify_texts(&texts).unwrap();
        assert_eq!(batch.checker().cache().stats().entries(), entries_before);
    }

    /// The dedup invariant `bench_pipeline`'s `violations()` checks at
    /// bench scale, here at unit-test scale: the
    /// batched pipeline runs *exactly* as many fused scan passes — and
    /// therefore scans exactly as many rows — at any worker count as at
    /// one worker (single-flight + canonical cube scope + the atomic
    /// whole-wave probe make pass formation order-independent), with
    /// bit-identical reports.
    #[test]
    fn single_flight_keeps_batch_rows_scanned_exact() {
        let db = nfl_db();
        let wrong = r#"
<h1>Indefinite suspensions</h1>
<p>There were seven previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"#;
        let texts = [
            ARTICLE, wrong, ARTICLE, wrong, ARTICLE, ARTICLE, wrong, ARTICLE,
        ];
        let run = |workers: usize| {
            let cfg = CheckerConfig {
                threads: workers,
                ..CheckerConfig::default()
            };
            let batch = BatchVerifier::new(db.clone(), cfg).unwrap();
            let reports = batch.verify_texts(&texts).unwrap();
            let rows: u64 = reports.iter().map(|r| r.stats.rows_scanned).sum();
            let passes: u64 = reports.iter().map(|r| r.stats.scan_passes).sum();
            let tasks: u64 = reports.iter().map(|r| r.stats.tasks_executed).sum();
            let deduped: u64 = reports.iter().map(|r| r.stats.tasks_deduped).sum();
            let fps: Vec<String> = reports.iter().map(|r| r.content_fingerprint()).collect();
            (rows, passes, tasks, deduped, fps)
        };
        let (rows_1w, passes_1w, tasks_1w, deduped_1w, fps_1w) = run(1);
        assert!(rows_1w > 0);
        // Fusion packs many tasks into few passes even at one worker.
        assert!(passes_1w < tasks_1w, "fusion must reduce row passes");
        // Claims of one document share cube groups, so dedup is visible
        // even sequentially.
        assert!(deduped_1w > 0);
        for workers in [2usize, 4, 8] {
            let (rows, passes, tasks, deduped, fps) = run(workers);
            assert_eq!(
                rows, rows_1w,
                "workers={workers}: duplicated or lost cube execution"
            );
            assert_eq!(
                passes, passes_1w,
                "workers={workers}: pass formation depended on scheduling"
            );
            assert_eq!(tasks, tasks_1w, "workers={workers}");
            assert!(deduped >= deduped_1w, "workers={workers}");
            assert_eq!(
                fps, fps_1w,
                "workers={workers}: reports must be bit-identical"
            );
        }
    }

    /// Fusion is purely physical: with `fuse_scans` off the pipeline
    /// reproduces the unfused execution shape (one pass per task, more
    /// scanned rows) and still produces bit-identical reports.
    #[test]
    fn fusion_changes_row_passes_but_not_reports() {
        let db = nfl_db();
        let run = |fuse: bool| {
            let cfg = CheckerConfig {
                fuse_scans: fuse,
                ..CheckerConfig::default()
            };
            let checker = AggChecker::new(db.clone(), cfg).unwrap();
            checker.check_text(ARTICLE).unwrap()
        };
        let fused = run(true);
        let unfused = run(false);
        assert_eq!(
            fused.content_fingerprint(),
            unfused.content_fingerprint(),
            "fusion must not change any report content"
        );
        assert_eq!(fused.stats.tasks_executed, unfused.stats.tasks_executed);
        assert_eq!(
            unfused.stats.scan_passes, unfused.stats.tasks_executed,
            "unfused = one pass per task"
        );
        assert!(
            fused.stats.scan_passes < unfused.stats.scan_passes,
            "fusion must share passes: {} vs {}",
            fused.stats.scan_passes,
            unfused.stats.scan_passes
        );
        assert!(fused.stats.rows_scanned < unfused.stats.rows_scanned);
    }

    #[test]
    fn empty_batch_is_empty_report_list() {
        let batch = BatchVerifier::new(nfl_db(), CheckerConfig::default()).unwrap();
        let none: [&str; 0] = [];
        assert!(batch.verify_texts(&none).unwrap().is_empty());
    }

    #[test]
    fn report_exposes_flagged_claims() {
        let checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        let article = "<h1>Indefinite suspensions</h1><p>There were nine previous lifetime bans in my database.</p>";
        let report = checker.check_text(article).unwrap();
        assert_eq!(report.flagged().count(), 1);
    }

    /// `flagged()` direct coverage: the empty-report edge case (no claims
    /// at all — the `hit_rate`-style 0-of-0 shape) and a mixed report
    /// where it must select exactly the erroneous claims, in order.
    #[test]
    fn flagged_is_empty_on_empty_report_and_selects_only_erroneous() {
        let checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        let empty = checker.check_text("<p>no numbers here</p>").unwrap();
        assert!(empty.claims.is_empty());
        assert_eq!(empty.flagged().count(), 0, "0 of 0, not a panic");

        let mixed = r#"
<h1>Indefinite suspensions</h1>
<p>There were seven previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"#;
        let report = checker.check_text(mixed).unwrap();
        let flagged: Vec<f64> = report.flagged().map(|c| c.claimed_value).collect();
        assert_eq!(flagged, vec![7.0], "exactly the wrong claim, none else");
        // `flagged` borrows; the report is still fully usable afterwards.
        assert_eq!(report.claims.len(), 3);
    }

    /// `apply_correction` direct coverage: the empty-report edge case, the
    /// no-candidate (`Unverifiable`) claim, and the guarantee that a
    /// correction pins exactly one copy of the chosen query at rank 0.
    #[test]
    fn apply_correction_edge_cases() {
        use agg_relational::Predicate;
        let db = nfl_db();
        let checker = AggChecker::new(db, CheckerConfig::default()).unwrap();
        let games = checker.db().resolve("nflsuspensions", "games").unwrap();
        let q = SimpleAggregateQuery::count_star(vec![Predicate::new(games, "indef")]);

        // Empty report: every index is out of range, cleanly.
        let mut empty = checker.check_text("<p>wordless</p>").unwrap();
        assert!(matches!(
            empty.apply_correction(0, q.clone(), checker.db()),
            Err(CheckerError::Config(_))
        ));

        // A correction on a real claim pins the query at rank 0 with
        // probability 1 and removes semantic duplicates of it.
        let mut report = checker.check_text(ARTICLE).unwrap();
        let idx = report
            .claims
            .iter()
            .position(|c| c.claimed_value == 4.0)
            .unwrap();
        let had = report.claims[idx].top_queries.len();
        assert!(had > 1, "precondition: a real top-k list");
        let verdict = report
            .apply_correction(idx, q.clone(), checker.db())
            .unwrap();
        assert_eq!(verdict, Verdict::Correct);
        let claim = &report.claims[idx];
        assert_eq!(claim.top_queries[0].probability, 1.0);
        assert_eq!(claim.top_queries[0].result, Some(4.0));
        assert!(claim.top_queries[0].matches);
        let copies = claim
            .top_queries
            .iter()
            .filter(|rq| rq.query.semantically_equal(&q))
            .count();
        assert_eq!(copies, 1, "the pinned query appears exactly once");

        // Re-applying the same correction is idempotent on list length.
        let len_before = report.claims[idx].top_queries.len();
        report
            .apply_correction(idx, q.clone(), checker.db())
            .unwrap();
        assert_eq!(report.claims[idx].top_queries.len(), len_before);

        // A correction evaluating to SQL NULL never matches: the claim is
        // flagged with probability 0.
        let category = checker.db().resolve("nflsuspensions", "category").unwrap();
        let null_q = SimpleAggregateQuery::new(
            agg_relational::AggFunction::Sum,
            agg_relational::AggColumn::Column(
                checker.db().resolve("nflsuspensions", "year").unwrap(),
            ),
            vec![Predicate::new(category, "no such category")],
        );
        let verdict = report
            .apply_correction(idx, null_q.clone(), checker.db())
            .unwrap();
        assert_eq!(verdict, Verdict::Erroneous);
        let claim = &report.claims[idx];
        assert_eq!(claim.correctness_probability, 0.0);
        assert_eq!(claim.top_queries[0].result, None);
        assert_eq!(claim.verdict, Verdict::Erroneous);
        assert_eq!(
            report.flagged().count(),
            1,
            "the corrected claim is now flagged"
        );
    }
}
