//! Massive-scale candidate evaluation — `RefineByEval`, Algorithm 4 (§6),
//! restructured around the **cube-task scheduler**.
//!
//! Evaluating each candidate separately would be hopeless (Table 6 of the
//! paper: >40 minutes of query time on the full test set). Instead:
//!
//! * candidates of one claim are grouped by their **predicate column set**;
//!   each group becomes one cube query covering every literal combination
//!   (§6.2, query merging);
//! * the relevant literals of each cube are **canonical**: a column's full
//!   catalog literal list whenever it fits a cube dimension (falling back
//!   to §6.3's document-wide sets for very wide columns), so every claim
//!   of every document requests identical coverage per cache key and cube
//!   slices are reusable across claims, EM iterations, and documents. The
//!   lists are **shared, not copied** (`agg_relational::Literals`): a
//!   request, the cube built for it and the slices cut from that cube all
//!   hold the catalog's own allocation, so "same coverage" is a pointer
//!   comparison wherever it is asked;
//! * [`Evaluator::evaluate_all`] plans **all claims of a document at
//!   once**: per-claim groups that need the same (dimensions, literals)
//!   cube collapse into one cube task (counted as
//!   [`EvalStats::tasks_deduped`]), and the resulting task set — the
//!   claims × cubes work of the whole document — goes through
//!   `agg_relational::schedule::run_requests`, the one implementation of
//!   the probe/bundle/wave/collect protocol (this planner is its one
//!   client): one atomic cache probe for the whole wave, the misses
//!   bundled into tasks, same-scope tasks **fused** into single row passes
//!   (`ScanGroup`, one table scan per distinct table scope instead of one
//!   per task), executed inline or on up to [`Evaluator::set_threads`]
//!   workers — or on a shared [`CubeScheduler`] spanning every document of
//!   a batch ([`Evaluator::set_scheduler`], see `pipeline::BatchVerifier`);
//! * finished slices are **demultiplexed by code, not by value**, into
//!   per-claim [`ResultsMatrix`] rows. Resolved once per (cube group,
//!   distinct cube): the map from catalog literal position to the cube's
//!   literal code — the identity when the cube was built over the catalog
//!   column's own list, a by-value lookup remembered per position when it
//!   was not (document-wide fallback, or a wider slice another request
//!   published), "absent" reading as NULL like any coverage miss. Once
//!   per claim group: which cube and aggregate index each aggregate pair
//!   reads, and the `Percentage` denominator. Once per combo: its packed
//!   `GroupKey`, built on the stack, and **one** group lookup per distinct
//!   cube (plus the condition-only group when a `ConditionalProbability`
//!   pair is present); every pair's aggregate is then an index into that
//!   row. `docs/architecture.md` ("The candidate plane") has the whole
//!   path and why it is recomputed per EM iteration;
//! * slices are stored in the shared [`EvalCache`] keyed by (aggregation
//!   function, aggregation column, dimension set) — the cache granularity
//!   the paper found to perform best. The cache is **lock-striped** into
//!   shards, and every miss goes through the cache's **single-flight**
//!   latch: of N workers missing the same key concurrently, exactly one
//!   executes the cube and the rest block for its published slice
//!   ([`EvalStats::singleflight_waits`]). With [`TaskBundling::Canonical`]
//!   (batch mode) the executed-task set is fully order-independent, so
//!   batched verification executes *exactly* the cubes a sequential run
//!   does — `bench_pipeline`'s `violations()` holds `tasks_executed`
//!   equal at every worker count;
//! * cube tasks scan sequentially — parallelism comes from running many
//!   cubes at once — so f64 accumulation order, and therefore every
//!   report, is bit-identical across worker counts. Dense accumulator
//!   grids are drawn from an optional [`GridArena`]
//!   ([`Evaluator::set_arena`]) so buffers persist across cube executions
//!   instead of being reallocated per cube;
//! * ratio aggregates (`Percentage`, `ConditionalProbability`) are derived
//!   from `Count` slices per footnote 1.

use crate::candidates::CandidateSet;
use crate::fragments::FragmentCatalog;
use agg_relational::{
    ratio_from_counts, run_requests, same_literals, AggColumn, AggFunction, CachedSlice, ColumnRef,
    CubeResult, CubeScheduler, Database, EvalCache, GridArena, GroupKey, ListPairMemo, Literals,
    Result, ScanCounters, Value, WaveExec, WaveRequest, WaveStats,
};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use agg_relational::TaskBundling;

/// Per-run evaluation statistics (feeds Table 6 and `RunStats`): this
/// layer's own ledger plus the shared scan-plane counters, readable as
/// plain fields (`stats.rows_scanned`) through `Deref`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStats {
    /// Candidate (query, claim) evaluations resolved.
    pub candidates_evaluated: u64,
    /// Cube queries actually executed on behalf of this evaluator.
    pub cubes_executed: u64,
    /// Cube slice requests served from the cache.
    pub cubes_cached: u64,
    /// Aggregate-key requests resolved without a new execution: merged
    /// into another claim's identical cube group at planning time, or
    /// satisfied by another worker's in-flight computation
    /// (single-flight). Counted per key in both cases, so the value is
    /// comparable across modes and against `tasks_executed`.
    pub tasks_deduped: u64,
    /// Subset of [`EvalStats::tasks_deduped`]: requests that blocked on
    /// another worker's in-flight cube and received its published slice.
    pub singleflight_waits: u64,
    /// What this evaluator's waves executed and scanned.
    pub scan: ScanCounters,
}

impl std::ops::Deref for EvalStats {
    type Target = ScanCounters;
    fn deref(&self) -> &ScanCounters {
        &self.scan
    }
}

impl EvalStats {
    pub fn merge(&mut self, other: &EvalStats) {
        self.candidates_evaluated += other.candidates_evaluated;
        self.cubes_executed += other.cubes_executed;
        self.cubes_cached += other.cubes_cached;
        self.tasks_deduped += other.tasks_deduped;
        self.singleflight_waits += other.singleflight_waits;
        self.scan.merge(&other.scan);
    }

    /// Fold one finished wave in.
    pub(crate) fn absorb(&mut self, wave: &WaveStats) {
        self.cubes_cached += wave.key_hits;
        // A wave joined in flight was deduplicated exactly like one merged
        // at planning time; both land in `tasks_deduped`, waits also in
        // their own counter (net of poison-retry takeovers, which the
        // orchestration already moved back across the ledger).
        self.singleflight_waits += wave.key_waits;
        self.tasks_deduped += wave.key_waits;
        // Table 6's "cubes executed" is this layer's name for the tasks
        // the wave ran — the one shared counter read here by name.
        self.cubes_executed += wave.tasks_executed;
        self.scan.merge(&wave.scan);
    }
}

/// Dense result matrix: one `Option<f64>` per (combo, aggregate pair).
#[derive(Debug, Clone)]
pub struct ResultsMatrix {
    n_pairs: usize,
    data: Vec<Option<f64>>,
}

impl ResultsMatrix {
    fn new(n_combos: usize, n_pairs: usize) -> ResultsMatrix {
        ResultsMatrix {
            n_pairs,
            data: vec![None; n_combos * n_pairs],
        }
    }

    #[inline]
    pub fn get(&self, combo: usize, pair: usize) -> Option<f64> {
        self.data[combo * self.n_pairs + pair]
    }

    /// One combo's results, one per aggregate pair.
    #[inline]
    pub fn row(&self, combo: usize) -> &[Option<f64>] {
        &self.data[combo * self.n_pairs..][..self.n_pairs]
    }

    #[inline]
    fn row_mut(&mut self, combo: usize) -> &mut [Option<f64>] {
        &mut self.data[combo * self.n_pairs..][..self.n_pairs]
    }

    #[inline]
    fn set(&mut self, combo: usize, pair: usize, value: Option<f64>) {
        self.data[combo * self.n_pairs + pair] = value;
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// How one aggregate pair reads its value from a cube slice.
#[derive(Debug, Clone, Copy)]
enum PairPlan {
    /// Read the value aggregate at `slice` directly.
    Direct { slice: usize },
    /// `100 · count(assignment) / count(all-unrestricted)`.
    Percentage { count_slice: usize },
    /// `100 · count(assignment) / count(condition only)`.
    CondProb { count_slice: usize },
}

/// The widest catalog literal list that is canonicalized into a cube
/// dimension wholesale (the cube operator itself admits at most 253
/// literals plus the `OTHER` bucket per dimension). Columns above this
/// fall back to document-wide literal sets.
const CANONICAL_LITERAL_CAP: usize = 253;

/// One distinct cube required by the document: a (dimensions, relevant
/// literals) pair plus the union of value aggregates every claim needs
/// from it.
struct CubeGroup {
    cols: Vec<u16>,
    dims: Vec<ColumnRef>,
    /// Per dimension, the catalog column's own list (shared, never copied)
    /// or a document-wide fallback list for a column too wide for that.
    relevant: Vec<Literals>,
    aggs: Vec<(AggFunction, AggColumn)>,
}

/// One claim's combos that read from a [`CubeGroup`].
struct ClaimGroup {
    group: usize,
    combo_ids: Vec<u32>,
    /// Claim value-aggregate slot → aggregate index within the group.
    slot_map: Vec<usize>,
}

/// The per-claim part of a document plan.
struct ClaimPlan {
    plans: Vec<PairPlan>,
    n_value_aggs: usize,
    claim_groups: Vec<ClaimGroup>,
}

/// Memo states of [`DimCodes::ByValue`].
const UNRESOLVED: u16 = u16::MAX;
const ABSENT: u16 = u16::MAX - 1;

/// Catalog literal position → literal code in one dimension of one cube.
enum DimCodes {
    /// The cube was built over the catalog column's own list: a literal's
    /// position is its code.
    Identity,
    /// The cube's list differs (document-wide fallback, or a covering slice
    /// another document published): resolved by value on first use and
    /// remembered per catalog position.
    ByValue(Vec<u16>),
}

/// Everything resolved once per (cube group, distinct resolved cube) and
/// shared by every claim that reads the cube: its per-dimension code maps.
struct CubeCodes<'r> {
    cube: &'r CubeResult,
    dims: Vec<DimCodes>,
}

impl<'r> CubeCodes<'r> {
    fn new(
        cube: &'r CubeResult,
        group: &CubeGroup,
        catalog: &FragmentCatalog,
        same: &mut ListPairMemo,
    ) -> Self {
        debug_assert_eq!(
            cube.dims(),
            &group.dims[..],
            "slices follow the group's dims"
        );
        let dims = group
            .cols
            .iter()
            .zip(cube.relevant())
            .map(|(&c, have)| {
                let lits = &catalog.literals[c as usize];
                if same.same(have, lits) {
                    DimCodes::Identity
                } else {
                    DimCodes::ByValue(vec![UNRESOLVED; lits.len()])
                }
            })
            .collect();
        CubeCodes { cube, dims }
    }

    /// The code of catalog literal `l` of `lits` in dimension `d`; `None`
    /// when the cube's list does not hold it (a coverage violation, which
    /// reads as NULL like any other miss).
    #[inline]
    fn code(&mut self, d: usize, lits: &[Value], l: u16) -> Option<u8> {
        match &mut self.dims[d] {
            DimCodes::Identity => Some(l as u8),
            DimCodes::ByValue(memo) => {
                let slot = &mut memo[l as usize];
                if *slot == UNRESOLVED {
                    *slot = self
                        .cube
                        .literal_index(d, &lits[l as usize])
                        .map_or(ABSENT, |i| i as u16);
                }
                (*slot != ABSENT).then_some(*slot as u8)
            }
        }
    }
}

/// The code maps of one wave's demultiplexing, compiled on first use:
/// `cubes[group]` holds one entry per distinct cube the group's slices were
/// cut from.
struct DemuxCodes<'r> {
    cubes: Vec<Vec<CubeCodes<'r>>>,
    /// Which cube lists are the catalog's lists, asked once per list pair.
    same: ListPairMemo,
}

/// One combo's groups in one cube.
#[derive(Clone, Copy, Default)]
struct ComboRows<'r> {
    /// The combo's own group: outer `None` = a literal the cube does not
    /// hold, inner `None` = no row fell in the group.
    full: Option<Option<&'r [Option<f64>]>>,
    /// The group of the combo's first (condition) predicate alone — the
    /// conditional-probability denominator.
    condition: Option<&'r [Option<f64>]>,
}

/// How one aggregate pair reads its value, compiled per claim group.
enum PairRead<'r> {
    Direct {
        cube: usize,
        slice: &'r CachedSlice,
    },
    Percentage {
        cube: usize,
        slice: &'r CachedSlice,
        /// `count(all-unrestricted)`, read once per claim group.
        denominator: f64,
    },
    CondProb {
        cube: usize,
        slice: &'r CachedSlice,
    },
}

/// Evaluates candidate sets against the database with merging, caching,
/// and cube-task scheduling.
pub struct Evaluator<'a> {
    db: &'a Arc<Database>,
    catalog: &'a FragmentCatalog,
    cache: Option<EvalCache>,
    /// Document-wide relevant literals (§6.3's cache-friendly literal sets)
    /// of the predicate columns too wide to canonicalize; `None` for every
    /// other column and where nothing was declared.
    document_literals: Vec<Option<Literals>>,
    /// Concurrent cube tasks per evaluation wave (`CheckerConfig::threads`)
    /// when no shared scheduler is attached.
    threads: usize,
    /// Dense-grid buffer pool persisted across cube executions (batch mode
    /// hands each worker thread one arena for its whole document stream).
    arena: Option<&'a GridArena>,
    /// Shared cube-task scheduler (batch mode): tasks from every document
    /// of the batch drain through one pool instead of per-wave threads.
    scheduler: Option<&'a CubeScheduler>,
    /// How missing aggregates are grouped into tasks (see [`TaskBundling`]).
    bundling: TaskBundling,
    /// Fuse same-scope tasks of one wave into shared scan passes; `false`
    /// reproduces the unfused one-pass-per-task shape for A/B comparison.
    fuse: bool,
    /// Storage blocks per fixed scan partition (`CheckerConfig::
    /// partition_blocks`; 0 disables partitioning). Part of the
    /// determinism contract's inputs, never of its outputs.
    partition_blocks: usize,
    pub stats: EvalStats,
}

impl<'a> Evaluator<'a> {
    /// `cache = None` gives the "+ Query Merging" row of Table 6 (merged
    /// cubes, no reuse); `Some` adds "+ Caching".
    pub fn new(
        db: &'a Arc<Database>,
        catalog: &'a FragmentCatalog,
        cache: Option<EvalCache>,
    ) -> Evaluator<'a> {
        Evaluator {
            db,
            catalog,
            cache,
            document_literals: vec![None; catalog.predicate_columns.len()],
            threads: 1,
            arena: None,
            scheduler: None,
            bundling: TaskBundling::default(),
            fuse: true,
            partition_blocks: agg_relational::DEFAULT_PARTITION_BLOCKS,
            stats: EvalStats::default(),
        }
    }

    /// Choose how missing aggregates bundle into cube tasks (results are
    /// unaffected; see [`TaskBundling`]).
    pub fn set_bundling(&mut self, bundling: TaskBundling) {
        self.bundling = bundling;
    }

    /// Enable or disable fused multi-cube scans (results are unaffected —
    /// fusion is purely physical; see `agg_relational::schedule`).
    pub fn set_fusion(&mut self, fuse: bool) {
        self.fuse = fuse;
    }

    /// Set the fixed scan-partition span in storage blocks (0 disables
    /// partitioning). Results are unaffected as long as every run over
    /// the same corpus uses the same span — the span shapes the
    /// deterministic partition/merge tree, not the semantics.
    pub fn set_partition_blocks(&mut self, blocks: usize) {
        self.partition_blocks = blocks;
    }

    /// Run up to `threads` concurrent cube tasks per evaluation wave (the
    /// `CheckerConfig::threads` knob). Ignored while a shared scheduler is
    /// attached — the batch pool then provides the parallelism.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Reuse dense-grid buffers from `arena` across this evaluator's cube
    /// executions (and, when callers share the arena, across documents).
    pub fn set_arena(&mut self, arena: &'a GridArena) {
        self.arena = Some(arena);
    }

    /// Submit cube tasks to a shared scheduler (the batch pool) instead of
    /// spawning a per-wave scoped pool. The evaluator still helps drain
    /// the queue while its own tasks are pending.
    pub fn set_scheduler(&mut self, scheduler: &'a CubeScheduler) {
        self.scheduler = Some(scheduler);
    }

    /// Declare the document-wide literal sets: the union of scoped literal
    /// positions per predicate column over *all* claims of the document.
    /// Only columns too wide to canonicalize read them; each such column's
    /// list is built here once and shared by every cube over the column.
    pub fn set_document_literals(&mut self, literals: Vec<Vec<usize>>) {
        assert_eq!(literals.len(), self.catalog.predicate_columns.len());
        self.document_literals = literals
            .iter()
            .zip(&self.catalog.literals)
            .map(|(positions, lits)| {
                (lits.len() > CANONICAL_LITERAL_CAP && !positions.is_empty())
                    .then(|| positions.iter().map(|&l| lits[l].clone()).collect())
            })
            .collect();
    }

    /// Evaluate every candidate of one claim. Equivalent to a one-claim
    /// [`Evaluator::evaluate_all`].
    pub fn evaluate(&mut self, candidates: &CandidateSet) -> Result<ResultsMatrix> {
        Ok(self
            .evaluate_all(std::slice::from_ref(candidates))?
            .pop()
            .expect("one matrix per candidate set"))
    }

    /// Evaluate every candidate of **all** claims of a document in one
    /// scheduling wave: plan the distinct cubes the claims need, submit
    /// them as `CubeTask`s (deduplicating identical requests across
    /// claims and — via the cache's single-flight latch — across
    /// concurrent workers), execute, and demultiplex the finished slices
    /// back into one [`ResultsMatrix`] per claim.
    pub fn evaluate_all(&mut self, sets: &[CandidateSet]) -> Result<Vec<ResultsMatrix>> {
        // ---- Phase 1: plan claims and collect distinct cube groups. ----
        let mut groups: Vec<CubeGroup> = Vec::new();
        let claim_plans: Vec<ClaimPlan> = sets
            .iter()
            .map(|set| self.plan_claim(set, &mut groups))
            .collect();

        // ---- Phase 2: run the wave through the shared orchestration
        // layer (`agg_relational::schedule::run_requests` — the one
        // implementation of the probe/bundle/fuse/collect protocol): one
        // atomic cache probe for the whole wave, missing aggregates
        // bundled into tasks, same-scope tasks fused into shared scan
        // passes, execution on the batch scheduler or a scoped pool, and
        // collection with poisoned flights retried inline.
        let requests: Vec<WaveRequest<'_>> = groups
            .iter()
            .map(|group| WaveRequest {
                dims: &group.dims,
                relevant: &group.relevant,
                aggs: &group.aggs,
            })
            .collect();
        let exec = WaveExec {
            cache: self.cache.as_ref(),
            arena: self.arena,
            scheduler: self.scheduler,
            threads: self.threads,
            bundling: self.bundling,
            fuse: self.fuse,
            partition_blocks: self.partition_blocks,
        };
        let outcome = run_requests(self.db, &exec, &requests)?;
        self.stats.absorb(&outcome.stats);
        let resolved = outcome.slices;

        // ---- Phase 3: demultiplex into per-claim result matrices. Code
        // maps are compiled per (group, resolved cube) on first use and
        // shared by every claim after.
        let mut codes = DemuxCodes {
            cubes: groups.iter().map(|_| Vec::new()).collect(),
            same: ListPairMemo::default(),
        };
        Ok(sets
            .iter()
            .zip(&claim_plans)
            .map(|(set, plan)| self.demux_claim(set, plan, &groups, &resolved, &mut codes))
            .collect())
    }

    /// The relevant literals of predicate column `c` in any cube of
    /// `candidates`. Canonical: the column's full catalog list whenever it
    /// fits a cube dimension, shared with the catalog. Every claim of every
    /// document then requests *identical* coverage per cache key, which is
    /// what makes cube executions dedupable across concurrent workers with
    /// an exact row count — batched `rows_scanned` equals the sequential
    /// run no matter how the scheduler interleaves documents. Columns too
    /// wide for a cube dimension fall back to the document-wide literal
    /// union (§6.3), and to this claim's own literals when none were
    /// declared.
    fn group_literals(&self, c: u16, candidates: &CandidateSet) -> Literals {
        let lits = &self.catalog.literals[c as usize];
        if lits.len() <= CANONICAL_LITERAL_CAP {
            return lits.clone();
        }
        if let Some(document_wide) = &self.document_literals[c as usize] {
            return document_wide.clone();
        }
        candidates
            .combos
            .iter()
            .flatten()
            .filter(|(cc, _)| *cc == c)
            .map(|(_, l)| *l)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|l| lits[l as usize].clone())
            .collect()
    }

    /// Plan one claim: pair plans, combo groups, and their mapping into the
    /// document-wide cube groups (inserting new groups as needed).
    fn plan_claim(&mut self, candidates: &CandidateSet, groups: &mut Vec<CubeGroup>) -> ClaimPlan {
        // Map each aggregate pair to the value aggregate it needs.
        let mut value_aggs: Vec<(AggFunction, AggColumn)> = Vec::new();
        let agg_slot = |aggs: &mut Vec<(AggFunction, AggColumn)>, f: AggFunction, c: AggColumn| {
            aggs.iter()
                .position(|(af, ac)| *af == f && *ac == c)
                .unwrap_or_else(|| {
                    aggs.push((f, c));
                    aggs.len() - 1
                })
        };
        let plans: Vec<PairPlan> = candidates
            .agg_pairs
            .iter()
            .map(|&(fi, ai)| {
                let f = self.catalog.functions[fi as usize];
                let col = self.catalog.agg_columns[ai as usize];
                match f {
                    AggFunction::Percentage => PairPlan::Percentage {
                        count_slice: agg_slot(&mut value_aggs, AggFunction::Count, col),
                    },
                    AggFunction::ConditionalProbability => PairPlan::CondProb {
                        count_slice: agg_slot(&mut value_aggs, AggFunction::Count, col),
                    },
                    _ => PairPlan::Direct {
                        slice: agg_slot(&mut value_aggs, f, col),
                    },
                }
            })
            .collect();

        // Group combos by (sorted) predicate column set; a column set is
        // allocated once per group, not once per combo.
        let mut combo_groups: BTreeMap<Vec<u16>, Vec<u32>> = BTreeMap::new();
        let mut cols: Vec<u16> = Vec::new();
        for (ci, combo) in candidates.combos.iter().enumerate() {
            cols.clear();
            cols.extend(combo.iter().map(|(c, _)| *c));
            cols.sort_unstable();
            match combo_groups.get_mut(cols.as_slice()) {
                Some(combo_ids) => combo_ids.push(ci as u32),
                None => {
                    combo_groups.insert(cols.clone(), vec![ci as u32]);
                }
            }
        }

        let claim_groups = combo_groups
            .into_iter()
            .map(|(cols, combo_ids)| {
                let relevant: Vec<Literals> = cols
                    .iter()
                    .map(|&c| self.group_literals(c, candidates))
                    .collect();
                // Claims needing the same (dims, literals) cube share one
                // group — and therefore one task. Canonical and
                // document-wide lists are shared, so the match is on `cols`
                // plus pointer identity; only a per-claim fallback list is
                // ever compared by value. Dedup is counted in
                // aggregate-key units (every key this claim would have
                // probed separately), the same unit the single-flight
                // path uses, so the counter is comparable across modes.
                let same_cube = |g: &CubeGroup| {
                    g.cols == cols
                        && g.relevant
                            .iter()
                            .zip(&relevant)
                            .all(|(a, b)| same_literals(a, b))
                };
                let group = match groups.iter().position(same_cube) {
                    Some(idx) => {
                        self.stats.tasks_deduped += value_aggs.len() as u64;
                        idx
                    }
                    None => {
                        let dims = cols
                            .iter()
                            .map(|&c| self.catalog.predicate_columns[c as usize])
                            .collect();
                        groups.push(CubeGroup {
                            cols,
                            dims,
                            relevant,
                            aggs: Vec::new(),
                        });
                        groups.len() - 1
                    }
                };
                // Claims of one document mostly need the same aggregates in
                // the same order: then the slots are the group's own.
                let group_aggs = &mut groups[group].aggs;
                if group_aggs.is_empty() {
                    group_aggs.extend_from_slice(&value_aggs);
                }
                let slot_map = if group_aggs.starts_with(&value_aggs) {
                    (0..value_aggs.len()).collect()
                } else {
                    value_aggs
                        .iter()
                        .map(|&(f, c)| agg_slot(group_aggs, f, c))
                        .collect()
                };
                ClaimGroup {
                    group,
                    combo_ids,
                    slot_map,
                }
            })
            .collect();

        ClaimPlan {
            plans,
            n_value_aggs: value_aggs.len(),
            claim_groups,
        }
    }

    /// Resolve one claim's matrix from the finished cube groups: per claim
    /// group, compile how each aggregate pair reads its slice; per combo,
    /// pack its group key once per distinct cube and do one group lookup
    /// there; per pair, read the aggregate out of that row.
    fn demux_claim<'r>(
        &mut self,
        candidates: &CandidateSet,
        plan: &ClaimPlan,
        groups: &[CubeGroup],
        resolved: &'r [Vec<CachedSlice>],
        codes: &mut DemuxCodes<'r>,
    ) -> ResultsMatrix {
        let n_pairs = candidates.agg_pairs.len();
        let mut matrix = ResultsMatrix::new(candidates.combos.len(), n_pairs);
        // Per-claim-group scratch, reused: a claim has dozens of groups of
        // a few combos each.
        let mut cubes: Vec<usize> = Vec::new();
        let mut reads: Vec<PairRead<'r>> = Vec::with_capacity(n_pairs);
        let mut rows: Vec<ComboRows<'r>> = Vec::new();
        for claim_group in &plan.claim_groups {
            let group = &groups[claim_group.group];
            let group_codes = &mut codes.cubes[claim_group.group];
            debug_assert_eq!(claim_group.slot_map.len(), plan.n_value_aggs);

            // A claim value-aggregate slot's slice, and the position in
            // `cubes` of the cube it is cut from: `cubes` lists the distinct
            // cubes this claim group reads, as indexes into the group's
            // code maps.
            cubes.clear();
            let mut locate = |slot: usize| -> (usize, &'r CachedSlice) {
                let slice = &resolved[claim_group.group][claim_group.slot_map[slot]];
                let cube: &'r CubeResult = slice.cube();
                let compiled = group_codes
                    .iter()
                    .position(|cc| std::ptr::eq(cc.cube, cube))
                    .unwrap_or_else(|| {
                        group_codes.push(CubeCodes::new(
                            cube,
                            group,
                            self.catalog,
                            &mut codes.same,
                        ));
                        group_codes.len() - 1
                    });
                let k = cubes
                    .iter()
                    .position(|&k| k == compiled)
                    .unwrap_or_else(|| {
                        cubes.push(compiled);
                        cubes.len() - 1
                    });
                (k, slice)
            };
            reads.clear();
            reads.extend(plan.plans.iter().map(|pair_plan| match *pair_plan {
                PairPlan::Direct { slice } => {
                    let (cube, slice) = locate(slice);
                    PairRead::Direct { cube, slice }
                }
                PairPlan::Percentage { count_slice } => {
                    let (cube, slice) = locate(count_slice);
                    PairRead::Percentage {
                        cube,
                        slice,
                        denominator: slice.read_count(slice.cube().group(GroupKey::UNRESTRICTED)),
                    }
                }
                PairPlan::CondProb { count_slice } => {
                    let (cube, slice) = locate(count_slice);
                    PairRead::CondProb { cube, slice }
                }
            }));
            let conditional = reads
                .iter()
                .any(|read| matches!(read, PairRead::CondProb { .. }));

            rows.clear();
            rows.resize(cubes.len(), ComboRows::default());
            for &ci in &claim_group.combo_ids {
                let combo = &candidates.combos[ci as usize];
                for (row, &k) in rows.iter_mut().zip(&cubes) {
                    let cube_codes = &mut group_codes[k];
                    let mut key = Some(GroupKey::UNRESTRICTED);
                    // Condition = the first (highest-relevance) pair.
                    let mut condition = None;
                    for (rank, &(c, l)) in combo.iter().enumerate() {
                        let d = group
                            .cols
                            .iter()
                            .position(|cc| *cc == c)
                            .expect("dim present");
                        let code = cube_codes.code(d, &self.catalog.literals[c as usize], l);
                        key = key.zip(code).map(|(key, code)| key.with_literal(d, code));
                        if rank == 0 {
                            condition =
                                code.map(|code| GroupKey::UNRESTRICTED.with_literal(d, code));
                        }
                    }
                    let cube = cube_codes.cube;
                    row.full = key.map(|key| cube.group(key));
                    row.condition = match condition {
                        Some(key) if conditional && row.full.is_some() => cube.group(key),
                        _ => None,
                    };
                }
                for (cell, read) in matrix.row_mut(ci as usize).iter_mut().zip(&reads) {
                    *cell = match *read {
                        PairRead::Direct { cube, slice } => {
                            rows[cube].full.and_then(|group| slice.read(group))
                        }
                        PairRead::Percentage {
                            cube,
                            slice,
                            denominator,
                        } => rows[cube].full.and_then(|group| {
                            ratio_from_counts(slice.read_count(group), denominator)
                        }),
                        // Invalid without a condition predicate.
                        PairRead::CondProb { .. } if combo.is_empty() => None,
                        PairRead::CondProb { cube, slice } => rows[cube].full.and_then(|group| {
                            ratio_from_counts(
                                slice.read_count(group),
                                slice.read_count(rows[cube].condition),
                            )
                        }),
                    };
                }
            }
            self.stats.candidates_evaluated += claim_group.combo_ids.len() as u64 * n_pairs as u64;
        }
        matrix
    }
}

/// The naive evaluation strategy of Table 6: every candidate becomes its
/// own query, executed separately — no merging, no caching.
pub fn evaluate_naive(
    db: &Database,
    catalog: &FragmentCatalog,
    candidates: &CandidateSet,
    stats: &mut EvalStats,
) -> Result<ResultsMatrix> {
    let n_pairs = candidates.agg_pairs.len();
    let mut matrix = ResultsMatrix::new(candidates.combos.len(), n_pairs);
    for ci in 0..candidates.combos.len() {
        for pi in 0..n_pairs {
            let cand = crate::candidates::Candidate {
                combo: ci as u32,
                pair: pi as u32,
            };
            if !candidates.is_valid(catalog, cand) {
                continue;
            }
            let query = candidates.to_query(catalog, cand);
            let value = agg_relational::execute_query(db, &query)?;
            matrix.set(ci, pi, value);
            stats.candidates_evaluated += 1;
            stats.scan.rows_scanned += db.total_rows() as u64;
        }
    }
    Ok(matrix)
}

/// Collect document-wide literal sets from scopes: merge per-claim scoped
/// pairs into per-column sorted positions. The pairs arrive once per combo
/// that uses them — tens of thousands naming a few dozen literals — so
/// each column marks positions in a bitmap and lists them once at the end.
pub fn document_literal_union(
    n_pred_cols: usize,
    scoped_pairs: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<Vec<usize>> {
    let mut seen: Vec<Vec<bool>> = vec![Vec::new(); n_pred_cols];
    for (c, l) in scoped_pairs {
        let marks = &mut seen[c];
        if marks.len() <= l {
            marks.resize(l + 1, false);
        }
        marks[l] = true;
    }
    seen.iter()
        .map(|marks| (0..marks.len()).filter(|&l| marks[l]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Candidate;
    use crate::fragments::CatalogConfig;
    use crate::scope::Scope;
    use agg_relational::{execute_query, Table};

    fn nfl_db() -> Arc<Database> {
        let t = Table::from_columns(
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
                    ],
                ),
                (
                    "category",
                    vec![
                        "substance abuse, repeated offense".into(),
                        "substance abuse, repeated offense".into(),
                        "substance abuse, repeated offense".into(),
                        "gambling".into(),
                        "peds".into(),
                        "personal conduct".into(),
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
                    ],
                ),
            ],
        )
        .unwrap();
        let mut db = Database::new("nfl");
        db.add_table(t);
        Arc::new(db)
    }

    fn full_scope(cat: &FragmentCatalog) -> Scope {
        let mut pairs = Vec::new();
        for (c, lits) in cat.literals.iter().enumerate() {
            for l in 0..lits.len() {
                pairs.push((c, l));
            }
        }
        Scope {
            agg_columns: (0..cat.agg_columns.len()).collect(),
            predicate_pairs: pairs,
        }
    }

    #[test]
    fn merged_results_agree_with_naive_execution() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let scope = full_scope(&cat);
        let set = CandidateSet::enumerate(&cat, &scope, 2, 100_000);

        let mut evaluator = Evaluator::new(&db, &cat, Some(EvalCache::new()));
        let merged = evaluator.evaluate(&set).unwrap();

        for ci in 0..set.combos.len() {
            for pi in 0..set.agg_pairs.len() {
                let cand = Candidate {
                    combo: ci as u32,
                    pair: pi as u32,
                };
                if !set.is_valid(&cat, cand) {
                    continue;
                }
                let q = set.to_query(&cat, cand);
                let naive = execute_query(&db, &q).unwrap();
                assert_eq!(merged.get(ci, pi), naive, "mismatch for {}", q.to_sql(&db));
            }
        }
    }

    #[test]
    fn caching_eliminates_cube_executions_on_rerun() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let scope = full_scope(&cat);
        let set = CandidateSet::enumerate(&cat, &scope, 2, 100_000);
        let cache = EvalCache::new();

        let mut e1 = Evaluator::new(&db, &cat, Some(cache.clone()));
        let m1 = e1.evaluate(&set).unwrap();
        assert!(e1.stats.cubes_executed > 0);

        let mut e2 = Evaluator::new(&db, &cat, Some(cache));
        let m2 = e2.evaluate(&set).unwrap();
        assert_eq!(e2.stats.cubes_executed, 0, "everything cached");
        assert!(e2.stats.cubes_cached > 0);
        assert_eq!(m1.len(), m2.len());
        for ci in 0..set.combos.len() {
            for pi in 0..set.agg_pairs.len() {
                assert_eq!(m1.get(ci, pi), m2.get(ci, pi));
            }
        }
    }

    #[test]
    fn merging_without_cache_still_works() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let scope = full_scope(&cat);
        let set = CandidateSet::enumerate(&cat, &scope, 2, 100_000);
        let mut e = Evaluator::new(&db, &cat, None);
        let m = e.evaluate(&set).unwrap();
        assert!(!m.is_empty());
        assert!(e.stats.cubes_executed > 0);
        assert_eq!(e.stats.cubes_cached, 0);
    }

    #[test]
    fn naive_strategy_matches_merged() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let scope = Scope {
            agg_columns: vec![0, 1],
            predicate_pairs: vec![(0, 0), (1, 0)],
        };
        let set = CandidateSet::enumerate(&cat, &scope, 2, 1000);
        let mut stats = EvalStats::default();
        let naive = evaluate_naive(&db, &cat, &set, &mut stats).unwrap();
        let mut e = Evaluator::new(&db, &cat, None);
        let merged = e.evaluate(&set).unwrap();
        for ci in 0..set.combos.len() {
            for pi in 0..set.agg_pairs.len() {
                let cand = Candidate {
                    combo: ci as u32,
                    pair: pi as u32,
                };
                if !set.is_valid(&cat, cand) {
                    continue;
                }
                assert_eq!(naive.get(ci, pi), merged.get(ci, pi));
            }
        }
        assert!(stats.candidates_evaluated > 0);
        // Merging needs far fewer row scans than naive evaluation.
        assert!(e.stats.rows_scanned < stats.rows_scanned);
    }

    #[test]
    fn document_literal_union_merges_and_sorts() {
        let union = document_literal_union(3, vec![(0, 2), (0, 1), (2, 0), (0, 2)]);
        assert_eq!(union[0], vec![1, 2]);
        assert!(union[1].is_empty());
        assert_eq!(union[2], vec![0]);
    }

    /// A cube group's identity: dimensions, relevant literals, aggregates.
    type GroupSpec = (Vec<ColumnRef>, Vec<Literals>, Vec<(AggFunction, AggColumn)>);

    /// The group (dims, literals, aggregates) the evaluator will request
    /// for [`single_group_set`], mirroring `plan_claim`'s canonicalization:
    /// the column's full catalog literal list, and the claim's value
    /// aggregates (one `Count(*)` here).
    fn canonical_group(cat: &FragmentCatalog) -> GroupSpec {
        let dims = vec![cat.predicate_columns[0]];
        let relevant = vec![cat.literals[0].clone()];
        (dims, relevant, vec![(AggFunction::Count, AggColumn::Star)])
    }

    /// A candidate set with exactly one combo on predicate column 0 and one
    /// Count(*) aggregate pair — exactly one cube group.
    fn single_group_set(cat: &FragmentCatalog) -> CandidateSet {
        let count_fi = cat
            .functions
            .iter()
            .position(|f| *f == AggFunction::Count)
            .expect("catalog has Count") as u16;
        let star_ai = cat
            .agg_columns
            .iter()
            .position(|c| *c == AggColumn::Star)
            .expect("catalog has *") as u16;
        CandidateSet {
            combos: vec![vec![(0u16, 0u16)]],
            agg_pairs: vec![(count_fi, star_ai)],
        }
    }

    /// 8 concurrent evaluators hammering one cube's cache keys, all of
    /// which are pre-claimed by the test: every evaluator must block on
    /// the in-flight computation (deterministically — the guards are held
    /// until all waits are registered), receive the single published cube,
    /// and produce a bit-identical results matrix without executing
    /// anything itself.
    #[test]
    fn single_flight_stress_eight_workers_share_one_execution() {
        use agg_relational::{CacheKey, CubeQuery, Flight};
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let set = single_group_set(&cat);
        let (dims, relevant, aggs) = canonical_group(&cat);
        let keys: Vec<CacheKey> = aggs
            .iter()
            .map(|&(f, c)| CacheKey::new(f, c, dims.clone(), db.version()))
            .collect();
        let n_keys = keys.len() as u64;
        let workers = 8u64;

        // Reference: a solo evaluation over a fresh cache.
        let mut solo = Evaluator::new(&db, &cat, Some(EvalCache::new()));
        let expected = solo.evaluate(&set).unwrap();

        let cache = EvalCache::new();
        // Phase 1: pre-claim every key of the group.
        let guards: Vec<_> = cache
            .flight_batch(&keys, &relevant, db.watermark())
            .into_iter()
            .map(|f| match f {
                Flight::Compute(g) => g,
                other => panic!("expected to win every flight, got {other:?}"),
            })
            .collect();

        let results: Vec<(ResultsMatrix, EvalStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cache = cache.clone();
                    let (db, cat, set) = (&db, &cat, &set);
                    scope.spawn(move || {
                        // Phase 2: with all guards held, every key probe
                        // becomes a wait.
                        let mut e = Evaluator::new(db, cat, Some(cache));
                        let m = e.evaluate(set).unwrap();
                        (m, e.stats)
                    })
                })
                .collect();
            // Phase 3: all 8 evaluators have registered their waits;
            // compute the cube once and publish every slice.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while cache.stats().singleflight_waits() < workers * n_keys {
                assert!(
                    std::time::Instant::now() < deadline,
                    "evaluators never registered their waits"
                );
                std::thread::yield_now();
            }
            let cube = CubeQuery {
                dims: dims.clone(),
                relevant: relevant.clone(),
                aggregates: aggs.clone(),
            };
            let result = std::sync::Arc::new(cube.execute(&db).unwrap());
            for (pos, guard) in guards.into_iter().enumerate() {
                guard.fulfill(CachedSlice::new(
                    result.clone(),
                    pos,
                    aggs[pos].0,
                    db.watermark(),
                ));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (matrix, stats) in &results {
            // Bit-identical verdict input: every worker read the one
            // published cube.
            assert_eq!(matrix.len(), expected.len());
            for ci in 0..set.combos.len() {
                for pi in 0..set.agg_pairs.len() {
                    assert_eq!(matrix.get(ci, pi), expected.get(ci, pi));
                }
            }
            assert_eq!(stats.cubes_executed, 0, "nobody re-executed the cube");
            assert_eq!(stats.tasks_executed, 0);
            assert_eq!(stats.singleflight_waits, n_keys);
            assert_eq!(stats.tasks_deduped, n_keys);
            assert!(stats.tasks_deduped > 0);
        }
        // The cube was computed exactly once: one resident slice per key.
        assert_eq!(cache.len(), keys.len());
    }

    /// Dropping the pre-claimed guards poisons every flight: the blocked
    /// evaluators must wake, retry, recompute among themselves, and still
    /// produce correct, identical matrices.
    #[test]
    fn single_flight_poisoned_flights_recover_with_correct_results() {
        use agg_relational::{CacheKey, Flight};
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let set = single_group_set(&cat);
        let (dims, relevant, aggs) = canonical_group(&cat);
        let keys: Vec<CacheKey> = aggs
            .iter()
            .map(|&(f, c)| CacheKey::new(f, c, dims.clone(), db.version()))
            .collect();
        let n_keys = keys.len() as u64;
        let workers = 8u64;

        let mut solo = Evaluator::new(&db, &cat, Some(EvalCache::new()));
        let expected = solo.evaluate(&set).unwrap();

        let cache = EvalCache::new();
        let guards: Vec<_> = cache
            .flight_batch(&keys, &relevant, db.watermark())
            .into_iter()
            .map(|f| match f {
                Flight::Compute(g) => g,
                other => panic!("expected to win every flight, got {other:?}"),
            })
            .collect();

        let results: Vec<(ResultsMatrix, EvalStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cache = cache.clone();
                    let (db, cat, set) = (&db, &cat, &set);
                    scope.spawn(move || {
                        let mut e = Evaluator::new(db, cat, Some(cache));
                        let m = e.evaluate(set).unwrap();
                        (m, e.stats)
                    })
                })
                .collect();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while cache.stats().singleflight_waits() < workers * n_keys {
                assert!(
                    std::time::Instant::now() < deadline,
                    "evaluators never registered their waits"
                );
                std::thread::yield_now();
            }
            // The "computing" thread fails: every flight is poisoned.
            drop(guards);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut recomputed = 0u64;
        for (matrix, stats) in &results {
            for ci in 0..set.combos.len() {
                for pi in 0..set.agg_pairs.len() {
                    assert_eq!(matrix.get(ci, pi), expected.get(ci, pi));
                }
            }
            recomputed += stats.cubes_executed;
        }
        assert!(
            recomputed >= 1,
            "someone must have taken over the poisoned computation"
        );
    }

    #[test]
    fn document_literals_widen_cube_coverage() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        // Claim A only uses literal 0 of column 0; with document literals
        // covering all of column 0, a second claim using literal 1 hits the
        // same cached slice.
        let scope_a = Scope {
            agg_columns: vec![0],
            predicate_pairs: vec![(0, 0)],
        };
        let scope_b = Scope {
            agg_columns: vec![0],
            predicate_pairs: vec![(0, 1)],
        };
        let set_a = CandidateSet::enumerate(&cat, &scope_a, 1, 100);
        let set_b = CandidateSet::enumerate(&cat, &scope_b, 1, 100);
        let cache = EvalCache::new();
        let doc_lits =
            document_literal_union(cat.predicate_columns.len(), vec![(0usize, 0usize), (0, 1)]);
        let mut e = Evaluator::new(&db, &cat, Some(cache));
        e.set_document_literals(doc_lits);
        e.evaluate(&set_a).unwrap();
        let executed_after_a = e.stats.cubes_executed;
        e.evaluate(&set_b).unwrap();
        // Claim B's cubes were already computed by claim A (same dims,
        // document-wide literals).
        assert_eq!(e.stats.cubes_executed, executed_after_a);
    }
}
