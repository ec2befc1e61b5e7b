//! The `GROUP BY CUBE` operator with `InOrDefault` literal remapping (§6.2).
//!
//! One cube execution covers *many* candidate queries at once: every
//! combination of equality predicates over the cube dimensions, including
//! the combinations that leave some dimensions unrestricted. Literals with
//! zero marginal probability are collapsed into a reserved `OTHER` bucket
//! *before* grouping — the paper's `InOrDefault` rewrite — which keeps the
//! result set proportional to the number of *relevant* literals rather than
//! the column cardinality.
//!
//! # Execution model
//!
//! The scan is the single hottest loop in the system (Table 6 of the paper
//! rests on it), so the executor picks between two grid representations:
//!
//! * **Dense mixed-radix grid** — each dimension contributes at most
//!   `|relevant| + 1` codes (its literals plus `OTHER`), so a group is
//!   addressed by `Σ codeᵢ · strideᵢ` into a flat accumulator array. When
//!   the radix product fits [`CubeOptions::dense_cell_cap`] (the common
//!   case: merged candidate queries restrict 1–3 columns to a handful of
//!   literals each) the per-row work is a dictionary-code table lookup plus
//!   an array index — **zero hashing, zero allocation**.
//! * **Hashed fallback** — cubes whose radix product exceeds the cap (many
//!   dimensions × many literals) accumulate into an `FxHashMap` keyed by the
//!   packed per-dimension codes instead. Same semantics, bounded memory.
//!
//! The decision rule is purely structural (`Π (|relevantᵢ| + 1) ≤ cap`), so
//! it is stable across runs and row counts; [`CubeStats::grid_mode`] records
//! which path ran for the Table 6 instrumentation.
//!
//! # One engine: the cube pass
//!
//! Every execution is one **cube pass** (`CubePass`): ≥ 1 fused member
//! cubes, over the ≥ 1 **fixed partitions** of one relation, resuming from
//! a **checkpoint prefix** — the empty prefix at row 0 for a cold scan, a
//! [`ScanCheckpoint`] per member for a patch over appended rows. Partition
//! boundaries are a pure function of the row count and
//! [`CubeOptions::partition_blocks`] ([`crate::block::partition_ranges`]),
//! never of who scans them. Each partition is scanned into partition-local
//! grids, and exactly one function — `CubePass::fold` — folds the
//! partition grids onto the prefix in **ascending partition order** via
//! [`Accumulator::merge`], captures every patchable member's checkpoint
//! the moment the fold stands on the last span-aligned boundary, finishes
//! the members and attaches the checkpoints. Its three drivers differ only
//! in where a partition's grids come from:
//!
//! * the in-process driver ([`execute_fused_in`]; a solo
//!   [`CubeQuery::execute`] is a one-member pass) scans each partition as
//!   the fold asks for it;
//! * the patch driver ([`execute_patches_in`]) does the same, starting
//!   from the members' checkpointed prefix grids, so only the partitions
//!   at or above the checkpoint boundary are scanned;
//! * `crate::schedule`'s partition fan-out scans partitions on whichever
//!   `CubeScheduler` workers steal them, and the last finisher hands the
//!   deposited grids to the fold. This is the only source of intra-pass
//!   parallelism.
//!
//! Because the partition shape, the merge order and the fold are shared,
//! the f64 accumulation tree — and therefore every report, down to the
//! last ulp — is the same for a solo run, a fanned-out pass at any worker
//! count and completion order, and a patched grid versus a cold rescan at
//! the same watermark.
//!
//! Finishing is column-wise, with no per-group heap state: the finest
//! groups are extracted once into one column per aggregate, the rollup
//! into all `2^|dims|` dimension subsets is recorded once per cube as an
//! ordered list of merges (`MergeOrder`, dimension-at-a-time, O(d ·
//! groups) edges) and replayed on every mergeable column — the same f64
//! operations in the same order as merging per-group accumulators — while
//! each group's distinct count and median are computed once from its
//! finest contributors. `docs/storage.md`, "Finishing a pass", gives the
//! determinism argument.
//!
//! A pass feeds **many cubes' grids from one row scan**: the cubes of one
//! scheduling wave that reference the same table scope share a single scan
//! of the joined relation instead of each paying their own
//! (`crate::schedule::ScanGroup`). Fusion is purely physical and preserves
//! two invariants the pipeline's determinism rests on:
//!
//! * **per-grid isolation** — every member keeps its own mixed-radix LUTs,
//!   its own dense/hashed decision, and its own accumulator grid, and each
//!   grid sees the rows in relation order, so a member's f64 accumulation
//!   sequence (and therefore its [`CubeResult`], down to the last ulp) is
//!   identical to a one-member pass over that cube;
//! * **member-order updates** — within each row block the grids are
//!   updated in member (task-submission) order, so even the side effects
//!   of a pass are deterministic for any member set.
//!
//! # Compressed block execution
//!
//! When the scanned relation is a single **sealed** table
//! ([`crate::table::Table::seal`]) and every dimension is
//! dictionary-coded, partitions are scanned **directly on the compressed
//! blocks** ([`crate::block`]): each [`crate::block::BLOCK_ROWS`]-row
//! scan chunk is one
//! storage block, its zone maps are consulted before any decode, blocks
//! provably constant across all dimensions are bulk-applied (counts) or
//! cell-splatted (value aggregates), and everything else decodes
//! bit-packed/RLE codes straight into the mixed-radix cell buffer. The
//! encoded path is bit-identical to the plain one — same rows, same
//! order, same f64 accumulation sequence — and reports per-member
//! [`CubeStats::blocks_scanned`] / [`CubeStats::blocks_skipped`] /
//! [`CubeStats::bytes_scanned`]. See `docs/storage.md` for the proof
//! obligations and skip rules.

use crate::aggregate::{median_in_place, Accumulator};
use crate::block::{CodeBlock, ColumnEncoding};
use crate::database::{ColumnRef, Database};
use crate::error::{RelationalError, Result};
use crate::fxhash::FxHashMap;
use crate::join::{JoinedRelation, RowResolver};
use crate::query::{AggColumn, AggFunction};
use crate::value::Value;

/// Maximum number of cube dimensions (packed 8 bits each into a `u64` key).
pub const MAX_DIMS: usize = 8;
/// Per-dimension code for "values not in the relevant set" (`InOrDefault`).
const OTHER: u8 = 254;
/// Per-dimension code for "dimension not grouped" (rolled up / unrestricted).
const ALL: u8 = 255;

/// Selects one dimension's slice of a cube result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimSel {
    /// Dimension unrestricted (rolled up).
    Any,
    /// Dimension fixed to the literal with this index in the cube's
    /// `relevant` list for that dimension.
    Literal(usize),
}

/// One dimension's relevant literals. Shared, not copied: the planner hands
/// every cube over a column the *same* list (`agg-core`'s catalog owns
/// it), so requests, flights, results and cache slices usually agree on
/// coverage by pointer identity, before any value is compared.
pub type Literals = std::sync::Arc<[Value]>;

/// Are two literal lists the same list? Identity first — the common case
/// for canonical lists — then by value.
pub fn same_literals(a: &Literals, b: &Literals) -> bool {
    std::sync::Arc::ptr_eq(a, b) || a == b
}

/// Does `have` (one literal list per dimension) include every literal of
/// `needed`? Asked once; a wave that asks it per key keeps a
/// [`ListPairMemo`] instead.
pub fn literals_cover(have: &[Literals], needed: &[Literals]) -> bool {
    ListPairMemo::default().cover(have, needed)
}

/// Answers to one yes/no question about pairs of literal lists, remembered
/// by list identity. A wave names few distinct lists (one per column per
/// catalog), but asks about them once per cube, key and dimension: lists
/// that are equal without being the same allocation — a catalog rebuilt
/// after an append, against grids patched forward from before it — are
/// compared by value once per memo instead of once per question. The memo
/// holds the lists it has seen, so an evicted list's address cannot be
/// reused under it.
#[derive(Default)]
pub struct ListPairMemo(Vec<(Literals, Literals, bool)>);

impl ListPairMemo {
    /// The remembered answer for `(a, b)`, or `decide()` remembered. The
    /// same allocation on both sides answers `true` unasked, so only
    /// questions reflexive lists answer with yes belong here.
    fn get(&mut self, a: &Literals, b: &Literals, decide: impl FnOnce() -> bool) -> bool {
        use std::sync::Arc;
        if Arc::ptr_eq(a, b) {
            return true;
        }
        if let Some((_, _, answer)) = self
            .0
            .iter()
            .find(|(x, y, _)| Arc::ptr_eq(x, a) && Arc::ptr_eq(y, b))
        {
            return *answer;
        }
        let answer = decide();
        self.0.push((a.clone(), b.clone(), answer));
        answer
    }

    /// [`same_literals`], remembered.
    pub fn same(&mut self, a: &Literals, b: &Literals) -> bool {
        self.get(a, b, || a == b)
    }

    /// Does `have` (one list per dimension) hold every literal of `needed`,
    /// remembered per dimension's list pair. Equal lists (the case worth
    /// being fast) cost one pass; only genuinely different lists pay the
    /// subset test.
    pub fn cover(&mut self, have: &[Literals], needed: &[Literals]) -> bool {
        have.len() == needed.len()
            && needed
                .iter()
                .zip(have)
                .all(|(n, h)| self.get(h, n, || h == n || n.iter().all(|lit| h.contains(lit))))
    }
}

/// A packed group key: one byte per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey(u64);

impl GroupKey {
    /// The group with every dimension unrestricted (rolled up).
    pub const UNRESTRICTED: GroupKey = GroupKey(u64::MAX);

    /// This key with dimension `dim` fixed to the literal at index `code`
    /// of the cube's relevant list for that dimension
    /// ([`CubeResult::literal_index`]).
    #[inline]
    pub fn with_literal(self, dim: usize, code: u8) -> GroupKey {
        debug_assert!(dim < MAX_DIMS && code < OTHER);
        let shift = 8 * dim;
        GroupKey((self.0 & !(0xff << shift)) | ((code as u64) << shift))
    }

    fn from_codes(codes: &[u8]) -> GroupKey {
        debug_assert!(codes.len() <= MAX_DIMS);
        let mut key = 0u64;
        for (i, &c) in codes.iter().enumerate() {
            key |= (c as u64) << (8 * i);
        }
        // Unused high bytes read as 0, which collides with literal index 0;
        // fill them with ALL so keys are unambiguous for any dim count.
        for i in codes.len()..MAX_DIMS {
            key |= (ALL as u64) << (8 * i);
        }
        GroupKey(key)
    }

    /// The code of dimension `dim`.
    #[inline]
    fn code(self, dim: usize) -> u8 {
        (self.0 >> (8 * dim)) as u8
    }

    /// Replace the code of dimension `dim` with ALL.
    fn rolled_up(self, dim: usize) -> GroupKey {
        GroupKey(self.0 | ((ALL as u64) << (8 * dim)))
    }
}

/// A cube query: aggregates over all predicate combinations on `dims`.
#[derive(Debug, Clone)]
pub struct CubeQuery {
    /// Cube dimensions (categorical or numeric columns used in predicates).
    pub dims: Vec<ColumnRef>,
    /// Relevant literals per dimension; everything else maps to `OTHER`.
    pub relevant: Vec<Literals>,
    /// Value aggregates to compute per group. Ratio aggregates are *not*
    /// allowed here — derive them from `Count` results (see
    /// [`crate::aggregate::ratio_from_counts`]).
    pub aggregates: Vec<(AggFunction, AggColumn)>,
}

/// Which accumulator grid the scan used (see the module docs for the
/// decision rule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GridMode {
    /// Flat mixed-radix accumulator array; no hashing on the hot path.
    Dense,
    /// `FxHashMap` keyed by packed group codes (high-cardinality fallback).
    #[default]
    Hashed,
}

/// Execution statistics, used by the Table 6 experiment instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CubeStats {
    pub rows_scanned: u64,
    pub finest_groups: u64,
    pub total_groups: u64,
    /// Grid representation chosen by the structural decision rule.
    pub grid_mode: GridMode,
    /// Dense-grid cell count (the mixed-radix product); 0 when hashed.
    pub dense_cells: u64,
    /// Storage blocks decoded by the encoded scan path. 0 when the scan
    /// ran on plain columns (unsealed table, join scope, or numeric dim).
    pub blocks_scanned: u64,
    /// Storage blocks whose aggregates were bulk-applied from zone-map
    /// metadata alone — no per-row work, nothing decoded.
    pub blocks_skipped: u64,
    /// Encoded payload bytes physically read by the decoded blocks.
    pub bytes_scanned: u64,
    /// Partitions this scan folded separately before the ordered merge:
    /// the partition count when the relation spans more than one fixed
    /// partition ([`crate::block::partition_ranges`]), 0 for the
    /// degenerate single-partition scan (identical to a monolithic pass).
    /// A pure function of row count and [`CubeOptions::partition_blocks`]
    /// — never of worker count.
    pub partitions_scanned: u64,
    /// Ascending-order partition-grid merges this member performed
    /// (`partitions_scanned - 1` when partitioned, else 0).
    pub partition_merges: u64,
    /// Workers that scanned this pass's partitions: 1 for an in-process
    /// or patch pass, the distinct scheduler workers for a fanned-out
    /// pass, and 0 when the scan was not partitioned. A scheduling
    /// **gauge** — the only [`CubeStats`] field that may vary run to run;
    /// results never do.
    pub partition_parallelism: u32,
    /// 1 when this result was produced by patching a [`ScanCheckpoint`]
    /// forward over appended rows instead of a cold full scan, 0 otherwise.
    pub grids_patched: u64,
    /// Rows the patch delta scanned (the appended range plus the re-scanned
    /// partial tail partition); 0 for full scans. When set, it equals this
    /// result's `rows_scanned`.
    pub delta_rows_scanned: u64,
}

/// The scan shape of one cube pass. The defaults match the paper's workload
/// shape; [`CubeQuery::execute`] uses them unchanged. Both fields are inputs
/// of the determinism contract: a [`ScanCheckpoint`] only patches under the
/// options it was captured with ([`ScanCheckpoint::compatible`]).
#[derive(Debug, Clone, Copy)]
pub struct CubeOptions {
    /// Maximum mixed-radix product for the dense grid. Cubes above this
    /// fall back to the hashed grid. Setting 0 forces the hashed path
    /// (useful for testing and instrumentation).
    pub dense_cell_cap: usize,
    /// Scan-partition span in storage blocks
    /// ([`crate::block::partition_ranges`]); 0 disables partitioning.
    /// Partition boundaries — and therefore f64 accumulation association —
    /// are a pure function of row count and this span, so **every** driver
    /// (in-process, scheduler fan-out, patch) produces bit-identical
    /// results for a given span, at any worker count.
    pub partition_blocks: usize,
}

impl Default for CubeOptions {
    fn default() -> Self {
        CubeOptions {
            dense_cell_cap: 1 << 16,
            partition_blocks: crate::block::DEFAULT_PARTITION_BLOCKS,
        }
    }
}

/// The result of one cube execution: finished aggregate values for every
/// (dimension subset × relevant-literal combination) group.
#[derive(Debug, Clone)]
pub struct CubeResult {
    dims: Vec<ColumnRef>,
    relevant: Vec<Literals>,
    n_aggs: usize,
    /// Group key → the group's row of `values`.
    index: FxHashMap<GroupKey, u32>,
    /// `n_aggs` finished values per group, one row after another.
    values: Vec<Option<f64>>,
    pub stats: CubeStats,
    /// Visible rows of the scanned relation when this result was computed
    /// — the watermark stamp delta-aware caching matches on. Differs from
    /// `stats.rows_scanned` on patched results (which scan only the delta).
    visible_rows: u64,
    /// Resumable scan prefix for future watermark patches, when the scan
    /// was eligible to capture one (see [`ScanCheckpoint`]).
    /// Behind an `Arc` so cloning the result (cache insertion) stays cheap.
    checkpoint: Option<std::sync::Arc<ScanCheckpoint>>,
}

/// A resumable prefix of one cube's partitioned scan: the left-fold of
/// every partition grid fully below `rows` (a span-aligned boundary),
/// captured mid-fold. Patching clones the grid, scans only the partitions
/// covering `rows..new_watermark`, and folds them in the same ascending
/// order — the f64 accumulation tree is the cold scan's tree by
/// construction, so patched results are **bit-identical** to a cold full
/// scan at the same watermark.
///
/// Only captured for patch-class aggregate sets (`Count`/`Sum`/`Avg`/
/// `Min`/`Max`, whose partition merges are the exact fold the cold scan
/// performs); cubes with `CountDistinct` or `Median` recompute from
/// scratch at each watermark.
pub struct ScanCheckpoint {
    cube: CubeQuery,
    /// Span-aligned row boundary: partitions covering `0..rows` are folded
    /// into `grid`.
    rows: usize,
    partition_blocks: usize,
    dense_cell_cap: usize,
    grid: MemberGrid,
}

impl std::fmt::Debug for ScanCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanCheckpoint")
            .field("rows", &self.rows)
            .field("partition_blocks", &self.partition_blocks)
            .finish_non_exhaustive()
    }
}

impl ScanCheckpoint {
    /// The cube this checkpoint's grid belongs to — patching re-executes
    /// exactly this cube (its dimensions, literal coverage, and aggregate
    /// set) at the new watermark.
    pub fn cube(&self) -> &CubeQuery {
        &self.cube
    }

    /// The span-aligned row boundary this checkpoint's grid covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether this checkpoint was captured under the same scan shape the
    /// given options would produce (same partition span, same dense/hashed
    /// decision inputs) — the precondition for patching with it.
    pub fn compatible(&self, options: &CubeOptions) -> bool {
        self.partition_blocks == options.partition_blocks
            && self.dense_cell_cap == options.dense_cell_cap
    }

    /// The prefix shape patch passes must share to scan one tail together:
    /// resume boundary, partition span, and dense-grid cap. The scheduler
    /// fuses patch tasks whose checkpoints agree on this (and on table
    /// scope) into a single delta pass.
    pub(crate) fn fuse_identity(&self) -> (usize, usize, usize) {
        (self.rows, self.partition_blocks, self.dense_cell_cap)
    }
}

// ---------------------------------------------------------------------------
// Per-dimension row → code translation
// ---------------------------------------------------------------------------

/// Maps a scan row to its dense dimension code: `0..n_lits` for relevant
/// literals, `n_lits` for the OTHER bucket (non-relevant values and NULLs).
enum DimCodec<'a> {
    /// String column: direct lookup table over dictionary codes. NULL cells
    /// carry `NULL_CODE = u32::MAX`, which is out of table range and thus
    /// reads OTHER without a branch on a separate null check.
    StrTable {
        resolver: RowResolver<'a>,
        codes: &'a [u32],
        table: Box<[u8]>,
        other: u8,
    },
    /// Numeric column: binary probe of a small sorted (group code → dim
    /// code) table. Relevant literal sets are tiny (≤ 253), so the probe is
    /// a handful of comparisons — still cheaper than hashing.
    Probe {
        resolver: RowResolver<'a>,
        col: &'a crate::column::ColumnData,
        table: Box<[(u64, u8)]>,
        other: u8,
    },
}

impl DimCodec<'_> {
    #[inline]
    fn dense_code(&self, row: usize) -> u8 {
        match self {
            DimCodec::StrTable {
                resolver,
                codes,
                table,
                other,
            } => {
                let code = codes[resolver.base_row(row)] as usize;
                if code < table.len() {
                    table[code]
                } else {
                    *other
                }
            }
            DimCodec::Probe {
                resolver,
                col,
                table,
                other,
            } => match col.group_code(resolver.base_row(row)) {
                Some(gc) => match table.binary_search_by_key(&gc, |entry| entry.0) {
                    Ok(i) => table[i].1,
                    Err(_) => *other,
                },
                None => *other,
            },
        }
    }
}

fn build_codec<'a>(
    db: &'a Database,
    relation: &'a JoinedRelation,
    dim: ColumnRef,
    literals: &[Value],
) -> DimCodec<'a> {
    let col = db.column(dim);
    let resolver = relation.resolver(dim);
    let other = literals.len() as u8;
    match col.codes() {
        Some(codes) => {
            let dict_len = col.dictionary().map_or(0, |d| d.len());
            let mut table = vec![other; dict_len].into_boxed_slice();
            for (i, lit) in literals.iter().enumerate() {
                // Literals absent from the column never match a row; later
                // duplicates (e.g. case-insensitive twins) win, matching the
                // lookup-map semantics of the original implementation.
                if let Some(code) = col.group_code_of(lit) {
                    table[code as usize] = i as u8;
                }
            }
            DimCodec::StrTable {
                resolver,
                codes,
                table,
                other,
            }
        }
        None => {
            let mut entries: Vec<(u64, u8)> = Vec::with_capacity(literals.len());
            for (i, lit) in literals.iter().enumerate() {
                if let Some(code) = col.group_code_of(lit) {
                    entries.push((code, i as u8));
                }
            }
            entries.sort_by_key(|entry| entry.0);
            // Duplicate group codes: keep the last literal index.
            entries.reverse();
            entries.dedup_by_key(|entry| entry.0);
            entries.reverse();
            DimCodec::Probe {
                resolver,
                col,
                table: entries.into_boxed_slice(),
                other,
            }
        }
    }
}

/// One aggregate's input columns: `None` for `COUNT(*)`.
type AggCtx<'a> = Option<(RowResolver<'a>, &'a crate::column::ColumnData)>;

#[inline]
fn update_accumulators(accs: &mut [Accumulator], agg_ctx: &[AggCtx<'_>], row: usize) {
    for (acc, ctx) in accs.iter_mut().zip(agg_ctx) {
        match ctx {
            None => acc.update(None, None, true),
            Some((res, col)) => {
                let base = res.base_row(row);
                acc.update(col.get_f64(base), col.group_code(base), !col.is_null(base));
            }
        }
    }
}

/// Fold `v` into a running minimum (or maximum).
#[inline]
fn fold_extreme(e: &mut Option<f64>, v: f64, is_max: bool) {
    *e = Some(match *e {
        None => v,
        Some(cur) if is_max => cur.max(v),
        Some(cur) => cur.min(v),
    });
}

fn new_accumulators(aggregates: &[(AggFunction, AggColumn)]) -> Vec<Accumulator> {
    aggregates
        .iter()
        .map(|(f, _)| Accumulator::new(*f))
        .collect()
}

// ---------------------------------------------------------------------------
// Scan grids
// ---------------------------------------------------------------------------

/// Rows per scan block: cell indices for a block are computed first, then
/// each aggregate sweeps the block in a loop specialized to its kind. This
/// hoists the aggregate dispatch out of the per-row hot path and keeps the
/// touched cells resident in cache.
///
/// Pinned to the storage block size so one scan chunk is exactly one
/// compressed block ([`crate::block`]): the encoded path consults one zone
/// map, decodes (or bulk-applies) one block, and fires the chaos hook once
/// per chunk per dense member — the same cadence as the plain path.
const SCAN_BLOCK: usize = 2048;
const _: () = assert!(SCAN_BLOCK == crate::block::BLOCK_ROWS);

/// Arena-reuse counters (see [`GridArena::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers served from the pool (no allocation).
    pub reuses: u64,
    /// Buffers freshly allocated because the pool was empty.
    pub allocations: u64,
}

#[derive(Debug, Default)]
struct ArenaPools {
    counts: Vec<Vec<u64>>,
    floats: Vec<Vec<f64>>,
    options: Vec<Vec<Option<f64>>>,
    flags: Vec<Vec<bool>>,
    stats: ArenaStats,
}

impl ArenaPools {
    fn take<T: Copy>(
        pool: &mut Vec<Vec<T>>,
        stats: &mut ArenaStats,
        cells: usize,
        zero: T,
    ) -> Vec<T> {
        match pool.pop() {
            Some(mut buf) => {
                stats.reuses += 1;
                buf.clear();
                buf.resize(cells, zero);
                buf
            }
            None => {
                stats.allocations += 1;
                vec![zero; cells]
            }
        }
    }
}

/// A reusable pool of dense-grid buffers, persisted **across cube
/// executions** so repeated scans over the same database stop paying one
/// round of large allocations each (ROADMAP: "persist per-thread grids").
///
/// The pool is internally synchronized, so one arena may serve the scan
/// workers of a parallel execution; the intended deployment is **one arena
/// per worker thread of a batch** (see `agg_core::pipeline::BatchVerifier`),
/// where take/recycle never contend.
#[derive(Debug, Default)]
pub struct GridArena {
    pools: parking_lot::Mutex<ArenaPools>,
}

impl GridArena {
    pub fn new() -> GridArena {
        GridArena::default()
    }

    pub fn stats(&self) -> ArenaStats {
        self.pools.lock().stats
    }

    fn take_counts(&self, cells: usize) -> Vec<u64> {
        let mut pools = self.pools.lock();
        let ArenaPools { counts, stats, .. } = &mut *pools;
        ArenaPools::take(counts, stats, cells, 0)
    }

    fn take_floats(&self, cells: usize) -> Vec<f64> {
        let mut pools = self.pools.lock();
        let ArenaPools { floats, stats, .. } = &mut *pools;
        ArenaPools::take(floats, stats, cells, 0.0)
    }

    fn take_options(&self, cells: usize) -> Vec<Option<f64>> {
        let mut pools = self.pools.lock();
        let ArenaPools { options, stats, .. } = &mut *pools;
        ArenaPools::take(options, stats, cells, None)
    }

    fn take_flags(&self, cells: usize) -> Vec<bool> {
        let mut pools = self.pools.lock();
        let ArenaPools { flags, stats, .. } = &mut *pools;
        ArenaPools::take(flags, stats, cells, false)
    }

    fn recycle_counts(&self, buf: Vec<u64>) {
        self.pools.lock().counts.push(buf);
    }

    fn recycle_floats(&self, buf: Vec<f64>) {
        self.pools.lock().floats.push(buf);
    }

    fn recycle_options(&self, buf: Vec<Option<f64>>) {
        self.pools.lock().options.push(buf);
    }

    fn recycle_flags(&self, buf: Vec<bool>) {
        self.pools.lock().flags.push(buf);
    }
}

/// One aggregate's dense per-cell state, struct-of-arrays style. Compared
/// with a `Vec<Accumulator>` grid this removes the enum tag from every cell
/// and lets each block sweep run branch-free on plain arrays.
#[derive(Clone)]
enum DenseAggState {
    Count(Vec<u64>),
    CountDistinct(Vec<crate::fxhash::FxHashSet<u64>>),
    SumAvg {
        sums: Vec<f64>,
        counts: Vec<u64>,
    },
    MinMax {
        extremes: Vec<Option<f64>>,
        is_max: bool,
    },
    Median(Vec<Vec<f64>>),
}

impl DenseAggState {
    /// Create one aggregate's dense cell state, drawing the flat buffers
    /// from `arena` when one is provided. Set- and list-valued states
    /// (count-distinct, median) allocate per cell regardless, so they skip
    /// the pool.
    fn new_in(function: AggFunction, cells: usize, arena: Option<&GridArena>) -> DenseAggState {
        match function {
            AggFunction::Count => DenseAggState::Count(match arena {
                Some(a) => a.take_counts(cells),
                None => vec![0; cells],
            }),
            AggFunction::CountDistinct => {
                DenseAggState::CountDistinct(vec![crate::fxhash::FxHashSet::default(); cells])
            }
            AggFunction::Sum | AggFunction::Avg => DenseAggState::SumAvg {
                sums: match arena {
                    Some(a) => a.take_floats(cells),
                    None => vec![0.0; cells],
                },
                counts: match arena {
                    Some(a) => a.take_counts(cells),
                    None => vec![0; cells],
                },
            },
            AggFunction::Min | AggFunction::Max => DenseAggState::MinMax {
                extremes: match arena {
                    Some(a) => a.take_options(cells),
                    None => vec![None; cells],
                },
                is_max: function == AggFunction::Max,
            },
            AggFunction::Median => DenseAggState::Median(vec![Vec::new(); cells]),
            AggFunction::Percentage | AggFunction::ConditionalProbability => {
                unreachable!("validate() rejects ratio aggregates")
            }
        }
    }

    /// Return this state's flat buffers to the arena for the next execution.
    fn recycle(self, arena: &GridArena) {
        match self {
            DenseAggState::Count(counts) => arena.recycle_counts(counts),
            DenseAggState::SumAvg { sums, counts, .. } => {
                arena.recycle_floats(sums);
                arena.recycle_counts(counts);
            }
            DenseAggState::MinMax { extremes, .. } => arena.recycle_options(extremes),
            // Per-cell heap states are dropped; pooling them buys nothing.
            DenseAggState::CountDistinct(_) | DenseAggState::Median(_) => {}
        }
    }

    /// Fold one block of rows (`first_row + k` for `cells[k]`) into the grid.
    fn update_block(&mut self, cells: &[u32], first_row: usize, ctx: &AggCtx<'_>) {
        match (self, ctx) {
            (DenseAggState::Count(counts), None) => {
                // COUNT(*): every row counts.
                for &cell in cells {
                    counts[cell as usize] += 1;
                }
            }
            (DenseAggState::Count(counts), Some((res, col))) => {
                for (k, &cell) in cells.iter().enumerate() {
                    if !col.is_null(res.base_row(first_row + k)) {
                        counts[cell as usize] += 1;
                    }
                }
            }
            (DenseAggState::CountDistinct(sets), Some((res, col))) => {
                for (k, &cell) in cells.iter().enumerate() {
                    if let Some(code) = col.group_code(res.base_row(first_row + k)) {
                        sets[cell as usize].insert(code);
                    }
                }
            }
            (DenseAggState::SumAvg { sums, counts }, Some((res, col))) => {
                for (k, &cell) in cells.iter().enumerate() {
                    if let Some(v) = col.get_f64(res.base_row(first_row + k)) {
                        sums[cell as usize] += v;
                        counts[cell as usize] += 1;
                    }
                }
            }
            (DenseAggState::MinMax { extremes, is_max }, Some((res, col))) => {
                let is_max = *is_max;
                for (k, &cell) in cells.iter().enumerate() {
                    if let Some(v) = col.get_f64(res.base_row(first_row + k)) {
                        fold_extreme(&mut extremes[cell as usize], v, is_max);
                    }
                }
            }
            (DenseAggState::Median(values), Some((res, col))) => {
                for (k, &cell) in cells.iter().enumerate() {
                    if let Some(v) = col.get_f64(res.base_row(first_row + k)) {
                        values[cell as usize].push(v);
                    }
                }
            }
            // `*` as input to value aggregates contributes nothing (matches
            // `Accumulator::update(None, None, true)`).
            _ => {}
        }
    }

    /// Merge another partition's state for `cell` into this one.
    fn merge_cell(&mut self, other: &mut DenseAggState, cell: usize) {
        match (self, other) {
            (DenseAggState::Count(a), DenseAggState::Count(b)) => a[cell] += b[cell],
            (DenseAggState::CountDistinct(a), DenseAggState::CountDistinct(b)) => {
                if a[cell].is_empty() {
                    a[cell] = std::mem::take(&mut b[cell]);
                } else {
                    a[cell].extend(b[cell].iter().copied());
                }
            }
            (
                DenseAggState::SumAvg { sums, counts },
                DenseAggState::SumAvg {
                    sums: s2,
                    counts: c2,
                },
            ) => {
                sums[cell] += s2[cell];
                counts[cell] += c2[cell];
            }
            (
                DenseAggState::MinMax { extremes, is_max },
                DenseAggState::MinMax { extremes: e2, .. },
            ) => {
                if let Some(v) = e2[cell] {
                    fold_extreme(&mut extremes[cell], v, *is_max);
                }
            }
            (DenseAggState::Median(a), DenseAggState::Median(b)) => {
                if a[cell].is_empty() {
                    a[cell] = std::mem::take(&mut b[cell]);
                } else {
                    a[cell].append(&mut b[cell]);
                }
            }
            _ => unreachable!("partitions share the aggregate list"),
        }
    }
}

/// Flat mixed-radix grid for one scan partition.
#[derive(Clone)]
struct DenseGrid {
    aggs: Vec<DenseAggState>,
    touched: Vec<bool>,
}

impl DenseGrid {
    fn new_in(
        cells: usize,
        aggregates: &[(AggFunction, AggColumn)],
        arena: Option<&GridArena>,
    ) -> DenseGrid {
        DenseGrid {
            aggs: aggregates
                .iter()
                .map(|(f, _)| DenseAggState::new_in(*f, cells, arena))
                .collect(),
            touched: match arena {
                Some(a) => a.take_flags(cells),
                None => vec![false; cells],
            },
        }
    }

    /// Return every pooled buffer to the arena. `touched` may already have
    /// been taken by the finest-group extraction; recycle whatever is left.
    fn recycle_into(self, arena: &GridArena) {
        for state in self.aggs {
            state.recycle(arena);
        }
        if self.touched.capacity() > 0 {
            arena.recycle_flags(self.touched);
        }
    }

    /// Fold one block of rows (`row..row + len`) into the grid. Exposed
    /// separately from [`DenseGrid::scan`] so a fused multi-cube pass can
    /// interleave the blocks of several grids over one row stream while
    /// keeping each grid's accumulation sequence identical to a solo scan.
    fn scan_block(
        &mut self,
        row: usize,
        len: usize,
        codecs: &[DimCodec<'_>],
        strides: &[usize],
        agg_ctx: &[AggCtx<'_>],
        cellbuf: &mut [u32; SCAN_BLOCK],
    ) {
        // Named chaos hook: `scan_block` runs inside solo scans and fused
        // multi-cube passes alike, so an installed fault plan can inject a
        // panic (worker death mid-pass) or a delay (slow scan) here.
        #[cfg(any(test, feature = "chaos"))]
        crate::chaos::scan_block_cross();
        for (k, slot) in cellbuf[..len].iter_mut().enumerate() {
            let mut cell = 0usize;
            for (codec, stride) in codecs.iter().zip(strides) {
                cell += codec.dense_code(row + k) as usize * stride;
            }
            self.touched[cell] = true;
            *slot = cell as u32;
        }
        for (state, ctx) in self.aggs.iter_mut().zip(agg_ctx) {
            state.update_block(&cellbuf[..len], row, ctx);
        }
    }

    /// Fold storage block `block_idx` (rows `row..row + len`) into the grid
    /// **from its compressed encoding** — the encoded twin of
    /// [`DenseGrid::scan_block`], bit-identical to it by construction:
    ///
    /// * If the zone maps prove every dimension constant over the block
    ///   and all aggregates are plain counts, the block is *bulk-applied*
    ///   — one `+= len` per count, no decode (`blocks_skipped`).
    /// * If the dimensions are constant but an aggregate needs row values,
    ///   the constant cell is splatted into `cellbuf` and aggregates run
    ///   row-at-a-time over the plain columns — the dimension decode is
    ///   still saved.
    /// * Otherwise each dimension's block decodes straight into the
    ///   mixed-radix `cellbuf` (RLE runs add their constant contribution
    ///   over the whole span; bit-packed codes unpack row-at-a-time) with
    ///   no intermediate code vector, then aggregates sweep exactly as in
    ///   the plain path (`blocks_scanned` / `bytes_scanned`).
    #[allow(clippy::too_many_arguments)]
    fn scan_block_encoded(
        &mut self,
        row: usize,
        len: usize,
        block_idx: usize,
        plan: &ScanPlan<'_>,
        enc: &EncodedMember<'_>,
        cellbuf: &mut [u32; SCAN_BLOCK],
        tally: &mut BlockTally,
    ) {
        // Same chaos-hook cadence as the plain `scan_block`: once per
        // block per dense member, whichever branch handles the block.
        #[cfg(any(test, feature = "chaos"))]
        crate::chaos::scan_block_cross();
        if let Some(cell) = enc.constant_cell(block_idx, &plan.codecs, &plan.strides) {
            self.touched[cell] = true;
            if enc.counts_only {
                // Counts are order-insensitive integers: adding `len` at
                // once is bit-identical to `len` increments. When the
                // visibility watermark cuts this block mid-way (`len` is
                // shorter than the stored block) the sealed zone map's
                // null count over-counts: use the visible prefix's null
                // count instead — exact from the code blocks, or counted
                // from the plain column for zone-only numeric encodings.
                let stored = (enc.physical_rows - block_idx * SCAN_BLOCK).min(SCAN_BLOCK);
                for ((state, agg_enc), ctx) in self
                    .aggs
                    .iter_mut()
                    .zip(&enc.agg_encodings)
                    .zip(&plan.agg_ctx)
                {
                    let DenseAggState::Count(counts) = state else {
                        unreachable!("counts_only guarantees Count states")
                    };
                    let nulls = match agg_enc {
                        None => 0,
                        Some(e) if len >= stored => e.block_null_count(block_idx) as usize,
                        Some(e) => match e.prefix_null_count(block_idx, len) {
                            Some(n) => n as usize,
                            None => {
                                let Some((res, col)) = ctx else {
                                    unreachable!("count with an input column has a ctx")
                                };
                                (row..row + len)
                                    .filter(|&r| col.is_null(res.base_row(r)))
                                    .count()
                            }
                        },
                    };
                    counts[cell] += (len - nulls) as u64;
                }
                tally.blocks_skipped += 1;
                return;
            }
            // Value aggregates (Sum/Min/...) must see rows one at a time
            // to keep f64 accumulation order identical; only the
            // dimension decode is skipped.
            cellbuf[..len].fill(cell as u32);
        } else {
            cellbuf[..len].fill(0);
            for (dim, codec) in enc.dims.iter().zip(&plan.codecs) {
                let DimCodec::StrTable { table, other, .. } = codec else {
                    unreachable!("encoded members have table codecs only")
                };
                let block = &dim.blocks[block_idx];
                block.add_dense_into(table, *other, dim.stride, &mut cellbuf[..len]);
                tally.bytes_scanned += block.encoded_bytes();
            }
            for &cell in &cellbuf[..len] {
                self.touched[cell as usize] = true;
            }
        }
        for (state, ctx) in self.aggs.iter_mut().zip(&plan.agg_ctx) {
            state.update_block(&cellbuf[..len], row, ctx);
        }
        tally.blocks_scanned += 1;
    }

    fn merge(&mut self, other: &mut DenseGrid) {
        for (cell, touched) in other.touched.iter().enumerate() {
            if !touched {
                continue;
            }
            self.touched[cell] = true;
            for (a, b) in self.aggs.iter_mut().zip(other.aggs.iter_mut()) {
                a.merge_cell(b, cell);
            }
        }
    }
}

/// Hashed accumulator grid for one scan partition, keyed by packed dense
/// codes (8 bits per dimension).
#[derive(Clone)]
struct HashedGrid {
    groups: FxHashMap<u64, Vec<Accumulator>>,
}

impl HashedGrid {
    fn new() -> HashedGrid {
        HashedGrid {
            groups: FxHashMap::default(),
        }
    }

    fn scan(
        &mut self,
        rows: std::ops::Range<usize>,
        codecs: &[DimCodec<'_>],
        aggregates: &[(AggFunction, AggColumn)],
        agg_ctx: &[AggCtx<'_>],
    ) {
        for row in rows {
            let mut key = 0u64;
            for (i, codec) in codecs.iter().enumerate() {
                key |= (codec.dense_code(row) as u64) << (8 * i);
            }
            let accs = self
                .groups
                .entry(key)
                .or_insert_with(|| new_accumulators(aggregates));
            update_accumulators(accs, agg_ctx, row);
        }
    }

    fn merge(&mut self, other: HashedGrid) {
        for (key, accs) in other.groups {
            match self.groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(&accs) {
                        a.merge(b);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs);
                }
            }
        }
    }
}

impl CubeQuery {
    /// Validate structural limits and aggregate kinds.
    pub fn validate(&self) -> Result<()> {
        if self.dims.len() > MAX_DIMS {
            return Err(RelationalError::InvalidQuery(format!(
                "cube supports at most {MAX_DIMS} dimensions, got {}",
                self.dims.len()
            )));
        }
        if self.relevant.len() != self.dims.len() {
            return Err(RelationalError::InvalidQuery(
                "one relevant-literal list per dimension required".into(),
            ));
        }
        for lits in &self.relevant {
            if lits.len() >= OTHER as usize {
                return Err(RelationalError::InvalidQuery(format!(
                    "at most {} relevant literals per dimension",
                    OTHER - 1
                )));
            }
        }
        for (f, _) in &self.aggregates {
            if f.is_ratio() {
                return Err(RelationalError::InvalidQuery(
                    "ratio aggregates must be derived from Count cube results".into(),
                ));
            }
        }
        Ok(())
    }

    /// Tables referenced by dimensions and aggregation columns.
    pub fn tables_referenced(&self) -> Vec<usize> {
        let mut tables: Vec<usize> = self.dims.iter().map(|d| d.table).collect();
        for (_, col) in &self.aggregates {
            if let AggColumn::Column(c) = col {
                tables.push(c.table);
            }
        }
        tables.sort_unstable();
        tables.dedup();
        if tables.is_empty() {
            tables.push(0);
        }
        tables
    }

    /// Execute the cube against the database with default options.
    pub fn execute(&self, db: &Database) -> Result<CubeResult> {
        self.execute_with(db, &CubeOptions::default())
    }

    /// Execute the cube with an explicit scan shape: a one-member cube
    /// pass, so partition shape, merge order, and therefore every f64 bit
    /// are shared with fused passes by construction.
    pub fn execute_with(&self, db: &Database, options: &CubeOptions) -> Result<CubeResult> {
        let mut results = execute_fused_in(db, &[self], options, None)?;
        Ok(results.pop().expect("one member, one result"))
    }

    /// Build the per-row translation state for one scan of this cube:
    /// dimension codecs, aggregate input columns, and the dense-grid shape
    /// (mixed-radix strides, or `cells: None` for the hashed fallback).
    fn scan_plan<'a>(
        &self,
        db: &'a Database,
        relation: &'a JoinedRelation,
        dense_cell_cap: usize,
    ) -> ScanPlan<'a> {
        let codecs: Vec<DimCodec<'a>> = self
            .dims
            .iter()
            .zip(&self.relevant)
            .map(|(dim, lits)| build_codec(db, relation, *dim, lits))
            .collect();
        let agg_ctx: Vec<AggCtx<'a>> = self
            .aggregates
            .iter()
            .map(|(_, col)| {
                col.as_column()
                    .map(|c| (relation.resolver(c), db.column(c)))
            })
            .collect();
        // Structural decision rule: dense iff the mixed-radix product of
        // (literals + OTHER) per dimension fits the configured cap.
        let radices: Vec<usize> = self.relevant.iter().map(|lits| lits.len() + 1).collect();
        let cells = radices.iter().try_fold(1usize, |acc, &r| {
            acc.checked_mul(r).filter(|&c| c <= dense_cell_cap)
        });
        let mut strides = vec![0usize; radices.len()];
        let mut stride = 1;
        for (s, radix) in strides.iter_mut().zip(&radices) {
            *s = stride;
            stride *= radix;
        }
        let encoded = if cells.is_some() {
            self.encoded_member(db, relation, &codecs, &strides)
        } else {
            None
        };
        ScanPlan {
            codecs,
            agg_ctx,
            radices,
            strides,
            cells,
            encoded,
        }
    }

    /// Build the compressed-block scan state for this cube, when eligible:
    /// the relation must be a single table scanned in storage order, the
    /// table must be sealed, and every dimension must be dictionary-coded
    /// (numeric dimensions probe per row and keep the plain path). Any
    /// miss returns `None` — the scan falls back to plain columns with
    /// identical results.
    fn encoded_member<'a>(
        &self,
        db: &'a Database,
        relation: &JoinedRelation,
        codecs: &[DimCodec<'a>],
        strides: &[usize],
    ) -> Option<EncodedMember<'a>> {
        if !relation.is_identity() {
            return None;
        }
        let table_idx = *relation.tables.first()?;
        let encodings = db.table(table_idx).encodings()?;
        let mut dims = Vec::with_capacity(self.dims.len());
        for ((dim, lits), stride) in self.dims.iter().zip(&self.relevant).zip(strides) {
            if !matches!(codecs[dims.len()], DimCodec::StrTable { .. }) {
                return None;
            }
            let blocks = encodings[dim.column].code_blocks()?;
            let col = db.column(*dim);
            let mut lit_codes: Vec<u32> = lits
                .iter()
                .filter_map(|lit| col.group_code_of(lit).map(|c| c as u32))
                .collect();
            lit_codes.sort_unstable();
            lit_codes.dedup();
            dims.push(EncodedDim {
                blocks,
                lit_codes,
                stride: *stride as u32,
            });
        }
        let agg_encodings = self
            .aggregates
            .iter()
            .map(|(_, col)| col.as_column().map(|c| &encodings[c.column]))
            .collect();
        let counts_only = self
            .aggregates
            .iter()
            .all(|(f, _)| *f == AggFunction::Count);
        Some(EncodedMember {
            dims,
            agg_encodings,
            counts_only,
            physical_rows: db.table(table_idx).row_count(),
        })
    }

    /// Turn one folded scan grid into the cube's [`CubeResult`], column by
    /// column: extract the finest groups in deterministic order (ascending
    /// cell for a dense grid, ascending key for a hashed one) into one
    /// [`GroupColumn`] per aggregate, record the rollup's [`MergeOrder`]
    /// once, replay it on every mergeable column and finish the set- and
    /// list-valued columns from each group's finest contributors.
    fn finish_scan(
        &self,
        grid: MemberGrid,
        plan: &ScanPlan<'_>,
        tally: BlockTally,
        shape: PassShape,
        arena: Option<&GridArena>,
    ) -> CubeResult {
        let d = self.dims.len();
        let mut columns: Vec<GroupColumn> = self
            .aggregates
            .iter()
            .map(|(f, _)| GroupColumn::new(*f))
            .collect();
        let mut finest: Vec<GroupKey> = Vec::new();
        let (grid_mode, dense_cells) = match grid {
            MemberGrid::Dense(mut grid) => {
                // Touched cells in ascending order are the finest groups,
                // their packed keys decoded from the cell: dense code
                // n_lits ⇒ OTHER byte.
                let touched = std::mem::take(&mut grid.touched);
                let cells: Vec<usize> = (0..touched.len()).filter(|&c| touched[c]).collect();
                for (column, state) in columns.iter_mut().zip(&grid.aggs) {
                    column.extract(state, &cells);
                }
                for &cell in &cells {
                    let mut codes = [0u8; MAX_DIMS];
                    for (i, code) in codes.iter_mut().take(d).enumerate() {
                        let dc = (cell / plan.strides[i]) % plan.radices[i];
                        *code = if dc == plan.radices[i] - 1 {
                            OTHER
                        } else {
                            dc as u8
                        };
                    }
                    finest.push(GroupKey::from_codes(&codes[..d]));
                }
                if let Some(arena) = arena {
                    arena.recycle_flags(touched);
                    grid.recycle_into(arena);
                }
                let cells = plan.cells.expect("dense grid implies dense cells") as u64;
                (GridMode::Dense, cells)
            }
            MemberGrid::Hashed(grid) => {
                let mut groups: Vec<(GroupKey, Vec<Accumulator>)> = grid
                    .groups
                    .into_iter()
                    .map(|(key, accs)| {
                        let mut codes = [0u8; MAX_DIMS];
                        for (i, (code, radix)) in codes.iter_mut().zip(&plan.radices).enumerate() {
                            let dc = ((key >> (8 * i)) & 0xff) as usize;
                            *code = if dc == radix - 1 { OTHER } else { dc as u8 };
                        }
                        (GroupKey::from_codes(&codes[..d]), accs)
                    })
                    .collect();
                // Deterministic order regardless of hash iteration.
                groups.sort_unstable_by_key(|(key, _)| *key);
                for (key, accs) in groups {
                    finest.push(key);
                    for (column, acc) in columns.iter_mut().zip(accs) {
                        column.push(acc);
                    }
                }
                (GridMode::Hashed, 0)
            }
        };

        let finest_groups = finest.len();
        let order = MergeOrder::new(finest, d);
        let total = order.keys.len();
        let n_aggs = columns.len();
        let contributors = columns
            .iter()
            .any(GroupColumn::needs_contributors)
            .then(|| order.contributors(finest_groups));
        let mut values = vec![None; total * n_aggs];
        for (a, column) in columns.iter_mut().enumerate() {
            column.replay(&order.edges, total);
            let slots = values[a..].iter_mut().step_by(n_aggs);
            column.finish_into(slots, contributors.as_ref());
        }

        // Single-partition scans are the degenerate monolithic case and
        // report all-zero partition accounting.
        let partitioned = shape.partitions > 1;
        let stats = CubeStats {
            rows_scanned: shape.rows_scanned,
            finest_groups: finest_groups as u64,
            total_groups: total as u64,
            grid_mode,
            dense_cells,
            blocks_scanned: tally.blocks_scanned,
            blocks_skipped: tally.blocks_skipped,
            bytes_scanned: tally.bytes_scanned,
            partitions_scanned: if partitioned { shape.partitions } else { 0 },
            partition_merges: shape.partitions.saturating_sub(1),
            partition_parallelism: if partitioned { shape.workers } else { 0 },
            grids_patched: u64::from(shape.patched),
            delta_rows_scanned: if shape.patched { shape.rows_scanned } else { 0 },
        };
        CubeResult {
            dims: self.dims.clone(),
            relevant: self.relevant.clone(),
            n_aggs,
            index: order.index,
            values,
            stats,
            visible_rows: shape.visible_rows,
            checkpoint: None,
        }
    }
}

/// One cube's scan state inside a (possibly fused) pass.
#[derive(Clone)]
enum MemberGrid {
    Dense(DenseGrid),
    Hashed(HashedGrid),
}

/// Per-cube row→grid translation state for one scan: dimension codecs,
/// aggregate input columns, and the mixed-radix shape. Built once per pass
/// per member cube.
struct ScanPlan<'a> {
    codecs: Vec<DimCodec<'a>>,
    agg_ctx: Vec<AggCtx<'a>>,
    radices: Vec<usize>,
    strides: Vec<usize>,
    /// Dense-grid cell count; `None` sends the cube to the hashed grid.
    cells: Option<usize>,
    /// Compressed-block scan state, when this member is eligible to run
    /// directly on the sealed table's encodings (see
    /// [`CubeQuery::encoded_member`]); `None` falls back to plain columns.
    encoded: Option<EncodedMember<'a>>,
}

/// Per-member block counters accrued by one sequential scan pass.
#[derive(Debug, Clone, Copy, Default)]
struct BlockTally {
    blocks_scanned: u64,
    blocks_skipped: u64,
    bytes_scanned: u64,
}

/// One dimension's encoded-scan state.
struct EncodedDim<'a> {
    /// The dimension column's compressed code blocks, aligned with the
    /// scan chunks (one block per [`SCAN_BLOCK`] rows from row 0).
    blocks: &'a [CodeBlock],
    /// Sorted dictionary codes of this dimension's relevant literals —
    /// the zone-map probe set: a block whose `[min_code, max_code]` range
    /// contains none of these maps every row to OTHER.
    lit_codes: Vec<u32>,
    /// The dimension's mixed-radix stride, pre-narrowed for the decoder.
    stride: u32,
}

/// Everything a dense member needs to scan compressed blocks instead of
/// plain columns.
struct EncodedMember<'a> {
    dims: Vec<EncodedDim<'a>>,
    /// Per-aggregate encoding of the input column (`None` for `COUNT(*)`),
    /// consulted for per-block null counts during bulk application.
    agg_encodings: Vec<Option<&'a ColumnEncoding>>,
    /// Every aggregate is a plain `Count` — the only aggregates whose
    /// run-length-batched application is bit-identical to row-at-a-time
    /// (integer, order-insensitive). `Sum` is excluded deliberately:
    /// `v * n` is not the same f64 as `n` sequential additions.
    counts_only: bool,
    /// Physical rows of the scanned table — the encodings cover all of
    /// them, so `min(physical_rows - b·SCAN_BLOCK, SCAN_BLOCK)` is block
    /// `b`'s stored length, against which a scan chunk detects that a
    /// watermark left the block only partially visible.
    physical_rows: usize,
}

impl EncodedMember<'_> {
    /// The single grid cell every row of block `block_idx` lands in, if the
    /// zone maps can prove it: each dimension must either be one run (one
    /// value, or all-NULL) or have no relevant literal inside its
    /// `[min_code, max_code]` range (then every row — NULLs included —
    /// maps to OTHER). Returns `None` as soon as one dimension may vary.
    fn constant_cell(
        &self,
        block_idx: usize,
        codecs: &[DimCodec<'_>],
        strides: &[usize],
    ) -> Option<usize> {
        let mut cell = 0usize;
        for (dim, (codec, stride)) in self.dims.iter().zip(codecs.iter().zip(strides)) {
            let DimCodec::StrTable { table, other, .. } = codec else {
                unreachable!("encoded members have table codecs only")
            };
            let zone = dim.blocks[block_idx].zone();
            let dense = if zone.run_count == 1 {
                // One run: a single non-null value, or an all-NULL block
                // (NULL counts as a run value, so any NULL means all-NULL).
                if zone.null_count > 0 {
                    *other
                } else if (zone.min_code as usize) < table.len() {
                    table[zone.min_code as usize]
                } else {
                    *other
                }
            } else {
                // No literal inside the zone range ⇒ every row is OTHER.
                // All-NULL blocks satisfy this vacuously (min > max).
                let from = dim.lit_codes.partition_point(|&c| c < zone.min_code);
                if dim.lit_codes.get(from).is_some_and(|&c| c <= zone.max_code) {
                    return None;
                }
                *other
            };
            cell += dense as usize * stride;
        }
        Some(cell)
    }
}

/// Execute several cubes as **one cold cube pass** — the in-process
/// driver: every member must reference exactly the same table scope, the
/// joined relation is materialized once, and each row is folded into every
/// member's own grid — per-grid mixed-radix LUTs, per-grid dense/hashed
/// decision, per-grid [`CubeStats`].
///
/// Grids are updated in member order within each row block, and each grid
/// sees the rows in relation order, so every member's accumulation
/// sequence — and therefore every f64 result — is **bit-identical** to a
/// one-member pass over that cube ([`CubeQuery::execute_with`]). The
/// partitions are scanned on the calling thread; parallelism comes from
/// `crate::schedule` fanning a pass's partitions out to its workers, which
/// fold through the same `CubePass::fold`.
pub fn execute_fused_in(
    db: &Database,
    cubes: &[&CubeQuery],
    options: &CubeOptions,
    arena: Option<&GridArena>,
) -> Result<Vec<CubeResult>> {
    run_pass(db, cubes, &[], options, arena)
}

/// Re-execute checkpointed scans at the database's **current** watermark
/// by scanning only the delta — the patch driver. The checkpoints must
/// share one table scope and one prefix shape
/// (`ScanCheckpoint::fuse_identity`): the fold starts from clones of their
/// grids (each the fold of every partition below [`ScanCheckpoint::rows`]),
/// the appended tail is scanned **once**, each row folded into every
/// member's grid, and the tail partitions merge in ascending order. Because
/// the fold resumes exactly where a cold pass would stand after its stable
/// prefix, the patched results are bit-identical to a cold full scan at the
/// same watermark — down to the last f64 ulp.
///
/// Stats describe the **patch work**: `rows_scanned` (and the
/// `delta_rows_scanned` twin) count only the rescanned tail, block tallies
/// only the delta's blocks, and `grids_patched` reads 1 per member (the
/// wave layer charges tail rows once per pass, the same convention cold
/// passes use); [`CubeResult::visible_rows`] still stamps the full
/// watermark. Falls back to a cold pass when the checkpoints no longer
/// apply (shrunken relation, non-identity scope, or changed scan shape).
pub fn execute_patches_in(
    db: &Database,
    checkpoints: &[&ScanCheckpoint],
    options: &CubeOptions,
    arena: Option<&GridArena>,
) -> Result<Vec<CubeResult>> {
    let cubes: Vec<&CubeQuery> = checkpoints.iter().map(|cp| &cp.cube).collect();
    run_pass(db, &cubes, checkpoints, options, arena)
}

/// The in-process driver behind [`execute_fused_in`] (`prefix` empty) and
/// [`execute_patches_in`] (one checkpoint per cube): validate, join once,
/// and let the fold scan each partition as it reaches it.
fn run_pass(
    db: &Database,
    cubes: &[&CubeQuery],
    prefix: &[&ScanCheckpoint],
    options: &CubeOptions,
    arena: Option<&GridArena>,
) -> Result<Vec<CubeResult>> {
    let Some(first) = cubes.first() else {
        return Ok(Vec::new());
    };
    validate_fused(cubes)?;
    let relation = JoinedRelation::for_tables(db, &first.tables_referenced())?;
    // A prefix that no longer applies degrades to the empty prefix — a
    // cold pass over the same members.
    let applies = prefix.first().is_some_and(|cp| {
        relation.is_identity() && relation.len() >= cp.rows && cp.compatible(options)
    });
    let prefix = if applies { prefix } else { &[] };
    let pass = CubePass::new(db, &relation, cubes, options, arena);
    Ok(pass.fold(prefix, 1, |_, range| pass.scan(range)))
}

/// Validate a fused member set: each member individually, plus mutual
/// table-scope equality (a mixed-scope member set would silently index the
/// wrong table's rows). Shared by the in-process driver and the
/// scheduler's partition fan-out, which must agree on eligibility.
pub(crate) fn validate_fused(cubes: &[&CubeQuery]) -> Result<()> {
    let Some(first) = cubes.first() else {
        return Ok(());
    };
    let scope = first.tables_referenced();
    for cube in cubes {
        cube.validate()?;
        if cube.tables_referenced() != scope {
            return Err(RelationalError::InvalidQuery(format!(
                "fused cubes must share one table scope: {:?} vs {:?}",
                scope,
                cube.tables_referenced()
            )));
        }
    }
    Ok(())
}

/// Pass-level accounting — identical for every member of a pass (the shape
/// is a pure function of row count, span and prefix; only `workers`
/// reflects scheduling).
#[derive(Debug, Clone, Copy)]
struct PassShape {
    /// Visible rows of the relation: the watermark the results are valid at.
    visible_rows: u64,
    /// Rows in the partitions this pass scanned (all of them when cold,
    /// the tail at or above the checkpoint boundary when patching).
    rows_scanned: u64,
    /// Partitions this pass scanned and folded.
    partitions: u64,
    /// Distinct workers that scanned them.
    workers: u32,
    /// The fold resumed from a checkpoint prefix.
    patched: bool,
}

/// One partition's scan output inside a cube pass: every member's
/// partition-local grid plus its block counters. Owns no borrows, so the
/// scheduler can hand finished partitions between workers.
pub(crate) struct PartitionGrids {
    grids: Vec<MemberGrid>,
    tallies: Vec<BlockTally>,
}

/// Is `f`'s accumulator patchable — i.e. is folding appended rows onto a
/// checkpointed prefix the exact fold a cold scan performs? `CountDistinct`
/// and `Median` hold set/list state whose "patch" would be a full merge
/// anyway; they recompute at each watermark instead. The scheduler bundles
/// missing aggregates by this class so one recompute-class member cannot
/// poison a whole bundle's checkpoint eligibility.
pub fn patchable_function(f: AggFunction) -> bool {
    matches!(
        f,
        AggFunction::Count
            | AggFunction::Sum
            | AggFunction::Avg
            | AggFunction::Min
            | AggFunction::Max
    )
}

/// Aggregate sets eligible for [`ScanCheckpoint`] capture: every member
/// must be [`patchable_function`]-class.
fn patchable_aggregates(aggregates: &[(AggFunction, AggColumn)]) -> bool {
    aggregates.iter().all(|&(f, _)| patchable_function(f))
}

/// The span-aligned checkpoint boundary of an `n_rows` scan: the largest
/// multiple of the partition span ≤ `n_rows`. Partitions below it are
/// row-for-row stable under appends; the (possibly partial) tail above it
/// is rescanned by a patch. 0 disables checkpointing (span 0, or the whole
/// relation is inside the first span).
fn checkpoint_boundary(n_rows: usize, partition_blocks: usize) -> usize {
    let span = partition_blocks.saturating_mul(crate::block::BLOCK_ROWS);
    n_rows.checked_div(span).map_or(0, |spans| spans * span)
}

/// Clone every patchable member's fold state at the checkpoint boundary.
fn capture_member_checkpoints(
    cubes: &[&CubeQuery],
    base: &PartitionGrids,
    captured: &mut [Option<MemberGrid>],
) {
    for ((cube, grid), slot) in cubes.iter().zip(&base.grids).zip(captured.iter_mut()) {
        if patchable_aggregates(&cube.aggregates) {
            *slot = Some(grid.clone());
        }
    }
}

/// Fold one partition's grids into the base grids.
fn merge_partition(base: &mut PartitionGrids, part: PartitionGrids, arena: Option<&GridArena>) {
    for ((bg, bt), (pg, pt)) in base
        .grids
        .iter_mut()
        .zip(base.tallies.iter_mut())
        .zip(part.grids.into_iter().zip(part.tallies))
    {
        match (bg, pg) {
            (MemberGrid::Dense(a), MemberGrid::Dense(mut b)) => {
                a.merge(&mut b);
                if let Some(arena) = arena {
                    b.recycle_into(arena);
                }
            }
            (MemberGrid::Hashed(a), MemberGrid::Hashed(b)) => a.merge(b),
            _ => unreachable!("partitions share the dense/hashed decision"),
        }
        bt.blocks_scanned += pt.blocks_scanned;
        bt.blocks_skipped += pt.blocks_skipped;
        bt.bytes_scanned += pt.bytes_scanned;
    }
}

/// The one execution engine: a validated fused member set
/// ([`validate_fused`]) over one relation, with the per-member scan plans
/// built once. [`CubePass::scan`] turns a partition into grids — wherever
/// a driver chooses to run it — and [`CubePass::fold`] is the only place
/// those grids are folded, checkpointed and finished.
pub(crate) struct CubePass<'a> {
    cubes: &'a [&'a CubeQuery],
    plans: Vec<ScanPlan<'a>>,
    n_rows: usize,
    /// Only identity relations checkpoint: join outputs are not
    /// prefix-stable under appends (a new probe-side row splices tuples
    /// into existing output).
    identity: bool,
    options: CubeOptions,
    arena: Option<&'a GridArena>,
}

impl<'a> CubePass<'a> {
    /// Plans borrow `db`, so a pass cannot travel with a queued job: each
    /// scheduler subtask builds its own over the pinned snapshot.
    pub(crate) fn new(
        db: &'a Database,
        relation: &'a JoinedRelation,
        cubes: &'a [&'a CubeQuery],
        options: &CubeOptions,
        arena: Option<&'a GridArena>,
    ) -> CubePass<'a> {
        CubePass {
            cubes,
            plans: cubes
                .iter()
                .map(|cube| cube.scan_plan(db, relation, options.dense_cell_cap))
                .collect(),
            n_rows: relation.len(),
            identity: relation.is_identity(),
            options: *options,
            arena,
        }
    }

    /// Scan one partition — `range` must be one of
    /// [`crate::block::partition_ranges`]' block-aligned ranges — into
    /// fresh (arena-pooled) grids.
    pub(crate) fn scan(&self, range: std::ops::Range<usize>) -> PartitionGrids {
        let mut grids: Vec<MemberGrid> = self
            .cubes
            .iter()
            .zip(&self.plans)
            .map(|(cube, plan)| match plan.cells {
                Some(cells) => {
                    MemberGrid::Dense(DenseGrid::new_in(cells, &cube.aggregates, self.arena))
                }
                None => MemberGrid::Hashed(HashedGrid::new()),
            })
            .collect();
        let mut tallies = vec![BlockTally::default(); self.cubes.len()];
        scan_members(range, self.cubes, &self.plans, &mut grids, &mut tallies);
        PartitionGrids { grids, tallies }
    }

    /// Fold the pass and finish every member: [`CubePass::fold_grids`],
    /// then [`CubePass::finish`].
    pub(crate) fn fold(
        &self,
        prefix: &[&ScanCheckpoint],
        workers: u32,
        part: impl FnMut(usize, std::ops::Range<usize>) -> PartitionGrids,
    ) -> Vec<CubeResult> {
        self.finish(self.fold_grids(prefix, workers, part))
    }

    /// Fold the pass's grids: start from `prefix` (one checkpoint per
    /// member, all resuming from the same boundary under this pass's
    /// options; empty for a cold pass from row 0), ask `part(index, range)`
    /// for the grids of every partition at or above the prefix in
    /// **ascending partition order** — that left-fold is the determinism
    /// contract's merge order — and merge each onto the running base.
    /// Whenever the base stands exactly on the last span-aligned boundary,
    /// every patchable member's state is cloned as its next checkpoint (for
    /// a patch whose boundary did not move, that is the prefix itself,
    /// before any merge). `workers` is the `partition_parallelism` gauge;
    /// it never affects results.
    fn fold_grids(
        &self,
        prefix: &[&ScanCheckpoint],
        workers: u32,
        mut part: impl FnMut(usize, std::ops::Range<usize>) -> PartitionGrids,
    ) -> FoldedPass {
        debug_assert!(
            prefix.is_empty() || prefix.len() == self.cubes.len(),
            "one checkpoint per member, or none"
        );
        debug_assert!(
            prefix
                .iter()
                .all(|cp| cp.fuse_identity() == prefix[0].fuse_identity()),
            "fused patches must share one prefix shape"
        );
        let span = self.options.partition_blocks;
        let boundary = checkpoint_boundary(self.n_rows, span);
        let capture = self.identity && boundary > 0;
        let mut captured: Vec<Option<MemberGrid>> = self.cubes.iter().map(|_| None).collect();
        let resume = prefix.first().map_or(0, |cp| cp.rows);
        let mut folded = resume;
        let mut base = (!prefix.is_empty()).then(|| PartitionGrids {
            grids: prefix.iter().map(|cp| cp.grid.clone()).collect(),
            tallies: vec![BlockTally::default(); prefix.len()],
        });
        let mut shape = PassShape {
            visible_rows: self.n_rows as u64,
            rows_scanned: 0,
            partitions: 0,
            workers,
            patched: base.is_some(),
        };
        let mut todo = crate::block::partition_ranges(self.n_rows, span)
            .into_iter()
            .enumerate()
            .filter(|(_, range)| range.start >= resume);
        loop {
            if capture && folded == boundary {
                if let Some(base) = &base {
                    capture_member_checkpoints(self.cubes, base, &mut captured);
                }
            }
            let Some((idx, range)) = todo.next() else {
                break;
            };
            folded = range.end;
            shape.rows_scanned += range.len() as u64;
            shape.partitions += 1;
            let grids = part(idx, range);
            match &mut base {
                Some(base) => merge_partition(base, grids, self.arena),
                None => base = Some(grids),
            }
        }
        FoldedPass {
            base: base.expect("a cold pass has ≥ 1 partition"),
            captured,
            shape,
            boundary,
        }
    }

    /// Finish every member of a folded pass and attach its checkpoint.
    fn finish(&self, folded: FoldedPass) -> Vec<CubeResult> {
        let FoldedPass {
            base: PartitionGrids { grids, tallies },
            captured,
            shape,
            boundary,
        } = folded;
        (self.cubes.iter().zip(&self.plans))
            .zip(grids.into_iter().zip(tallies))
            .zip(captured)
            .map(|(((cube, plan), (grid, tally)), captured)| {
                let mut result = cube.finish_scan(grid, plan, tally, shape, self.arena);
                result.checkpoint = captured.map(|grid| {
                    std::sync::Arc::new(ScanCheckpoint {
                        cube: (*cube).clone(),
                        rows: boundary,
                        partition_blocks: self.options.partition_blocks,
                        dense_cell_cap: self.options.dense_cell_cap,
                        grid,
                    })
                });
                result
            })
            .collect()
    }
}

/// A pass folded over all its partitions, not yet finished.
struct FoldedPass {
    /// Every member's grid and block tally over the whole pass.
    base: PartitionGrids,
    /// The patchable members' grids at `boundary`, when captured.
    captured: Vec<Option<MemberGrid>>,
    shape: PassShape,
    boundary: usize,
}

/// The row loop of [`CubePass::scan`]: one sweep over a partition's rows in
/// [`SCAN_BLOCK`]-row chunks, each chunk folded into every member's grid
/// in member order before moving on (touched cells of all grids stay hot
/// while the chunk's column values are still in cache).
///
/// One chunk is exactly one storage block, so dense members with an
/// [`EncodedMember`] plan scan the compressed block —
/// [`DenseGrid::scan_block_encoded`] consults its zone maps and either
/// bulk-applies, splats, or decodes it — while everything else takes the
/// plain [`DenseGrid::scan_block`] / [`HashedGrid::scan`] path. A member's
/// per-block decisions (and therefore its [`CubeStats`] block counters) do
/// not depend on which other members share the pass, which the fused≡solo
/// stats equality tests pin.
fn scan_members(
    rows: std::ops::Range<usize>,
    cubes: &[&CubeQuery],
    plans: &[ScanPlan<'_>],
    grids: &mut [MemberGrid],
    tallies: &mut [BlockTally],
) {
    // Partition boundaries are block-aligned (`partition_ranges`), so a
    // partition's first row always starts a storage block and the encoded
    // path's block index stays valid inside any partition.
    debug_assert_eq!(rows.start % SCAN_BLOCK, 0);
    let mut cellbuf = [0u32; SCAN_BLOCK];
    let mut row = rows.start;
    let mut block_idx = rows.start / SCAN_BLOCK;
    while row < rows.end {
        let len = (rows.end - row).min(SCAN_BLOCK);
        for (((cube, plan), grid), tally) in cubes
            .iter()
            .zip(plans)
            .zip(grids.iter_mut())
            .zip(tallies.iter_mut())
        {
            match grid {
                MemberGrid::Dense(g) => match &plan.encoded {
                    Some(enc) => {
                        g.scan_block_encoded(row, len, block_idx, plan, enc, &mut cellbuf, tally)
                    }
                    None => g.scan_block(
                        row,
                        len,
                        &plan.codecs,
                        &plan.strides,
                        &plan.agg_ctx,
                        &mut cellbuf,
                    ),
                },
                MemberGrid::Hashed(g) => g.scan(
                    row..row + len,
                    &plan.codecs,
                    &cube.aggregates,
                    &plan.agg_ctx,
                ),
            }
        }
        row += len;
        block_idx += 1;
    }
}

// ---------------------------------------------------------------------------
// Finishing a pass
// ---------------------------------------------------------------------------

/// One merge of the rollup: group `src` folds into the coarser group `tgt`
/// (`src` with one more dimension rolled up). `first` marks the edge that
/// creates `tgt`, which starts as a copy of `src`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    src: u32,
    tgt: u32,
    first: bool,
}

/// The rollup into all `2^d` dimension subsets, recorded once per cube as
/// the sequence of merges it performs — dimension-at-a-time: after
/// dimension `i`, the groups are every group whose first `i + 1`
/// dimensions are either specific or ALL. Each group merges into at most
/// `d` coarser ones, O(d · groups) edges in all; keys from different
/// subsets cannot collide because rolled-up dimensions read ALL.
///
/// A source's own merges all precede its outgoing edges (a group with
/// rolled-up set `S` is created and filled while dimension `max S` rolls
/// up, and only read while a later one does), so applying the edges in
/// order to one flat array per aggregate — assign on `first`, merge
/// otherwise — *is* the merge sequence, and every f64 bit follows from the
/// finest groups' order alone.
struct MergeOrder {
    /// Every group's key: the finest groups first, in extraction order,
    /// then each coarser group where its first edge created it.
    keys: Vec<GroupKey>,
    /// Key → position in `keys`.
    index: FxHashMap<GroupKey, u32>,
    edges: Vec<Edge>,
}

impl MergeOrder {
    fn new(finest: Vec<GroupKey>, d: usize) -> MergeOrder {
        let mut index: FxHashMap<GroupKey, u32> = FxHashMap::default();
        // Room for the finest groups and about as many coarser ones.
        index.reserve(2 * finest.len());
        for (i, key) in finest.iter().enumerate() {
            index.insert(*key, i as u32);
        }
        let mut keys = finest;
        let mut edges = Vec::with_capacity(keys.len() * d);
        for dim in 0..d {
            // Groups appended during this dimension already read ALL at
            // `dim`, so the length at its start is exhaustive.
            for src in 0..keys.len() {
                let key = keys[src];
                if key.code(dim) == ALL {
                    continue;
                }
                let target = key.rolled_up(dim);
                let next = keys.len() as u32;
                let tgt = *index.entry(target).or_insert(next);
                let first = tgt == next;
                if first {
                    keys.push(target);
                }
                edges.push(Edge {
                    src: src as u32,
                    tgt,
                    first,
                });
            }
        }
        MergeOrder { keys, index, edges }
    }

    /// Each group's finest contributors: the group itself when finest,
    /// else the concatenation of its sources' contributors in edge order.
    /// Sources precede their targets, so one pass in group order builds
    /// every row from rows already built.
    fn contributors(&self, finest: usize) -> Packed<u32> {
        let total = self.keys.len();
        // The edges into each group, in edge order (a stable counting sort).
        let mut starts = vec![0usize; total + 1];
        for e in &self.edges {
            starts[e.tgt as usize + 1] += 1;
        }
        for g in 0..total {
            starts[g + 1] += starts[g];
        }
        let mut fill = starts.clone();
        let mut sources = vec![0u32; self.edges.len()];
        for e in &self.edges {
            sources[fill[e.tgt as usize]] = e.src;
            fill[e.tgt as usize] += 1;
        }
        let mut out = Packed::default();
        for g in 0..total {
            if g < finest {
                out.items.push(g as u32);
            } else {
                for &src in &sources[starts[g]..starts[g + 1]] {
                    let range = out.range(src as usize);
                    out.items.extend_from_within(range);
                }
            }
            out.end_row();
        }
        out
    }
}

/// Variable-length rows in one buffer: row `i` is
/// `items[starts[i]..starts[i + 1]]`.
struct Packed<T> {
    starts: Vec<usize>,
    items: Vec<T>,
}

impl<T> Default for Packed<T> {
    fn default() -> Self {
        Packed {
            starts: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T> Packed<T> {
    fn range(&self, row: usize) -> std::ops::Range<usize> {
        self.starts[row]..self.starts[row + 1]
    }

    fn row(&self, row: usize) -> &[T] {
        &self.items[self.range(row)]
    }

    /// Close the row being appended to `items`.
    fn end_row(&mut self) {
        self.starts.push(self.items.len());
    }
}

/// One aggregate of one cube's groups, column-wise. The mergeable
/// aggregates hold one flat slot per group — the finest groups' values as
/// extracted, coarser slots filled by [`GroupColumn::replay`]. The set- and
/// list-valued ones hold only the finest groups' distinct values or input
/// values: a distinct count and a median are functions of a set and a
/// multiset, so each group is finished once from its finest contributors
/// instead of carrying sets and buffers through the merges.
enum GroupColumn {
    Count(Vec<u64>),
    SumAvg {
        sums: Vec<f64>,
        counts: Vec<u64>,
        is_avg: bool,
    },
    MinMax {
        extremes: Vec<Option<f64>>,
        is_max: bool,
    },
    /// Each finest group's distinct values, renamed to dense ids `0..`
    /// in first-seen order.
    CountDistinct {
        ids: Packed<u32>,
        dense: FxHashMap<u64, u32>,
    },
    Median(Packed<f64>),
}

impl GroupColumn {
    fn new(function: AggFunction) -> GroupColumn {
        match function {
            AggFunction::Count => GroupColumn::Count(Vec::new()),
            AggFunction::Sum | AggFunction::Avg => GroupColumn::SumAvg {
                sums: Vec::new(),
                counts: Vec::new(),
                is_avg: function == AggFunction::Avg,
            },
            AggFunction::Min | AggFunction::Max => GroupColumn::MinMax {
                extremes: Vec::new(),
                is_max: function == AggFunction::Max,
            },
            AggFunction::CountDistinct => GroupColumn::CountDistinct {
                ids: Packed::default(),
                dense: FxHashMap::default(),
            },
            AggFunction::Median => GroupColumn::Median(Packed::default()),
            AggFunction::Percentage | AggFunction::ConditionalProbability => {
                unreachable!("validate() rejects ratio aggregates")
            }
        }
    }

    fn needs_contributors(&self) -> bool {
        matches!(
            self,
            GroupColumn::CountDistinct { .. } | GroupColumn::Median(_)
        )
    }

    /// Append the finest groups at `cells` of one dense grid state, in
    /// order.
    fn extract(&mut self, state: &DenseAggState, cells: &[usize]) {
        match (self, state) {
            (GroupColumn::Count(out), DenseAggState::Count(counts)) => {
                out.extend(cells.iter().map(|&c| counts[c]));
            }
            (
                GroupColumn::SumAvg { sums, counts, .. },
                DenseAggState::SumAvg { sums: s, counts: n },
            ) => {
                sums.extend(cells.iter().map(|&c| s[c]));
                counts.extend(cells.iter().map(|&c| n[c]));
            }
            (GroupColumn::MinMax { extremes, .. }, DenseAggState::MinMax { extremes: e, .. }) => {
                extremes.extend(cells.iter().map(|&c| e[c]));
            }
            (column @ GroupColumn::CountDistinct { .. }, DenseAggState::CountDistinct(sets)) => {
                for &c in cells {
                    column.push_distinct(sets[c].iter().copied());
                }
            }
            (GroupColumn::Median(lists), DenseAggState::Median(values)) => {
                for &c in cells {
                    lists.items.extend_from_slice(&values[c]);
                    lists.end_row();
                }
            }
            _ => unreachable!("a column and its grid state share one aggregate kind"),
        }
    }

    /// Append the next finest group of a hashed grid.
    fn push(&mut self, acc: Accumulator) {
        match (self, acc) {
            (GroupColumn::Count(counts), Accumulator::Count(n)) => counts.push(n),
            (
                GroupColumn::SumAvg { sums, counts, .. },
                Accumulator::Sum { sum, n } | Accumulator::Avg { sum, n },
            ) => {
                sums.push(sum);
                counts.push(n);
            }
            (GroupColumn::MinMax { extremes, .. }, Accumulator::Min(m) | Accumulator::Max(m)) => {
                extremes.push(m)
            }
            (column @ GroupColumn::CountDistinct { .. }, Accumulator::CountDistinct(set)) => {
                column.push_distinct(set)
            }
            (GroupColumn::Median(lists), Accumulator::Median(values)) => {
                lists.items.extend(values);
                lists.end_row();
            }
            _ => unreachable!("a column holds one aggregate kind"),
        }
    }

    /// Append the next finest group's distinct values, renamed to ids.
    fn push_distinct(&mut self, codes: impl IntoIterator<Item = u64>) {
        let GroupColumn::CountDistinct { ids, dense } = self else {
            unreachable!("only a distinct-count column holds distinct values")
        };
        for code in codes {
            let next = dense.len() as u32;
            ids.items.push(*dense.entry(code).or_insert(next));
        }
        ids.end_row();
    }

    /// Grow a mergeable column to `total` groups by applying the merge
    /// order's edges in sequence.
    fn replay(&mut self, edges: &[Edge], total: usize) {
        match self {
            GroupColumn::Count(counts) => {
                counts.resize(total, 0);
                for &Edge { src, tgt, first } in edges {
                    let n = counts[src as usize];
                    let t = &mut counts[tgt as usize];
                    *t = if first { n } else { *t + n };
                }
            }
            GroupColumn::SumAvg { sums, counts, .. } => {
                sums.resize(total, 0.0);
                counts.resize(total, 0);
                for &Edge { src, tgt, first } in edges {
                    let (src, tgt) = (src as usize, tgt as usize);
                    if first {
                        sums[tgt] = sums[src];
                        counts[tgt] = counts[src];
                    } else {
                        sums[tgt] += sums[src];
                        counts[tgt] += counts[src];
                    }
                }
            }
            GroupColumn::MinMax { extremes, is_max } => {
                extremes.resize(total, None);
                for &Edge { src, tgt, first } in edges {
                    let v = extremes[src as usize];
                    let t = &mut extremes[tgt as usize];
                    if first {
                        *t = v;
                    } else if let Some(v) = v {
                        fold_extreme(t, v, *is_max);
                    }
                }
            }
            GroupColumn::CountDistinct { .. } | GroupColumn::Median(_) => {}
        }
    }

    /// Write every group's finished value into `slots` (one per group, in
    /// group order), with SQL semantics: `Count` of an empty group is 0,
    /// the value aggregates of one are NULL.
    fn finish_into<'s>(
        &self,
        slots: impl Iterator<Item = &'s mut Option<f64>>,
        contributors: Option<&Packed<u32>>,
    ) {
        let contributors = || contributors.expect("set/list columns come with contributors");
        match self {
            GroupColumn::Count(counts) => {
                for (slot, &n) in slots.zip(counts) {
                    *slot = Some(n as f64);
                }
            }
            GroupColumn::SumAvg {
                sums,
                counts,
                is_avg,
            } => {
                for (slot, (&sum, &n)) in slots.zip(sums.iter().zip(counts)) {
                    *slot = match (n, is_avg) {
                        (0, _) => None,
                        (_, false) => Some(sum),
                        (_, true) => Some(sum / n as f64),
                    };
                }
            }
            GroupColumn::MinMax { extremes, .. } => {
                for (slot, &e) in slots.zip(extremes) {
                    *slot = e;
                }
            }
            GroupColumn::CountDistinct { ids, dense } => {
                let members = contributors();
                // Per id, the last group that counted it.
                let mut seen = vec![u32::MAX; dense.len()];
                for (g, slot) in slots.enumerate() {
                    let mut distinct = 0usize;
                    for &m in members.row(g) {
                        for &id in ids.row(m as usize) {
                            let seen = &mut seen[id as usize];
                            distinct += usize::from(*seen != g as u32);
                            *seen = g as u32;
                        }
                    }
                    *slot = Some(distinct as f64);
                }
            }
            GroupColumn::Median(lists) => {
                let members = contributors();
                let mut values = Vec::new();
                for (g, slot) in slots.enumerate() {
                    values.clear();
                    for &m in members.row(g) {
                        values.extend_from_slice(lists.row(m as usize));
                    }
                    *slot = median_in_place(&mut values);
                }
            }
        }
    }
}

impl CubeResult {
    pub fn dims(&self) -> &[ColumnRef] {
        &self.dims
    }

    pub fn relevant(&self) -> &[Literals] {
        &self.relevant
    }

    pub fn aggregate_count(&self) -> usize {
        self.n_aggs
    }

    /// The literal index of `value` in dimension `dim`'s relevant list.
    pub fn literal_index(&self, dim: usize, value: &Value) -> Option<usize> {
        self.relevant[dim].iter().position(|v| v == value)
    }

    /// Every aggregate of the group at `key`, in the cube's aggregate
    /// order; `None` when no row fell in the group. The coded read the
    /// candidate demultiplexer runs on: one lookup serves every aggregate
    /// of every slice cut from this cube.
    #[inline]
    pub fn group(&self, key: GroupKey) -> Option<&[Option<f64>]> {
        let row = *self.index.get(&key)? as usize * self.n_aggs;
        Some(&self.values[row..row + self.n_aggs])
    }

    /// Look up the aggregate `agg_idx` for the group selected by
    /// `assignment` (one selector per dimension).
    ///
    /// Returns `None` when the group is empty (no row matched) **and** the
    /// aggregate is NULL-on-empty; for `Count`-like aggregates an absent
    /// group reads as `Some(0.0)` only via [`CubeResult::get_count`].
    pub fn get(&self, assignment: &[DimSel], agg_idx: usize) -> Option<f64> {
        let key = self.assignment_key(assignment)?;
        self.group(key).and_then(|vals| vals[agg_idx])
    }

    /// Like [`CubeResult::get`] for count aggregates: an absent group means
    /// zero matching rows, so the count is 0.
    pub fn get_count(&self, assignment: &[DimSel], agg_idx: usize) -> f64 {
        self.get(assignment, agg_idx).unwrap_or(0.0)
    }

    fn assignment_key(&self, assignment: &[DimSel]) -> Option<GroupKey> {
        debug_assert_eq!(assignment.len(), self.dims.len());
        let mut key = GroupKey::UNRESTRICTED;
        for (i, sel) in assignment.iter().enumerate() {
            if let DimSel::Literal(idx) = sel {
                if *idx >= self.relevant[i].len() {
                    return None;
                }
                key = key.with_literal(i, *idx as u8);
            }
        }
        Some(key)
    }

    /// Total number of materialized groups.
    pub fn group_count(&self) -> usize {
        self.index.len()
    }

    /// Visible rows of the scanned relation when this result was computed
    /// — the watermark stamp delta-aware caching matches on.
    pub fn visible_rows(&self) -> u64 {
        self.visible_rows
    }

    /// The resumable scan prefix captured by this execution, if any.
    pub fn checkpoint(&self) -> Option<&std::sync::Arc<ScanCheckpoint>> {
        self.checkpoint.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_query;
    use crate::query::{Predicate, SimpleAggregateQuery};
    use crate::schedule::{run_wave, CubeTask, ScanGroup};
    use crate::table::Table;
    use std::sync::Arc;

    /// Run `cubes` as one fused cold pass through the production fan-out:
    /// [`run_wave`] with `threads` workers stealing partition subtasks.
    fn wave_pass(
        db: &Arc<Database>,
        cubes: &[&CubeQuery],
        partition_blocks: usize,
        threads: usize,
        arena: Option<&GridArena>,
    ) -> Vec<Arc<CubeResult>> {
        let (tasks, handles): (Vec<_>, Vec<_>) = cubes
            .iter()
            .map(|cube| CubeTask::new((*cube).clone(), Vec::new()))
            .unzip();
        let mut groups = ScanGroup::fuse(tasks);
        for group in &mut groups {
            group.set_partition_blocks(partition_blocks);
        }
        run_wave(db, arena, groups, &handles, threads);
        handles
            .into_iter()
            .map(|handle| handle.into_result().unwrap())
            .collect()
    }

    /// Patch one checkpoint forward to `db`'s current watermark.
    fn patch_one(db: &Database, cp: &ScanCheckpoint, options: &CubeOptions) -> CubeResult {
        let mut results = execute_patches_in(db, &[cp], options, None).unwrap();
        results.pop().expect("one member")
    }

    /// A result's groups as `(key, values)` in key order, f64s as bits.
    type GroupBits = Vec<(u64, Vec<Option<u64>>)>;

    /// The canonical view of a result's groups every comparison goes
    /// through: bits, so `-0.0` and `0.0` differ and a NaN equals itself.
    fn grid_bits(r: &CubeResult) -> GroupBits {
        let mut v: GroupBits = r
            .index
            .keys()
            .map(|&k| {
                let vals = r.group(k).expect("indexed group");
                (k.0, vals.iter().map(|o| o.map(f64::to_bits)).collect())
            })
            .collect();
        v.sort();
        v
    }

    /// Figure 2's data set, as in the exec tests.
    fn nfl() -> Database {
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
        db
    }

    fn nfl_cube_query(db: &Database) -> CubeQuery {
        let games = db.resolve("nflsuspensions", "games").unwrap();
        let cat = db.resolve("nflsuspensions", "category").unwrap();
        let year = db.resolve("nflsuspensions", "year").unwrap();
        CubeQuery {
            dims: vec![games, cat],
            relevant: vec![
                vec!["indef".into()].into(),
                vec![
                    "gambling".into(),
                    "substance abuse, repeated offense".into(),
                ]
                .into(),
            ],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Sum, AggColumn::Column(year)),
                (AggFunction::Avg, AggColumn::Column(year)),
            ],
        }
    }

    fn nfl_cube(db: &Database) -> CubeResult {
        nfl_cube_query(db).execute(db).unwrap()
    }

    /// Every tuning variant that must agree with the default path.
    fn option_variants() -> Vec<(&'static str, CubeOptions)> {
        vec![
            ("dense-1t", CubeOptions::default()),
            (
                "hashed-1t",
                CubeOptions {
                    dense_cell_cap: 0,
                    ..CubeOptions::default()
                },
            ),
            (
                "dense-1p",
                CubeOptions {
                    partition_blocks: 1,
                    ..CubeOptions::default()
                },
            ),
        ]
    }

    #[test]
    fn cube_reproduces_paper_counts() {
        let db = nfl();
        let r = nfl_cube(&db);
        // Four lifetime bans (games = indef, any category).
        assert_eq!(r.get_count(&[DimSel::Literal(0), DimSel::Any], 0), 4.0);
        // Three for repeated substance abuse.
        assert_eq!(
            r.get_count(&[DimSel::Literal(0), DimSel::Literal(1)], 0),
            3.0
        );
        // One for gambling.
        assert_eq!(
            r.get_count(&[DimSel::Literal(0), DimSel::Literal(0)], 0),
            1.0
        );
        // Grand total.
        assert_eq!(r.get_count(&[DimSel::Any, DimSel::Any], 0), 6.0);
    }

    #[test]
    fn cube_matches_naive_executor_on_every_combination() {
        let db = nfl();
        let games = db.resolve("nflsuspensions", "games").unwrap();
        let cat = db.resolve("nflsuspensions", "category").unwrap();
        let year = db.resolve("nflsuspensions", "year").unwrap();
        let game_lits = [Some("indef"), None];
        let cat_lits = [
            Some("gambling"),
            Some("substance abuse, repeated offense"),
            None,
        ];
        for (name, options) in option_variants() {
            let r = nfl_cube_query(&db).execute_with(&db, &options).unwrap();
            for (gi, g) in game_lits.iter().enumerate() {
                for (ci, c) in cat_lits.iter().enumerate() {
                    let mut preds = Vec::new();
                    let mut assignment = Vec::new();
                    match g {
                        Some(lit) => {
                            preds.push(Predicate::new(games, *lit));
                            assignment.push(DimSel::Literal(gi));
                        }
                        None => assignment.push(DimSel::Any),
                    }
                    match c {
                        Some(lit) => {
                            preds.push(Predicate::new(cat, *lit));
                            assignment.push(DimSel::Literal(ci));
                        }
                        None => assignment.push(DimSel::Any),
                    }
                    for (agg_idx, (f, col)) in [
                        (AggFunction::Count, AggColumn::Star),
                        (AggFunction::Sum, AggColumn::Column(year)),
                        (AggFunction::Avg, AggColumn::Column(year)),
                    ]
                    .iter()
                    .enumerate()
                    {
                        let q = SimpleAggregateQuery::new(*f, *col, preds.clone());
                        let naive = execute_query(&db, &q).unwrap();
                        if *f == AggFunction::Count {
                            assert_eq!(
                                Some(r.get_count(&assignment, agg_idx)),
                                naive,
                                "[{name}] {}",
                                q.to_sql(&db)
                            );
                        } else {
                            assert_eq!(
                                r.get(&assignment, agg_idx),
                                naive,
                                "[{name}] {}",
                                q.to_sql(&db)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grid_mode_follows_decision_rule() {
        let db = nfl();
        let q = nfl_cube_query(&db);
        let dense = q.execute(&db).unwrap();
        assert_eq!(dense.stats.grid_mode, GridMode::Dense);
        // radices: (1 literal + OTHER) × (2 literals + OTHER) = 6 cells.
        assert_eq!(dense.stats.dense_cells, 6);

        let hashed = q
            .execute_with(
                &db,
                &CubeOptions {
                    dense_cell_cap: 5,
                    ..CubeOptions::default()
                },
            )
            .unwrap();
        assert_eq!(hashed.stats.grid_mode, GridMode::Hashed);
        assert_eq!(hashed.stats.dense_cells, 0);
        assert_eq!(hashed.stats.total_groups, dense.stats.total_groups);
    }

    #[test]
    fn count_distinct_survives_rollup() {
        let db = nfl();
        let games = db.resolve("nflsuspensions", "games").unwrap();
        let year = db.resolve("nflsuspensions", "year").unwrap();
        for (name, options) in option_variants() {
            let r = CubeQuery {
                dims: vec![games],
                relevant: vec![vec!["indef".into()].into()],
                aggregates: vec![(AggFunction::CountDistinct, AggColumn::Column(year))],
            }
            .execute_with(&db, &options)
            .unwrap();
            // indef years: 1989, 1995, 2014, 1983 → 4 distinct.
            assert_eq!(r.get(&[DimSel::Literal(0)], 0), Some(4.0), "[{name}]");
            // All years: 1989, 1995, 2014, 1983, 2014, 2014 → 4 distinct,
            // not 6: the rollup must merge distinct sets, not add counts.
            assert_eq!(r.get(&[DimSel::Any], 0), Some(4.0), "[{name}]");
        }
    }

    #[test]
    fn irrelevant_literals_collapse_to_other() {
        let db = nfl();
        let r = nfl_cube(&db);
        // Finest level: games ∈ {indef, OTHER} × category ∈ {gambling,
        // substance, OTHER} — at most 6 finest groups even if the raw
        // columns had thousands of values.
        assert!(r.stats.finest_groups <= 6, "{:?}", r.stats);
    }

    #[test]
    fn missing_literal_reads_as_empty_group() {
        let db = nfl();
        let games = db.resolve("nflsuspensions", "games").unwrap();
        for (name, options) in option_variants() {
            let r = CubeQuery {
                dims: vec![games],
                relevant: vec![vec!["indef".into(), "not-in-data".into()].into()],
                aggregates: vec![(AggFunction::Count, AggColumn::Star)],
            }
            .execute_with(&db, &options)
            .unwrap();
            assert_eq!(r.get_count(&[DimSel::Literal(1)], 0), 0.0, "[{name}]");
            assert_eq!(r.get(&[DimSel::Literal(1)], 0), None, "[{name}]");
            // Out-of-range literal index is not a panic either.
            assert_eq!(r.get_count(&[DimSel::Literal(9)], 0), 0.0, "[{name}]");
        }
    }

    /// The coded read: a packed key built on the stack addresses the same
    /// group as the selector-based lookup, one lookup serving every
    /// aggregate of the group.
    #[test]
    fn group_keys_address_the_same_groups_as_selectors() {
        let db = nfl();
        let r = nfl_cube(&db);
        let all = GroupKey::UNRESTRICTED;
        for (key, sel) in [
            (all, [DimSel::Any, DimSel::Any]),
            (all.with_literal(0, 0), [DimSel::Literal(0), DimSel::Any]),
            (all.with_literal(1, 1), [DimSel::Any, DimSel::Literal(1)]),
            (
                all.with_literal(1, 0).with_literal(0, 0),
                [DimSel::Literal(0), DimSel::Literal(0)],
            ),
        ] {
            let group = r.group(key).expect("group has rows");
            for (agg, value) in group.iter().enumerate() {
                assert_eq!(*value, r.get(&sel, agg), "{sel:?} aggregate {agg}");
            }
        }
        // Re-fixing a dimension replaces its code.
        assert_eq!(
            all.with_literal(0, 1).with_literal(0, 0),
            all.with_literal(0, 0)
        );
    }

    #[test]
    fn list_pair_memo_compares_each_pair_of_lists_once() {
        let ab: Literals = vec!["a".into(), "b".into()].into();
        let ab_again: Literals = vec!["a".into(), "b".into()].into();
        let a: Literals = vec!["a".into()].into();
        let mut memo = ListPairMemo::default();
        // The same allocation needs no entry; equal lists are compared once
        // and remembered by identity.
        assert!(memo.same(&ab, &ab));
        assert!(memo.0.is_empty());
        assert!(memo.same(&ab, &ab_again));
        assert!(memo.same(&ab, &ab_again));
        assert_eq!(memo.0.len(), 1);
        assert!(!memo.same(&ab, &a));
        // Coverage is directional, one remembered answer per direction.
        use std::slice::from_ref as one;
        let mut memo = ListPairMemo::default();
        assert!(memo.cover(one(&ab), one(&a)));
        assert!(!memo.cover(one(&a), one(&ab)));
        assert!(memo.cover(one(&ab), one(&ab_again)));
        assert!(!memo.cover(&[ab.clone(), a.clone()], one(&ab_again)));
        assert_eq!(memo.0.len(), 3);
        assert!(literals_cover(one(&ab), one(&a)));
        assert!(!literals_cover(one(&a), one(&ab)));
    }

    #[test]
    fn zero_dimension_cube_is_global_aggregate() {
        let db = nfl();
        let year = db.resolve("nflsuspensions", "year").unwrap();
        for (name, options) in option_variants() {
            let r = CubeQuery {
                dims: vec![],
                relevant: vec![],
                aggregates: vec![(AggFunction::Max, AggColumn::Column(year))],
            }
            .execute_with(&db, &options)
            .unwrap();
            assert_eq!(r.get(&[], 0), Some(2014.0), "[{name}]");
            assert_eq!(r.group_count(), 1, "[{name}]");
        }
    }

    #[test]
    fn empty_relation_yields_no_groups() {
        let t = Table::from_columns("empty", vec![("x", Vec::<Value>::new())]).unwrap();
        let mut db = Database::new("e");
        db.add_table(t);
        let x = db.resolve("empty", "x").unwrap();
        for (name, options) in option_variants() {
            let r = CubeQuery {
                dims: vec![x],
                relevant: vec![vec![Value::Int(1)].into()],
                aggregates: vec![(AggFunction::Count, AggColumn::Star)],
            }
            .execute_with(&db, &options)
            .unwrap();
            assert_eq!(r.group_count(), 0, "[{name}]");
            assert_eq!(r.get_count(&[DimSel::Any], 0), 0.0, "[{name}]");
            assert_eq!(r.get(&[DimSel::Any], 0), None, "[{name}]");
        }
    }

    #[test]
    fn ratio_aggregates_rejected() {
        let db = nfl();
        let games = db.resolve("nflsuspensions", "games").unwrap();
        let q = CubeQuery {
            dims: vec![games],
            relevant: vec![vec!["indef".into()].into()],
            aggregates: vec![(AggFunction::Percentage, AggColumn::Star)],
        };
        assert!(q.execute(&db).is_err());
    }

    #[test]
    fn too_many_dimensions_rejected() {
        let db = nfl();
        let games = db.resolve("nflsuspensions", "games").unwrap();
        let q = CubeQuery {
            dims: vec![games; 9],
            relevant: vec![vec![].into(); 9],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        assert!(q.execute(&db).is_err());
    }

    #[test]
    fn numeric_dimension_grouping() {
        let db = nfl();
        let year = db.resolve("nflsuspensions", "year").unwrap();
        for (name, options) in option_variants() {
            let r = CubeQuery {
                dims: vec![year],
                relevant: vec![vec![Value::Int(2014)].into()],
                aggregates: vec![(AggFunction::Count, AggColumn::Star)],
            }
            .execute_with(&db, &options)
            .unwrap();
            assert_eq!(r.get_count(&[DimSel::Literal(0)], 0), 3.0, "[{name}]");
        }
    }

    #[test]
    fn arena_reuses_buffers_across_executions() {
        let db = nfl();
        let q = nfl_cube_query(&db);
        let arena = GridArena::new();
        let plain = q.execute(&db).unwrap();
        let run = || {
            let mut results =
                execute_fused_in(&db, &[&q], &CubeOptions::default(), Some(&arena)).unwrap();
            results.pop().unwrap()
        };
        let first = run();
        let after_first = arena.stats();
        // Count + touched go through the pool; Sum/Avg add floats+counts.
        assert!(after_first.allocations > 0);
        assert_eq!(after_first.reuses, 0);
        let second = run();
        let after_second = arena.stats();
        // Every buffer the second run needed came back from the first run.
        assert_eq!(after_second.allocations, after_first.allocations);
        assert_eq!(after_second.reuses, after_first.allocations);
        // Results are identical with and without the arena.
        for r in [&first, &second] {
            for gsel in [DimSel::Literal(0), DimSel::Any] {
                for csel in [DimSel::Literal(0), DimSel::Literal(1), DimSel::Any] {
                    for agg in 0..3 {
                        assert_eq!(
                            r.get(&[gsel, csel], agg),
                            plain.get(&[gsel, csel], agg),
                            "{gsel:?}/{csel:?}/{agg}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn arena_survives_parallel_partitions() {
        let n = 10_000usize;
        let cats: Vec<Value> = (0..n)
            .map(|i| Value::Str(["a", "b", "c"][i % 3].into()))
            .collect();
        let t = Table::from_columns("big", vec![("cat", cats)]).unwrap();
        let mut db = Database::new("big");
        db.add_table(t);
        let db = Arc::new(db);
        let cat = db.resolve("big", "cat").unwrap();
        let q = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["a".into(), "b".into()].into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        // 10k rows / 2048-row partitions → 5 partition subtasks stolen by
        // 4 workers sharing one arena.
        let arena = GridArena::new();
        let seq = q.execute(&db).unwrap();
        let r1 = wave_pass(&db, &[&q], 1, 4, Some(&arena)).pop().unwrap();
        assert_eq!(r1.stats.partitions_scanned, 5, "{:?}", r1.stats);
        assert_eq!(r1.stats.partition_merges, 4, "{:?}", r1.stats);
        assert!(
            (1..=4).contains(&r1.stats.partition_parallelism),
            "{:?}",
            r1.stats
        );
        let first_allocs = arena.stats().allocations;
        assert!(first_allocs >= 4, "one grid per partition");
        let r2 = wave_pass(&db, &[&q], 1, 4, Some(&arena)).pop().unwrap();
        // The second execution is served entirely from the pool.
        assert_eq!(arena.stats().allocations, first_allocs);
        assert_eq!(arena.stats().reuses, first_allocs);
        for r in [&r1, &r2] {
            for sel in [DimSel::Any, DimSel::Literal(0), DimSel::Literal(1)] {
                assert_eq!(r.get_count(&[sel], 0), seq.get_count(&[sel], 0), "{sel:?}");
            }
        }
    }

    /// Every member of a fused pass must produce a result bit-identical to
    /// its own solo sequential execution — dense and hashed members alike,
    /// stats included.
    #[test]
    fn fused_scan_matches_solo_execution_per_member() {
        let db = nfl();
        let games = db.resolve("nflsuspensions", "games").unwrap();
        let cat = db.resolve("nflsuspensions", "category").unwrap();
        let year = db.resolve("nflsuspensions", "year").unwrap();
        let cubes = [
            nfl_cube_query(&db),
            CubeQuery {
                dims: vec![games],
                relevant: vec![vec!["indef".into(), "10".into()].into()],
                aggregates: vec![
                    (AggFunction::Count, AggColumn::Star),
                    (AggFunction::Avg, AggColumn::Column(year)),
                ],
            },
            CubeQuery {
                dims: vec![],
                relevant: vec![],
                aggregates: vec![(AggFunction::Max, AggColumn::Column(year))],
            },
            CubeQuery {
                dims: vec![cat],
                relevant: vec![vec!["gambling".into(), "peds".into()].into()],
                aggregates: vec![(AggFunction::CountDistinct, AggColumn::Column(year))],
            },
        ];
        // cap 5 sends the 6-cell first cube to the hashed grid while the
        // others stay dense — fusion must handle a mixed member set.
        for cap in [usize::MAX, 5] {
            let options = CubeOptions {
                dense_cell_cap: cap,
                ..CubeOptions::default()
            };
            let refs: Vec<&CubeQuery> = cubes.iter().collect();
            let fused = execute_fused_in(&db, &refs, &options, None).unwrap();
            assert_eq!(fused.len(), cubes.len());
            for (cube, fused_result) in cubes.iter().zip(&fused) {
                let solo = cube.execute_with(&db, &options).unwrap();
                assert_eq!(fused_result.stats, solo.stats, "cap={cap}");
                assert_eq!(grid_bits(fused_result), grid_bits(&solo), "cap={cap}");
            }
        }
    }

    #[test]
    fn fused_scan_of_nothing_is_empty() {
        let db = nfl();
        assert!(execute_fused_in(&db, &[], &CubeOptions::default(), None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fused_scan_rejects_invalid_members() {
        let db = nfl();
        let games = db.resolve("nflsuspensions", "games").unwrap();
        let good = nfl_cube_query(&db);
        let bad = CubeQuery {
            dims: vec![games],
            relevant: vec![vec!["indef".into()].into()],
            aggregates: vec![(AggFunction::Percentage, AggColumn::Star)],
        };
        assert!(execute_fused_in(&db, &[&good, &bad], &CubeOptions::default(), None).is_err());
    }

    #[test]
    fn fused_scan_rejects_mixed_table_scopes() {
        let mut db = nfl();
        let other =
            Table::from_columns("other", vec![("x", vec!["a".into(), "b".into()])]).unwrap();
        db.add_table(other);
        let games_cube = CubeQuery {
            dims: vec![db.resolve("nflsuspensions", "games").unwrap()],
            relevant: vec![vec!["indef".into()].into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        let other_cube = CubeQuery {
            dims: vec![db.resolve("other", "x").unwrap()],
            relevant: vec![vec!["a".into()].into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        // A mixed-scope member set must be a clean error, not a silent
        // mis-indexed scan — in release builds there is no debug_assert
        // to catch it.
        let err = execute_fused_in(
            &db,
            &[&games_cube, &other_cube],
            &CubeOptions::default(),
            None,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("table scope"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn fused_scan_draws_grids_from_the_arena() {
        let db = nfl();
        let q1 = nfl_cube_query(&db);
        let games = db.resolve("nflsuspensions", "games").unwrap();
        let q2 = CubeQuery {
            dims: vec![games],
            relevant: vec![vec!["indef".into()].into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        let arena = GridArena::new();
        let first =
            execute_fused_in(&db, &[&q1, &q2], &CubeOptions::default(), Some(&arena)).unwrap();
        let after_first = arena.stats();
        assert!(after_first.allocations > 0);
        let second =
            execute_fused_in(&db, &[&q1, &q2], &CubeOptions::default(), Some(&arena)).unwrap();
        // The second pass is served entirely from the pool.
        assert_eq!(arena.stats().allocations, after_first.allocations);
        assert_eq!(arena.stats().reuses, after_first.allocations);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(grid_bits(a), grid_bits(b));
        }
    }

    /// The determinism contract itself: the same fixed partition shape and
    /// the one ascending fold run everywhere, so a pass fanned out over any
    /// number of workers is **bit-identical** (groups and accumulators, not
    /// just approximately equal) to the in-process pass over the same
    /// partitions.
    #[test]
    fn partitioned_scans_are_bit_identical_across_threads() {
        let n = 10_000usize;
        let cats: Vec<Value> = (0..n)
            .map(|i| Value::Str(["a", "b", "c"][i % 3].into()))
            .collect();
        let nums: Vec<Value> = (0..n).map(|i| Value::Int((i % 97) as i64)).collect();
        let t = Table::from_columns("big", vec![("cat", cats), ("num", nums)]).unwrap();
        let mut db = Database::new("big");
        db.add_table(t);
        let db = Arc::new(db);
        let cat = db.resolve("big", "cat").unwrap();
        let num = db.resolve("big", "num").unwrap();
        let q = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["a".into(), "b".into()].into()],
            aggregates: vec![
                (AggFunction::Sum, AggColumn::Column(num)),
                (AggFunction::Avg, AggColumn::Column(num)),
            ],
        };
        let span1 = CubeOptions {
            partition_blocks: 1,
            ..CubeOptions::default()
        };
        let in_process = q.execute_with(&db, &span1).unwrap();
        assert_eq!(in_process.stats.partitions_scanned, 5);
        for threads in [1usize, 2, 4, 8] {
            let r = wave_pass(&db, &[&q], 1, threads, None).pop().unwrap();
            assert_eq!(grid_bits(&r), grid_bits(&in_process), "{threads} workers");
            assert_eq!(
                r.stats.partitions_scanned,
                in_process.stats.partitions_scanned
            );
            assert_eq!(r.stats.partition_merges, in_process.stats.partition_merges);
        }
    }

    /// Clustered (sorted) category column spanning four storage blocks:
    /// block 0 is all "aaa", block 1 mixes the rare literal with "zzz",
    /// blocks 2–3 are all "zzz".
    fn clustered_db() -> Database {
        let n = 4 * SCAN_BLOCK;
        let cats: Vec<Value> = (0..n)
            .map(|i| {
                let c = if i < SCAN_BLOCK {
                    "aaa"
                } else if i < SCAN_BLOCK + 100 {
                    "rare"
                } else {
                    "zzz"
                };
                Value::Str(c.into())
            })
            .collect();
        let nums: Vec<Value> = (0..n)
            .map(|i| {
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 211) as i64)
                }
            })
            .collect();
        let t = Table::from_columns("clustered", vec![("cat", cats), ("num", nums)]).unwrap();
        let mut db = Database::new("clustered");
        db.add_table(t);
        db
    }

    #[test]
    fn encoded_scan_skips_constant_blocks_for_counts() {
        let db = clustered_db();
        let cat = db.resolve("clustered", "cat").unwrap();
        let num = db.resolve("clustered", "num").unwrap();
        let q = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["rare".into()].into()],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Count, AggColumn::Column(num)),
            ],
        };
        let sealed = q.execute(&db).unwrap();
        // Blocks 0, 2, 3 are provably constant (one run, or no literal in
        // the zone range) and every aggregate is a count — bulk-applied.
        // Block 1 contains the literal and must decode.
        assert_eq!(sealed.stats.blocks_skipped, 3, "{:?}", sealed.stats);
        assert_eq!(sealed.stats.blocks_scanned, 1, "{:?}", sealed.stats);
        assert!(sealed.stats.bytes_scanned > 0, "{:?}", sealed.stats);

        let mut plain_db = db.clone();
        plain_db.unseal_tables();
        let plain = q.execute(&plain_db).unwrap();
        assert_eq!(plain.stats.blocks_scanned + plain.stats.blocks_skipped, 0);
        assert_eq!(grid_bits(&sealed), grid_bits(&plain));
    }

    #[test]
    fn encoded_scan_splats_constant_blocks_for_value_aggregates() {
        let db = clustered_db();
        let cat = db.resolve("clustered", "cat").unwrap();
        let num = db.resolve("clustered", "num").unwrap();
        let q = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["rare".into()].into()],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Sum, AggColumn::Column(num)),
                (AggFunction::Avg, AggColumn::Column(num)),
                (AggFunction::Min, AggColumn::Column(num)),
            ],
        };
        let sealed = q.execute(&db).unwrap();
        // Sum/Avg/Min need row values, so no block is bulk-applied — but
        // constant blocks still save the dimension decode (splat) and the
        // one mixed block pays decode bytes.
        assert_eq!(sealed.stats.blocks_skipped, 0, "{:?}", sealed.stats);
        assert_eq!(sealed.stats.blocks_scanned, 4, "{:?}", sealed.stats);
        assert!(sealed.stats.bytes_scanned > 0, "{:?}", sealed.stats);

        let mut plain_db = db.clone();
        plain_db.unseal_tables();
        let plain = q.execute(&plain_db).unwrap();
        assert_eq!(
            grid_bits(&sealed),
            grid_bits(&plain),
            "encoded must be bit-identical"
        );
    }

    #[test]
    fn encoded_scan_falls_back_for_numeric_dimensions() {
        let db = clustered_db();
        let num = db.resolve("clustered", "num").unwrap();
        let q = CubeQuery {
            dims: vec![num],
            relevant: vec![vec![Value::Int(7)].into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        // Numeric dimensions probe per row — the plan must decline the
        // encoded path even though the table is sealed.
        let result = q.execute(&db).unwrap();
        assert_eq!(result.stats.blocks_scanned + result.stats.blocks_skipped, 0);
        let mut plain_db = db.clone();
        plain_db.unseal_tables();
        assert_eq!(
            grid_bits(&result),
            grid_bits(&q.execute(&plain_db).unwrap())
        );
    }

    #[test]
    fn fused_encoded_members_tally_like_solo() {
        let db = clustered_db();
        let cat = db.resolve("clustered", "cat").unwrap();
        let num = db.resolve("clustered", "num").unwrap();
        let count_cube = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["rare".into()].into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        let sum_cube = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["aaa".into(), "zzz".into()].into()],
            aggregates: vec![(AggFunction::Sum, AggColumn::Column(num))],
        };
        let options = CubeOptions::default();
        let fused = execute_fused_in(&db, &[&count_cube, &sum_cube], &options, None).unwrap();
        for (cube, fused_result) in [&count_cube, &sum_cube].iter().zip(&fused) {
            let solo = cube.execute_with(&db, &options).unwrap();
            assert_eq!(fused_result.stats, solo.stats);
            assert_eq!(grid_bits(fused_result), grid_bits(&solo));
        }
        assert!(fused[0].stats.blocks_skipped > 0, "{:?}", fused[0].stats);
    }

    // -----------------------------------------------------------------------
    // Watermark visibility and delta patching
    // -----------------------------------------------------------------------

    use crate::block::BLOCK_ROWS;
    use crate::schema::ForeignKey;
    use proptest::prelude::*;

    /// One row of the synthetic append corpus: a deterministic function of
    /// the row index, so appended batches continue the same distribution and
    /// a naive oracle can recompute any aggregate from first principles.
    fn wide_row(i: usize) -> Vec<Value> {
        let cat = match i % 5 {
            0 => Value::Null,
            k => Value::Str(format!("c{k}")),
        };
        let val = if i.is_multiple_of(7) {
            Value::Null
        } else {
            Value::Int((i % 101) as i64 - 13)
        };
        let score = if i.is_multiple_of(11) {
            Value::Null
        } else {
            Value::Float(i as f64 * 0.37 + 0.1)
        };
        vec![cat, val, score]
    }

    fn wide_db(rows: usize) -> Database {
        let mut cat = Vec::with_capacity(rows);
        let mut val = Vec::with_capacity(rows);
        let mut score = Vec::with_capacity(rows);
        for i in 0..rows {
            let mut r = wide_row(i);
            score.push(r.pop().unwrap());
            val.push(r.pop().unwrap());
            cat.push(r.pop().unwrap());
        }
        let t = Table::from_columns("events", vec![("cat", cat), ("val", val), ("score", score)])
            .unwrap();
        let mut db = Database::new("wide");
        db.add_table(t);
        db
    }

    /// A cube exercising every patch-class aggregate over the append corpus.
    fn wide_cube(db: &Database) -> CubeQuery {
        let cat = db.resolve("events", "cat").unwrap();
        let val = db.resolve("events", "val").unwrap();
        let score = db.resolve("events", "score").unwrap();
        CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["c1".into(), "c3".into()].into()],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Count, AggColumn::Column(val)),
                (AggFunction::Sum, AggColumn::Column(val)),
                (AggFunction::Avg, AggColumn::Column(score)),
                (AggFunction::Min, AggColumn::Column(val)),
                (AggFunction::Max, AggColumn::Column(score)),
            ],
        }
    }

    #[test]
    fn bulk_counts_clamp_to_a_partially_visible_tail_block() {
        // `cat` is constant within each storage block, so every block has a
        // provably-constant dimension cell and this count-only cube takes
        // the bulk (zone-map) path — including over the partial tail.
        let n = 2 * BLOCK_ROWS + 700;
        let cat: Vec<Value> = (0..n)
            .map(|i| Value::Str(format!("b{}", i / BLOCK_ROWS)))
            .collect();
        let val: Vec<Value> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                }
            })
            .collect();
        let tag: Vec<Value> = (0..n)
            .map(|i| match i % 3 {
                0 => Value::Null,
                k => Value::Str(format!("t{k}")),
            })
            .collect();
        let t =
            Table::from_columns("events", vec![("cat", cat), ("val", val), ("tag", tag)]).unwrap();
        let mut base_db = Database::new("banded");
        base_db.add_table(t);
        let cat = base_db.resolve("events", "cat").unwrap();
        let val = base_db.resolve("events", "val").unwrap();
        let tag = base_db.resolve("events", "tag").unwrap();
        let q = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["b0".into()].into()],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                // Numeric agg encoding: partial-block nulls from the plain column.
                (AggFunction::Count, AggColumn::Column(val)),
                // Codes agg encoding: partial-block nulls from the bitmap/runs.
                (AggFunction::Count, AggColumn::Column(tag)),
            ],
        };
        for wm in [
            1,
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            2 * BLOCK_ROWS - 1,
            2 * BLOCK_ROWS,
            2 * BLOCK_ROWS + 1,
            n,
        ] {
            let mut db = base_db.clone();
            db.table_mut(0).set_watermark(wm);
            let sealed = q.execute(&db).unwrap();
            // Every touched block is constant in `cat`, so the whole scan is
            // bulk-applied from zone metadata plus prefix null counts.
            let touched = wm.div_ceil(BLOCK_ROWS) as u64;
            assert_eq!(sealed.stats.blocks_skipped, touched, "wm={wm}");
            assert_eq!(sealed.stats.blocks_scanned, 0, "wm={wm}");
            let mut plain_db = db.clone();
            plain_db.unseal_tables();
            let plain = q.execute(&plain_db).unwrap();
            assert_eq!(grid_bits(&sealed), grid_bits(&plain), "wm={wm}");
            // Naive oracle from the generator formulas.
            let b0 = [DimSel::Literal(0)];
            assert_eq!(
                sealed.get_count(&b0, 0),
                wm.min(BLOCK_ROWS) as f64,
                "wm={wm}"
            );
            assert_eq!(
                sealed.get_count(&b0, 1),
                (0..wm.min(BLOCK_ROWS)).filter(|i| i % 7 != 0).count() as f64,
                "wm={wm}"
            );
            let every = [DimSel::Any];
            assert_eq!(
                sealed.get_count(&every, 2),
                (0..wm).filter(|i| i % 3 != 0).count() as f64,
                "wm={wm}"
            );
        }
    }

    #[test]
    fn partial_visibility_matches_a_truncated_rebuild() {
        let n = 2 * BLOCK_ROWS + 421;
        let full = wide_db(n);
        let q = wide_cube(&full);
        for wm in [
            3,
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            2 * BLOCK_ROWS + 1,
            n,
        ] {
            let mut db = full.clone();
            db.table_mut(0).set_watermark(wm);
            let visible = q.execute(&db).unwrap();
            assert_eq!(visible.visible_rows(), wm as u64);
            // Ground truth: a database physically truncated at the watermark.
            let expect = q.execute(&wide_db(wm)).unwrap();
            assert_eq!(grid_bits(&visible), grid_bits(&expect), "wm={wm}");
            // The plain (unencoded) path clamps identically.
            let mut plain_db = db.clone();
            plain_db.unseal_tables();
            let plain = q.execute(&plain_db).unwrap();
            assert_eq!(grid_bits(&plain), grid_bits(&expect), "wm={wm}");
        }
    }

    #[test]
    fn patched_grids_are_bit_identical_to_cold_rescans() {
        let n1 = 2 * BLOCK_ROWS + 300;
        let mut db = wide_db(n1);
        let q = wide_cube(&db);
        let options = CubeOptions {
            partition_blocks: 1,
            ..CubeOptions::default()
        };
        let r1 = q.execute_with(&db, &options).unwrap();
        let cp = r1
            .checkpoint()
            .expect("patch-class cube over an identity relation captures")
            .clone();
        assert_eq!(
            cp.rows(),
            2 * BLOCK_ROWS,
            "checkpoint at the last span boundary"
        );

        let batch: Vec<Vec<Value>> = (n1..n1 + 500).map(wide_row).collect();
        db.append_rows("events", &batch).unwrap();
        let n2 = n1 + 500;

        let cold = q.execute_with(&db, &options).unwrap();
        let patched = patch_one(&db, &cp, &options);
        assert_eq!(grid_bits(&patched), grid_bits(&cold));
        assert_eq!(patched.visible_rows(), n2 as u64);
        assert_eq!(patched.stats.grids_patched, 1);
        assert_eq!(cold.stats.grids_patched, 0);
        assert_eq!(
            patched.stats.delta_rows_scanned,
            (n2 - 2 * BLOCK_ROWS) as u64
        );
        assert!(patched.stats.rows_scanned < cold.stats.rows_scanned);

        // Avg merges via (sum, count) parts: the patched value is the mean
        // over ALL visible rows, not a mean of per-epoch means.
        let c1 = [DimSel::Literal(0)];
        let scores: Vec<f64> = (0..n2)
            .filter(|&i| i % 5 == 1 && i % 11 != 0)
            .map(|i| i as f64 * 0.37 + 0.1)
            .collect();
        let naive_avg = scores.iter().sum::<f64>() / scores.len() as f64;
        let got = patched.get(&c1, 3).unwrap();
        assert!((got - naive_avg).abs() <= 1e-9 * naive_avg.abs().max(1.0));

        // The patched result carries a refreshed checkpoint: patch again.
        let cp2 = patched
            .checkpoint()
            .expect("patched result re-checkpoints")
            .clone();
        assert_eq!(cp2.rows(), (n2 / BLOCK_ROWS) * BLOCK_ROWS);
        let batch2: Vec<Vec<Value>> = (n2..n2 + 77).map(wide_row).collect();
        db.append_rows("events", &batch2).unwrap();
        let cold2 = q.execute_with(&db, &options).unwrap();
        let patched2 = patch_one(&db, &cp2, &options);
        assert_eq!(grid_bits(&patched2), grid_bits(&cold2));
    }

    #[test]
    fn checkpoint_at_exact_span_boundary_scans_only_the_appended_rows() {
        let n = 2 * BLOCK_ROWS;
        let mut db = wide_db(n);
        let q = wide_cube(&db);
        let options = CubeOptions {
            partition_blocks: 1,
            ..CubeOptions::default()
        };
        let cp = q
            .execute_with(&db, &options)
            .unwrap()
            .checkpoint()
            .expect("exact-multiple relations checkpoint at n_rows")
            .clone();
        assert_eq!(cp.rows(), n);
        let batch: Vec<Vec<Value>> = (n..n + 10).map(wide_row).collect();
        db.append_rows("events", &batch).unwrap();
        let cold = q.execute_with(&db, &options).unwrap();
        let patched = patch_one(&db, &cp, &options);
        assert_eq!(patched.stats.delta_rows_scanned, 10);
        assert_eq!(grid_bits(&patched), grid_bits(&cold));
    }

    #[test]
    fn recompute_class_aggregates_capture_no_checkpoint() {
        let mut db = wide_db(2 * BLOCK_ROWS + 10);
        let cat = db.resolve("events", "cat").unwrap();
        let val = db.resolve("events", "val").unwrap();
        let options = CubeOptions {
            partition_blocks: 1,
            ..CubeOptions::default()
        };
        for f in [AggFunction::CountDistinct, AggFunction::Median] {
            let q = CubeQuery {
                dims: vec![cat],
                relevant: vec![vec!["c1".into()].into()],
                aggregates: vec![
                    (AggFunction::Count, AggColumn::Star),
                    (f, AggColumn::Column(val)),
                ],
            };
            let r = q.execute_with(&db, &options).unwrap();
            assert!(
                r.checkpoint().is_none(),
                "{f:?} must force a full recompute on append"
            );
            // Appends stay correct via recompute: the cold re-scan agrees
            // with a naive per-query execution at the new watermark.
            let batch: Vec<Vec<Value>> = (0..64).map(|i| wide_row(i + 13)).collect();
            db.append_rows("events", &batch).unwrap();
            let r2 = q.execute_with(&db, &options).unwrap();
            let naive = execute_query(
                &db,
                &SimpleAggregateQuery::new(
                    f,
                    AggColumn::Column(val),
                    vec![Predicate::new(cat, "c1")],
                ),
            )
            .unwrap();
            assert_eq!(r2.get(&[DimSel::Literal(0)], 1), naive);
        }
    }

    #[test]
    fn join_relations_capture_no_checkpoint() {
        // Join outputs are not prefix-stable under appends — a new row on
        // the probe side splices tuples anywhere in the output order — so
        // eligible-looking scans over joins must not checkpoint.
        let n = 2 * BLOCK_ROWS + 50;
        let players = Table::from_columns(
            "players",
            vec![
                ("player_id", vec![Value::Int(0), Value::Int(1)]),
                ("team", vec!["ravens".into(), "browns".into()]),
            ],
        )
        .unwrap();
        let susp = Table::from_columns(
            "suspensions",
            vec![
                (
                    "player_id",
                    (0..n).map(|i| Value::Int((i % 2) as i64)).collect(),
                ),
                (
                    "category",
                    (0..n).map(|i| Value::Str(format!("k{}", i % 3))).collect(),
                ),
            ],
        )
        .unwrap();
        let mut db = Database::new("nfl");
        let p = db.add_table(players);
        let s = db.add_table(susp);
        db.add_foreign_key(ForeignKey {
            from_table: s,
            from_column: 0,
            to_table: p,
            to_column: 0,
        })
        .unwrap();
        let team = db.resolve("players", "team").unwrap();
        let pid = db.resolve("suspensions", "player_id").unwrap();
        let q = CubeQuery {
            dims: vec![team],
            relevant: vec![vec!["ravens".into()].into()],
            // Aggregating a suspensions column forces the two-table join.
            aggregates: vec![(AggFunction::Count, AggColumn::Column(pid))],
        };
        let options = CubeOptions {
            partition_blocks: 1,
            ..CubeOptions::default()
        };
        let r = q.execute_with(&db, &options).unwrap();
        assert_eq!(r.visible_rows(), n as u64);
        assert!(r.checkpoint().is_none(), "join scans must not checkpoint");
    }

    #[test]
    fn checkpoint_eligibility_gates() {
        // Below one span there is no stable prefix to checkpoint.
        let small = wide_db(100);
        let q = wide_cube(&small);
        let opts1 = CubeOptions {
            partition_blocks: 1,
            ..CubeOptions::default()
        };
        assert!(q
            .execute_with(&small, &opts1)
            .unwrap()
            .checkpoint()
            .is_none());

        let db = wide_db(3 * BLOCK_ROWS);
        // Partitioning disabled: one monolithic range, no span boundary.
        let mono = CubeOptions {
            partition_blocks: 0,
            ..CubeOptions::default()
        };
        assert!(q.execute_with(&db, &mono).unwrap().checkpoint().is_none());
        // Compatibility is keyed on the scan shape.
        let r = q.execute_with(&db, &opts1).unwrap();
        let cp = r.checkpoint().unwrap();
        assert_eq!(cp.rows(), 3 * BLOCK_ROWS);
        assert!(cp.compatible(&opts1));
        assert!(!cp.compatible(&CubeOptions {
            dense_cell_cap: 0,
            ..opts1
        }));
        assert!(!cp.compatible(&CubeOptions {
            partition_blocks: 2,
            ..opts1
        }));
    }

    /// One engine, every driver: the same fused member set — a dense and a
    /// hashed patch-class member plus a dense `CountDistinct` + `Median`
    /// member — over
    /// a 3-span relation must come out of the in-process driver, the
    /// scheduler fan-out at 1/2/4 workers, and (for the patch-class
    /// members) the patch driver with bit-equal grids and equal checkpoint
    /// boundaries; cold drivers also agree on every [`CubeStats`] field
    /// but the `partition_parallelism` gauge.
    #[test]
    fn every_driver_folds_the_same_pass() {
        let n0 = 2 * BLOCK_ROWS + 300;
        let mut db = wide_db(n0);
        let cat = db.resolve("events", "cat").unwrap();
        let val = db.resolve("events", "val").unwrap();
        let dense = wide_cube(&db);
        // 41³ cells exceed the default dense cap: structurally hashed.
        let many: Literals = (0..40).map(|i| Value::Str(format!("c{i}"))).collect();
        let hashed = CubeQuery {
            dims: vec![cat; 3],
            relevant: vec![many; 3],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Sum, AggColumn::Column(val)),
            ],
        };
        let score = db.resolve("events", "score").unwrap();
        let recompute = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["c1".into()].into()],
            aggregates: vec![
                (AggFunction::CountDistinct, AggColumn::Column(val)),
                (AggFunction::Median, AggColumn::Column(score)),
            ],
        };
        let members = [&dense, &hashed, &recompute];
        let options = CubeOptions {
            partition_blocks: 1,
            ..CubeOptions::default()
        };
        let ungauged = |r: &CubeResult| CubeStats {
            partition_parallelism: 0,
            ..r.stats
        };
        let boundary = |r: &CubeResult| r.checkpoint().map(|cp| cp.rows());

        // (rows appended before the step, expected checkpoint boundary):
        // the cold start, an append inside the tail span, one crossing spans.
        let steps = [
            (0, 2 * BLOCK_ROWS),
            (200, 2 * BLOCK_ROWS),
            (2 * BLOCK_ROWS, 4 * BLOCK_ROWS),
        ];
        let mut rows_total = n0;
        let mut prefix: Vec<Arc<ScanCheckpoint>> = Vec::new();
        for (appended, expect_boundary) in steps {
            let batch: Vec<Vec<Value>> =
                (rows_total..rows_total + appended).map(wide_row).collect();
            db.append_rows("events", &batch).unwrap();
            rows_total += appended;

            let reference = execute_fused_in(&db, &members, &options, None).unwrap();
            assert_eq!(reference[0].stats.grid_mode, GridMode::Dense);
            assert_eq!(reference[1].stats.grid_mode, GridMode::Hashed);
            assert_eq!(boundary(&reference[0]), Some(expect_boundary));
            assert_eq!(boundary(&reference[1]), Some(expect_boundary));
            assert_eq!(boundary(&reference[2]), None, "set/list members recompute");

            let snapshot = Arc::new(db.clone());
            for threads in [1usize, 2, 4] {
                let fanned = wave_pass(&snapshot, &members, 1, threads, None);
                for (got, want) in fanned.iter().zip(&reference) {
                    assert_eq!(grid_bits(got), grid_bits(want), "run_wave {threads}t");
                    assert_eq!(boundary(got), boundary(want), "run_wave {threads}t");
                    assert_eq!(ungauged(got), ungauged(want), "run_wave {threads}t");
                }
            }

            if !prefix.is_empty() {
                let resume = prefix[0].rows();
                let refs: Vec<&ScanCheckpoint> = prefix.iter().map(Arc::as_ref).collect();
                let patched = execute_patches_in(&db, &refs, &options, None).unwrap();
                for (got, want) in patched.iter().zip(&reference) {
                    assert_eq!(grid_bits(got), grid_bits(want), "patch from {resume}");
                    assert_eq!(boundary(got), boundary(want), "patch from {resume}");
                    assert_eq!(got.visible_rows(), want.visible_rows());
                    let tail = (rows_total - resume) as u64;
                    // A one-partition tail is the degenerate monolithic
                    // scan: it reports no partition activity.
                    let parts = tail.div_ceil(BLOCK_ROWS as u64);
                    assert_eq!(
                        ungauged(got),
                        CubeStats {
                            rows_scanned: tail,
                            delta_rows_scanned: tail,
                            grids_patched: 1,
                            partitions_scanned: if parts > 1 { parts } else { 0 },
                            partition_merges: parts - 1,
                            blocks_scanned: got.stats.blocks_scanned,
                            blocks_skipped: got.stats.blocks_skipped,
                            bytes_scanned: got.stats.bytes_scanned,
                            ..ungauged(want)
                        },
                        "patch from {resume}"
                    );
                }
                // Patched results re-checkpoint: the next step resumes from
                // what this one captured.
                prefix = patched
                    .iter()
                    .map(|r| r.checkpoint().expect("patch re-captures").clone())
                    .collect();
            } else {
                prefix = reference[..2]
                    .iter()
                    .map(|r| r.checkpoint().expect("patch-class member").clone())
                    .collect();
            }
        }
    }

    // -----------------------------------------------------------------------
    // The column-wise finish against the per-group oracle
    // -----------------------------------------------------------------------

    /// The finish the column-wise one replaced, kept as its oracle: every
    /// finest group extracted as a `Vec<Accumulator>` (ascending cell, or
    /// ascending key for a hashed grid), rolled up by cloning and merging
    /// whole accumulator vectors, and finished by [`Accumulator::finish`] —
    /// in the canonical view of [`grid_bits`].
    fn oracle_finish(grid: MemberGrid, plan: &ScanPlan<'_>, cube: &CubeQuery) -> GroupBits {
        let d = cube.dims.len();
        let key_of = |dense_codes: &dyn Fn(usize) -> usize| {
            let codes: Vec<u8> = (0..d)
                .map(|i| match dense_codes(i) {
                    dc if dc == plan.radices[i] - 1 => OTHER,
                    dc => dc as u8,
                })
                .collect();
            GroupKey::from_codes(&codes)
        };
        let finest: Vec<(GroupKey, Vec<Accumulator>)> = match grid {
            MemberGrid::Dense(mut grid) => {
                let touched = std::mem::take(&mut grid.touched);
                (0..touched.len())
                    .filter(|&cell| touched[cell])
                    .map(|cell| {
                        let accs = (grid.aggs.iter_mut().zip(&cube.aggregates))
                            .map(|(state, (f, _))| cell_accumulator(state, cell, *f))
                            .collect();
                        let key = key_of(&|i| (cell / plan.strides[i]) % plan.radices[i]);
                        (key, accs)
                    })
                    .collect()
            }
            MemberGrid::Hashed(grid) => {
                let mut finest: Vec<_> = grid
                    .groups
                    .into_iter()
                    .map(|(key, accs)| (key_of(&|i| ((key >> (8 * i)) & 0xff) as usize), accs))
                    .collect();
                finest.sort_unstable_by_key(|(key, _)| *key);
                finest
            }
        };
        let (keys, arena) = rollup(finest, d);
        let mut bits: GroupBits = keys
            .iter()
            .zip(&arena)
            .map(|(key, accs)| {
                let values = accs.iter().map(|a| a.finish().map(f64::to_bits));
                (key.0, values.collect())
            })
            .collect();
        bits.sort();
        bits
    }

    /// One dense cell as the accumulator of aggregate `f`, its set or
    /// buffer drained rather than cloned.
    fn cell_accumulator(state: &mut DenseAggState, cell: usize, f: AggFunction) -> Accumulator {
        match state {
            DenseAggState::Count(counts) => Accumulator::Count(counts[cell]),
            DenseAggState::CountDistinct(sets) => {
                Accumulator::CountDistinct(std::mem::take(&mut sets[cell]))
            }
            DenseAggState::SumAvg { sums, counts } => {
                let (sum, n) = (sums[cell], counts[cell]);
                match f {
                    AggFunction::Avg => Accumulator::Avg { sum, n },
                    _ => Accumulator::Sum { sum, n },
                }
            }
            DenseAggState::MinMax { extremes, is_max } => match is_max {
                false => Accumulator::Min(extremes[cell]),
                true => Accumulator::Max(extremes[cell]),
            },
            DenseAggState::Median(values) => Accumulator::Median(std::mem::take(&mut values[cell])),
        }
    }

    /// The oracle's rollup: dimension-at-a-time, one `Vec<Accumulator>`
    /// per group, a coarser group cloned from the first finer group that
    /// reaches it and merged with the rest.
    fn rollup(
        finest: Vec<(GroupKey, Vec<Accumulator>)>,
        d: usize,
    ) -> (Vec<GroupKey>, Vec<Vec<Accumulator>>) {
        let mut keys: Vec<GroupKey> = Vec::with_capacity(finest.len());
        let mut arena: Vec<Vec<Accumulator>> = Vec::with_capacity(finest.len());
        let mut index: FxHashMap<GroupKey, u32> = FxHashMap::default();
        for (key, accs) in finest {
            index.insert(key, arena.len() as u32);
            keys.push(key);
            arena.push(accs);
        }
        for dim in 0..d {
            for idx in 0..arena.len() {
                let key = keys[idx];
                if key.code(dim) == ALL {
                    continue;
                }
                let target = key.rolled_up(dim);
                match index.entry(target) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let tgt = *e.get() as usize;
                        let src = std::mem::take(&mut arena[idx]);
                        for (a, b) in arena[tgt].iter_mut().zip(&src) {
                            a.merge(b);
                        }
                        arena[idx] = src;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(arena.len() as u32);
                        keys.push(target);
                        let clone = arena[idx].clone();
                        arena.push(clone);
                    }
                }
            }
        }
        (keys, arena)
    }

    /// Fold one pass in-process — cold, or resuming from `prefix` — and
    /// finish it both ways: each member's result beside the oracle's view
    /// of the same folded grid.
    fn finish_with_oracle(
        db: &Database,
        cubes: &[&CubeQuery],
        options: &CubeOptions,
        prefix: &[&ScanCheckpoint],
    ) -> Vec<(CubeResult, GroupBits)> {
        let relation = JoinedRelation::for_tables(db, &cubes[0].tables_referenced()).unwrap();
        let pass = CubePass::new(db, &relation, cubes, options, None);
        let folded = pass.fold_grids(prefix, 1, |_, range| pass.scan(range));
        let oracles: Vec<_> = (folded.base.grids.iter().zip(&pass.plans))
            .zip(cubes)
            .map(|((grid, plan), cube)| oracle_finish(grid.clone(), plan, cube))
            .collect();
        pass.finish(folded).into_iter().zip(oracles).collect()
    }

    /// Row `i` of the oracle corpus drawn from `seed`: four low-cardinality
    /// categorical columns with NULLs, an integer column and a float
    /// column whose values repeat, include both zeros, and make f64 sums
    /// depend on their association.
    fn oracle_row(seed: u64, i: usize) -> Vec<Value> {
        const SCORES: [f64; 7] = [0.0, -0.0, 0.1, 0.1, 2.5, -7.25, 333_333.3];
        let mut h = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut draw = |n: u64| {
            h = h
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (h >> 33) % n
        };
        let mut row: Vec<Value> = (0..4)
            .map(|dim| match draw(5) {
                0 => Value::Null,
                k => Value::Str(format!("d{dim}v{k}")),
            })
            .collect();
        row.push(match draw(6) {
            0 => Value::Null,
            k => Value::Int(k as i64 - 3),
        });
        row.push(match draw(8) {
            7 => Value::Null,
            k => Value::Float(SCORES[k as usize]),
        });
        row
    }

    fn oracle_db(seed: u64, rows: usize) -> Database {
        let names = ["c0", "c1", "c2", "c3", "val", "score"];
        let mut columns: Vec<(&str, Vec<Value>)> = names.iter().map(|n| (*n, Vec::new())).collect();
        for i in 0..rows {
            for (column, value) in columns.iter_mut().zip(oracle_row(seed, i)) {
                column.1.push(value);
            }
        }
        let mut db = Database::new("oracle");
        db.add_table(Table::from_columns("t", columns).unwrap());
        db
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The column-wise finish is the per-group finish it replaced, bit
        /// for bit (`Sum`/`Avg` by `to_bits`), for 1–4 dimensions, dense
        /// and hashed grids, one partition or several, and for a patched
        /// pass resuming from a checkpoint.
        #[test]
        fn column_finish_matches_the_accumulator_oracle(
            seed in any::<u64>(),
            rows in 100usize..5000,
            appended in 1usize..1500,
            d in 1usize..5,
            hashed in any::<bool>(),
            span_sel in 0usize..2,
        ) {
            let mut db = oracle_db(seed, rows);
            let col = |name: &str| db.resolve("t", name).unwrap();
            let (val, score) = (col("val"), col("score"));
            let dims: Vec<ColumnRef> = (0..d).map(|i| col(&format!("c{i}"))).collect();
            // One to three literals per dimension, one of them sometimes
            // absent from the data.
            let relevant: Vec<Literals> = (0..d)
                .map(|i| {
                    let k = 1 + (seed >> (4 * i)) as usize % 3;
                    (0..k)
                        .map(|j| Value::Str(format!("d{i}v{}", 1 + (j + i) % 5)))
                        .collect()
                })
                .collect();
            let every_kind = CubeQuery {
                dims: dims.clone(),
                relevant: relevant.clone(),
                aggregates: vec![
                    (AggFunction::Count, AggColumn::Star),
                    (AggFunction::Count, AggColumn::Column(score)),
                    (AggFunction::CountDistinct, AggColumn::Column(val)),
                    (AggFunction::CountDistinct, AggColumn::Column(score)),
                    (AggFunction::Sum, AggColumn::Column(score)),
                    (AggFunction::Avg, AggColumn::Column(score)),
                    (AggFunction::Min, AggColumn::Column(score)),
                    (AggFunction::Max, AggColumn::Column(val)),
                    (AggFunction::Median, AggColumn::Column(score)),
                    (AggFunction::Median, AggColumn::Column(val)),
                ],
            };
            let patchable = CubeQuery {
                dims,
                relevant,
                aggregates: vec![
                    (AggFunction::Count, AggColumn::Star),
                    (AggFunction::Sum, AggColumn::Column(score)),
                    (AggFunction::Avg, AggColumn::Column(score)),
                    (AggFunction::Min, AggColumn::Column(val)),
                    (AggFunction::Max, AggColumn::Column(score)),
                ],
            };
            let options = CubeOptions {
                dense_cell_cap: if hashed { 0 } else { CubeOptions::default().dense_cell_cap },
                partition_blocks: [1, 64][span_sel],
            };
            let cold = finish_with_oracle(&db, &[&every_kind, &patchable], &options, &[]);
            for (result, oracle) in &cold {
                prop_assert_eq!(grid_bits(result), oracle.clone());
            }
            let Some(cp) = cold[1].0.checkpoint().cloned() else {
                return Ok(());
            };
            let batch: Vec<Vec<Value>> =
                (rows..rows + appended).map(|i| oracle_row(seed, i)).collect();
            db.append_rows("t", &batch).unwrap();
            let patched = finish_with_oracle(&db, &[&patchable], &options, &[&cp]);
            prop_assert_eq!(patched[0].0.stats.grids_patched, 1);
            prop_assert_eq!(grid_bits(&patched[0].0), patched[0].1.clone());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tentpole invariant: after any sequence of appends, patching a
        /// checkpointed grid forward is bit-identical to a cold full rescan
        /// at the same watermark — at every worker count and span — and both
        /// agree with a naive oracle recomputed from the row generator.
        #[test]
        fn incremental_matches_full_rescan(
            base in 64usize..5000,
            batches in prop::collection::vec(1usize..1200, 1..4),
            span_sel in 0usize..2,
            worker_sel in 0usize..4,
        ) {
            let span_blocks = [1usize, 64][span_sel];
            let threads = [1usize, 2, 4, 8][worker_sel];
            let options = CubeOptions {
                partition_blocks: span_blocks,
                ..CubeOptions::default()
            };
            // Cold rescans go through the production fan-out at `threads`
            // workers; patches resume in-process, as the scheduler runs them.
            let cold_scan = |db: &Database| {
                let snapshot = Arc::new(db.clone());
                wave_pass(&snapshot, &[&wide_cube(db)], span_blocks, threads, None)
                    .pop()
                    .unwrap()
            };
            let mut db = wide_db(base);
            let mut current = cold_scan(&db);
            let mut rows_total = base;
            for batch in batches {
                let rows: Vec<Vec<Value>> =
                    (rows_total..rows_total + batch).map(wide_row).collect();
                rows_total += batch;
                db.append_rows("events", &rows).unwrap();
                let cold = cold_scan(&db);
                let patched = match current.checkpoint() {
                    Some(cp) => {
                        let p = patch_one(&db, cp, &options);
                        prop_assert_eq!(p.stats.grids_patched, 1);
                        // The delta never exceeds the appended rows plus one
                        // (partially re-scanned) span.
                        prop_assert!(
                            (p.stats.delta_rows_scanned as usize)
                                <= batch + span_blocks * BLOCK_ROWS,
                            "delta {} for batch {} at span {}",
                            p.stats.delta_rows_scanned, batch, span_blocks
                        );
                        Arc::new(p)
                    }
                    // Below one span no checkpoint exists; re-verify cold.
                    None => cold_scan(&db),
                };
                prop_assert_eq!(grid_bits(&patched), grid_bits(&cold));
                // Naive oracle on the exact-integer aggregates of group c1.
                let c1 = [DimSel::Literal(0)];
                let count = (0..rows_total).filter(|i| i % 5 == 1).count();
                prop_assert_eq!(patched.get_count(&c1, 0), count as f64);
                let sum: i64 = (0..rows_total)
                    .filter(|&i| i % 5 == 1 && i % 7 != 0)
                    .map(|i| (i % 101) as i64 - 13)
                    .sum();
                prop_assert_eq!(patched.get(&c1, 2), Some(sum as f64));
                current = patched;
            }
        }
    }
}
