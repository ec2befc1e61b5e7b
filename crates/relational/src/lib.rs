//! # agg-relational
//!
//! An in-memory columnar relational engine purpose-built for the AggChecker
//! reproduction. It stands in for PostgreSQL in the original system and
//! provides exactly the capabilities the paper's evaluation layer needs:
//!
//! * typed columnar tables with dictionary-encoded strings ([`Table`]),
//! * schemas with primary-key / foreign-key constraints and acyclic join
//!   graphs ([`Database`], [`schema`]),
//! * a CSV loader with type inference ([`csv`]) and a data-dictionary
//!   parser ([`datadict`]),
//! * the paper's eight aggregation functions ([`AggFunction`]),
//! * a naive per-query executor ([`exec`]),
//! * the `GROUP BY CUBE` operator with `InOrDefault` literal remapping
//!   (§6.2 of the paper, [`cube`]),
//! * a result cache shared across claims and EM iterations (§6.3,
//!   [`cache`]), with per-key single-flight so concurrent workers compute
//!   each cube exactly once,
//! * a cube-task scheduler and wave-orchestration layer that turns the
//!   merged cube requests of §6.2 (planned by `agg-core`'s evaluator) into
//!   fused, parallel scan passes, and declares the scan counters every
//!   layer above reports ([`schedule`]), and
//! * a simple evaluation cost model (§6.1, [`cost`]).
//!
//! The engine deliberately supports only the query class from Definition 2 of
//! the paper — *simple aggregate queries*: a single aggregate over an
//! equi-join along PK-FK paths, filtered by a conjunction of unary equality
//! predicates.

pub mod aggregate;
pub mod block;
pub mod cache;
#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod column;
pub mod cost;
pub mod csv;
pub mod cube;
pub mod database;
pub mod datadict;
pub mod error;
pub mod exec;
pub mod fxhash;
pub mod join;
pub mod query;
pub mod schedule;
pub mod schema;
pub mod table;
pub mod value;

pub use aggregate::{ratio_from_counts, Accumulator};
pub use block::{
    code_width, partition_ranges, CodeBlock, ColumnEncoding, NumZone, ZoneMap, BLOCK_ROWS,
    DEFAULT_PARTITION_BLOCKS,
};
pub use cache::{
    CacheKey, CacheStats, CachedSlice, EvalCache, Flight, FlightGuard, FlightRequest, FlightWaiter,
    ShardStats, DEFAULT_CACHE_SHARDS,
};
pub use column::{ColumnData, StringDictionary, NULL_CODE};
pub use cost::CostModel;
pub use cube::{
    execute_fused_in, same_literals, ArenaStats, CubeOptions, CubeQuery, CubeResult, CubeStats,
    DimSel, GridArena, GridMode, GroupKey, ListPairMemo, Literals, ScanCheckpoint,
};
pub use database::{ColumnRef, Database};
pub use error::{RelationalError, Result};
pub use exec::{execute_all_naive, execute_query};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use join::{JoinPath, JoinedRelation};
pub use query::{AggColumn, AggFunction, Predicate, SimpleAggregateQuery};
pub use schedule::{
    run_requests, run_wave, CubeScheduler, CubeTask, ScanCounters, ScanGroup, TaskBundling,
    TaskHandle, WaveExec, WaveOutcome, WaveRequest, WaveStats, MAX_POISON_RETRIES,
};
pub use schema::{ColumnMeta, ForeignKey, TableSchema};
pub use table::Table;
pub use value::{DataType, Value};
