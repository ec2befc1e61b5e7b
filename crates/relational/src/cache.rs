//! Result caching across claims, EM iterations, and documents (§6.3).
//!
//! The paper indexes *(partial) cube query results by a combination of one
//! aggregation column, one aggregation function, and a set of cube
//! dimensions*. The cached value holds results for **all** literals with
//! non-zero marginal probability anywhere in the document, so different
//! claims (whose relevant-literal subsets overlap heavily), later EM
//! iterations, and other documents of the same batch hit the same entries.
//!
//! # Sharding
//!
//! The cache is **lock-striped**: entries are spread over a power-of-two
//! number of shards by key hash, each shard guarded by its own `RwLock`.
//! Concurrent claim scoring across documents (see
//! `agg_core::pipeline::BatchVerifier`) therefore contends only when two
//! workers touch the *same* shard, instead of serializing on one global
//! lock. Every shard keeps its own lock-free hit/miss/eviction counters;
//! [`EvalCache::stats`] assembles a consistent-enough snapshot without
//! stopping writers.
//!
//! # Coverage
//!
//! A resident slice (or an in-flight computation) serves a probe only if
//! its cube's literal lists hold every literal the probe needs. Lists are
//! shared allocations ([`Literals`]): the planner requests the catalog's
//! own list, the cube built for the miss keeps it, so the usual answer is
//! pointer identity per dimension. A wave probe
//! ([`EvalCache::flight_batch_many`]) compares lists that are merely
//! *equal* (or nested) once per pair for the whole wave, not once per key,
//! which keeps the cache-wide planning lock short.
//!
//! # Single-flight
//!
//! A cache miss is not just a miss: with many workers evaluating claims
//! concurrently, N workers can miss the *same* key at the same time and
//! each execute the same merged cube — the duplicate `rows_scanned` the
//! batched pipeline used to show at 4 workers. [`EvalCache::flight`] closes
//! that hole with a per-key **in-flight table**: the first requester
//! receives a [`FlightGuard`] (the right *and duty* to compute), later
//! requesters whose literal needs are covered by the in-flight computation
//! receive a [`FlightWaiter`] and block on its condition variable until the
//! guard publishes the finished [`CachedSlice`]. A guard dropped without
//! publishing (execution error, panic during unwinding) *poisons* the
//! flight: waiters wake with `None` and retry the probe, so one failed
//! computation never wedges the batch. Requests whose literal sets are not
//! covered by the in-flight computation bypass the latch and compute their
//! own slice — exactly what a warm sequential run would have done.
//!
//! # Versioning & watermarks
//!
//! A cached grid is only as fresh as the data it scanned. Two stamps keep
//! stale grids from ever answering a claim:
//!
//! * **Structural version** — [`CacheKey`] embeds
//!   [`Database::version`](crate::database::Database::version). Structural
//!   mutations (adding tables, `unseal_tables`, new foreign keys) bump it,
//!   so every pre-mutation entry becomes unreachable: a hard invalidation
//!   with no sweep.
//! * **Row watermark** — every [`CachedSlice`] carries the `rows` stamp it
//!   was computed at (the probe-side convention is the database-wide
//!   [`Database::watermark`](crate::database::Database::watermark)). A hit
//!   requires stamp equality; appends move the watermark and silently
//!   retire every older slice.
//!
//! A stale slice is not worthless, though: if its cube captured a
//! [`ScanCheckpoint`], the winning [`FlightGuard`] carries it as a **patch
//! base** ([`FlightGuard::patch_base`]) and the computer patches the grid
//! forward over just the appended rows instead of rescanning the corpus.
//! Patch flights dedup through the same in-flight table as full scans —
//! waiters only join flights targeting *their* watermark.

use crate::cube::{literals_cover, CubeResult, GroupKey, ListPairMemo, Literals, ScanCheckpoint};
use crate::database::ColumnRef;
use crate::fxhash::FxHasher;
use crate::query::{AggColumn, AggFunction};
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Cache key: the paper's chosen indexing granularity, plus the database's
/// structural version so mutations hard-invalidate by unreachability.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub function: AggFunction,
    pub column: AggColumn,
    /// Cube dimensions, sorted for canonical form; one allocation shared
    /// by every key of a cube ([`CacheKey::for_cube`]) and by their clones
    /// in the flight table.
    pub dims: Arc<[ColumnRef]>,
    /// [`Database::version`](crate::database::Database::version) the entry
    /// was (or will be) computed against. A structural mutation bumps the
    /// version, so probes simply stop finding pre-mutation entries.
    pub version: u64,
}

impl CacheKey {
    pub fn new(
        function: AggFunction,
        column: AggColumn,
        dims: Vec<ColumnRef>,
        version: u64,
    ) -> Self {
        Self::for_cube(&[(function, column)], &dims, version)
            .pop()
            .expect("one key per aggregate")
    }

    /// The keys of one cube, one per aggregate in `aggs` order, sharing a
    /// single sorted dimension list.
    pub fn for_cube(
        aggs: &[(AggFunction, AggColumn)],
        dims: &[ColumnRef],
        version: u64,
    ) -> Vec<CacheKey> {
        let mut sorted = dims.to_vec();
        sorted.sort_unstable();
        let dims: Arc<[ColumnRef]> = sorted.into();
        aggs.iter()
            .map(|&(function, column)| CacheKey {
                function,
                column,
                dims: dims.clone(),
                version,
            })
            .collect()
    }
}

/// One aggregate's view of a cube result.
#[derive(Debug, Clone)]
pub struct CachedSlice {
    cube: Arc<CubeResult>,
    agg_idx: usize,
    /// Whether absent groups should read as 0 (count-like aggregates).
    count_like: bool,
    /// Watermark stamp: the caller-defined row count this grid is current
    /// at (by convention the database-wide watermark). Probes hit only on
    /// stamp equality; see the module docs.
    rows: u64,
}

impl CachedSlice {
    pub fn new(cube: Arc<CubeResult>, agg_idx: usize, function: AggFunction, rows: u64) -> Self {
        Self {
            cube,
            agg_idx,
            count_like: matches!(function, AggFunction::Count | AggFunction::CountDistinct),
            rows,
        }
    }

    /// The watermark stamp this slice is current at.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The resumable scan prefix of the underlying cube, if it captured one
    /// — what lets a stale slice seed an incremental re-verify.
    pub fn checkpoint(&self) -> Option<&Arc<ScanCheckpoint>> {
        self.cube.checkpoint()
    }

    /// Dimensions of the underlying cube (in cube order).
    pub fn dims(&self) -> &[ColumnRef] {
        self.cube.dims()
    }

    /// The relevant literals this slice was built over, per dimension.
    pub fn relevant(&self) -> &[Literals] {
        self.cube.relevant()
    }

    /// The cube this slice is cut from. Slices of one wave usually share a
    /// handful of cubes; readers resolve literal codes and group rows once
    /// per distinct cube ([`Arc::ptr_eq`]) and read every slice from them.
    pub fn cube(&self) -> &Arc<CubeResult> {
        &self.cube
    }

    /// Does this slice contain every literal in `needed` (per dimension,
    /// aligned with the cube's dimension order)?
    pub fn covers(&self, needed: &[Literals]) -> bool {
        literals_cover(self.cube.relevant(), needed)
    }

    /// This slice's aggregate out of one group of its cube
    /// ([`CubeResult::group`]); the inner `None` is SQL NULL. An absent
    /// group reads as 0 for count-like aggregates, NULL otherwise.
    #[inline]
    pub fn read(&self, group: Option<&[Option<f64>]>) -> Option<f64> {
        if self.count_like {
            Some(self.read_count(group))
        } else {
            group.and_then(|vals| vals[self.agg_idx])
        }
    }

    /// [`CachedSlice::read`] with count semantics (absent group = 0)
    /// regardless of the slice's aggregate kind — how ratio aggregates read
    /// their `Count` numerators and denominators.
    #[inline]
    pub fn read_count(&self, group: Option<&[Option<f64>]>) -> f64 {
        group.and_then(|vals| vals[self.agg_idx]).unwrap_or(0.0)
    }

    /// Look up the aggregate for an assignment expressed as *values*
    /// (`None` = dimension unrestricted), aligned with [`Self::dims`] — a
    /// by-value wrapper over the coded read, kept as the oracle the tests
    /// compare against.
    ///
    /// Returns `Ok(aggregate)` where the inner `Option` is SQL NULL, or
    /// `Err(())` when some literal is unknown to this slice (a cache-coverage
    /// violation — the caller should treat it as a miss).
    // The unit error deliberately carries no payload: callers translate it
    // straight into a cache miss.
    #[allow(clippy::result_unit_err)]
    pub fn lookup(&self, assignment: &[Option<Value>]) -> Result<Option<f64>, ()> {
        if assignment.len() != self.cube.dims().len() {
            return Err(());
        }
        let mut key = GroupKey::UNRESTRICTED;
        for (dim, value) in assignment.iter().enumerate() {
            if let Some(value) = value {
                let code = self.cube.literal_index(dim, value).ok_or(())?;
                key = key.with_literal(dim, code as u8);
            }
        }
        Ok(self.read(self.cube.group(key)))
    }
}

/// One shard's counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries displaced: replaced by a `put` for an existing key, or
    /// dropped by [`EvalCache::clear`].
    pub evictions: u64,
    /// Entries currently resident in the shard.
    pub entries: u64,
    /// Misses that joined another requester's in-flight computation via
    /// [`EvalCache::flight`] instead of executing their own cube.
    pub singleflight_waits: u64,
    /// Waiters woken by a poisoned flight who re-probed this shard's keys
    /// (each retry is bounded by the wave layer's retry budget).
    pub poison_retries: u64,
}

/// A point-in-time snapshot of the whole cache's counters, per shard.
/// Counters are read with relaxed atomics while writers keep going, so
/// totals are exact only in quiescence — good enough for the experiment
/// harness and the CI bench instrumentation.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    pub shards: Vec<ShardStats>,
}

impl CacheStats {
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits).sum()
    }

    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses).sum()
    }

    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions).sum()
    }

    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.entries).sum()
    }

    pub fn singleflight_waits(&self) -> u64 {
        self.shards.iter().map(|s| s.singleflight_waits).sum()
    }

    pub fn poison_retries(&self) -> u64 {
        self.shards.iter().map(|s| s.poison_retries).sum()
    }

    /// Fraction of lookups served from resident slices. 0.0 (not NaN) when
    /// there have been no lookups at all.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Fraction of misses that were absorbed by single-flight instead of
    /// executing a duplicate cube. 0.0 (not NaN) when there were no misses.
    pub fn dedup_rate(&self) -> f64 {
        let m = self.misses() as f64;
        if m == 0.0 {
            0.0
        } else {
            self.singleflight_waits() as f64 / m
        }
    }
}

/// Slices retained per key: enough that a batch of documents with
/// different (overlapping, non-nested) literal sets can coexist without
/// evicting each other, small enough to bound memory per key.
pub const SLICES_PER_KEY: usize = 4;

/// One lock stripe: its own map plus lock-free counters. Each key holds up
/// to [`SLICES_PER_KEY`] slices with distinct literal coverage.
#[derive(Debug, Default)]
struct Shard {
    entries: RwLock<HashMap<CacheKey, Vec<CachedSlice>>>,
    /// In-flight computations for keys of this shard (single-flight). A key
    /// may carry several flights with non-nested literal coverage, exactly
    /// like resident slices.
    inflight: StdMutex<HashMap<CacheKey, Vec<Arc<InFlight>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    singleflight_waits: AtomicU64,
    poison_retries: AtomicU64,
}

impl Shard {
    fn snapshot(&self) -> ShardStats {
        ShardStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.read().values().map(|v| v.len() as u64).sum(),
            singleflight_waits: self.singleflight_waits.load(Ordering::Relaxed),
            poison_retries: self.poison_retries.load(Ordering::Relaxed),
        }
    }

    /// Find a resident slice covering `needed` at exactly watermark `rows`,
    /// without touching counters.
    fn lookup(
        &self,
        key: &CacheKey,
        needed: &[Literals],
        rows: u64,
        memo: &mut ListPairMemo,
    ) -> Option<CachedSlice> {
        self.entries
            .read()
            .get(key)
            .and_then(|slices| {
                slices
                    .iter()
                    .find(|s| s.rows == rows && memo.cover(s.relevant(), needed))
            })
            .cloned()
    }

    /// The best patch base for a probe at watermark `rows`: the checkpoint
    /// with the longest stable prefix among stale covering slices. `None`
    /// means the computer must cold-scan.
    fn patch_base(
        &self,
        key: &CacheKey,
        needed: &[Literals],
        rows: u64,
    ) -> Option<Arc<ScanCheckpoint>> {
        self.entries
            .read()
            .get(key)?
            .iter()
            .filter(|s| s.rows < rows && s.covers(needed))
            .filter_map(|s| s.cube.checkpoint())
            .max_by_key(|cp| cp.rows())
            .cloned()
    }
}

// ---------------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum FlightState {
    /// The owning [`FlightGuard`] is still computing.
    Pending,
    /// The computation finished; waiters take the slice.
    Done(CachedSlice),
    /// The guard was dropped without publishing — waiters must retry.
    Poisoned,
}

/// One in-flight computation: the literal coverage it will publish, plus a
/// latch waiters block on. Uses `std::sync` directly because the offline
/// `parking_lot` shim has no condition variable.
#[derive(Debug)]
struct InFlight {
    relevant: Vec<Literals>,
    /// Watermark the computation targets: probes at a different watermark
    /// must not join (they would read a grid for the wrong snapshot).
    rows: u64,
    state: StdMutex<FlightState>,
    cv: Condvar,
}

impl InFlight {
    fn settle(&self, state: FlightState) {
        *self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = state;
        self.cv.notify_all();
    }
}

/// One cube's keys plus the literal coverage they need, for the atomic
/// multi-cube probe [`EvalCache::flight_batch_many`].
#[derive(Debug)]
pub struct FlightRequest<'a> {
    /// The cube's cache keys (one per aggregate).
    pub keys: &'a [CacheKey],
    /// Relevant literals per dimension — one coverage for the whole cube.
    pub needed: &'a [Literals],
    /// Watermark the requester's snapshot is pinned at; hits, joins, and
    /// published slices all match on it exactly.
    pub rows: u64,
}

/// The outcome of a single-flight probe ([`EvalCache::flight`]).
#[derive(Debug)]
pub enum Flight {
    /// A resident slice already covers the request.
    Hit(CachedSlice),
    /// The caller won the right — and the duty — to compute this key.
    /// [`FlightGuard::fulfill`] publishes the slice to the cache and to
    /// every waiter; dropping the guard unpublished poisons the flight.
    Compute(FlightGuard),
    /// Another thread is computing a slice covering this request; block on
    /// [`FlightWaiter::wait`] for it.
    Wait(FlightWaiter),
}

/// Exclusive right to compute one cache key (see [`Flight::Compute`]).
#[derive(Debug)]
pub struct FlightGuard {
    cache: EvalCache,
    key: CacheKey,
    flight: Arc<InFlight>,
    fulfilled: bool,
    /// A stale resident grid's checkpoint covering this flight's literals,
    /// when one exists: the computer may patch forward from it instead of
    /// cold-scanning ([`crate::cube::execute_patches_in`]).
    patch: Option<Arc<ScanCheckpoint>>,
}

impl FlightGuard {
    pub fn key(&self) -> &CacheKey {
        &self.key
    }

    /// The literal coverage this flight promised (the `needed` sets of the
    /// original probe); the published slice must cover it.
    pub fn relevant(&self) -> &[Literals] {
        &self.flight.relevant
    }

    /// The watermark this flight promised to compute at.
    pub fn rows(&self) -> u64 {
        self.flight.rows
    }

    /// Checkpointed prefix of a stale resident grid with the same coverage,
    /// if the probe found one — the delta-patching fast path.
    pub fn patch_base(&self) -> Option<&Arc<ScanCheckpoint>> {
        self.patch.as_ref()
    }

    /// Publish the computed slice: store it in the cache, hand it to every
    /// waiter, and retire the flight.
    pub fn fulfill(mut self, slice: CachedSlice) {
        debug_assert!(
            slice.covers(&self.flight.relevant),
            "published slice must cover the flight's promised literals"
        );
        debug_assert_eq!(
            slice.rows, self.flight.rows,
            "published slice must carry the flight's promised watermark"
        );
        self.cache.put(self.key.clone(), slice.clone());
        self.retire();
        self.flight.settle(FlightState::Done(slice));
    }

    /// Remove this flight from the shard's in-flight table.
    fn retire(&mut self) {
        self.fulfilled = true;
        let shard = &self.cache.inner.shards[self.cache.shard_of(&self.key)];
        let mut inflight = shard
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(flights) = inflight.get_mut(&self.key) {
            flights.retain(|f| !Arc::ptr_eq(f, &self.flight));
            if flights.is_empty() {
                inflight.remove(&self.key);
            }
        }
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if !self.fulfilled {
            // Computation abandoned (error or unwinding): poison so waiters
            // wake up and retry instead of blocking forever.
            self.retire();
            self.flight.settle(FlightState::Poisoned);
        }
    }
}

/// Handle to another thread's in-flight computation (see [`Flight::Wait`]).
#[derive(Debug)]
pub struct FlightWaiter {
    flight: Arc<InFlight>,
}

impl FlightWaiter {
    /// Block until the computing thread settles the flight. Returns the
    /// published slice, or `None` when the flight was poisoned — re-probe
    /// with [`EvalCache::flight`] and compute if the retry wins the guard.
    pub fn wait(self) -> Option<CachedSlice> {
        let mut state = self
            .flight
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self
                        .flight
                        .cv
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                FlightState::Done(slice) => return Some(slice.clone()),
                FlightState::Poisoned => return None,
            }
        }
    }
}

/// Default shard count: enough stripes that a worker pool the size of any
/// reasonable machine rarely collides, while keeping the per-cache memory
/// footprint trivial.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// The shared evaluation cache. Cloning shares the underlying storage.
#[derive(Debug, Clone)]
pub struct EvalCache {
    inner: Arc<EvalCacheInner>,
}

#[derive(Debug)]
struct EvalCacheInner {
    shards: Box<[Shard]>,
    /// Serializes multi-key probes ([`EvalCache::flight_batch`]) so the
    /// keys of one cube are claimed atomically — two workers can never
    /// split one cube's aggregate set into two executions by interleaving
    /// their claims. Held only while probing (never while computing), so
    /// contention is a few map lookups.
    planning: StdMutex<()>,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::with_shards(DEFAULT_CACHE_SHARDS)
    }
}

impl EvalCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with at least `shards` lock stripes (rounded up to the next
    /// power of two so shard selection is a mask, never a division).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        EvalCache {
            inner: Arc::new(EvalCacheInner {
                shards: (0..n).map(|_| Shard::default()).collect(),
                planning: StdMutex::new(()),
            }),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard a key maps to: the key's FxHash folded to mix both
    /// halves, masked to the power-of-two shard count. Within-shard bucket
    /// placement cannot correlate with shard choice regardless — the
    /// per-shard `HashMap` hashes keys with its own hasher (SipHash).
    pub fn shard_of(&self, key: &CacheKey) -> usize {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        let h = hasher.finish();
        ((h >> 32) as usize ^ h as usize) & (self.inner.shards.len() - 1)
    }

    /// Fetch a slice covering `needed` literals at exactly watermark
    /// `rows`, counting a hit or miss. A stale-stamped slice never hits —
    /// that is the whole point of the stamp.
    pub fn get(&self, key: &CacheKey, needed: &[Literals], rows: u64) -> Option<CachedSlice> {
        let shard = &self.inner.shards[self.shard_of(key)];
        match shard.lookup(key, needed, rows, &mut ListPairMemo::default()) {
            Some(slice) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(slice)
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Single-flight probe: fetch a covering slice, join a covering
    /// in-flight computation, or win the right to compute the key.
    ///
    /// Counts one hit ([`Flight::Hit`]) or one miss ([`Flight::Compute`] /
    /// [`Flight::Wait`]); a wait additionally bumps
    /// [`ShardStats::singleflight_waits`]. An in-flight computation is only
    /// joined when its promised literal coverage includes `needed`;
    /// otherwise the caller computes its own slice, exactly as a warm
    /// sequential run would have.
    pub fn flight(&self, key: &CacheKey, needed: &[Literals], rows: u64) -> Flight {
        self.flight_memo(key, needed, rows, &mut ListPairMemo::default())
    }

    /// [`EvalCache::flight`] sharing one probe's coverage answers: the keys
    /// of a wave resolve to slices of a few cubes built over a few lists,
    /// so whether a resident list covers a requested one is worked out once
    /// per pair of lists, not once per key.
    fn flight_memo(
        &self,
        key: &CacheKey,
        needed: &[Literals],
        rows: u64,
        memo: &mut ListPairMemo,
    ) -> Flight {
        let shard = &self.inner.shards[self.shard_of(key)];
        if let Some(slice) = shard.lookup(key, needed, rows, memo) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Flight::Hit(slice);
        }
        let mut inflight = shard
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Re-check residency under the in-flight lock: a computer may have
        // published (and retired its flight) between the read above and
        // this lock — without the re-check we would register a flight no
        // one else can see progress on.
        if let Some(slice) = shard.lookup(key, needed, rows, memo) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Flight::Hit(slice);
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(flight) = inflight.get(key).and_then(|flights| {
            flights
                .iter()
                .find(|f| f.rows == rows && literals_cover(&f.relevant, needed))
        }) {
            shard.singleflight_waits.fetch_add(1, Ordering::Relaxed);
            return Flight::Wait(FlightWaiter {
                flight: flight.clone(),
            });
        }
        #[cfg(any(test, feature = "chaos"))]
        if crate::chaos::inject_flight_poison() {
            // Hand out a dead-on-arrival flight instead of a compute right:
            // it is never registered in the in-flight table (so it cannot
            // leak), and its waiter wakes immediately with `None`,
            // exercising the caller's bounded poison-retry path.
            return Flight::Wait(FlightWaiter {
                flight: Arc::new(InFlight {
                    relevant: needed.to_vec(),
                    rows,
                    state: StdMutex::new(FlightState::Poisoned),
                    cv: Condvar::new(),
                }),
            });
        }
        let flight = Arc::new(InFlight {
            relevant: needed.to_vec(),
            rows,
            state: StdMutex::new(FlightState::Pending),
            cv: Condvar::new(),
        });
        inflight
            .entry(key.clone())
            .or_default()
            .push(flight.clone());
        Flight::Compute(FlightGuard {
            cache: self.clone(),
            key: key.clone(),
            flight,
            fulfilled: false,
            // A stale covering grid's checkpoint, when resident: the duty
            // to compute shrinks to a scan of the appended rows.
            patch: shard.patch_base(key, needed, rows),
        })
    }

    /// [`EvalCache::flight`] for every key of one cube, atomically: the
    /// whole probe runs under the cache's planning lock, so concurrent
    /// requesters of the same cube either win *all* of its unserved keys
    /// or wait/hit on *all* of them — the aggregate set of one cube can
    /// never be split across two executions by claim interleaving. All
    /// keys share `needed` (one cube has one literal coverage).
    pub fn flight_batch(&self, keys: &[CacheKey], needed: &[Literals], rows: u64) -> Vec<Flight> {
        let mut out =
            self.flight_batch_many(std::slice::from_ref(&FlightRequest { keys, needed, rows }));
        out.pop().expect("one flight set per request")
    }

    /// [`EvalCache::flight_batch`] for **several cubes in one atomic
    /// probe**: every key of every request is claimed under a single
    /// planning-lock hold. A whole scheduling wave (all cube groups of one
    /// document iteration) probes through this, so two workers racing the
    /// same wave content can never split one wave's miss set between them
    /// — whoever enters the planning lock first wins *every* key both
    /// would have missed. That all-or-nothing claim is what makes fused
    /// scan-pass formation (and therefore the pipeline's `scan_passes` /
    /// `rows_scanned` counters) independent of worker interleaving.
    pub fn flight_batch_many(&self, requests: &[FlightRequest<'_>]) -> Vec<Vec<Flight>> {
        let _planning = self
            .inner
            .planning
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut memo = ListPairMemo::default();
        requests
            .iter()
            .map(|request| {
                request
                    .keys
                    .iter()
                    .map(|key| self.flight_memo(key, request.needed, request.rows, &mut memo))
                    .collect()
            })
            .collect()
    }

    /// Store a slice. Coverage-preserving *within a watermark*: a resident
    /// slice at the same stamp that already covers the newcomer's literals
    /// makes the put a no-op, resident slices the newcomer covers at the
    /// same or an older stamp are displaced by it, and slices with
    /// *overlapping but non-nested* coverage coexist (up to
    /// [`SLICES_PER_KEY`]; beyond that eviction prefers stale-stamped
    /// slices, then the oldest) — so a batch of documents with different
    /// literal sets never ping-pongs one key. Newer-stamped residents are
    /// never displaced: a racing append's publish must win. Every displaced
    /// slice counts as an eviction.
    pub fn put(&self, key: CacheKey, slice: CachedSlice) {
        let shard = &self.inner.shards[self.shard_of(&key)];
        let mut entries = shard.entries.write();
        let slices = entries.entry(key).or_default();
        if slices
            .iter()
            .any(|s| s.rows == slice.rows && s.covers(slice.relevant()))
        {
            return;
        }
        let before = slices.len();
        slices.retain(|s| !(s.rows <= slice.rows && slice.covers(s.relevant())));
        let mut evicted = (before - slices.len()) as u64;
        slices.push(slice);
        if slices.len() > SLICES_PER_KEY {
            let newest = slices.iter().map(|s| s.rows).max().unwrap_or(0);
            let idx = slices.iter().position(|s| s.rows < newest).unwrap_or(0);
            slices.remove(idx);
            evicted += 1;
        }
        if evicted > 0 {
            shard.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Number of computations currently in flight across all shards.
    ///
    /// Flights are how concurrent *waves* — including waves of different
    /// documents arriving at different times in a streaming run — share
    /// one physical cube execution: a later wave whose literal needs are
    /// covered joins the earlier wave's flight instead of scanning again.
    /// Quiescent services must read 0 here: every flight is retired on
    /// fulfillment and poisoned on abandonment, so a non-zero count after
    /// a drained shutdown means a guard leaked (a waiter would block
    /// forever on it). The streaming stress tests assert this invariant.
    pub fn inflight_len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.inflight
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Record one poisoned-flight retry against `key`'s shard (see
    /// [`ShardStats::poison_retries`]). The wave layer calls this each
    /// time a waiter wakes from a poisoned flight and re-probes.
    pub fn note_poison_retry(&self, key: &CacheKey) {
        self.inner.shards[self.shard_of(key)]
            .poison_retries
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot all shard counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            shards: self.inner.shards.iter().map(Shard::snapshot).collect(),
        }
    }

    /// Total resident slices (keys may hold several, see [`EvalCache::put`]).
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.entries.read().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries (e.g. between unrelated databases). Dropped slices
    /// count as evictions.
    pub fn clear(&self) {
        for shard in self.inner.shards.iter() {
            let mut entries = shard.entries.write();
            let dropped: u64 = entries.values().map(|v| v.len() as u64).sum();
            entries.clear();
            shard.evictions.fetch_add(dropped, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeQuery;
    use crate::database::Database;
    use crate::table::Table;

    fn db() -> Database {
        let t = Table::from_columns(
            "t",
            vec![("cat", vec!["a".into(), "a".into(), "b".into(), "c".into()])],
        )
        .unwrap();
        let mut db = Database::new("d");
        db.add_table(t);
        db
    }

    fn slice(db: &Database, literals: Vec<Value>) -> CachedSlice {
        let cat = db.resolve("t", "cat").unwrap();
        let cube = CubeQuery {
            dims: vec![cat],
            relevant: vec![literals.into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        }
        .execute(db)
        .unwrap();
        CachedSlice::new(Arc::new(cube), 0, AggFunction::Count, db.watermark())
    }

    #[test]
    fn slice_lookup_by_value() {
        let db = db();
        let s = slice(&db, vec!["a".into(), "b".into()]);
        assert_eq!(s.lookup(&[Some("a".into())]), Ok(Some(2.0)));
        assert_eq!(s.lookup(&[Some("b".into())]), Ok(Some(1.0)));
        assert_eq!(s.lookup(&[None]), Ok(Some(4.0)));
        // "c" was not in the relevant set: coverage violation.
        assert_eq!(s.lookup(&[Some("c".into())]), Err(()));
    }

    #[test]
    fn coverage_check() {
        let db = db();
        let s = slice(&db, vec!["a".into(), "b".into()]);
        assert!(s.covers(&[vec!["a".into()].into()]));
        assert!(s.covers(&[vec!["a".into(), "b".into()].into()]));
        assert!(!s.covers(&[vec!["c".into()].into()]));
        assert!(
            !s.covers(&[vec![].into(), vec![].into()]),
            "dimension count must match"
        );
    }

    #[test]
    fn cache_hits_and_misses() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        let needed = vec![vec![Value::from("a")].into()];

        assert!(cache.get(&key, &needed, 4).is_none());
        assert_eq!(cache.stats().misses(), 1);

        cache.put(key.clone(), slice(&db, vec!["a".into()]));
        assert!(cache.get(&key, &needed, 4).is_some());
        assert_eq!(cache.stats().hits(), 1);

        // A broader literal set than cached is a miss (coverage).
        let broader = vec![vec![Value::from("a"), Value::from("c")].into()];
        assert!(cache.get(&key, &broader, 4).is_none());
        assert_eq!(cache.stats().misses(), 2);
        assert!(cache.stats().hit_rate() > 0.3 && cache.stats().hit_rate() < 0.4);
    }

    #[test]
    fn cache_key_canonicalizes_dimension_order() {
        let a = ColumnRef::new(0, 1);
        let b = ColumnRef::new(0, 2);
        let k1 = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![a, b], 0);
        let k2 = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![b, a], 0);
        assert_eq!(k1, k2);
    }

    #[test]
    fn cube_keys_share_dimensions_and_equal_single_keys() {
        let a = ColumnRef::new(0, 1);
        let b = ColumnRef::new(0, 2);
        let aggs = [
            (AggFunction::Count, AggColumn::Star),
            (AggFunction::Sum, AggColumn::Column(b)),
        ];
        let keys = CacheKey::for_cube(&aggs, &[b, a], 7);
        assert_eq!(keys.len(), 2);
        assert!(Arc::ptr_eq(&keys[0].dims, &keys[1].dims));
        for (key, &(f, c)) in keys.iter().zip(&aggs) {
            assert_eq!(*key, CacheKey::new(f, c, vec![a, b], 7));
        }
    }

    /// A probe whose lists equal the resident slice's without being the same
    /// allocation (a catalog rebuilt over the same data) still hits, on every
    /// key of the cube.
    #[test]
    fn equal_lists_from_another_allocation_hit() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let aggs = [
            (AggFunction::Count, AggColumn::Star),
            (AggFunction::CountDistinct, AggColumn::Star),
        ];
        let keys = CacheKey::for_cube(&aggs, &[cat], 0);
        let resident = slice(&db, vec!["a".into(), "b".into()]);
        for key in &keys {
            cache.put(key.clone(), resident.clone());
        }
        let needed: Vec<Literals> = vec![vec!["a".into(), "b".into()].into()];
        assert!(!Arc::ptr_eq(&needed[0], &resident.relevant()[0]));
        let flights = cache.flight_batch(&keys, &needed, db.watermark());
        assert!(flights.iter().all(|f| matches!(f, Flight::Hit(_))));
        assert_eq!(cache.stats().hits(), 2);
    }

    #[test]
    fn clear_empties_cache() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        cache.put(
            CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0),
            slice(&db, vec!["a".into()]),
        );
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_clones_see_the_same_entries() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let clone = cache.clone();
        clone.put(
            CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0),
            slice(&db, vec!["a".into()]),
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn overlapping_literal_sets_coexist_without_ping_pong() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        let ab = vec![vec![Value::from("a"), Value::from("b")].into()];
        let bc = vec![vec![Value::from("b"), Value::from("c")].into()];
        cache.put(key.clone(), slice(&db, vec!["a".into(), "b".into()]));
        // A narrower put is a no-op: the resident slice already covers it.
        cache.put(key.clone(), slice(&db, vec!["a".into()]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions(), 0);
        // Overlapping-but-not-nested coverage coexists (doc A wants {a,b},
        // doc B wants {b,c}): neither slice evicts the other, and both
        // documents keep hitting.
        cache.put(key.clone(), slice(&db, vec!["b".into(), "c".into()]));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key, &ab, 4).is_some());
        assert!(cache.get(&key, &bc, 4).is_some());
        assert_eq!(cache.stats().evictions(), 0);
        // A slice covering a resident one displaces it.
        cache.put(
            key.clone(),
            slice(&db, vec!["a".into(), "b".into(), "c".into()]),
        );
        assert_eq!(cache.len(), 1, "superset slice replaces both");
        assert_eq!(cache.stats().evictions(), 2);
        assert!(cache.get(&key, &ab, 4).is_some());
        assert!(cache.get(&key, &bc, 4).is_some());
    }

    #[test]
    fn slices_per_key_is_bounded() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        // Disjoint singleton literal sets: none covers another, so they
        // accumulate until the per-key cap evicts the oldest.
        let lits = ["a", "b", "c", "l-d", "l-e", "l-f"];
        for lit in lits {
            cache.put(key.clone(), slice(&db, vec![lit.into()]));
        }
        assert_eq!(cache.len(), SLICES_PER_KEY);
        assert_eq!(
            cache.stats().evictions(),
            (lits.len() - SLICES_PER_KEY) as u64
        );
        // The newest survives, the oldest is gone.
        assert!(cache
            .get(&key, &[vec![Value::from("l-f")].into()], 4)
            .is_some());
        assert!(cache
            .get(&key, &[vec![Value::from("a")].into()], 4)
            .is_none());
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(EvalCache::with_shards(0).shard_count(), 1);
        assert_eq!(EvalCache::with_shards(1).shard_count(), 1);
        assert_eq!(EvalCache::with_shards(5).shard_count(), 8);
        assert_eq!(EvalCache::with_shards(16).shard_count(), 16);
        assert_eq!(EvalCache::new().shard_count(), DEFAULT_CACHE_SHARDS);
    }

    #[test]
    fn replacement_and_clear_count_as_evictions() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        cache.put(key.clone(), slice(&db, vec!["a".into()]));
        assert_eq!(cache.stats().evictions(), 0);
        cache.put(key.clone(), slice(&db, vec!["a".into(), "b".into()]));
        assert_eq!(cache.stats().evictions(), 1);
        cache.clear();
        assert_eq!(cache.stats().evictions(), 2);
        assert_eq!(cache.stats().entries(), 0);
    }

    /// Uniformly drawn keys must spread evenly: no shard may hold more than
    /// twice the mean entry count.
    #[test]
    fn uniform_keys_spread_across_shards() {
        let db = db();
        let cache = EvalCache::with_shards(16);
        let s = slice(&db, vec!["a".into()]);
        let n_keys = 4096usize;
        for i in 0..n_keys {
            // Distinct dimension sets give distinct, uniform-ish keys.
            let dims = vec![ColumnRef::new(i / 64, i % 64)];
            cache.put(
                CacheKey::new(AggFunction::Count, AggColumn::Star, dims, 0),
                s.clone(),
            );
        }
        assert_eq!(cache.len(), n_keys);
        let stats = cache.stats();
        let mean = n_keys as f64 / cache.shard_count() as f64;
        for (i, shard) in stats.shards.iter().enumerate() {
            assert!(
                (shard.entries as f64) <= 2.0 * mean,
                "shard {i} holds {} entries, mean is {mean:.1}",
                shard.entries
            );
        }
    }

    #[test]
    fn hit_rate_is_zero_not_nan_without_lookups() {
        let stats = EvalCache::new().stats();
        assert_eq!(stats.hits(), 0);
        assert_eq!(stats.misses(), 0);
        assert_eq!(stats.hit_rate(), 0.0, "no lookups must read 0.0, not NaN");
        assert_eq!(stats.dedup_rate(), 0.0, "no misses must read 0.0, not NaN");
        assert!(stats.hit_rate().is_finite());
        assert!(stats.dedup_rate().is_finite());
    }

    #[test]
    fn flight_hit_compute_and_publish() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        let needed = vec![vec![Value::from("a")].into()];

        let guard = match cache.flight(&key, &needed, 4) {
            Flight::Compute(g) => g,
            other => panic!("first probe must win the flight, got {other:?}"),
        };
        assert_eq!(guard.key(), &key);
        assert_eq!(guard.relevant(), &needed[..]);
        // A second probe from the same literal set joins the flight.
        let waiter = match cache.flight(&key, &needed, 4) {
            Flight::Wait(w) => w,
            other => panic!("second probe must wait, got {other:?}"),
        };
        // A probe needing literals the flight does not cover computes its
        // own slice instead of joining.
        let broader = vec![vec![Value::from("a"), Value::from("b")].into()];
        let own = match cache.flight(&key, &broader, 4) {
            Flight::Compute(g) => g,
            other => panic!("non-covered probe must compute, got {other:?}"),
        };
        drop(own); // poisoned, nobody waits on it

        guard.fulfill(slice(&db, vec!["a".into()]));
        assert_eq!(
            waiter.wait().unwrap().lookup(&[Some("a".into())]),
            Ok(Some(2.0))
        );
        // The published slice is resident: later probes are plain hits.
        assert!(matches!(cache.flight(&key, &needed, 4), Flight::Hit(_)));
        let stats = cache.stats();
        assert_eq!(stats.singleflight_waits(), 1);
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.misses(), 3);
    }

    /// 8 threads hammering one key: the first claims the flight while the
    /// other 7 deterministically join it (the guard is held until every
    /// waiter has registered), so the cube is computed exactly once.
    #[test]
    fn single_flight_executes_once_under_contention() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        let needed = vec![vec![Value::from("a")].into()];
        let waiters = 7usize;

        // Phase 1: the main thread wins the flight and holds it.
        let guard = match cache.flight(&key, &needed, 4) {
            Flight::Compute(g) => g,
            other => panic!("expected to win the flight, got {other:?}"),
        };

        let results: Vec<Option<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..waiters)
                .map(|_| {
                    let cache = cache.clone();
                    let (key, needed) = (&key, &needed);
                    scope.spawn(move || {
                        // Phase 2: with the guard held, every probe must
                        // become a waiter — no hit, no second computer.
                        let w = match cache.flight(key, needed, 4) {
                            Flight::Wait(w) => w,
                            other => panic!("expected Wait, got {other:?}"),
                        };
                        w.wait()
                            .expect("flight fulfilled")
                            .lookup(&[Some("a".into())])
                            .unwrap()
                    })
                })
                .collect();
            // Phase 3: all waiters registered (counted); publish once.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while cache.stats().singleflight_waits() < waiters as u64 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "waiters never registered"
                );
                std::thread::yield_now();
            }
            guard.fulfill(slice(&db, vec!["a".into()]));
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Every waiter read the one published slice, bit-identically.
        assert!(results.iter().all(|r| *r == Some(2.0)));
        let stats = cache.stats();
        assert_eq!(stats.singleflight_waits(), waiters as u64);
        assert_eq!(stats.misses(), 1 + waiters as u64, "one computer, 7 waits");
        assert_eq!(stats.entries(), 1, "the cube was computed exactly once");
    }

    /// A multi-cube probe claims every unserved key of every request in
    /// one atomic step: a second prober of the same two cubes can win
    /// nothing — it waits on all of them.
    #[test]
    fn flight_batch_many_claims_whole_waves_atomically() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let needed_a = vec![vec![Value::from("a")].into()];
        let needed_b = vec![vec![Value::from("b")].into()];
        let count_keys = [CacheKey::new(
            AggFunction::Count,
            AggColumn::Star,
            vec![cat],
            0,
        )];
        let distinct_keys = [CacheKey::new(
            AggFunction::CountDistinct,
            AggColumn::Star,
            vec![cat],
            0,
        )];
        let requests = [
            FlightRequest {
                keys: &count_keys,
                needed: &needed_a,
                rows: 4,
            },
            FlightRequest {
                keys: &distinct_keys,
                needed: &needed_b,
                rows: 4,
            },
        ];
        let first = cache.flight_batch_many(&requests);
        let guards: Vec<FlightGuard> = first
            .into_iter()
            .flatten()
            .map(|f| match f {
                Flight::Compute(g) => g,
                other => panic!("first prober must win every key, got {other:?}"),
            })
            .collect();
        let second = cache.flight_batch_many(&requests);
        let waiters: Vec<FlightWaiter> = second
            .into_iter()
            .flatten()
            .map(|f| match f {
                Flight::Wait(w) => w,
                other => panic!("second prober must wait on every key, got {other:?}"),
            })
            .collect();
        for guard in guards {
            guard.fulfill(slice(&db, vec!["a".into(), "b".into()]));
        }
        for waiter in waiters {
            assert!(waiter.wait().is_some());
        }
    }

    /// The in-flight table registers a flight when a guard is won and
    /// retires it on fulfillment *and* on abandonment — a quiescent cache
    /// always reads 0, the invariant streaming shutdown relies on.
    #[test]
    fn inflight_len_tracks_registration_and_retirement() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key_a = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        let key_b = CacheKey::new(AggFunction::CountDistinct, AggColumn::Star, vec![cat], 0);
        let needed = vec![vec![Value::from("a")].into()];
        assert_eq!(cache.inflight_len(), 0);
        let guard_a = match cache.flight(&key_a, &needed, 4) {
            Flight::Compute(g) => g,
            other => panic!("expected Compute, got {other:?}"),
        };
        let guard_b = match cache.flight(&key_b, &needed, 4) {
            Flight::Compute(g) => g,
            other => panic!("expected Compute, got {other:?}"),
        };
        assert_eq!(cache.inflight_len(), 2);
        // Joining a flight registers nothing new.
        let waiter = match cache.flight(&key_a, &needed, 4) {
            Flight::Wait(w) => w,
            other => panic!("expected Wait, got {other:?}"),
        };
        assert_eq!(cache.inflight_len(), 2);
        guard_a.fulfill(slice(&db, vec!["a".into()]));
        assert_eq!(cache.inflight_len(), 1, "fulfillment retires the flight");
        assert!(waiter.wait().is_some());
        drop(guard_b);
        assert_eq!(cache.inflight_len(), 0, "abandonment retires the flight");
    }

    /// A dropped guard poisons the flight: waiters wake with `None`, retry,
    /// and one of them wins the recomputation.
    #[test]
    fn single_flight_poisoned_flight_is_retryable() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        let needed = vec![vec![Value::from("a")].into()];

        let guard = match cache.flight(&key, &needed, 4) {
            Flight::Compute(g) => g,
            other => panic!("expected Compute, got {other:?}"),
        };
        let waiter = match cache.flight(&key, &needed, 4) {
            Flight::Wait(w) => w,
            other => panic!("expected Wait, got {other:?}"),
        };
        drop(guard); // computation failed
        assert!(waiter.wait().is_none(), "poisoned flight yields None");
        // The retry wins a fresh flight and completes normally.
        match cache.flight(&key, &needed, 4) {
            Flight::Compute(g) => g.fulfill(slice(&db, vec!["a".into()])),
            other => panic!("retry must win the flight, got {other:?}"),
        }
        assert!(matches!(cache.flight(&key, &needed, 4), Flight::Hit(_)));
    }

    /// N threads hammering one cache with overlapping keys: no update may
    /// be lost, and the counter totals must reconcile with the operations
    /// actually performed.
    #[test]
    fn concurrent_hammering_reconciles() {
        let db = db();
        let cache = EvalCache::with_shards(8);
        let n_threads = 8usize;
        let n_keys = 32usize;
        let rounds = 200usize;
        let needed = vec![vec![Value::from("a")].into()];
        let gets_answered: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let cache = cache.clone();
                    let db = &db;
                    let needed = &needed;
                    scope.spawn(move || {
                        let mut answered = 0u64;
                        for r in 0..rounds {
                            // Overlapping key space: every thread touches
                            // every key, offset so threads collide.
                            let k = (t + r) % n_keys;
                            let key = CacheKey::new(
                                AggFunction::Count,
                                AggColumn::Star,
                                vec![ColumnRef::new(0, k)],
                                0,
                            );
                            if cache.get(&key, needed, 4).is_none() {
                                cache.put(key, slice(db, vec!["a".into()]));
                            }
                            answered += 1;
                        }
                        answered
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(gets_answered, (n_threads * rounds) as u64);
        let stats = cache.stats();
        // Every get was either a hit or a miss — none lost.
        assert_eq!(stats.hits() + stats.misses(), (n_threads * rounds) as u64);
        // Every key that was ever put survives (puts only add or replace).
        assert_eq!(cache.len(), n_keys.min(n_threads * rounds));
        // Each of the n_keys keys missed at least once (first toucher).
        assert!(stats.misses() >= n_keys as u64);
        // All slices cover the same literals, so racing re-puts of a key
        // are coverage-preserving no-ops: nothing is ever evicted, and the
        // resident entry count is exactly the key count.
        assert_eq!(stats.evictions(), 0);
        assert_eq!(stats.entries(), n_keys as u64);
        // Per-shard totals sum to the global totals by construction; spot
        // check the snapshot is per-shard.
        assert_eq!(stats.shards.len(), 8);
    }

    /// The delta-aware probe path: a slice stamped at the old watermark
    /// never satisfies a probe at the new one, but its checkpoint is handed
    /// to the flight winner as a patch base so only the appended tail is
    /// rescanned.
    #[test]
    fn stale_stamped_slices_never_hit_and_seed_patch_bases() {
        use crate::block::BLOCK_ROWS;
        use crate::cube::{execute_patches_in, CubeOptions};
        let n1 = 2 * BLOCK_ROWS + 300;
        let cats: Vec<Value> = (0..n1).map(|i| ["a", "b"][i % 2].into()).collect();
        let t = Table::from_columns("t", vec![("cat", cats)]).unwrap();
        let mut db = Database::new("d");
        db.add_table(t);
        let cat = db.resolve("t", "cat").unwrap();
        let options = CubeOptions {
            partition_blocks: 1,
            ..CubeOptions::default()
        };
        let cube = CubeQuery {
            dims: vec![cat],
            relevant: vec![vec!["a".into()].into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        let r1 = cube.execute_with(&db, &options).unwrap();
        assert!(r1.checkpoint().is_some(), "eligible scan must checkpoint");
        let w1 = db.watermark();

        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], db.version());
        let needed = vec![vec![Value::from("a")].into()];
        cache.put(
            key.clone(),
            CachedSlice::new(Arc::new(r1), 0, AggFunction::Count, w1),
        );
        assert!(cache.get(&key, &needed, w1).is_some());

        let batch: Vec<Vec<Value>> = (0..64).map(|_| vec!["a".into()]).collect();
        db.append_rows("t", &batch).unwrap();
        let w2 = db.watermark();
        assert_eq!(w2, w1 + 64);
        // The resident slice is stamped w1: a probe at w2 must miss ...
        assert!(cache.get(&key, &needed, w2).is_none());
        // ... but the flight winner receives its checkpoint as a patch base.
        let guard = match cache.flight(&key, &needed, w2) {
            Flight::Compute(g) => g,
            other => panic!("expected Compute, got {other:?}"),
        };
        assert_eq!(guard.rows(), w2);
        let base = guard.patch_base().expect("stale slice seeds a patch base");
        assert_eq!(base.rows(), 2 * BLOCK_ROWS, "span-aligned boundary");
        let patched = execute_patches_in(&db, &[base.as_ref()], &options, None)
            .unwrap()
            .pop()
            .expect("one member");
        assert_eq!(patched.stats.grids_patched, 1);
        assert!(
            patched.stats.rows_scanned < n1 as u64,
            "patch scans the tail, not the corpus"
        );
        guard.fulfill(CachedSlice::new(
            Arc::new(patched),
            0,
            AggFunction::Count,
            w2,
        ));
        let hit = cache
            .get(&key, &needed, w2)
            .expect("patched slice is resident");
        assert_eq!(
            hit.lookup(&[Some("a".into())]),
            Ok(Some((n1 / 2 + 64) as f64))
        );
    }

    /// Flights are watermark-scoped: a probe at a newer watermark never
    /// joins a flight computing at the old one — it wins its own — while a
    /// same-watermark probe still waits.
    #[test]
    fn waiters_only_join_flights_at_their_watermark() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        let needed = vec![vec![Value::from("a")].into()];
        let g4 = match cache.flight(&key, &needed, 4) {
            Flight::Compute(g) => g,
            other => panic!("expected Compute, got {other:?}"),
        };
        let g5 = match cache.flight(&key, &needed, 5) {
            Flight::Compute(g) => g,
            other => {
                panic!("a newer-watermark probe must not wait on a stale flight, got {other:?}")
            }
        };
        let waiter = match cache.flight(&key, &needed, 4) {
            Flight::Wait(w) => w,
            other => panic!("same-watermark probe must wait, got {other:?}"),
        };
        g4.fulfill(slice(&db, vec!["a".into()]));
        assert!(waiter.wait().is_some());
        drop(g5);
        assert_eq!(cache.inflight_len(), 0);
    }

    /// Structural mutations (unsealing, schema changes) bump the database
    /// version, which is part of the key: every slice cached under the old
    /// version becomes unreachable — a hard invalidation with no scanning
    /// of resident entries.
    #[test]
    fn structural_version_in_key_hard_invalidates() {
        let mut db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key_v = |db: &Database| {
            CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], db.version())
        };
        let needed = vec![vec![Value::from("a")].into()];
        cache.put(key_v(&db), slice(&db, vec!["a".into()]));
        assert!(cache.get(&key_v(&db), &needed, db.watermark()).is_some());
        db.unseal_tables();
        assert!(
            cache.get(&key_v(&db), &needed, db.watermark()).is_none(),
            "version bump makes old-version entries unreachable"
        );
    }

    /// Per-key overflow eviction prefers stale-stamped slices — the ones a
    /// fresh probe can never hit — and a put stamped older than a resident
    /// covering slice never displaces it.
    #[test]
    fn overflow_eviction_prefers_stale_stamped_slices() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let key = CacheKey::new(AggFunction::Count, AggColumn::Star, vec![cat], 0);
        let mk = |lit: &str, rows: u64| {
            let cube = CubeQuery {
                dims: vec![cat],
                relevant: vec![vec![lit.into()].into()],
                aggregates: vec![(AggFunction::Count, AggColumn::Star)],
            }
            .execute(&db)
            .unwrap();
            CachedSlice::new(Arc::new(cube), 0, AggFunction::Count, rows)
        };
        // Fill to the cap: one stale-stamped slice among fresh ones.
        cache.put(key.clone(), mk("a", 3));
        cache.put(key.clone(), mk("b", 4));
        cache.put(key.clone(), mk("c", 4));
        cache.put(key.clone(), mk("l-d", 4));
        assert_eq!(cache.len(), SLICES_PER_KEY);
        // Overflow: the stale-stamped "a"@3 goes first, not the oldest
        // fresh slice.
        cache.put(key.clone(), mk("l-e", 4));
        assert!(cache
            .get(&key, &[vec![Value::from("a")].into()], 3)
            .is_none());
        assert!(cache
            .get(&key, &[vec![Value::from("b")].into()], 4)
            .is_some());
        // A put stamped older than a newer-stamped covering resident slice
        // lands but can never displace it.
        cache.put(key.clone(), mk("b", 3));
        assert!(
            cache
                .get(&key, &[vec![Value::from("b")].into()], 4)
                .is_some(),
            "older-stamped put must not displace the fresh slice"
        );
    }
}
