//! The cube-task scheduler and the **single wave-orchestration layer**:
//! fused scan passes as the unit of physical work.
//!
//! The paper's cost model (§5/§6) is dominated by executing merged CUBE
//! queries, and the claims of one document — let alone the documents of a
//! batch — need many *independent* cubes. This module owns the whole
//! execution shape above the cube kernel:
//!
//! * a [`CubeTask`] owns one [`CubeQuery`] plus the single-flight
//!   [`FlightGuard`]s it must publish into the shared
//!   [`EvalCache`] when it finishes;
//! * a [`ScanGroup`] is the schedulable unit: **all tasks of one wave that
//!   reference the same table scope, fused into one row pass** that feeds
//!   every member's grid ([`crate::cube::execute_fused_in`]). Fusion is
//!   purely physical — each member's result, stats, and cache publication
//!   are exactly those of a solo sequential execution;
//! * a [`CubeScheduler`] is a shared work queue of scan groups drained
//!   cooperatively by scoped worker threads. Wave submitters *help* drain
//!   the queue until their own tasks are done ([`CubeScheduler::drive`]),
//!   so a submitter is never idle while work is pending and a pool of one
//!   degenerates to exact sequential execution; batch verification shares
//!   **one** scheduler across all documents ([`CubeScheduler::run_worker`]);
//! * [`run_requests`] is the **one** implementation of the
//!   probe → bundle → fuse → execute → collect-with-poison-retry protocol,
//!   and `core::evaluate::Evaluator::evaluate_all` — the §6.2 merge
//!   planner — is its one client, so the single-flight protocol exists
//!   exactly once;
//! * [`ScanCounters`] is the **one** declaration of the scan-plane
//!   counters a wave reports. Every layer above (`EvalStats`, `RunStats`,
//!   `StreamStats`) embeds it and folds with [`ScanCounters::merge`].
//!
//! # ScanGroup fusion invariants
//!
//! Fused passes must not perturb anything `bench_pipeline`'s
//! `violations()` judges:
//!
//! * **Canonical grid-update order.** A scan group's members are kept in
//!   task-submission order and the fused kernel updates their grids in
//!   that order, each grid seeing the rows in relation order — so every
//!   member's f64 accumulation sequence, and therefore every report, is
//!   bit-identical to the unfused path at any worker count (1/2/4/8).
//! * **Single-flight publication per cube key, unchanged.** Fusion never
//!   widens or splits a task's aggregate bundle; each member still
//!   publishes exactly the keys it claimed, and a failed pass poisons
//!   exactly its members' flights.
//! * **Atomic wave probes.** A wave claims every key of every one of its
//!   cube groups under one planning-lock hold
//!   ([`EvalCache::flight_batch_many`](crate::cache::EvalCache::flight_batch_many)),
//!   so racing workers can never split one wave's miss set between them:
//!   whichever wave enters the planning lock first wins its *entire* miss
//!   set as one fused pass per table scope. Pass formation is
//!   planning-time (per wave, per scope), so `scan_passes` — and the
//!   pass-level `rows_scanned` — depend only on which waves create at
//!   least one task per scope, never on how tasks interleave inside the
//!   scheduler. That count is exactly worker-count-independent whenever
//!   each wave's miss set per scope is either fully covered by one
//!   concurrent wave (all-or-nothing: identical documents, repeat EM
//!   iterations) or retains at least one key no concurrent wave covers
//!   (distinct documents) — the shape of real document batches, where
//!   every document's claims contribute document-specific cube groups.
//!   The pipeline unit tests assert the equality at 1/2/4/8 workers. A
//!   batch of documents whose miss sets *partially* overlap with no
//!   wave-unique remainder could legitimately shift a pass between
//!   waves, so at bench scale `bench_pipeline`'s `violations()` holds
//!   `tasks_executed` exactly equal at every worker count, passes exactly
//!   equal only at one worker, and otherwise bounds the pass count.
//!
//! # Partition fan-out
//!
//! Every pass is one cube pass of [`crate::cube`]'s single engine: fused
//! members × fixed partitions × a checkpoint prefix, folded in exactly one
//! place. The scheduler chooses only **who scans the partitions**. When a
//! cold pass over a single-table identity scope spans at least two fixed
//! partitions ([`crate::block::partition_ranges`], a pure function of row
//! count and the configured partition span — never of worker count), the
//! worker that pops the pass *explodes* it into one queued subtask per
//! partition. Any worker steals subtasks; each scans its block range into
//! partition-local grids; the **last** finisher hands the deposited grids
//! to the engine's fold, which merges them in ascending partition order,
//! captures checkpoints and finishes every member — the very function the
//! in-process driver ([`crate::cube::execute_fused_in`]) runs, so a
//! fanned-out pass is bit-identical to an in-process one at any worker
//! count and any completion order by construction. This fan-out is the
//! system's only intra-pass parallelism. Joined (materialized) scopes run
//! in-process on the worker that popped them — same partitions, same fold,
//! same counters. The only run-to-run-varying stat is the
//! [`crate::cube::CubeStats::partition_parallelism`] gauge (distinct
//! workers that touched the pass).
//!
//! A subtask that panics (worker death mid-partition) registers the
//! failure, **fails every member task immediately** — poisoning their
//! flights and waking their waiters, so nobody wedges on a merge barrier
//! that will never fill — and re-raises on its own thread; remaining
//! subtasks of the dead pass drain as no-ops.
//!
//! # Snapshot pinning & patch passes
//!
//! Every queued work item embeds the `Arc<Database>` snapshot its wave was
//! planned against, and executes against exactly that snapshot — never
//! against whatever database the executing worker happens to hold. A
//! long-lived worker pool can therefore drain passes of documents pinned
//! at *different* watermarks (a streaming service that appends rows
//! between documents) without any pass reading rows its wave never
//! claimed: the wave's cache stamps `(version, watermark)` and its scans
//! are taken from the same pinned snapshot.
//!
//! When a wave's probe finds a **stale** resident grid whose cube captured
//! a [`ScanCheckpoint`], the won flight carries it as a patch base and the
//! miss executes as a **patch pass**
//! ([`crate::cube::execute_patches_in`]): the same engine resuming from
//! the checkpointed prefix instead of row 0, so only the appended
//! partitions are scanned before publishing at the new watermark. Patch
//! passes fuse with each other — same table scope, same checkpoint prefix
//! shape — so a wave whose stale grids all resume from one boundary scans
//! the appended tail once; they are never fused with cold scans and never
//! exploded into partition subtasks (the delta is small by construction),
//! and they publish through the same single-flight protocol, so concurrent
//! re-verifies dedup patch work exactly like full scans.
//!
//! # Deadlock freedom
//!
//! The submit protocol is: probe the cache (claiming flights), submit every
//! task won, **then** drive the queue until the submitted tasks finish, and
//! only after that block on [`FlightWaiter`]s owned by other threads. A
//! thread therefore never waits on a flight before its own tasks are
//! published-or-executed, and every flight being waited on belongs to a
//! task that is either queued (any driver can pick it up) or already
//! running; a poisoned flight wakes its waiters for a retry rather than
//! wedging them.

use crate::block::{partition_ranges, DEFAULT_PARTITION_BLOCKS};
use crate::cache::{
    CacheKey, CachedSlice, EvalCache, Flight, FlightGuard, FlightRequest, FlightWaiter,
};
use crate::cube::{
    execute_fused_in, execute_patches_in, patchable_function, validate_fused, CubeOptions,
    CubePass, CubeQuery, CubeResult, CubeStats, GridArena, Literals, PartitionGrids,
    ScanCheckpoint,
};
use crate::database::{ColumnRef, Database};
use crate::error::{RelationalError, Result};
use crate::join::JoinedRelation;
use crate::query::{AggColumn, AggFunction};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug)]
enum TaskState {
    Pending,
    Done(Arc<CubeResult>),
    Failed(RelationalError),
}

#[derive(Debug)]
struct TaskCell {
    state: Mutex<TaskState>,
}

/// One schedulable cube execution, plus the cache publications it owes.
#[derive(Debug)]
pub struct CubeTask {
    cube: CubeQuery,
    /// `(aggregate position, function, guard)` per single-flight key this
    /// task won; empty when evaluation runs uncached.
    publish: Vec<(usize, AggFunction, FlightGuard)>,
    /// A stale resident grid's checkpoint this task resumes from instead
    /// of cold-scanning (`Some` makes this a patch pass: always a
    /// singleton, never fused or exploded). The task's `cube` is the
    /// checkpoint's cube, so publish positions index its aggregate set.
    patch: Option<Arc<ScanCheckpoint>>,
    cell: Arc<TaskCell>,
}

/// Completion handle for one submitted [`CubeTask`].
#[derive(Debug)]
pub struct TaskHandle {
    cell: Arc<TaskCell>,
}

impl TaskHandle {
    /// Has the task settled (successfully or not)?
    pub fn is_done(&self) -> bool {
        !matches!(*lock(&self.cell.state), TaskState::Pending)
    }

    /// The task's result. Panics if called before the task settled — obtain
    /// completion via [`CubeScheduler::drive`] first.
    pub fn result(&self) -> Result<Arc<CubeResult>> {
        match &*lock(&self.cell.state) {
            TaskState::Pending => panic!("task result taken before completion"),
            TaskState::Done(result) => Ok(result.clone()),
            TaskState::Failed(e) => Err(e.clone()),
        }
    }

    /// [`TaskHandle::result`], consuming the handle: the unique-owner path
    /// moves the settled state out instead of cloning the `Arc`.
    pub fn into_result(self) -> Result<Arc<CubeResult>> {
        match Arc::try_unwrap(self.cell) {
            Ok(cell) => match cell.state.into_inner().unwrap_or_else(|e| e.into_inner()) {
                TaskState::Pending => panic!("task result taken before completion"),
                TaskState::Done(result) => Ok(result),
                TaskState::Failed(e) => Err(e),
            },
            Err(cell) => TaskHandle { cell }.result(),
        }
    }
}

impl CubeTask {
    /// Package a cube with the flight guards it must publish. The guards'
    /// positions index into `cube.aggregates`.
    pub fn new(
        cube: CubeQuery,
        publish: Vec<(usize, AggFunction, FlightGuard)>,
    ) -> (CubeTask, TaskHandle) {
        let cell = Arc::new(TaskCell {
            state: Mutex::new(TaskState::Pending),
        });
        (
            CubeTask {
                cube,
                publish,
                patch: None,
                cell: cell.clone(),
            },
            TaskHandle { cell },
        )
    }

    /// A patch pass: resume `checkpoint`'s fold over just the appended
    /// rows instead of cold-scanning. `cube` must be the checkpoint's cube
    /// (the patched result carries its aggregate set), and the guards'
    /// positions index into it.
    pub fn patched(
        cube: CubeQuery,
        publish: Vec<(usize, AggFunction, FlightGuard)>,
        checkpoint: Arc<ScanCheckpoint>,
    ) -> (CubeTask, TaskHandle) {
        let (mut task, handle) = CubeTask::new(cube, publish);
        task.patch = Some(checkpoint);
        (task, handle)
    }

    /// Settle with a finished result: publish every won flight first,
    /// stamped at `rows` — the snapshot watermark the wave probed at.
    fn complete(self, result: CubeResult, rows: u64) {
        let result = Arc::new(result);
        for (pos, function, guard) in self.publish {
            guard.fulfill(crate::cache::CachedSlice::new(
                result.clone(),
                pos,
                function,
                rows,
            ));
        }
        *lock(&self.cell.state) = TaskState::Done(result);
    }

    /// Settle with an error; the dropped guards poison this task's flights
    /// so waiters retry.
    fn fail(self, e: RelationalError) {
        drop(self.publish);
        *lock(&self.cell.state) = TaskState::Failed(e);
    }
}

/// One fused row pass: every member task's cube references the same table
/// scope, and one scan of the joined relation feeds all their grids. The
/// member list keeps task-submission order (see the module docs).
#[derive(Debug)]
pub struct ScanGroup {
    members: Vec<CubeTask>,
    /// Storage blocks per fixed partition (0 disables partitioning). Part
    /// of the determinism contract's inputs: the partition shape is a pure
    /// function of this span and the row count, so every pass over the
    /// same data with the same span yields bit-identical reports whether
    /// it runs in-process, fanned out, or sequentially.
    partition_blocks: usize,
}

/// The pass-formation key of one task: its table scope, plus — for patch
/// tasks — the checkpoint's prefix shape ([`ScanCheckpoint::fuse_identity`]).
/// Patches therefore fuse only with patches resuming from the very same
/// boundary/span/cap, and never with cold members (a cold member fused
/// into a patch pass would see a truncated relation; a mismatched patch
/// would merge the wrong tail). Within those bounds patches fuse like any
/// other task: a wave whose stale grids all resume from one boundary
/// scans the appended tail once, not once per grid.
type FusionKey = (Vec<usize>, Option<(usize, usize, usize)>);

/// Partition `tasks` into fusion groups: `(table scope, member indices)`
/// in first-seen scope order, members in submission order. With `fuse`
/// off every task is its own singleton group (the unfused PR 3 shape).
/// This is the **one** implementation of the pass-formation rule — both
/// [`ScanGroup::fuse`] and [`run_requests`] go through it, so the
/// documented invariants cannot silently diverge between the test surface
/// and the production path.
fn fusion_partition(tasks: &[CubeTask], fuse: bool) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut partition: Vec<(FusionKey, Vec<usize>)> = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        let key = (
            task.cube.tables_referenced(),
            task.patch.as_ref().map(|cp| cp.fuse_identity()),
        );
        match partition.iter_mut().find(|(k, _)| fuse && *k == key) {
            Some((_, members)) => members.push(i),
            None => partition.push((key, vec![i])),
        }
    }
    partition
        .into_iter()
        .map(|((scope, _), members)| (scope, members))
        .collect()
}

impl ScanGroup {
    /// Build the scan groups for one fusion partition, consuming the
    /// tasks. Each task must appear in exactly one partition entry.
    fn assemble(tasks: Vec<CubeTask>, partition: &[(Vec<usize>, Vec<usize>)]) -> Vec<ScanGroup> {
        let mut slots: Vec<Option<CubeTask>> = tasks.into_iter().map(Some).collect();
        partition
            .iter()
            .map(|(_, members)| ScanGroup {
                members: members
                    .iter()
                    .map(|&i| slots[i].take().expect("each task in one group"))
                    .collect(),
                partition_blocks: DEFAULT_PARTITION_BLOCKS,
            })
            .collect()
    }

    /// Fuse tasks that reference the same table scope into scan groups,
    /// preserving submission order both across groups (first-seen scope
    /// order) and within each group.
    pub fn fuse(tasks: Vec<CubeTask>) -> Vec<ScanGroup> {
        let partition = fusion_partition(&tasks, true);
        ScanGroup::assemble(tasks, &partition)
    }

    /// One group per task — the unfused PR 3 execution shape, kept for
    /// A/B comparison (`fuse_scans = false`) and for retry singletons.
    pub fn singletons(tasks: Vec<CubeTask>) -> Vec<ScanGroup> {
        let partition = fusion_partition(&tasks, false);
        ScanGroup::assemble(tasks, &partition)
    }

    /// Override the partition span for this pass (storage blocks per
    /// partition; 0 disables partitioning). Results are unaffected as long
    /// as every path uses the same span — it shapes the deterministic
    /// partition/merge tree, not the semantics.
    pub fn set_partition_blocks(&mut self, blocks: usize) {
        self.partition_blocks = blocks;
    }

    /// Number of member tasks fused into this pass.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Run the pass in-process — cold, or as a patch when its members
    /// carry checkpoints: validate members, scan once, publish and settle
    /// each member. A member that fails validation settles (and poisons
    /// its flights) without stopping its siblings; a failed scan fails
    /// every member. A scan that *panics* still fails
    /// every member first — settling their tasks and poisoning their
    /// flights so no waiter wedges — and hands the panic payload back for
    /// the executing thread to re-raise.
    fn execute(
        self,
        db: &Database,
        arena: Option<&GridArena>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let rows = db.watermark();
        let mut valid: Vec<CubeTask> = Vec::with_capacity(self.members.len());
        for task in self.members {
            match task.cube.validate() {
                Ok(()) => valid.push(task),
                Err(e) => task.fail(e),
            }
        }
        if valid.is_empty() {
            return None;
        }
        let options = CubeOptions {
            partition_blocks: self.partition_blocks,
            ..CubeOptions::default()
        };
        // Fusion keyed the group by checkpoint prefix shape, so its members
        // are homogeneous by construction: all cold, or all patch tasks
        // resuming from one boundary (which scan the appended partitions
        // once, and fall back to a cold pass inside `execute_patches_in`
        // if the checkpoints no longer apply).
        let cubes: Vec<&CubeQuery> = valid.iter().map(|t| &t.cube).collect();
        let prefix: Vec<&ScanCheckpoint> =
            valid.iter().filter_map(|t| t.patch.as_deref()).collect();
        debug_assert!(
            prefix.is_empty() || prefix.len() == valid.len(),
            "patch passes never mix with cold members"
        );
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if prefix.is_empty() {
                execute_fused_in(db, &cubes, &options, arena)
            } else {
                execute_patches_in(db, &prefix, &options, arena)
            }
        }));
        match outcome {
            Ok(Ok(results)) => {
                for (task, result) in valid.into_iter().zip(results) {
                    task.complete(result, rows);
                }
                None
            }
            Ok(Err(e)) => {
                for task in valid {
                    task.fail(e.clone());
                }
                None
            }
            Err(payload) => {
                let e = RelationalError::Execution("scan pass panicked mid-execution".into());
                for task in valid {
                    task.fail(e.clone());
                }
                Some(payload)
            }
        }
    }
}

/// One unit of queued scheduler work: a whole fused pass, or one
/// partition subtask of an exploded pass. Each item pins the database
/// snapshot its wave was planned against, so a shared worker pool can
/// drain passes of waves pinned at different watermarks without any pass
/// reading rows its wave never claimed.
enum WorkItem {
    Pass { group: ScanGroup, db: Arc<Database> },
    Part { job: Arc<PartitionJob>, idx: usize },
}

/// A fused pass exploded into per-partition subtasks, shared by the
/// workers that steal them. The member tasks live inside the mutex so
/// exactly one worker settles them: the first failing subtask (fails all
/// members immediately — no hung merge barrier) or the last successful
/// one (ascending-order merge).
struct PartitionJob {
    /// The snapshot this pass's wave was planned against; every subtask
    /// scans it, whatever database the stealing worker otherwise serves.
    db: Arc<Database>,
    /// Owned clones of the member cubes, in member (task-submission)
    /// order; subtasks need them while the tasks sit in the mutex.
    cubes: Vec<CubeQuery>,
    /// The members' shared single-table scope (`ScanGroup` fusion
    /// invariant), used to rebuild the identity relation per subtask.
    scope: Vec<usize>,
    /// Fixed partition ranges, ascending; `idx` indexes this.
    ranges: Vec<std::ops::Range<usize>>,
    options: CubeOptions,
    state: Mutex<PartState>,
}

struct PartState {
    /// Taken exactly once — by the first failure or the merging finisher.
    tasks: Option<Vec<CubeTask>>,
    /// Finished partition grids, indexed by partition — completion order
    /// cannot perturb the ascending merge.
    slots: Vec<Option<PartitionGrids>>,
    completed: usize,
    failed: bool,
    /// Distinct workers that ran at least one subtask; its size is the
    /// `partition_parallelism` gauge.
    workers: Vec<std::thread::ThreadId>,
}

impl PartitionJob {
    /// Run partition `idx`: scan its block range into partition-local
    /// grids, deposit them, and — as the last finisher — run the engine's
    /// fold over all of them and settle every member. Any panic (chaos
    /// hooks fire inside the scan exactly as in-process) fails all members
    /// *before* the payload is handed back for re-raising, so waiters are
    /// woken, not wedged.
    fn run_subtask(
        self: &Arc<Self>,
        idx: usize,
        arena: Option<&GridArena>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let db: &Database = &self.db;
        if lock(&self.state).failed {
            return None; // a sibling already failed the whole pass
        }
        let relation = match JoinedRelation::for_tables(db, &self.scope) {
            Ok(r) => r,
            Err(e) => {
                self.fail_all(e);
                return None;
            }
        };
        let cubes: Vec<&CubeQuery> = self.cubes.iter().collect();
        let scanned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let pass = CubePass::new(db, &relation, &cubes, &self.options, arena);
            let grids = pass.scan(self.ranges[idx].clone());
            (pass, grids)
        }));
        let (pass, grids) = match scanned {
            Ok(scanned) => scanned,
            Err(payload) => {
                self.fail_all(RelationalError::Execution(
                    "partition subtask panicked mid-scan".into(),
                ));
                return Some(payload);
            }
        };
        let (tasks, mut parts, parallelism) = {
            let mut state = lock(&self.state);
            if state.failed {
                return None;
            }
            let me = std::thread::current().id();
            if !state.workers.contains(&me) {
                state.workers.push(me);
            }
            state.slots[idx] = Some(grids);
            state.completed += 1;
            if state.completed < self.ranges.len() {
                return None;
            }
            // Every partition succeeded (a panic never increments
            // `completed`), so this worker owns the fold.
            let tasks = state
                .tasks
                .take()
                .expect("members unsettled until the fold");
            let parts = std::mem::take(&mut state.slots);
            (tasks, parts, state.workers.len() as u32)
        };
        // The shared fold asks for partitions in ascending order; the
        // index-addressed slots make completion order irrelevant.
        let folded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pass.fold(&[], parallelism, |idx, _| {
                parts[idx].take().expect("every partition deposited")
            })
        }));
        match folded {
            Ok(results) => {
                let rows = db.watermark();
                for (task, result) in tasks.into_iter().zip(results) {
                    task.complete(result, rows);
                }
                None
            }
            Err(payload) => {
                let e = RelationalError::Execution("partition merge panicked".into());
                for task in tasks {
                    task.fail(e.clone());
                }
                Some(payload)
            }
        }
    }

    /// First-failure protocol: mark the job failed and settle every member
    /// task at once (poisoning their flights, waking their waiters), even
    /// though sibling subtasks may still be queued — they drain as no-ops.
    fn fail_all(&self, e: RelationalError) {
        let tasks = {
            let mut state = lock(&self.state);
            state.failed = true;
            state.tasks.take()
        };
        if let Some(tasks) = tasks {
            for task in tasks {
                task.fail(e.clone());
            }
        }
    }
}

#[derive(Default)]
struct SchedState {
    queue: VecDeque<WorkItem>,
    closed: bool,
}

/// A shared FIFO of [`ScanGroup`]s — and the partition subtasks they
/// explode into — drained cooperatively by scoped workers.
#[derive(Default)]
pub struct CubeScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl std::fmt::Debug for CubeScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock(&self.state);
        f.debug_struct("CubeScheduler")
            .field("queued", &state.queue.len())
            .field("closed", &state.closed)
            .finish()
    }
}

impl CubeScheduler {
    pub fn new() -> CubeScheduler {
        CubeScheduler::default()
    }

    /// Enqueue a wave of fused scan groups, each pinned to `db` — the
    /// snapshot the wave was planned (and its cache stamps taken) against
    /// — and wake every worker.
    pub fn submit(&self, db: &Arc<Database>, groups: Vec<ScanGroup>) {
        if groups.is_empty() {
            return;
        }
        {
            let mut state = lock(&self.state);
            debug_assert!(!state.closed, "submit after close");
            state
                .queue
                .extend(groups.into_iter().map(|group| WorkItem::Pass {
                    group,
                    db: db.clone(),
                }));
        }
        self.cv.notify_all();
    }

    /// Execute queued passes — anyone's, not just the caller's, each
    /// against its own pinned snapshot — until every handle in `waiting`
    /// has settled. With no other workers this is exact sequential
    /// execution by the caller.
    pub fn drive(&self, arena: Option<&GridArena>, waiting: &[TaskHandle]) {
        loop {
            let item = {
                let mut state = lock(&self.state);
                loop {
                    if waiting.iter().all(TaskHandle::is_done) {
                        return;
                    }
                    if let Some(item) = state.queue.pop_front() {
                        break item;
                    }
                    // Our tasks are running on other workers: sleep until a
                    // completion or a new submission.
                    state = self
                        .cv
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            self.run_item(item, arena);
        }
    }

    /// Helper loop for workers with no document of their own: execute
    /// passes until the scheduler is closed and drained.
    pub fn run_worker(&self, arena: Option<&GridArena>) {
        self.help_until(arena, || false);
    }

    /// Helper loop for an **open-ended** stream of waves: execute queued
    /// passes; whenever the queue is empty, return if `recall()` is true
    /// (or the scheduler is closed), otherwise sleep until new work — or a
    /// [`CubeScheduler::kick`] announcing that `recall`'s answer may have
    /// changed — arrives.
    ///
    /// This is what lets a long-lived worker pool serve two queues with
    /// one blocking point: a streaming front-end parks idle workers here
    /// so they drain *other* documents' cube passes, and recalls them
    /// (flip the predicate, then `kick`) the moment a new document lands
    /// in the intake queue. `recall` is evaluated under the scheduler
    /// lock, so a kick issued after a state change can never be lost
    /// between the predicate check and the wait.
    pub fn help_until(&self, arena: Option<&GridArena>, recall: impl Fn() -> bool) {
        loop {
            let item = {
                let mut state = lock(&self.state);
                loop {
                    if let Some(item) = state.queue.pop_front() {
                        break item;
                    }
                    if state.closed || recall() {
                        return;
                    }
                    state = self
                        .cv
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            self.run_item(item, arena);
        }
    }

    /// Wake every parked worker so it re-evaluates its wait condition
    /// ([`CubeScheduler::help_until`]'s `recall`, a driver's handle set).
    /// Touches the scheduler lock before notifying, so a state change made
    /// before the kick is visible to every woken waiter.
    pub fn kick(&self) {
        drop(lock(&self.state));
        self.cv.notify_all();
    }

    /// No further submissions will arrive; drain and release the workers.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.cv.notify_all();
    }

    fn run_item(&self, item: WorkItem, arena: Option<&GridArena>) {
        let payload = match item {
            WorkItem::Pass { group, db } => match self.try_fan_out(group, &db) {
                // Exploded: the subtasks are queued; this worker loops
                // around and starts stealing them like everyone else.
                None => None,
                Some(group) => group.execute(&db, arena),
            },
            WorkItem::Part { job, idx } => job.run_subtask(idx, arena),
        };
        // Touch the scheduler lock before notifying so a driver cannot
        // check its handles, miss this completion, and sleep through the
        // wakeup (the completion happens-before our lock acquisition).
        drop(lock(&self.state));
        self.cv.notify_all();
        if let Some(payload) = payload {
            // Every member task already settled (Failed) and its waiters
            // were woken, so nobody can wedge on this pass — re-raise so
            // the executing thread observes the panic (a supervised stream
            // worker dies and is respawned; a scoped-pool caller unwinds
            // its own document).
            std::panic::resume_unwind(payload);
        }
    }

    /// Explode an eligible pass into queued per-partition subtasks.
    /// Ineligible passes come back to run in-process — over the same
    /// partitions and through the same fold, so eligibility affects only
    /// *who* scans, never any result or partition counter.
    fn try_fan_out(&self, group: ScanGroup, db: &Arc<Database>) -> Option<ScanGroup> {
        match Self::explode(group, db) {
            Err(group) => Some(group),
            Ok(parts) => {
                {
                    let mut state = lock(&self.state);
                    // Subtasks go to the *front* so the fleet finishes the
                    // exploded pass (whose waiters are already parked)
                    // before opening new passes; ascending indices keep
                    // steal order natural, though any order yields the
                    // same merge.
                    for item in parts.into_iter().rev() {
                        state.queue.push_front(item);
                    }
                }
                self.cv.notify_all();
                None
            }
        }
    }

    /// Split one pass into its partition subtask items (ascending index
    /// order), or give the group back if it isn't eligible. Eligible
    /// means: partitioning on, not a patch pass (the delta is small by
    /// construction and must fold onto the checkpointed prefix
    /// sequentially), a single-table identity scope (subtasks rebuild the
    /// relation for pennies; a materialized join would be rebuilt once per
    /// subtask), valid members, and at least two partitions.
    fn explode(
        group: ScanGroup,
        db: &Arc<Database>,
    ) -> std::result::Result<Vec<WorkItem>, ScanGroup> {
        if group.partition_blocks == 0 || group.members.is_empty() {
            return Err(group);
        }
        if group.members.iter().any(|t| t.patch.is_some()) {
            return Err(group);
        }
        let scope = group.members[0].cube.tables_referenced();
        if scope.len() != 1 {
            return Err(group);
        }
        {
            let cubes: Vec<&CubeQuery> = group.members.iter().map(|t| &t.cube).collect();
            if validate_fused(&cubes).is_err() {
                return Err(group); // in-process path settles the invalid members
            }
        }
        let Ok(relation) = JoinedRelation::for_tables(db, &scope) else {
            return Err(group);
        };
        if !relation.is_identity() {
            return Err(group);
        }
        let ranges = partition_ranges(relation.len(), group.partition_blocks);
        if ranges.len() < 2 {
            return Err(group);
        }
        let slots = ranges.iter().map(|_| None).collect();
        let job = Arc::new(PartitionJob {
            db: db.clone(),
            cubes: group.members.iter().map(|t| t.cube.clone()).collect(),
            scope,
            ranges,
            options: CubeOptions {
                partition_blocks: group.partition_blocks,
                ..CubeOptions::default()
            },
            state: Mutex::new(PartState {
                tasks: Some(group.members),
                slots,
                completed: 0,
                failed: false,
                workers: Vec::new(),
            }),
        });
        Ok((0..job.ranges.len())
            .map(|idx| WorkItem::Part {
                job: job.clone(),
                idx,
            })
            .collect())
    }

    /// Explode every queued pass in place, preserving submission order,
    /// and return the resulting work-item count. Only sound while the
    /// caller still owns the scheduler exclusively (no workers spawned
    /// yet): the queue is drained and rebuilt non-atomically.
    fn fan_out_queued(&self) -> usize {
        let items: Vec<WorkItem> = {
            let mut state = lock(&self.state);
            state.queue.drain(..).collect()
        };
        let mut out = VecDeque::with_capacity(items.len());
        for item in items {
            match item {
                WorkItem::Pass { group, db } => match Self::explode(group, &db) {
                    Ok(parts) => out.extend(parts),
                    Err(group) => out.push_back(WorkItem::Pass { group, db }),
                },
                part => out.push_back(part),
            }
        }
        let len = out.len();
        {
            let mut state = lock(&self.state);
            debug_assert!(state.queue.is_empty(), "exclusive caller contract");
            state.queue = out;
        }
        self.cv.notify_all();
        len
    }
}

/// Execute one wave of scan groups with up to `threads` workers (the
/// caller included), returning when every task has finished. The wave
/// shares the caller's [`GridArena`]; the pool is scoped, so borrows stay
/// on the stack. Used by solo (non-batched) evaluation, where no
/// long-lived scheduler exists.
pub fn run_wave(
    db: &Arc<Database>,
    arena: Option<&GridArena>,
    groups: Vec<ScanGroup>,
    handles: &[TaskHandle],
    threads: usize,
) {
    if groups.is_empty() {
        return;
    }
    let scheduler = CubeScheduler::new();
    scheduler.submit(db, groups);
    // Pre-explode eligible passes into partition subtasks *before* closing
    // and sizing the pool: once the queue is closed, a helper that finds
    // it momentarily empty exits for good, so a single fused pass over a
    // large table must already be split when the helpers first look — and
    // the helper count must reflect subtasks, not whole passes.
    let items = scheduler.fan_out_queued();
    let helpers = threads.max(1).min(items.max(1)) - 1;
    scheduler.close();
    if helpers == 0 {
        scheduler.drive(arena, handles);
        return;
    }
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            let scheduler = &scheduler;
            scope.spawn(move || scheduler.run_worker(arena));
        }
        scheduler.drive(arena, handles);
    });
}

// ---------------------------------------------------------------------------
// The wave-orchestration layer
// ---------------------------------------------------------------------------

/// How one cube group's missing aggregates are bundled into [`CubeTask`]s.
/// Bundling never changes results — each aggregate's cube slice is
/// computed identically whatever it shares a scan with — only how task
/// identities (and therefore single-flight cache keys' execution units)
/// are cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskBundling {
    /// One task per (group, wave): everything the wave discovers missing
    /// for a cube group is computed by a single task. Fewest tasks, but
    /// the task set depends on request order, so concurrent runs may
    /// bundle — and count — tasks differently.
    #[default]
    Wave,
    /// One task per (group, aggregation column). Callers always request a
    /// column's *complete* typing-valid function set
    /// (`CandidateSet::enumerate` in `agg-core`), so these bundles are
    /// canonical: every requester of any document asks for exactly the
    /// same keys, and the executed-task set is independent of scheduling.
    /// `BatchVerifier` uses this at every worker count, which is what
    /// `bench_pipeline`'s `violations()` judges (`tasks_executed` equal
    /// at every worker count).
    Canonical,
}

/// One cube group's worth of aggregate requests in a wave: the cube's
/// dimensions and literal coverage, plus every `(function, column)` the
/// wave needs from it.
#[derive(Debug, Clone, Copy)]
pub struct WaveRequest<'a> {
    pub dims: &'a [ColumnRef],
    pub relevant: &'a [Literals],
    pub aggs: &'a [(AggFunction, AggColumn)],
}

/// Where a wave's tasks execute and how they are cut and fused.
#[derive(Debug, Clone, Copy)]
pub struct WaveExec<'a> {
    /// Shared result cache; `None` evaluates uncached (every aggregate
    /// becomes a task, nothing is published).
    pub cache: Option<&'a EvalCache>,
    /// Dense-grid buffer pool for this caller's passes.
    pub arena: Option<&'a GridArena>,
    /// Shared scheduler (batch mode). `None` runs each wave on its own
    /// scoped pool of `threads` workers.
    pub scheduler: Option<&'a CubeScheduler>,
    /// Scoped-pool width when no shared scheduler is attached.
    pub threads: usize,
    /// How missing aggregates bundle into tasks.
    pub bundling: TaskBundling,
    /// Fuse same-scope tasks into shared scan passes. `false` reproduces
    /// the unfused one-pass-per-task shape (A/B and ablation path).
    pub fuse: bool,
    /// Storage blocks per fixed scan partition (0 disables partitioning).
    /// Shapes the deterministic partition/merge tree of every pass this
    /// wave runs — including inline poison-retry singletons — so all of a
    /// run's scans share one contract.
    pub partition_blocks: usize,
}

/// The scan-plane counters that travel unchanged from [`run_requests`] to
/// the wire: declared here once, embedded by [`WaveStats`] and by every
/// stats struct above it (`EvalStats`, `RunStats`, `StreamStats` in
/// `agg-core`), and folded hop to hop by [`ScanCounters::merge`].
/// `docs/operations.md` tabulates them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Cube tasks executed, poison-retry takeovers included.
    pub tasks_executed: u64,
    /// Fused row passes executed: same-scope tasks of one wave share a
    /// single scan ([`ScanGroup`]), so this is the number of physical
    /// table scans — compare with `tasks_executed` for the fusion factor.
    pub scan_passes: u64,
    /// Real rows read by those passes (each pass counts its relation
    /// length once, however many member grids it feeds).
    pub rows_scanned: u64,
    /// Poisoned-flight wake-ups absorbed: each one re-probes the cache
    /// (bounded per aggregate, see [`MAX_POISON_RETRIES`]) before possibly
    /// computing the key inline. 0 in fault-free runs.
    pub poison_retries: u64,
    /// Compressed storage blocks decoded, summed over member grids (each
    /// member decodes its own dimension blocks; 0 on plain columns).
    pub blocks_scanned: u64,
    /// Blocks bulk-applied from zone-map metadata without decoding.
    pub blocks_skipped: u64,
    /// Encoded payload bytes read by the decoded blocks.
    pub bytes_scanned: u64,
    /// Fixed partitions scanned (each partitioned pass counts its
    /// partition count once, like `rows_scanned`; a single-partition pass
    /// counts 0). Worker-count independent — `bench_pipeline`'s
    /// `violations()` pins it across its `partitioned_*` variants.
    pub partitions_scanned: u64,
    /// Partition-grid merges performed, summed per member task (each
    /// member's grids really fold `partitions − 1` times). Worker-count
    /// independent.
    pub partition_merges: u64,
    /// Max distinct workers observed on any one partitioned pass — a
    /// gauge, the only counter here that may legitimately vary run to run,
    /// which is why it stays out of report fingerprints.
    pub partition_parallelism: u32,
    /// Cached grids patched forward from a checkpoint over just the
    /// appended rows ([`crate::cube::execute_patches_in`]) instead of
    /// cold-rescanning the corpus — one per patch pass.
    pub grids_patched: u64,
    /// Appended-tail rows scanned by those patch passes (a subset of
    /// `rows_scanned`): the whole cost of incremental re-verification,
    /// versus the full-corpus rows a cold rescan would have read.
    pub delta_rows_scanned: u64,
}

impl ScanCounters {
    /// Fold `other` in: every counter sums; the parallelism gauge takes
    /// the max.
    pub fn merge(&mut self, other: &ScanCounters) {
        self.tasks_executed += other.tasks_executed;
        self.scan_passes += other.scan_passes;
        self.rows_scanned += other.rows_scanned;
        self.poison_retries += other.poison_retries;
        self.blocks_scanned += other.blocks_scanned;
        self.blocks_skipped += other.blocks_skipped;
        self.bytes_scanned += other.bytes_scanned;
        self.partitions_scanned += other.partitions_scanned;
        self.partition_merges += other.partition_merges;
        self.partition_parallelism = self.partition_parallelism.max(other.partition_parallelism);
        self.grids_patched += other.grids_patched;
        self.delta_rows_scanned += other.delta_rows_scanned;
    }

    /// Average member tasks per fused pass (1.0 when nothing fused; 0.0
    /// when nothing executed).
    pub fn fused_tasks_per_pass(&self) -> f64 {
        if self.scan_passes == 0 {
            0.0
        } else {
            self.tasks_executed as f64 / self.scan_passes as f64
        }
    }

    /// Charge one executed member task. Block and merge counters are per
    /// member grid (each member decodes its own dimension blocks and folds
    /// its own partition grids), so they sum per task.
    fn charge_member(&mut self, cube: &CubeStats) {
        self.tasks_executed += 1;
        self.blocks_scanned += cube.blocks_scanned;
        self.blocks_skipped += cube.blocks_skipped;
        self.bytes_scanned += cube.bytes_scanned;
        self.partition_merges += cube.partition_merges;
        self.partition_parallelism = self.partition_parallelism.max(cube.partition_parallelism);
        self.grids_patched += cube.grids_patched;
    }

    /// Charge one physical pass from any one member's stats: every member
    /// of a pass scans the same relation (and the same partitions of it),
    /// so rows, partitions and — for patch passes — the shared appended
    /// tail count once per pass.
    fn charge_pass(&mut self, cube: &CubeStats) {
        self.scan_passes += 1;
        self.rows_scanned += cube.rows_scanned;
        self.partitions_scanned += cube.partitions_scanned;
        self.delta_rows_scanned += cube.delta_rows_scanned;
    }
}

/// Scheduling counters for one wave: the cache ledger in the orchestration
/// layer's own units, plus the shared [`ScanCounters`] (readable as plain
/// fields through `Deref`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Aggregate keys served from resident cache slices.
    pub key_hits: u64,
    /// Keys served by joining another worker's in-flight computation (net
    /// of poisoned flights this wave ended up computing itself).
    pub key_waits: u64,
    pub scan: ScanCounters,
}

impl std::ops::Deref for WaveStats {
    type Target = ScanCounters;
    fn deref(&self) -> &ScanCounters {
        &self.scan
    }
}

/// One wave's finished slices: `slices[request][aggregate]`, aligned with
/// the input request list.
#[derive(Debug)]
pub struct WaveOutcome {
    pub slices: Vec<Vec<CachedSlice>>,
    pub stats: WaveStats,
}

/// A pending aggregate: its index within the request plus the
/// single-flight guard won for it (`None` when evaluation runs uncached).
type MissingAgg = (usize, Option<FlightGuard>);

/// Chaos hook point for a wave-probe guard: the installed fault plan may
/// drop it here — poisoning the flight for every waiter that joined it —
/// while the wave still computes the aggregate for itself, unpublished.
/// That is the "publisher crashed between claim and publish" shape the
/// bounded poison-retry path must absorb. Without an active plan (and in
/// non-chaos builds) this is the identity.
fn keep_guard(guard: FlightGuard) -> Option<FlightGuard> {
    #[cfg(any(test, feature = "chaos"))]
    if crate::chaos::inject_wave_guard_drop() {
        drop(guard);
        return None;
    }
    Some(guard)
}

/// How one aggregate slice arrives at collection time.
enum Slot {
    /// Served from the cache at probe time.
    Ready(CachedSlice),
    /// `(task index, aggregate position within the task's cube)`.
    FromTask(usize, usize),
    /// Another worker is computing it; block after our own tasks ran.
    Waiting(FlightWaiter),
}

/// Run one scheduling wave end to end: atomically probe the cache for
/// every request (claiming single-flight guards), bundle the missing
/// aggregates into [`CubeTask`]s, fuse same-scope tasks into
/// [`ScanGroup`]s, execute them (on the shared scheduler or a scoped
/// pool), then collect — own tasks first, foreign flights after, with
/// poisoned flights retried inline. This is the **only** implementation of
/// the probe/bundle/wave/collect protocol; `core::evaluate` is its client.
pub fn run_requests(
    db: &Arc<Database>,
    exec: &WaveExec<'_>,
    requests: &[WaveRequest<'_>],
) -> Result<WaveOutcome> {
    let mut stats = WaveStats::default();
    // The wave's snapshot stamps: keys embed the structural version (a
    // mutation makes every older entry unreachable), probes and publishes
    // match on the watermark exactly.
    let version = db.version();
    let rows = db.watermark();

    // ---- Phase 1: one atomic probe for the whole wave. No blocking here
    // — waits are consumed only after our tasks are submitted, so
    // concurrent waves cannot deadlock on each other, and the all-or-
    // nothing claim keeps pass formation worker-count independent.
    let mut slots: Vec<Vec<Option<Slot>>> = requests
        .iter()
        .map(|r| {
            let mut v: Vec<Option<Slot>> = Vec::with_capacity(r.aggs.len());
            v.resize_with(r.aggs.len(), || None);
            v
        })
        .collect();
    let mut missing: Vec<Vec<MissingAgg>> = Vec::with_capacity(requests.len());
    match exec.cache {
        Some(cache) => {
            let key_store: Vec<Vec<CacheKey>> = requests
                .iter()
                .map(|r| CacheKey::for_cube(r.aggs, r.dims, version))
                .collect();
            let flight_requests: Vec<FlightRequest<'_>> = requests
                .iter()
                .zip(&key_store)
                .map(|(r, keys)| FlightRequest {
                    keys,
                    needed: r.relevant,
                    rows,
                })
                .collect();
            for (request_slots, flights) in slots
                .iter_mut()
                .zip(cache.flight_batch_many(&flight_requests))
            {
                let mut request_missing = Vec::new();
                for (i, flight) in flights.into_iter().enumerate() {
                    match flight {
                        Flight::Hit(s) => {
                            stats.key_hits += 1;
                            request_slots[i] = Some(Slot::Ready(s));
                        }
                        Flight::Compute(guard) => request_missing.push((i, keep_guard(guard))),
                        Flight::Wait(w) => {
                            stats.key_waits += 1;
                            request_slots[i] = Some(Slot::Waiting(w));
                        }
                    }
                }
                missing.push(request_missing);
            }
        }
        None => {
            for request in requests {
                missing.push((0..request.aggs.len()).map(|i| (i, None)).collect());
            }
        }
    }

    // ---- Phase 2: bundle the missing aggregates into tasks.
    let mut tasks: Vec<CubeTask> = Vec::new();
    let mut handles: Vec<TaskHandle> = Vec::new();
    for ((request, request_missing), request_slots) in
        requests.iter().zip(missing).zip(slots.iter_mut())
    {
        if request_missing.is_empty() {
            continue;
        }
        // Bundles are keyed by (column, patch class): aggregates whose
        // fold is resumable from a checkpoint (`patchable_function`) never
        // share a cube with set/list-state aggregates (`CountDistinct`,
        // `Median`), whose presence would make the whole cube ineligible
        // for checkpoint capture. The split never changes pass formation —
        // both bundles share the request's table scope, so fusion folds
        // them into the same physical row pass.
        let mut bundles: Vec<((AggColumn, bool), Vec<MissingAgg>)> = Vec::new();
        // Guards that found a patch base become patch passes instead of
        // cold-scan bundles, grouped by the checkpoint they resume from:
        // keys whose stale slices share one underlying cube patch it once.
        type PatchMember = (usize, usize, FlightGuard);
        let mut patches: Vec<(Arc<ScanCheckpoint>, Vec<PatchMember>)> = Vec::new();
        for entry in request_missing {
            let patched = entry.1.as_ref().and_then(|g| {
                let cp = g.patch_base()?.clone();
                let (f, c) = request.aggs[entry.0];
                // The base came from a stale slice under this very key, so
                // the position lookup always succeeds — but fall back to a
                // cold bundle rather than trust that invariant blindly.
                let pos = cp
                    .cube()
                    .aggregates
                    .iter()
                    .position(|&(ff, cc)| ff == f && cc == c)?;
                Some((cp, pos))
            });
            if let Some((cp, pos)) = patched {
                let guard = entry.1.expect("patch bases only come from guards");
                match patches.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &cp)) {
                    Some((_, members)) => members.push((entry.0, pos, guard)),
                    None => patches.push((cp, vec![(entry.0, pos, guard)])),
                }
                continue;
            }
            let col = match exec.bundling {
                TaskBundling::Wave => AggColumn::Star,
                TaskBundling::Canonical => request.aggs[entry.0].1,
            };
            let class = (col, patchable_function(request.aggs[entry.0].0));
            match bundles.iter_mut().find(|(c, _)| *c == class) {
                Some((_, members)) => members.push(entry),
                None => bundles.push((class, vec![entry])),
            }
        }
        for (checkpoint, members) in patches {
            let cube = checkpoint.cube().clone();
            let mut publish = Vec::with_capacity(members.len());
            let mut served: Vec<(usize, usize)> = Vec::with_capacity(members.len());
            for (i, pos, guard) in members {
                publish.push((pos, request.aggs[i].0, guard));
                served.push((i, pos));
            }
            let (task, handle) = CubeTask::patched(cube, publish, checkpoint);
            let task_idx = tasks.len();
            tasks.push(task);
            handles.push(handle);
            for (i, pos) in served {
                request_slots[i] = Some(Slot::FromTask(task_idx, pos));
            }
        }
        for (_, mut members) in bundles {
            let cube = CubeQuery {
                dims: request.dims.to_vec(),
                relevant: request.relevant.to_vec(),
                aggregates: members.iter().map(|&(i, _)| request.aggs[i]).collect(),
            };
            let publish = members
                .iter_mut()
                .enumerate()
                .filter_map(|(pos, (i, guard))| guard.take().map(|g| (pos, request.aggs[*i].0, g)))
                .collect();
            let (task, handle) = CubeTask::new(cube, publish);
            let task_idx = tasks.len();
            tasks.push(task);
            handles.push(handle);
            for (pos, (i, _)) in members.iter().enumerate() {
                request_slots[*i] = Some(Slot::FromTask(task_idx, pos));
            }
        }
    }

    // ---- Phase 3: fuse by table scope (planning-time pass formation) and
    // execute the wave. The index partition is kept for the pass-level
    // stats attribution in Phase 4.
    let pass_members = fusion_partition(&tasks, exec.fuse);
    let mut groups = ScanGroup::assemble(tasks, &pass_members);
    for group in &mut groups {
        group.set_partition_blocks(exec.partition_blocks);
    }
    match exec.scheduler {
        Some(scheduler) if !groups.is_empty() => {
            scheduler.submit(db, groups);
            scheduler.drive(exec.arena, &handles);
        }
        _ => run_wave(db, exec.arena, groups, &handles, exec.threads),
    }

    // ---- Phase 4: collect own tasks, then wait out foreign flights
    // (their tasks are submitted, so they make progress; poisoned flights
    // are retried inline).
    let mut task_results: Vec<Arc<CubeResult>> = Vec::with_capacity(handles.len());
    for handle in handles {
        let result = handle.into_result()?;
        stats.scan.charge_member(&result.stats);
        task_results.push(result);
    }
    for (_, members) in &pass_members {
        stats.scan.charge_pass(&task_results[members[0]].stats);
    }
    let mut resolved: Vec<Vec<CachedSlice>> = Vec::with_capacity(requests.len());
    for (request, request_slots) in requests.iter().zip(slots) {
        let mut request_slices = Vec::with_capacity(request_slots.len());
        for (i, slot) in request_slots.into_iter().enumerate() {
            let slice = match slot.expect("slot filled") {
                Slot::Ready(s) => s,
                Slot::FromTask(task_idx, pos) => {
                    CachedSlice::new(task_results[task_idx].clone(), pos, request.aggs[i].0, rows)
                }
                Slot::Waiting(w) => resolve_wait(db, exec, request, i, w, &mut stats)?,
            };
            request_slices.push(slice);
        }
        resolved.push(request_slices);
    }

    Ok(WaveOutcome {
        slices: resolved,
        stats,
    })
}

/// Maximum poisoned-flight wake-ups one aggregate wait absorbs before the
/// wave gives up with [`RelationalError::Execution`]. Each retry re-probes
/// the cache and may end with this caller computing the key itself, so a
/// transient failure resolves in one round; only a computation that keeps
/// dying (or a fault plan that poisons every fresh flight) exhausts the
/// budget — previously such a storm livelocked every waiter forever.
pub const MAX_POISON_RETRIES: u64 = 8;

/// Wait out another worker's in-flight cube for `request.aggs[agg_idx]`;
/// on poison, re-probe (bounded by [`MAX_POISON_RETRIES`]) and compute
/// inline if the retry wins the guard.
fn resolve_wait(
    db: &Arc<Database>,
    exec: &WaveExec<'_>,
    request: &WaveRequest<'_>,
    agg_idx: usize,
    mut waiter: FlightWaiter,
    stats: &mut WaveStats,
) -> Result<CachedSlice> {
    let mut retries = 0u64;
    loop {
        if let Some(slice) = waiter.wait() {
            return Ok(slice);
        }
        let (f, c) = request.aggs[agg_idx];
        let key = CacheKey::new(f, c, request.dims.to_vec(), db.version());
        let rows = db.watermark();
        let cache = exec.cache.expect("waits only exist with a cache");
        retries += 1;
        stats.scan.poison_retries += 1;
        cache.note_poison_retry(&key);
        if retries > MAX_POISON_RETRIES {
            return Err(RelationalError::Execution(format!(
                "single-flight for {f:?} aggregate poisoned {retries} times; \
                 retry budget exhausted"
            )));
        }
        match cache.flight(&key, request.relevant, rows) {
            Flight::Hit(s) => return Ok(s),
            Flight::Wait(w) => {
                // Still deduped — just joining the taker-over's flight.
                stats.key_waits += 1;
                waiter = w;
            }
            Flight::Compute(guard) => {
                // The request was booked as a wait when the original probe
                // joined the now-poisoned flight; it ends up executed
                // after all, so move it back across the ledger before
                // counting the execution.
                stats.key_waits -= 1;
                // A retry won after an append may find a patch base the
                // original probe did not; the inline takeover patches
                // exactly like a first-probe win would.
                let patched = guard.patch_base().and_then(|cp| {
                    let pos = cp
                        .cube()
                        .aggregates
                        .iter()
                        .position(|&(ff, cc)| ff == f && cc == c)?;
                    Some((cp.clone(), pos))
                });
                let (task, handle, pos) = match patched {
                    Some((cp, pos)) => {
                        let (task, handle) =
                            CubeTask::patched(cp.cube().clone(), vec![(pos, f, guard)], cp);
                        (task, handle, pos)
                    }
                    None => {
                        let cube = CubeQuery {
                            dims: request.dims.to_vec(),
                            relevant: request.relevant.to_vec(),
                            aggregates: vec![request.aggs[agg_idx]],
                        };
                        let (task, handle) = CubeTask::new(cube, vec![(0, f, guard)]);
                        (task, handle, 0)
                    }
                };
                let mut groups = ScanGroup::singletons(vec![task]);
                for group in &mut groups {
                    // Same span as the wave's own passes: the retried key's
                    // result must be bit-identical to what the poisoned
                    // publisher would have produced.
                    group.set_partition_blocks(exec.partition_blocks);
                }
                run_wave(db, exec.arena, groups, std::slice::from_ref(&handle), 1);
                let result = handle.into_result()?;
                stats.scan.charge_member(&result.stats);
                stats.scan.charge_pass(&result.stats);
                return Ok(CachedSlice::new(result, pos, f, rows));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheKey, EvalCache, Flight};
    use crate::database::ColumnRef;
    use crate::query::AggColumn;
    use crate::table::Table;
    use crate::value::Value;

    fn db() -> Arc<Database> {
        let t = Table::from_columns(
            "t",
            vec![("cat", vec!["a".into(), "a".into(), "b".into(), "c".into()])],
        )
        .unwrap();
        let mut db = Database::new("d");
        db.add_table(t);
        Arc::new(db)
    }

    fn count_cube(db: &Database, literals: Vec<Value>) -> CubeQuery {
        CubeQuery {
            dims: vec![db.resolve("t", "cat").unwrap()],
            relevant: vec![literals.into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        }
    }

    #[test]
    fn wave_executes_all_tasks_and_results_match_direct_execution() {
        let db = db();
        for threads in [1usize, 4] {
            for fused in [false, true] {
                let (tasks, handles): (Vec<_>, Vec<_>) = ["a", "b", "c"]
                    .iter()
                    .map(|lit| CubeTask::new(count_cube(&db, vec![(*lit).into()]), Vec::new()))
                    .unzip();
                let groups = if fused {
                    let groups = ScanGroup::fuse(tasks);
                    // One shared scope: all three tasks fuse into one pass.
                    assert_eq!(groups.len(), 1);
                    assert_eq!(groups[0].len(), 3);
                    groups
                } else {
                    ScanGroup::singletons(tasks)
                };
                run_wave(&db, None, groups, &handles, threads);
                for (lit, handle) in ["a", "b", "c"].iter().zip(&handles) {
                    assert!(handle.is_done());
                    let result = handle.result().unwrap();
                    let direct = count_cube(&db, vec![(*lit).into()]).execute(&db).unwrap();
                    assert_eq!(
                        result.get_count(&[crate::cube::DimSel::Literal(0)], 0),
                        direct.get_count(&[crate::cube::DimSel::Literal(0)], 0),
                        "[{threads}t fused={fused}] literal {lit}"
                    );
                }
            }
        }
    }

    #[test]
    fn failed_member_poisons_its_flights_without_stopping_siblings() {
        let db = db();
        let cache = EvalCache::new();
        let key = CacheKey::new(
            AggFunction::Percentage,
            AggColumn::Star,
            vec![ColumnRef::new(0, 0)],
            0,
        );
        let needed = vec![vec![Value::from("a")].into()];
        let guard = match cache.flight(&key, &needed, db.watermark()) {
            Flight::Compute(g) => g,
            other => panic!("expected Compute, got {other:?}"),
        };
        let waiter = match cache.flight(&key, &needed, db.watermark()) {
            Flight::Wait(w) => w,
            other => panic!("expected Wait, got {other:?}"),
        };
        // An invalid cube (ratio aggregate) fails validation; its sibling
        // in the same fused pass must still complete.
        let bad = CubeQuery {
            dims: vec![db.resolve("t", "cat").unwrap()],
            relevant: vec![vec!["a".into()].into()],
            aggregates: vec![(AggFunction::Percentage, AggColumn::Star)],
        };
        let (bad_task, bad_handle) = CubeTask::new(bad, vec![(0, AggFunction::Percentage, guard)]);
        let (good_task, good_handle) = CubeTask::new(count_cube(&db, vec!["a".into()]), Vec::new());
        let groups = ScanGroup::fuse(vec![bad_task, good_task]);
        let handles = [bad_handle, good_handle];
        run_wave(&db, None, groups, &handles, 1);
        assert!(handles[0].result().is_err());
        assert!(waiter.wait().is_none(), "flight poisoned by the failure");
        assert_eq!(
            handles[1]
                .result()
                .unwrap()
                .get_count(&[crate::cube::DimSel::Literal(0)], 0),
            2.0
        );
    }

    #[test]
    fn shared_scheduler_worker_drains_after_close() {
        let db = db();
        let scheduler = CubeScheduler::new();
        let (task, handle) = CubeTask::new(count_cube(&db, vec!["a".into()]), Vec::new());
        std::thread::scope(|scope| {
            let (scheduler, db) = (&scheduler, &db);
            let worker = scope.spawn(move || scheduler.run_worker(None));
            scheduler.submit(db, ScanGroup::singletons(vec![task]));
            scheduler.drive(None, std::slice::from_ref(&handle));
            scheduler.close();
            worker.join().unwrap();
        });
        assert_eq!(
            handle
                .into_result()
                .unwrap()
                .get_count(&[crate::cube::DimSel::Literal(0)], 0),
            2.0
        );
    }

    /// `help_until` must execute queued passes, park while the queue is
    /// empty, and return — without the scheduler being closed — once its
    /// recall predicate flips and a `kick` arrives.
    #[test]
    fn help_until_drains_then_returns_on_recall() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let db = db();
        let scheduler = CubeScheduler::new();
        let recall = AtomicBool::new(false);
        let (task, handle) = CubeTask::new(count_cube(&db, vec!["a".into()]), Vec::new());
        scheduler.submit(&db, ScanGroup::singletons(vec![task]));
        std::thread::scope(|scope| {
            let (scheduler, recall) = (&scheduler, &recall);
            let helper =
                scope.spawn(move || scheduler.help_until(None, || recall.load(Ordering::Acquire)));
            // The queued pass is executed even though recall is false.
            scheduler.drive(None, std::slice::from_ref(&handle));
            assert!(handle.is_done());
            // The helper is now parked on an empty queue; recall it.
            recall.store(true, Ordering::Release);
            scheduler.kick();
            helper.join().unwrap();
        });
        assert_eq!(
            handle
                .into_result()
                .unwrap()
                .get_count(&[crate::cube::DimSel::Literal(0)], 0),
            2.0
        );
        // The scheduler was never closed: new submissions still run.
        let (task, handle) = CubeTask::new(count_cube(&db, vec!["b".into()]), Vec::new());
        scheduler.submit(&db, ScanGroup::singletons(vec![task]));
        scheduler.drive(None, std::slice::from_ref(&handle));
        assert!(handle.is_done());
    }

    /// A kick issued after the predicate flips can never be lost: the
    /// recall check runs under the scheduler lock, and `kick` touches that
    /// lock before notifying. Hammer the park/recall cycle to exercise the
    /// race window.
    #[test]
    fn help_until_kick_has_no_lost_wakeup() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let scheduler = CubeScheduler::new();
        let epoch = AtomicUsize::new(0);
        for round in 1..=50usize {
            std::thread::scope(|scope| {
                let (scheduler, epoch) = (&scheduler, &epoch);
                let helper = scope.spawn(move || {
                    scheduler.help_until(None, || epoch.load(Ordering::Acquire) >= round)
                });
                epoch.store(round, Ordering::Release);
                scheduler.kick();
                helper.join().unwrap();
            });
        }
    }

    fn wave_request<'a>(
        dims: &'a [ColumnRef],
        relevant: &'a [Literals],
        aggs: &'a [(AggFunction, AggColumn)],
    ) -> WaveRequest<'a> {
        WaveRequest {
            dims,
            relevant,
            aggs,
        }
    }

    /// The orchestration layer end to end over a shared cache: first wave
    /// computes (fused into one pass), second wave is all hits.
    #[test]
    fn run_requests_fuses_then_serves_from_cache() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let cache = EvalCache::new();
        let dims = [cat];
        let relevant = vec![vec![Value::from("a"), Value::from("b")].into()];
        let aggs_count = [(AggFunction::Count, AggColumn::Star)];
        let aggs_distinct = [(AggFunction::CountDistinct, AggColumn::Column(cat))];
        let requests = [
            wave_request(&dims, &relevant, &aggs_count),
            wave_request(&dims, &relevant, &aggs_distinct),
        ];
        let exec = WaveExec {
            cache: Some(&cache),
            arena: None,
            scheduler: None,
            threads: 1,
            bundling: TaskBundling::Canonical,
            fuse: true,
            partition_blocks: DEFAULT_PARTITION_BLOCKS,
        };
        let first = run_requests(&db, &exec, &requests).unwrap();
        assert_eq!(first.stats.tasks_executed, 2, "one task per request");
        assert_eq!(first.stats.scan_passes, 1, "both tasks share one pass");
        assert_eq!(first.stats.rows_scanned, 4, "the pass reads the table once");
        assert_eq!(first.stats.key_hits, 0);
        assert_eq!(
            first.slices[0][0].lookup(&[Some("a".into())]),
            Ok(Some(2.0))
        );

        let second = run_requests(&db, &exec, &requests).unwrap();
        assert_eq!(second.stats.tasks_executed, 0);
        assert_eq!(second.stats.scan_passes, 0);
        assert_eq!(second.stats.key_hits, 2);
        assert_eq!(
            second.slices[1][0].lookup(&[None]),
            first.slices[1][0].lookup(&[None])
        );
    }

    /// The delta-aware re-verify path end to end: a wave at a newer
    /// watermark never hits the stale grid, wins the flight with a patch
    /// base, executes ONE patch pass over just the appended partitions,
    /// and publishes at the new stamp — with values identical to a cold
    /// rescan of the whole table.
    #[test]
    fn run_requests_patches_stale_grids_after_appends() {
        use crate::block::BLOCK_ROWS;
        let n1 = 2 * BLOCK_ROWS + 100;
        let cats: Vec<Value> = (0..n1).map(|i| ["a", "b"][i % 2].into()).collect();
        let t = Table::from_columns("t", vec![("cat", cats)]).unwrap();
        let mut db = Database::new("d");
        db.add_table(t);
        let cat = db.resolve("t", "cat").unwrap();
        let db1 = Arc::new(db);
        let cache = EvalCache::new();
        let dims = [cat];
        let relevant = vec![vec![Value::from("a")].into()];
        let aggs = [(AggFunction::Count, AggColumn::Star)];
        let exec = WaveExec {
            cache: Some(&cache),
            arena: None,
            scheduler: None,
            threads: 1,
            bundling: TaskBundling::Canonical,
            fuse: true,
            partition_blocks: 1,
        };
        let requests = [wave_request(&dims, &relevant, &aggs)];
        let first = run_requests(&db1, &exec, &requests).unwrap();
        assert_eq!(first.stats.grids_patched, 0);
        assert_eq!(first.stats.rows_scanned, n1 as u64);
        assert_eq!(
            first.slices[0][0].lookup(&[Some("a".into())]),
            Ok(Some((n1 / 2) as f64))
        );

        // Append a small batch; the next wave runs on a new snapshot.
        let mut db2 = (*db1).clone();
        let batch: Vec<Vec<Value>> = (0..50).map(|_| vec!["a".into()]).collect();
        db2.append_rows("t", &batch).unwrap();
        let db2 = Arc::new(db2);
        let second = run_requests(&db2, &exec, &requests).unwrap();
        assert_eq!(second.stats.key_hits, 0, "stale stamps never hit");
        assert_eq!(second.stats.grids_patched, 1, "patched, not rescanned");
        assert_eq!(second.stats.rows_scanned, second.stats.delta_rows_scanned);
        assert!(
            second.stats.delta_rows_scanned < n1 as u64 / 2,
            "the patch scans only the appended tail ({} rows), not the corpus",
            second.stats.delta_rows_scanned
        );
        assert_eq!(
            second.slices[0][0].lookup(&[Some("a".into())]),
            Ok(Some((n1 / 2 + 50) as f64)),
            "patched value equals a cold rescan's"
        );

        // Same watermark again: the patched slice is a plain hit.
        let third = run_requests(&db2, &exec, &requests).unwrap();
        assert_eq!(third.stats.key_hits, 1);
        assert_eq!(third.stats.tasks_executed, 0);
    }

    /// Unfused execution is the PR 3 shape: one pass per task, rows
    /// charged per task.
    #[test]
    fn run_requests_unfused_pays_one_pass_per_task() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let dims = [cat];
        let relevant = vec![vec![Value::from("a")].into()];
        let aggs = [
            (AggFunction::Count, AggColumn::Star),
            (AggFunction::CountDistinct, AggColumn::Column(cat)),
        ];
        let requests = [wave_request(&dims, &relevant, &aggs)];
        for (fuse, passes, rows) in [(true, 1u64, 4u64), (false, 2, 8)] {
            let exec = WaveExec {
                cache: None,
                arena: None,
                scheduler: None,
                threads: 1,
                bundling: TaskBundling::Canonical,
                fuse,
                partition_blocks: DEFAULT_PARTITION_BLOCKS,
            };
            let outcome = run_requests(&db, &exec, &requests).unwrap();
            assert_eq!(outcome.stats.tasks_executed, 2, "fuse={fuse}");
            assert_eq!(outcome.stats.scan_passes, passes, "fuse={fuse}");
            assert_eq!(outcome.stats.rows_scanned, rows, "fuse={fuse}");
        }
    }

    /// 8 workers hammering one shared scheduler + cache with identical
    /// fusable waves: group formation under contention must neither
    /// duplicate nor lose an execution — every worker sees the same
    /// slices, and the union of all workers' passes computes each key
    /// exactly once.
    #[test]
    fn concurrent_group_formation_single_flight_stress() {
        let db = db();
        let cat = db.resolve("t", "cat").unwrap();
        let workers = 8usize;
        let cache = EvalCache::new();
        let scheduler = CubeScheduler::new();
        let dims = [cat];
        let relevant = vec![vec![Value::from("a"), Value::from("b"), Value::from("c")].into()];
        let aggs = [
            (AggFunction::Count, AggColumn::Star),
            (AggFunction::CountDistinct, AggColumn::Column(cat)),
        ];
        let outcomes: Vec<WaveOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (db, cache, scheduler) = (&db, &cache, &scheduler);
                    let (dims, relevant, aggs) = (&dims, &relevant, &aggs);
                    scope.spawn(move || {
                        let requests = [wave_request(dims, relevant, aggs)];
                        let exec = WaveExec {
                            cache: Some(cache),
                            arena: None,
                            scheduler: Some(scheduler),
                            threads: 1,
                            bundling: TaskBundling::Canonical,
                            fuse: true,
                            partition_blocks: DEFAULT_PARTITION_BLOCKS,
                        };
                        run_requests(db, &exec, &requests).unwrap()
                    })
                })
                .collect();
            let outcomes = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>();
            scheduler.close();
            outcomes
        });
        let total_tasks: u64 = outcomes.iter().map(|o| o.stats.tasks_executed).sum();
        let total_passes: u64 = outcomes.iter().map(|o| o.stats.scan_passes).sum();
        // The atomic wave probe makes the claim all-or-nothing: exactly
        // one worker executed the wave's two tasks as one fused pass.
        assert_eq!(total_tasks, 2, "one execution of each key");
        assert_eq!(total_passes, 1, "one fused pass in the whole stress run");
        let served: u64 = outcomes
            .iter()
            .map(|o| o.stats.key_hits + o.stats.key_waits)
            .sum();
        assert_eq!(
            served,
            (workers as u64 - 1) * 2,
            "everyone else hit or waited"
        );
        for outcome in &outcomes {
            assert_eq!(
                outcome.slices[0][0].lookup(&[Some("a".into())]),
                Ok(Some(2.0))
            );
            assert_eq!(outcome.slices[0][1].lookup(&[None]), Ok(Some(3.0)));
        }
        assert_eq!(cache.len(), 2);
    }
}
