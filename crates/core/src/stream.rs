//! Streaming verification service: **dynamic admission** on top of the
//! batch substrate.
//!
//! [`BatchVerifier`](crate::pipeline::BatchVerifier) verifies a
//! pre-materialized document list; the deployments the paper frames
//! (FactChecker's interactive service, Scrutinizer's organization-wide
//! claim streams) instead see documents *arrive* — at any time, from many
//! clients, at rates that can exceed the machine. [`StreamingVerifier`] is
//! that front-end: a long-lived service over one shared
//! [`AggChecker`] (database, fragment catalog, sharded single-flight
//! cache) where clients [`submit`](StreamingVerifier::submit) documents and
//! receive a [`Ticket`] per document, while a persistent pool of worker
//! threads drains a bounded intake queue.
//!
//! # Execution model
//!
//! Workers serve **two queues through one blocking point**. A worker that
//! pops a document from the intake drives it exactly like a batch worker:
//! every evaluation wave probes the shared cache atomically
//! (`EvalCache::flight_batch_many`), fuses its same-scope cube tasks into
//! shared scan passes (`ScanGroup`), and submits them to the service's
//! **one** shared `CubeScheduler` (each service owns its scheduler, like
//! each `BatchVerifier` owns its pool); while its own tasks are pending it
//! helps execute *other* in-flight documents' passes. A worker with no document
//! parks in [`CubeScheduler::help_until`](agg_relational::CubeScheduler::help_until),
//! draining whatever passes the drivers queue, and is recalled by a `kick`
//! the moment a new document lands in the intake — so wave formation rides
//! an open-ended queue instead of a fixed batch.
//!
//! Cross-document sharing is the point of the shared substrate: cube
//! scope is *canonical* (catalog-wide literal lists, per-column aggregate
//! bundles), so same-scope cubes of different in-flight documents resolve
//! to the same cache keys — whichever document's wave claims them first
//! executes them as one fused row pass, and every other in-flight
//! document's wave hits the resident slice or joins the flight instead of
//! scanning again. N clients streaming summaries of one database cost one
//! document's scans plus each document's unique remainder.
//!
//! # Determinism contract
//!
//! Reports are **bit-identical to a solo
//! [`AggChecker::check_document`] run** regardless of arrival order, wave
//! composition, or worker count — the same contract batch mode holds,
//! extended to dynamic admission. The ingredients are identical: canonical
//! task bundling (the executed-scan set does not depend on scheduling),
//! sequential scans inside every fused pass (each grid sees rows in
//! relation order, so f64 accumulation sequences never vary), and
//! single-flight publication (each cube key computed exactly once). The
//! equivalence proptests and `bench_pipeline`'s `violations()` (its
//! `stream_*` variants) enforce it end to end. The one caveat is inherited from warm caches
//! generally: a float `Sum`/`Avg` served from a wider cached slice can
//! differ in the last ulp from a cold evaluation; count-like and
//! integer-exact aggregates — the paper's workload — are bit-identical.
//!
//! # Backpressure and shutdown
//!
//! The intake queue is bounded ([`StreamConfig::intake_capacity`]); a full
//! queue either blocks the submitter or rejects the submission
//! ([`IntakePolicy`]). [`close`](StreamingVerifier::close) stops intake
//! but **drains**: everything already queued is still verified.
//! [`into_checker`](StreamingVerifier::into_checker) closes, joins the
//! workers, and returns the warmed checker. Dropping the service without
//! closing takes the fast path instead: in-flight documents finish, but
//! documents still queued are **rejected** (their tickets settle with
//! [`CheckerError::Stream`]) so teardown never waits on a deep queue.
//!
//! # Deadlines, cancellation, and supervision
//!
//! A submission may carry a **deadline**
//! ([`submit_with_deadline`](StreamingVerifier::submit_with_deadline)),
//! and every [`Ticket`] can be [`cancel`](Ticket::cancel)led. Both settle
//! the ticket with a **partial report** instead of an error or a hang:
//! a still-queued document de-queues immediately; an in-flight document
//! aborts at its next wave boundary (between EM iterations), keeping
//! every verdict that already settled and marking the rest
//! [`Verdict::Unverified`](crate::pipeline::Verdict::Unverified). The
//! report's [`ReportStatus`] says which way it ended; partial reports are
//! tallied in [`StreamStats::timed_out`] / [`StreamStats::cancelled`],
//! never in `completed`.
//!
//! The worker pool is **supervised**: a panicked worker (its ticket
//! settles via the unwind guard) is joined and replaced by a fresh thread
//! while the [`StreamConfig::max_respawns`] budget lasts. Once the budget
//! is spent and the last worker dies, the supervisor closes the intake
//! and settles everything still queued with [`CheckerError::Stream`] — a
//! fully dead pool never leaves a `Ticket::wait` blocking forever.
//!
//! # Example
//!
//! ```
//! use agg_core::{CheckerConfig, StreamConfig, StreamingVerifier};
//! use agg_relational::{Database, Table};
//!
//! let table = Table::from_columns(
//!     "sales",
//!     vec![("region", vec!["west".into(), "west".into(), "east".into()])],
//! )?;
//! let mut db = Database::new("demo");
//! db.add_table(table);
//!
//! let service = StreamingVerifier::new(db, CheckerConfig::default(), StreamConfig::default())?;
//! // Submissions can arrive from any thread, at any time.
//! let ticket = service.submit_text("<p>There were two sales in the west region.</p>")?;
//! let report = ticket.wait()?;
//! assert_eq!(report.claims.len(), 1);
//! // Graceful shutdown: drain the queue, stop the workers, keep the
//! // warmed cache for a future service.
//! let checker = service.into_checker();
//! assert!(checker.cache().stats().entries() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::config::{CheckerConfig, IntakePolicy, StreamConfig};
use crate::evaluate::TaskBundling;
use crate::pipeline::{
    AggChecker, CheckerError, DocControl, ExecContext, ProgressObserver, ReportStatus, RunStats,
    VerificationReport,
};
use agg_nlp::structure::{parse_document, Document};
use agg_relational::{CubeScheduler, Database, GridArena, ScanCounters};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The intake queue is at capacity and the stream runs
    /// [`IntakePolicy::Reject`] — shed load or retry later.
    Full,
    /// The stream was closed; no further submissions are accepted.
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Full => write!(f, "intake queue full"),
            SubmitError::Closed => write!(f, "stream closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug)]
enum TicketState {
    Pending,
    // Boxed: a settled report is >200 bytes, and every pending ticket
    // would otherwise carry that much inline in its mutex.
    Done(Box<Result<VerificationReport, CheckerError>>),
    Taken,
}

#[derive(Debug)]
struct TicketCell {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl TicketCell {
    fn new() -> TicketCell {
        TicketCell {
            state: Mutex::new(TicketState::Pending),
            cv: Condvar::new(),
        }
    }

    fn settle(&self, result: Result<VerificationReport, CheckerError>) {
        *lock(&self.state) = TicketState::Done(Box::new(result));
        self.cv.notify_all();
    }
}

/// Per-document completion handle returned by
/// [`StreamingVerifier::submit`]. Every accepted submission's ticket
/// settles exactly once: with the report (complete or — after a deadline
/// or [`Ticket::cancel`] — partial), with the verification error, or with
/// [`CheckerError::Stream`] if the service shut down before the document
/// ran.
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<TicketCell>,
    /// Shared with the worker driving this document (if any): carries the
    /// deadline and the cancellation flag into the wave-boundary checks.
    ctrl: Arc<DocControl>,
    /// Back-reference for [`Ticket::cancel`]'s de-queue path. Weak so an
    /// outstanding ticket never keeps a dropped service alive.
    shared: Weak<Shared>,
}

impl Ticket {
    /// Has the document been verified (or its submission abandoned)?
    pub fn is_done(&self) -> bool {
        !matches!(*lock(&self.cell.state), TicketState::Pending)
    }

    /// Cancel this submission. Still queued: the document de-queues
    /// immediately and the ticket settles right here with a
    /// [`ReportStatus::Cancelled`] partial report (every claim
    /// [`Verdict::Unverified`](crate::pipeline::Verdict::Unverified)).
    /// In flight: the driving worker aborts at its next wave boundary and
    /// settles the same way, keeping verdicts that already settled.
    /// Already settled: a no-op. Idempotent either way.
    pub fn cancel(&self) {
        self.ctrl.cancel();
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let sub = {
            let mut intake = lock(&shared.intake);
            let sub = intake.remove_cell(&self.cell);
            if sub.is_some() {
                shared.queue_len.store(intake.len, Ordering::Release);
            }
            sub
        };
        // Not queued: either in flight (the worker's wave-boundary check
        // picks the flag up and settles the ticket) or already settled.
        let Some(sub) = sub else {
            return;
        };
        // A slot freed — and on a closed stream this removal may be the
        // drained-shutdown transition parked workers must observe.
        shared.space.notify_one();
        shared.scheduler.kick();
        {
            let mut c = lock(&shared.counters);
            c.cancelled += 1;
            c.partial += 1;
        }
        let report = shared
            .checker_arc()
            .unverified_report(&sub.doc, ReportStatus::Cancelled);
        sub.cell.settle(Ok(report));
    }

    /// Take the settled result without blocking: `None` while the
    /// document is still queued or in flight, `Some` exactly once when it
    /// has settled. Pollers (the HTTP `GET /v1/documents/{id}` path) call
    /// this instead of [`wait`](Ticket::wait), which blocks and consumes
    /// the ticket. After a successful take, a later `wait` on the same
    /// ticket returns [`CheckerError::Stream`].
    pub fn try_take(&self) -> Option<Result<VerificationReport, CheckerError>> {
        let mut state = lock(&self.cell.state);
        if !matches!(*state, TicketState::Done(_)) {
            return None;
        }
        match std::mem::replace(&mut *state, TicketState::Taken) {
            TicketState::Done(result) => Some(*result),
            TicketState::Pending | TicketState::Taken => unreachable!("just matched Done"),
        }
    }

    /// Block until the document's verification settles.
    pub fn wait(self) -> Result<VerificationReport, CheckerError> {
        self.wait_ref()
    }

    /// [`wait`](Ticket::wait) through a shared reference: blocks until the
    /// document settles and takes the result exactly once, without
    /// consuming the ticket. Network front-ends keep the ticket in an
    /// `Arc` — a watcher thread blocks here streaming the result out
    /// while the connection handler retains the same ticket for
    /// [`cancel`](Ticket::cancel) on client disconnect. A second
    /// `wait_ref` (or `wait`) after the result was taken returns
    /// [`CheckerError::Stream`].
    pub fn wait_ref(&self) -> Result<VerificationReport, CheckerError> {
        let mut state = lock(&self.cell.state);
        while matches!(*state, TicketState::Pending) {
            state = self
                .cell
                .cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        match std::mem::replace(&mut *state, TicketState::Taken) {
            TicketState::Done(result) => *result,
            // Pending was just ruled out; Taken means a prior
            // [`Ticket::try_take`] already claimed the result.
            TicketState::Pending => unreachable!("ticket settles once"),
            TicketState::Taken => Err(CheckerError::Stream(
                "report already taken from this ticket".into(),
            )),
        }
    }
}

/// Point-in-time counters of one streaming service. High-water marks are
/// monotone; throughput counters — `claims`, the dedup pair, and the
/// shared scan-plane counters, readable as plain fields
/// (`stats.rows_scanned`) through `Deref` — sum over completed documents'
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Documents accepted into the intake queue.
    pub submitted: u64,
    /// Documents verified to completion (ticket settled with a
    /// [`ReportStatus::Complete`] report).
    pub completed: u64,
    /// Documents whose verification returned an error (ticket settled
    /// with it). Every accepted document lands in exactly one of
    /// `completed`/`failed`/`rejected`/`timed_out`/`cancelled` — see
    /// [`StreamStats::settled`] — so `submitted == settled()` at
    /// quiescence.
    pub failed: u64,
    /// Submissions abandoned at shutdown (queued at drop or at whole-pool
    /// death; their tickets settled with [`CheckerError::Stream`]). Policy
    /// rejects ([`SubmitError::Full`]) never enter the queue and are not
    /// counted.
    pub rejected: u64,
    /// Documents whose deadline expired before verification finished
    /// (ticket settled with a [`ReportStatus::TimedOut`] partial report).
    pub timed_out: u64,
    /// Documents cancelled via [`Ticket::cancel`] before verification
    /// finished (ticket settled with a [`ReportStatus::Cancelled`]
    /// partial report).
    pub cancelled: u64,
    /// Partial reports issued — always `timed_out + cancelled`; kept as
    /// its own counter so operators can alert on "any partial output"
    /// without summing.
    pub partial: u64,
    /// Panicked workers the supervisor replaced (bounded by
    /// [`StreamConfig::max_respawns`]). 0 in fault-free operation.
    pub respawns: u64,
    /// Deepest the intake queue ever got (backpressure headroom).
    pub queue_depth_high_water: u64,
    /// Most documents ever in verification at once — the widest admission
    /// wave the worker pool formed.
    pub in_flight_high_water: u64,
    /// Claims across completed documents.
    pub claims: u64,
    /// Cube requests resolved without a new execution (cross-claim merge,
    /// resident cache, or another document's single-flight).
    pub tasks_deduped: u64,
    /// Requests that blocked on another in-flight cube computation.
    pub singleflight_waits: u64,
    /// What completed documents' waves executed and scanned. Patch
    /// counters stay 0 until [`StreamingVerifier::append_rows`] grows the
    /// fact base; poisoned-flight retries also count documents that
    /// settled partial.
    pub scan: ScanCounters,
}

impl std::ops::Deref for StreamStats {
    type Target = ScanCounters;
    fn deref(&self) -> &ScanCounters {
        &self.scan
    }
}

impl StreamStats {
    /// Accepted documents whose tickets have settled, over every outcome
    /// bin. The service's accounting invariant is
    /// `settled() == submitted` at quiescence: every accepted document
    /// lands in exactly one bin, none is counted twice, none is lost.
    pub fn settled(&self) -> u64 {
        self.completed + self.failed + self.rejected + self.timed_out + self.cancelled
    }

    /// Fold one completed document's report into the throughput counters.
    pub fn absorb(&mut self, run: &RunStats) {
        self.claims += run.claims as u64;
        self.tasks_deduped += run.tasks_deduped;
        self.singleflight_waits += run.singleflight_waits;
        self.scan.merge(&run.scan);
    }
}

struct Submission {
    doc: Document,
    cell: Arc<TicketCell>,
    /// Deadline + cancellation flag, shared with this document's ticket.
    ctrl: Arc<DocControl>,
    /// Per-wave verdict subscription, forwarded into the pipeline's
    /// [`ExecContext`] by the worker that drives this document.
    observer: Option<Arc<dyn ProgressObserver>>,
}

/// Options for one submission beyond the document itself. `Default` is
/// exactly the plain [`StreamingVerifier::submit`]: no deadline, lane 0,
/// no observer.
#[derive(Clone, Default)]
pub struct SubmitOptions {
    /// Abort verification at the first wave boundary past this instant
    /// and settle the ticket with a [`ReportStatus::TimedOut`] partial
    /// report. `None` = no deadline.
    pub deadline: Option<Instant>,
    /// Client lane for intake fairness. Documents of one lane stay FIFO
    /// relative to each other; distinct lanes are drained round-robin, so
    /// a flooding client delays its own backlog, not everyone's. Callers
    /// that never set this share lane 0 and see plain FIFO intake.
    pub lane: u64,
    /// Per-wave verdict subscription (see [`ProgressObserver`]): called on
    /// the driving worker at every completed evaluation wave. The settled
    /// report on the [`Ticket`] remains the authoritative result.
    pub observer: Option<Arc<dyn ProgressObserver>>,
}

impl fmt::Debug for SubmitOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubmitOptions")
            .field("deadline", &self.deadline)
            .field("lane", &self.lane)
            .field("observer", &self.observer.as_ref().map(|_| "…"))
            .finish()
    }
}

#[derive(Default)]
struct Intake {
    /// One FIFO per client lane, in lane-creation order. Invariant: no
    /// lane is ever empty — a lane drains away the moment its last queued
    /// submission leaves — so the round-robin scan never spins over dead
    /// lanes and a long-lived service does not accumulate per-client
    /// state.
    lanes: Vec<(u64, VecDeque<Submission>)>,
    /// Round-robin cursor: index into `lanes` of the next lane to serve.
    cursor: usize,
    /// Total queued submissions across all lanes.
    len: usize,
    /// No further submissions are accepted.
    closed: bool,
    /// Shutdown fast path: workers reject queued submissions instead of
    /// verifying them.
    rejecting: bool,
}

impl Intake {
    fn lane_len(&self, lane: u64) -> usize {
        self.lanes
            .iter()
            .find(|(id, _)| *id == lane)
            .map_or(0, |(_, q)| q.len())
    }

    fn push(&mut self, lane: u64, sub: Submission) {
        self.len += 1;
        match self.lanes.iter_mut().find(|(id, _)| *id == lane) {
            Some((_, queue)) => queue.push_back(sub),
            None => self.lanes.push((lane, VecDeque::from([sub]))),
        }
    }

    /// Pop the next submission, round-robin across client lanes. With a
    /// single lane this is plain FIFO — the in-process `submit` path —
    /// so the deterministic arrival order `bench_pipeline`'s streaming
    /// variants rely on is unchanged.
    fn pop(&mut self) -> Option<Submission> {
        if self.lanes.is_empty() {
            return None;
        }
        if self.cursor >= self.lanes.len() {
            self.cursor = 0;
        }
        let (_, queue) = &mut self.lanes[self.cursor];
        let sub = queue.pop_front().expect("no lane is ever empty");
        self.len -= 1;
        if queue.is_empty() {
            // Removing at the cursor leaves it pointing at the next lane.
            self.lanes.remove(self.cursor);
        } else {
            self.cursor += 1;
        }
        if self.cursor >= self.lanes.len() {
            self.cursor = 0;
        }
        Some(sub)
    }

    /// Remove one specific queued submission (ticket cancellation).
    fn remove_cell(&mut self, cell: &Arc<TicketCell>) -> Option<Submission> {
        for li in 0..self.lanes.len() {
            let queue = &mut self.lanes[li].1;
            let Some(pos) = queue.iter().position(|s| Arc::ptr_eq(&s.cell, cell)) else {
                continue;
            };
            let sub = queue.remove(pos).expect("position is in range");
            self.len -= 1;
            if queue.is_empty() {
                self.lanes.remove(li);
                if self.cursor > li {
                    self.cursor -= 1;
                }
                if self.cursor >= self.lanes.len() {
                    self.cursor = 0;
                }
            }
            return Some(sub);
        }
        None
    }

    /// Drain every queued submission (shutdown paths), lane by lane.
    fn take_all(&mut self) -> Vec<Submission> {
        self.len = 0;
        self.cursor = 0;
        self.lanes.drain(..).flat_map(|(_, queue)| queue).collect()
    }

    /// Live lanes and their queued depths.
    fn depths(&self) -> Vec<(u64, usize)> {
        self.lanes.iter().map(|(id, q)| (*id, q.len())).collect()
    }
}

struct Shared {
    /// The current checker generation. Workers **pin** the `Arc` once per
    /// document, so a concurrent [`StreamingVerifier::append_rows`] (which
    /// swaps in a successor checker over the grown database) never moves
    /// the fact base under a document mid-verification: every report is
    /// evaluated against exactly one database snapshot. The lock is held
    /// only for the pin (a clone) or the swap — never across verification.
    checker: RwLock<Arc<AggChecker>>,
    scheduler: CubeScheduler,
    intake: Mutex<Intake>,
    /// Wakes submitters blocked on a full queue ([`IntakePolicy::Block`]).
    space: Condvar,
    capacity: usize,
    /// Per-lane queue cap ([`StreamConfig::lane_capacity`]); 0 = none.
    lane_capacity: usize,
    policy: IntakePolicy,
    /// Lock-free mirrors of the intake state, readable from
    /// `help_until`'s recall predicate without taking the intake lock.
    queue_len: AtomicUsize,
    in_flight: AtomicUsize,
    closed: AtomicBool,
    /// The service's counters: lifecycle events are bumped wherever they
    /// happen, report-derived ones fold in once per settled document. A
    /// leaf lock — nothing else is ever acquired while it is held.
    counters: Mutex<StreamStats>,
}

impl Shared {
    /// Pin the current checker generation (see the field docs).
    fn checker_arc(&self) -> Arc<AggChecker> {
        self.checker
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Should a parked helper return to the intake? True when a document
    /// is waiting, or when a closed stream has fully drained (time to
    /// exit). Every transition that can flip this to true is followed by a
    /// [`CubeScheduler::kick`].
    fn recall(&self) -> bool {
        self.queue_len.load(Ordering::Acquire) > 0
            || (self.closed.load(Ordering::Acquire) && self.in_flight.load(Ordering::Acquire) == 0)
    }
}

/// Settles the ticket and releases the in-flight slot exactly once, even
/// if verification panics mid-document (the unwinding worker thread dies,
/// but the client's ticket resolves and the stream can still drain).
struct DocGuard<'a> {
    shared: &'a Shared,
    cell: Option<Arc<TicketCell>>,
}

impl DocGuard<'_> {
    fn finish(mut self, result: Result<VerificationReport, CheckerError>) {
        let mut c = lock(&self.shared.counters);
        match &result {
            Ok(report) => match report.status {
                ReportStatus::Complete => {
                    c.completed += 1;
                    // Throughput counters sum *completed* documents only,
                    // so they stay comparable against solo/batch runs of
                    // the same corpus (`bench_pipeline`'s `violations()`).
                    c.absorb(&report.stats);
                }
                status => {
                    // Faults a document survived are visible however it
                    // ended: a partial report contributes its poisoned-
                    // flight retries and nothing else.
                    c.scan.poison_retries += report.stats.poison_retries;
                    c.partial += 1;
                    if status == ReportStatus::TimedOut {
                        c.timed_out += 1;
                    } else {
                        c.cancelled += 1;
                    }
                }
            },
            Err(_) => c.failed += 1,
        }
        drop(c);
        self.cell.take().expect("unsettled").settle(result);
        // Drop runs next and releases the in-flight slot.
    }
}

impl Drop for DocGuard<'_> {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            lock(&self.shared.counters).failed += 1;
            cell.settle(Err(CheckerError::Stream(
                "verification worker panicked with the document in flight".into(),
            )));
        }
        if self.shared.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Possibly the last in-flight document of a closing stream —
            // and in any case a recall-state change parked peers must see.
            self.shared.scheduler.kick();
        }
    }
}

/// Close the intake and settle every still-queued ticket with
/// [`CheckerError::Stream`]. Run by the supervisor once the last worker
/// is gone: a pool that died entirely (every worker panicked past the
/// respawn budget) must not leave `Ticket::wait` blocking forever or
/// admit submissions nobody will ever verify. On a normal drained
/// shutdown the queue is already empty, so this is a no-op beyond the
/// flag writes.
fn dead_pool_drain(shared: &Shared) {
    let drained = {
        let mut intake = lock(&shared.intake);
        intake.closed = true;
        intake.rejecting = true;
        intake.take_all()
    };
    shared.closed.store(true, Ordering::Release);
    shared.queue_len.store(0, Ordering::Release);
    for sub in drained {
        lock(&shared.counters).rejected += 1;
        sub.cell.settle(Err(CheckerError::Stream(
            "stream worker pool exited with the document still queued".into(),
        )));
    }
    shared.space.notify_all();
    shared.scheduler.kick();
}

/// One worker's exit note to the supervisor — sent from a drop guard so a
/// panic unwind reports just like a normal return.
struct ExitNote {
    id: usize,
    panicked: bool,
}

struct ExitNotifier {
    id: usize,
    tx: mpsc::Sender<ExitNote>,
}

impl Drop for ExitNotifier {
    fn drop(&mut self) {
        let _ = self.tx.send(ExitNote {
            id: self.id,
            panicked: std::thread::panicking(),
        });
    }
}

fn spawn_worker(shared: Arc<Shared>, id: usize, tx: mpsc::Sender<ExitNote>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("agg-stream-{id}"))
        .spawn(move || {
            // Dropped last (declared first): per-document guards settle
            // their own ticket before the exit note goes out on an unwind.
            let _exit = ExitNotifier { id, tx };
            worker_loop(&shared);
        })
        .expect("spawn streaming worker")
}

/// The worker supervisor: joins exited workers, replaces panicked ones
/// while the [`StreamConfig::max_respawns`] budget lasts, and — once the
/// last worker is gone — runs [`dead_pool_drain`] so no queued ticket
/// ever hangs. Normal worker exits (drained shutdown) are never
/// "respawned": only a panic spends budget.
fn supervise(
    shared: Arc<Shared>,
    mut workers: HashMap<usize, JoinHandle<()>>,
    rx: mpsc::Receiver<ExitNote>,
    tx: mpsc::Sender<ExitNote>,
    max_respawns: usize,
) {
    let mut live = workers.len();
    let mut next_id = workers.len();
    let mut respawned = 0usize;
    while live > 0 {
        // The supervisor holds its own sender, so the channel cannot
        // disconnect while notes are still owed.
        let Ok(note) = rx.recv() else {
            break;
        };
        if let Some(handle) = workers.remove(&note.id) {
            let _ = handle.join();
        }
        if note.panicked && respawned < max_respawns {
            respawned += 1;
            lock(&shared.counters).respawns += 1;
            workers.insert(next_id, spawn_worker(shared.clone(), next_id, tx.clone()));
            next_id += 1;
        } else {
            live -= 1;
        }
    }
    dead_pool_drain(&shared);
}

/// One long-lived worker: alternate between driving intake documents and
/// helping drain other documents' fused scan passes.
fn worker_loop(shared: &Shared) {
    let arena = GridArena::new();
    loop {
        let sub = {
            let mut intake = lock(&shared.intake);
            loop {
                if let Some(sub) = intake.pop() {
                    shared.queue_len.store(intake.len, Ordering::Release);
                    // A slot freed: admit one blocked submitter.
                    shared.space.notify_one();
                    if intake.rejecting {
                        lock(&shared.counters).rejected += 1;
                        sub.cell.settle(Err(CheckerError::Stream(
                            "stream dropped with the document still queued".into(),
                        )));
                        continue;
                    }
                    let now = shared.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
                    let mut c = lock(&shared.counters);
                    c.in_flight_high_water = c.in_flight_high_water.max(now as u64);
                    drop(c);
                    break Some(sub);
                }
                if intake.closed && shared.in_flight.load(Ordering::Acquire) == 0 {
                    break None;
                }
                // Nothing to verify: park on the scheduler and drain other
                // documents' passes until a kick announces new intake (or
                // the drained shutdown).
                drop(intake);
                shared
                    .scheduler
                    .help_until(Some(&arena), || shared.recall());
                intake = lock(&shared.intake);
            }
        };
        let Some(sub) = sub else {
            // Closed and drained: wake siblings so they observe it too.
            shared.scheduler.kick();
            return;
        };
        let Submission {
            doc,
            cell,
            ctrl,
            observer,
        } = sub;
        let guard = DocGuard {
            shared,
            cell: Some(cell),
        };
        // Pin one checker generation for the whole document: a concurrent
        // append swaps the service's checker, but this document keeps its
        // database snapshot (and its watermark) start to finish.
        let checker = shared.checker_arc();
        let result = if let Some(status) = ctrl.should_abort() {
            // Cancelled or expired while queued: settle without touching
            // the evaluation substrate at all (no waves, no scans).
            Ok(checker.unverified_report(&doc, status))
        } else {
            let ctx = ExecContext {
                arena: Some(&arena),
                scheduler: Some(&shared.scheduler),
                // The pool provides the parallelism; per-document fan-out
                // would only oversubscribe the machine (same as batch
                // workers).
                threads: 1,
                // Canonical bundling keeps the executed-task set
                // independent of worker count and arrival interleaving
                // (`bench_pipeline`'s `violations()` holds
                // `tasks_executed` equal across its streaming variants).
                bundling: TaskBundling::Canonical,
                ctrl: Some(&ctrl),
                observer: observer.as_deref(),
            };
            checker.check_document_with(&doc, &ctx)
        };
        guard.finish(result);
    }
}

/// A long-lived streaming verification service over one shared database
/// (see the [module docs](self) for the execution model, determinism
/// contract, and shutdown semantics).
pub struct StreamingVerifier {
    shared: Arc<Shared>,
    /// Joins the whole pool: the supervisor owns every worker handle
    /// (including respawns) and exits only after the last one is gone.
    /// `None` once shut down via [`StreamingVerifier::into_checker`].
    supervisor: Option<JoinHandle<()>>,
    worker_count: usize,
}

impl StreamingVerifier {
    /// Start a service over a database: builds the checker (catalog, cost
    /// model, sharded cache) and spawns the worker pool.
    pub fn new(
        db: Database,
        config: CheckerConfig,
        stream: StreamConfig,
    ) -> Result<StreamingVerifier, CheckerError> {
        StreamingVerifier::from_checker(AggChecker::new(db, config)?, stream)
    }

    /// Start a service over an existing checker (shares its warmed cache).
    pub fn from_checker(
        checker: AggChecker,
        stream: StreamConfig,
    ) -> Result<StreamingVerifier, CheckerError> {
        stream.validate().map_err(CheckerError::Config)?;
        let workers = if stream.workers == 0 {
            checker.config().threads
        } else {
            stream.workers
        }
        .max(1);
        let shared = Arc::new(Shared {
            checker: RwLock::new(Arc::new(checker)),
            scheduler: CubeScheduler::new(),
            intake: Mutex::new(Intake::default()),
            space: Condvar::new(),
            capacity: stream.intake_capacity,
            lane_capacity: stream.lane_capacity,
            policy: stream.policy,
            queue_len: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            counters: Mutex::default(),
        });
        let (tx, rx) = mpsc::channel();
        let handles: HashMap<usize, JoinHandle<()>> = (0..workers)
            .map(|i| (i, spawn_worker(shared.clone(), i, tx.clone())))
            .collect();
        let supervisor = {
            let shared = shared.clone();
            let max_respawns = stream.max_respawns;
            std::thread::Builder::new()
                .name("agg-stream-supervisor".into())
                .spawn(move || supervise(shared, handles, rx, tx, max_respawns))
                .expect("spawn streaming supervisor")
        };
        Ok(StreamingVerifier {
            shared,
            supervisor: Some(supervisor),
            worker_count: workers,
        })
    }

    /// The current checker generation (database, catalog, cache
    /// accessors). [`append_rows`](StreamingVerifier::append_rows)
    /// replaces the service's checker with a successor over the grown
    /// database; a handle obtained here keeps the snapshot it was taken
    /// at, exactly like an in-flight document.
    pub fn checker(&self) -> Arc<AggChecker> {
        self.shared.checker_arc()
    }

    /// Append rows to a table of the live service's database and make
    /// them visible to every **subsequently admitted** document. The
    /// fact base grows mid-stream without a restart: a successor checker
    /// (rebuilt catalog and cost model over the appended corpus, **same
    /// shared cache**) is swapped in atomically, while documents already
    /// in flight keep the snapshot they pinned at admission. Because the
    /// cache is watermark-aware, re-verifying a document after an append
    /// patches the resident grids over just the appended tail instead of
    /// re-scanning the corpus — the savings surface in the patch counters
    /// of [`StreamStats::scan`].
    pub fn append_rows(
        &self,
        table: &str,
        rows: &[Vec<agg_relational::Value>],
    ) -> Result<usize, CheckerError> {
        let mut current = self
            .shared
            .checker
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (next, appended) = current.with_appended(table, rows)?;
        *current = Arc::new(next);
        Ok(appended)
    }

    /// Size of the worker pool as configured. The live pool can
    /// transiently dip below this while the supervisor replaces a
    /// panicked worker, or permanently once the respawn budget is spent.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Parse and submit a text document (HTML subset or plain text).
    pub fn submit_text(&self, text: &str) -> Result<Ticket, SubmitError> {
        self.submit_text_with_deadline(text, None)
    }

    /// [`submit_text`](StreamingVerifier::submit_text) with a per-document
    /// deadline (see
    /// [`submit_with_deadline`](StreamingVerifier::submit_with_deadline)).
    pub fn submit_text_with_deadline(
        &self,
        text: &str,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        // Cheap pre-check before paying for the parse: under overload —
        // exactly when `Reject` matters — a shedding caller should not
        // parse a whole article just to be turned away. The lock-free
        // reads can go stale either way, but [`StreamingVerifier::submit`]
        // re-checks authoritatively under the intake lock.
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        if self.shared.policy == IntakePolicy::Reject
            && self.shared.queue_len.load(Ordering::Acquire) >= self.shared.capacity
        {
            return Err(SubmitError::Full);
        }
        self.submit_with_deadline(parse_document(text), deadline)
    }

    /// Parse and submit a text document with full [`SubmitOptions`]
    /// (deadline, client lane, per-wave observer) — the path network
    /// front-ends use. Applies the same cheap overload pre-check as
    /// [`submit_text_with_deadline`](StreamingVerifier::submit_text_with_deadline).
    pub fn submit_text_with(&self, text: &str, opts: SubmitOptions) -> Result<Ticket, SubmitError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        if self.shared.policy == IntakePolicy::Reject
            && self.shared.queue_len.load(Ordering::Acquire) >= self.shared.capacity
        {
            return Err(SubmitError::Full);
        }
        self.submit_with(parse_document(text), opts)
    }

    /// Submit a parsed document for verification. Returns immediately with
    /// a [`Ticket`] unless the queue is full under [`IntakePolicy::Block`],
    /// in which case the call blocks until a slot frees (or the stream
    /// closes). Safe to call from any number of threads.
    pub fn submit(&self, doc: Document) -> Result<Ticket, SubmitError> {
        self.submit_with_deadline(doc, None)
    }

    /// [`submit`](StreamingVerifier::submit) with a per-document deadline.
    /// If verification has not finished by `deadline`, it aborts at the
    /// next wave boundary and the ticket settles with a
    /// [`ReportStatus::TimedOut`] **partial** report — verdicts that
    /// settled before the deadline are kept, the rest come back
    /// [`Verdict::Unverified`](crate::pipeline::Verdict::Unverified) —
    /// never an error, never a hang. `None` = no deadline.
    pub fn submit_with_deadline(
        &self,
        doc: Document,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        self.submit_with(
            doc,
            SubmitOptions {
                deadline,
                ..SubmitOptions::default()
            },
        )
    }

    /// The fully general submission path: deadline, client lane, and
    /// per-wave verdict observer in one [`SubmitOptions`]. All other
    /// `submit*` methods delegate here.
    pub fn submit_with(&self, doc: Document, opts: SubmitOptions) -> Result<Ticket, SubmitError> {
        let SubmitOptions {
            deadline,
            lane,
            observer,
        } = opts;
        let cell = Arc::new(TicketCell::new());
        let ctrl = Arc::new(DocControl::new(deadline));
        {
            let mut intake = lock(&self.shared.intake);
            loop {
                if intake.closed {
                    return Err(SubmitError::Closed);
                }
                let lane_full = self.shared.lane_capacity > 0
                    && intake.lane_len(lane) >= self.shared.lane_capacity;
                if intake.len < self.shared.capacity && !lane_full {
                    break;
                }
                match self.shared.policy {
                    IntakePolicy::Reject => return Err(SubmitError::Full),
                    IntakePolicy::Block => {
                        intake = self
                            .shared
                            .space
                            .wait(intake)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            }
            intake.push(
                lane,
                Submission {
                    doc,
                    cell: cell.clone(),
                    ctrl: ctrl.clone(),
                    observer,
                },
            );
            let depth = intake.len;
            self.shared.queue_len.store(depth, Ordering::Release);
            let mut c = lock(&self.shared.counters);
            c.queue_depth_high_water = c.queue_depth_high_water.max(depth as u64);
            c.submitted += 1;
        }
        // Recall a parked worker for the new document.
        self.shared.scheduler.kick();
        Ok(Ticket {
            cell,
            ctrl,
            shared: Arc::downgrade(&self.shared),
        })
    }

    /// Submit several documents in **one admission**: the whole batch
    /// enters the intake under a single lock hold and a single worker
    /// recall, so with free workers the batch's first evaluation waves
    /// form together and their same-scope cubes coalesce into shared
    /// fused passes (`run_requests`) instead of meeting only at the
    /// single-flight cache. Every document shares `opts`' deadline, lane,
    /// and observer; each gets its own [`Ticket`] (returned in input
    /// order).
    ///
    /// The batch is admitted atomically — all or none. It must fit the
    /// free capacity (and the lane cap, if configured): under
    /// [`IntakePolicy::Reject`] an oversized batch fails with
    /// [`SubmitError::Full`]; under [`IntakePolicy::Block`] the call
    /// waits until the whole batch fits, or fails with
    /// [`SubmitError::Full`] if it can *never* fit (more documents than
    /// `intake_capacity`).
    pub fn submit_batch(
        &self,
        docs: Vec<Document>,
        opts: SubmitOptions,
    ) -> Result<Vec<Ticket>, SubmitError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let n = docs.len();
        if n > self.shared.capacity
            || (self.shared.lane_capacity > 0 && n > self.shared.lane_capacity)
        {
            return Err(SubmitError::Full);
        }
        let mut tickets = Vec::with_capacity(n);
        {
            let mut intake = lock(&self.shared.intake);
            loop {
                if intake.closed {
                    return Err(SubmitError::Closed);
                }
                let lane_room = self.shared.lane_capacity == 0
                    || intake.lane_len(opts.lane) + n <= self.shared.lane_capacity;
                if intake.len + n <= self.shared.capacity && lane_room {
                    break;
                }
                match self.shared.policy {
                    IntakePolicy::Reject => return Err(SubmitError::Full),
                    IntakePolicy::Block => {
                        intake = self
                            .shared
                            .space
                            .wait(intake)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            }
            for doc in docs {
                let cell = Arc::new(TicketCell::new());
                let ctrl = Arc::new(DocControl::new(opts.deadline));
                intake.push(
                    opts.lane,
                    Submission {
                        doc,
                        cell: cell.clone(),
                        ctrl: ctrl.clone(),
                        observer: opts.observer.clone(),
                    },
                );
                tickets.push(Ticket {
                    cell,
                    ctrl,
                    shared: Arc::downgrade(&self.shared),
                });
            }
            let depth = intake.len;
            self.shared.queue_len.store(depth, Ordering::Release);
            let mut c = lock(&self.shared.counters);
            c.queue_depth_high_water = c.queue_depth_high_water.max(depth as u64);
            c.submitted += n as u64;
        }
        // One recall for the whole batch: parked workers wake together and
        // pull adjacent documents of the same admission wave.
        self.shared.scheduler.kick();
        Ok(tickets)
    }

    /// Stop accepting submissions. Everything already queued is still
    /// verified (`close` **drains**); blocked submitters wake with
    /// [`SubmitError::Closed`]. Idempotent.
    pub fn close(&self) {
        lock(&self.shared.intake).closed = true;
        self.shared.closed.store(true, Ordering::Release);
        self.shared.space.notify_all();
        self.shared.scheduler.kick();
    }

    /// Documents queued but not yet picked up.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_len.load(Ordering::Acquire)
    }

    /// Queued depth of every live client lane as `(lane, depth)` pairs,
    /// in lane-creation order. Lanes appear on first submission and
    /// vanish once drained; the depths sum to
    /// [`queue_depth`](StreamingVerifier::queue_depth). Network
    /// front-ends export these as fairness telemetry (`docs/operations.md`).
    pub fn lane_depths(&self) -> Vec<(u64, usize)> {
        lock(&self.shared.intake).depths()
    }

    /// Documents currently being verified.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Snapshot the service's counters.
    pub fn stats(&self) -> StreamStats {
        *lock(&self.shared.counters)
    }

    /// Graceful shutdown: close the intake, verify everything queued, join
    /// the pool (via its supervisor), and recover the checker with its
    /// warmed cache.
    pub fn into_checker(mut self) -> AggChecker {
        self.close();
        if let Some(handle) = self.supervisor.take() {
            // The supervisor joins every worker — panicked workers
            // already settled their tickets via `DocGuard`.
            let _ = handle.join();
        }
        // `supervisor` is now `None`, so `drop(self)` below is a no-op,
        // and the joined threads' `Shared` clones are gone: ours is the
        // last (outstanding `Ticket`s only hold weak references).
        let shared = self.shared.clone();
        drop(self);
        let checker = match Arc::try_unwrap(shared) {
            Ok(shared) => shared
                .checker
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            Err(_) => unreachable!("joined pool holds no Shared references"),
        };
        // A caller may still hold a `checker()` handle; fall back to a
        // rebuilt twin over the same database and shared cache.
        Arc::try_unwrap(checker).unwrap_or_else(|arc| arc.fork())
    }
}

impl Drop for StreamingVerifier {
    /// Fast shutdown: in-flight documents finish, queued documents are
    /// rejected (tickets settle with [`CheckerError::Stream`]), the pool
    /// joins. Use [`StreamingVerifier::close`] +
    /// [`StreamingVerifier::into_checker`] to drain instead.
    fn drop(&mut self) {
        let Some(handle) = self.supervisor.take() else {
            return; // already shut down via into_checker
        };
        {
            let mut intake = lock(&self.shared.intake);
            intake.closed = true;
            intake.rejecting = true;
        }
        self.shared.closed.store(true, Ordering::Release);
        self.shared.space.notify_all();
        self.shared.scheduler.kick();
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AggChecker;
    use agg_relational::{Table, Value};

    /// Every shared counter survives every hop — wave → evaluator →
    /// document → service — summed (the gauge: maxed). Each field carries
    /// a distinct prime, so a field dropped at any hop fails by name.
    #[test]
    fn shared_counters_merge_across_every_hop() {
        type Field = (&'static str, fn(&mut ScanCounters) -> &mut u64);
        const SUMMED: [Field; 11] = [
            ("tasks_executed", |s| &mut s.tasks_executed),
            ("scan_passes", |s| &mut s.scan_passes),
            ("rows_scanned", |s| &mut s.rows_scanned),
            ("poison_retries", |s| &mut s.poison_retries),
            ("blocks_scanned", |s| &mut s.blocks_scanned),
            ("blocks_skipped", |s| &mut s.blocks_skipped),
            ("bytes_scanned", |s| &mut s.bytes_scanned),
            ("partitions_scanned", |s| &mut s.partitions_scanned),
            ("partition_merges", |s| &mut s.partition_merges),
            ("grids_patched", |s| &mut s.grids_patched),
            ("delta_rows_scanned", |s| &mut s.delta_rows_scanned),
        ];
        const PRIMES: [u64; 11] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31];
        let wave = |scale: u64, gauge: u32| {
            let mut scan = ScanCounters {
                partition_parallelism: gauge,
                ..ScanCounters::default()
            };
            for ((_, field), prime) in SUMMED.iter().zip(PRIMES) {
                *field(&mut scan) = prime * scale;
            }
            agg_relational::WaveStats {
                scan,
                ..Default::default()
            }
        };
        // Two waves into one evaluator, a third into another; merged.
        let mut eval = crate::evaluate::EvalStats::default();
        eval.absorb(&wave(1, 3));
        eval.absorb(&wave(10, 2));
        let mut other = crate::evaluate::EvalStats::default();
        other.absorb(&wave(100, 1));
        eval.merge(&other);
        // The document's report carries them; the service sums documents.
        let run = RunStats {
            scan: eval.scan,
            ..RunStats::default()
        };
        let mut service = StreamStats::default();
        service.absorb(&run);
        service.absorb(&run);
        for ((name, field), prime) in SUMMED.iter().zip(PRIMES) {
            assert_eq!(*field(&mut eval.scan), prime * 111, "{name} after merge");
            assert_eq!(
                *field(&mut service.scan),
                prime * 222,
                "{name} at the service"
            );
        }
        assert_eq!(eval.tasks_executed, 2 * 111, "readable through Deref");
        assert_eq!(eval.cubes_executed, eval.tasks_executed);
        assert_eq!(service.partition_parallelism, 3, "the gauge takes the max");
    }

    /// Figure 2's database (same fixture as the pipeline tests).
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

    const WRONG: &str = r#"
<h1>Indefinite suspensions</h1>
<p>There were seven previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"#;

    fn solo_fingerprint(db: &Database, cfg: &CheckerConfig, text: &str) -> String {
        let checker = AggChecker::new(db.clone(), cfg.clone()).unwrap();
        checker.check_text(text).unwrap().content_fingerprint()
    }

    /// The determinism contract at unit scale: whatever the worker count,
    /// streamed reports are bit-identical to fresh solo runs, and the
    /// totals of `rows_scanned`/`scan_passes` are exactly worker-count
    /// independent (single-flight + canonical bundling + atomic wave
    /// probes; at bench scale `bench_pipeline`'s `violations()` checks
    /// `tasks_executed` exactly and the pass count within its bounds).
    #[test]
    fn streaming_single_flight_keeps_rows_and_passes_exact() {
        let db = nfl_db();
        let texts = [
            ARTICLE, WRONG, ARTICLE, WRONG, ARTICLE, ARTICLE, WRONG, ARTICLE,
        ];
        let cfg = CheckerConfig::default();
        let expected: Vec<String> = texts
            .iter()
            .map(|t| solo_fingerprint(&db, &cfg, t))
            .collect();
        let run = |workers: usize| {
            let stream_cfg = StreamConfig {
                workers,
                ..StreamConfig::default()
            };
            let service = StreamingVerifier::new(db.clone(), cfg.clone(), stream_cfg).unwrap();
            assert_eq!(service.workers(), workers);
            let tickets: Vec<Ticket> = texts
                .iter()
                .map(|t| service.submit_text(t).unwrap())
                .collect();
            let reports: Vec<VerificationReport> =
                tickets.into_iter().map(|t| t.wait().unwrap()).collect();
            let stats = service.stats();
            assert_eq!(stats.completed, texts.len() as u64);
            assert_eq!(stats.failed, 0);
            assert_eq!(stats.rejected, 0);
            // Every accepted document is accounted for in exactly one bin.
            assert_eq!(stats.submitted, stats.settled());
            assert_eq!(stats.timed_out, 0);
            assert_eq!(stats.cancelled, 0);
            assert_eq!(stats.partial, 0);
            assert_eq!(stats.respawns, 0, "fault-free run respawns nothing");
            assert_eq!(stats.poison_retries, 0);
            // Stats reconcile with the reports they summed over.
            let rows: u64 = reports.iter().map(|r| r.stats.rows_scanned).sum();
            let passes: u64 = reports.iter().map(|r| r.stats.scan_passes).sum();
            assert_eq!(stats.rows_scanned, rows);
            assert_eq!(stats.scan_passes, passes);
            let checker = service.into_checker();
            assert_eq!(
                checker.cache().inflight_len(),
                0,
                "drained shutdown leaves no dangling flights"
            );
            let fps: Vec<String> = reports.iter().map(|r| r.content_fingerprint()).collect();
            (rows, passes, fps)
        };
        let (rows_1w, passes_1w, fps_1w) = run(1);
        assert!(rows_1w > 0 && passes_1w > 0);
        assert_eq!(fps_1w, expected, "streamed == solo at 1 worker");
        for workers in [2usize, 4, 8] {
            let (rows, passes, fps) = run(workers);
            assert_eq!(rows, rows_1w, "workers={workers}: rows_scanned drifted");
            assert_eq!(
                passes, passes_1w,
                "workers={workers}: pass formation drifted"
            );
            assert_eq!(
                fps, expected,
                "workers={workers}: reports must be bit-identical"
            );
        }
    }

    /// Cross-document sharing through the canonical cache: streaming the
    /// same summary repeatedly must cost one document's scans — later
    /// in-flight documents ride the first one's fused passes (flight
    /// joins / resident hits), never re-scanning.
    #[test]
    fn later_documents_reuse_earlier_documents_passes() {
        let service =
            StreamingVerifier::new(nfl_db(), CheckerConfig::default(), StreamConfig::default())
                .unwrap();
        let first = service.submit_text(ARTICLE).unwrap().wait().unwrap();
        assert!(first.stats.rows_scanned > 0);
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| service.submit_text(ARTICLE).unwrap())
            .collect();
        for ticket in tickets {
            let report = ticket.wait().unwrap();
            assert_eq!(report.stats.rows_scanned, 0, "warm stream re-scans nothing");
            assert_eq!(report.content_fingerprint(), first.content_fingerprint());
        }
        let stats = service.stats();
        assert_eq!(stats.rows_scanned, first.stats.rows_scanned);
        assert!(stats.tasks_deduped > 0);
    }

    /// The 8-worker streaming stress test behind the CI release-job
    /// `single_flight` filter: four submitter threads race documents into
    /// the service while it drains, `close()` lands mid-stream, and every
    /// accepted document must still produce a report bit-identical to a
    /// fresh solo run — with no dangling single-flight entries afterwards.
    #[test]
    fn streaming_single_flight_stress_submit_while_draining() {
        let db = nfl_db();
        let cfg = CheckerConfig::default();
        let expected_ok = solo_fingerprint(&db, &cfg, ARTICLE);
        let expected_wrong = solo_fingerprint(&db, &cfg, WRONG);
        let service = StreamingVerifier::new(
            db,
            cfg,
            StreamConfig {
                workers: 8,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let submitters = 4usize;
        let per_thread = 8usize;
        // A pre-close batch accepted for certain, so the drain guarantee
        // is exercised even if the racing close wins every other submit.
        let mut outcomes: Vec<(bool, Result<Ticket, SubmitError>)> = (0..4)
            .map(|i| {
                let wrong = i % 2 == 0;
                let text = if wrong { WRONG } else { ARTICLE };
                (wrong, service.submit_text(text))
            })
            .collect();
        outcomes.extend(std::thread::scope(|scope| {
            let service = &service;
            let handles: Vec<_> = (0..submitters)
                .map(|t| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..per_thread {
                            let wrong = (t + i) % 3 == 0;
                            let text = if wrong { WRONG } else { ARTICLE };
                            out.push((wrong, service.submit_text(text)));
                        }
                        out
                    })
                })
                .collect();
            // Mid-stream close: submissions racing past it error with
            // `Closed`; everything accepted before it still drains.
            service.close();
            let late = service.submit_text(ARTICLE);
            assert_eq!(late.unwrap_err(), SubmitError::Closed);
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        }));
        let mut accepted = 0u64;
        for (wrong, outcome) in outcomes {
            match outcome {
                Ok(ticket) => {
                    accepted += 1;
                    let report = ticket.wait().unwrap();
                    let expected = if wrong { &expected_wrong } else { &expected_ok };
                    assert_eq!(&report.content_fingerprint(), expected);
                }
                Err(e) => assert_eq!(e, SubmitError::Closed, "only the close can reject"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, accepted);
        assert_eq!(stats.completed, accepted);
        assert_eq!(stats.rejected, 0, "close() drains, it never rejects");
        assert!(stats.in_flight_high_water >= 1);
        let checker = service.into_checker();
        assert_eq!(checker.cache().inflight_len(), 0);
    }

    /// Full-queue backpressure, `Block` policy: a capacity-1 intake admits
    /// a burst of submitters losslessly by blocking them, and the queue
    /// high-water mark proves the bound was honored.
    #[test]
    fn streaming_single_flight_backpressure_block_is_lossless() {
        let db = nfl_db();
        let service = StreamingVerifier::new(
            db.clone(),
            CheckerConfig::default(),
            StreamConfig {
                intake_capacity: 1,
                policy: IntakePolicy::Block,
                workers: 2,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let n = 12usize;
        let tickets: Vec<Ticket> = std::thread::scope(|scope| {
            let service = &service;
            let handles: Vec<_> = (0..n)
                .map(|_| scope.spawn(move || service.submit_text(ARTICLE).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expected = solo_fingerprint(&db, &CheckerConfig::default(), ARTICLE);
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().content_fingerprint(), expected);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, n as u64);
        assert_eq!(stats.completed, n as u64);
        assert_eq!(stats.queue_depth_high_water, 1, "the bound held");
    }

    /// Full-queue backpressure, `Reject` policy: once the intake is at
    /// capacity, `submit` fails fast with `Full` instead of blocking, and
    /// every *accepted* document still verifies.
    #[test]
    fn streaming_single_flight_backpressure_reject_fails_fast() {
        let db = nfl_db();
        let service = StreamingVerifier::new(
            db.clone(),
            CheckerConfig::default(),
            StreamConfig {
                intake_capacity: 1,
                policy: IntakePolicy::Reject,
                workers: 1,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        // One worker, capacity 1: a burst much faster than verification
        // must hit `Full`. (1000 sub-microsecond submissions vs
        // millisecond documents — the worker cannot keep up.)
        let mut tickets = Vec::new();
        let mut fulls = 0usize;
        for _ in 0..1000 {
            match service.submit_text(ARTICLE) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Full) => fulls += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(fulls > 0, "a capacity-1 queue must reject under a burst");
        let expected = solo_fingerprint(&db, &CheckerConfig::default(), ARTICLE);
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().content_fingerprint(), expected);
        }
        assert_eq!(service.stats().rejected, 0, "policy rejects never enqueue");
        // After the drain there is room again.
        assert!(service.submit_text(ARTICLE).is_ok());
    }

    /// Dropping the service without closing rejects what is still queued
    /// (every ticket settles — none hangs) while in-flight documents
    /// finish normally.
    #[test]
    fn drop_rejects_queued_documents() {
        let service = StreamingVerifier::new(
            nfl_db(),
            CheckerConfig::default(),
            StreamConfig {
                workers: 1,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| service.submit_text(ARTICLE).unwrap())
            .collect();
        let stats_handle = service.shared.clone();
        drop(service);
        let mut oks = 0u64;
        let mut rejected = 0u64;
        for ticket in tickets {
            assert!(ticket.is_done(), "drop settles every ticket");
            match ticket.wait() {
                Ok(_) => oks += 1,
                Err(CheckerError::Stream(_)) => rejected += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(oks + rejected, 8);
        assert!(
            rejected >= 1,
            "a single worker cannot outrun an immediate drop of 8 queued docs"
        );
        let c = *lock(&stats_handle.counters);
        assert_eq!((c.completed, c.rejected), (oks, rejected));
    }

    /// Mid-stream appends: rows added through the live service become
    /// visible to documents admitted afterwards, while checker handles
    /// pinned earlier keep their snapshot. The post-append report is
    /// bit-identical to a cold solo run over the grown database.
    #[test]
    fn append_mid_stream_refreshes_subsequent_documents() {
        let fifth_ban = || {
            vec![
                Value::from("indef"),
                Value::from("gambling"),
                Value::Int(2015),
            ]
        };
        let service =
            StreamingVerifier::new(nfl_db(), CheckerConfig::default(), StreamConfig::default())
                .unwrap();
        let before = service.submit_text(ARTICLE).unwrap().wait().unwrap();
        assert_eq!(before.status, ReportStatus::Complete);
        let pinned = service.checker();
        let w0 = pinned.db().watermark();

        assert_eq!(
            service
                .append_rows("nflsuspensions", &[fifth_ban()])
                .unwrap(),
            1
        );
        // The pinned handle keeps its snapshot; the service moved on.
        assert_eq!(pinned.db().watermark(), w0);
        assert_eq!(service.checker().db().watermark(), w0 + 1);

        let after = service.submit_text(ARTICLE).unwrap().wait().unwrap();
        assert_ne!(
            after.content_fingerprint(),
            before.content_fingerprint(),
            "the fifth lifetime ban must be visible to new documents"
        );
        let mut db = nfl_db();
        db.append_rows("nflsuspensions", &[fifth_ban()]).unwrap();
        assert_eq!(
            after.content_fingerprint(),
            solo_fingerprint(&db, &CheckerConfig::default(), ARTICLE),
            "post-append report == cold solo run over the grown database"
        );
        let stats = service.stats();
        assert_eq!(stats.completed, 2);
        // `pinned` is still held, so shutdown recovers a rebuilt twin over
        // the same database generation and shared cache.
        let checker = service.into_checker();
        assert_eq!(checker.db().watermark(), w0 + 1);
        assert!(checker.cache().stats().entries() > 0);
    }

    /// A warmed checker survives the round trip through a stream and keeps
    /// its cache (the Scrutinizer redeployment shape: service restarts
    /// must not re-scan the fact base).
    #[test]
    fn into_checker_keeps_warmed_cache() {
        let checker = AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap();
        checker.check_text(ARTICLE).unwrap();
        let entries = checker.cache().stats().entries();
        assert!(entries > 0);
        let service = StreamingVerifier::from_checker(checker, StreamConfig::default()).unwrap();
        let report = service.submit_text(ARTICLE).unwrap().wait().unwrap();
        assert_eq!(report.stats.rows_scanned, 0, "served from the warm cache");
        let checker = service.into_checker();
        assert_eq!(checker.cache().stats().entries(), entries);
        // A closed-and-recovered service cannot accept more documents,
        // but the checker verifies directly.
        checker.check_text(WRONG).unwrap();
    }

    /// The dead-pool guarantee: once the supervisor sees the last worker
    /// gone (the all-workers-panicked-past-budget scenario — normal exits
    /// only happen on a drained queue), still-queued tickets settle with
    /// `CheckerError::Stream` instead of hanging `wait()` forever, and
    /// the intake closes so nothing new can be admitted unverifiable.
    #[test]
    fn dead_pool_drain_settles_queued_tickets() {
        let shared = Shared {
            checker: RwLock::new(Arc::new(
                AggChecker::new(nfl_db(), CheckerConfig::default()).unwrap(),
            )),
            scheduler: CubeScheduler::new(),
            intake: Mutex::new(Intake::default()),
            space: Condvar::new(),
            capacity: 8,
            lane_capacity: 0,
            policy: IntakePolicy::Block,
            queue_len: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            counters: Mutex::default(),
        };
        let cell = Arc::new(TicketCell::new());
        let ctrl = Arc::new(DocControl::new(None));
        lock(&shared.intake).push(
            0,
            Submission {
                doc: parse_document(ARTICLE),
                cell: cell.clone(),
                ctrl: ctrl.clone(),
                observer: None,
            },
        );
        shared.queue_len.store(1, Ordering::Release);
        dead_pool_drain(&shared);
        assert!(!matches!(*lock(&cell.state), TicketState::Pending));
        let result = match std::mem::replace(&mut *lock(&cell.state), TicketState::Taken) {
            TicketState::Done(result) => *result,
            other => panic!("unsettled ticket: {other:?}"),
        };
        assert!(matches!(result, Err(CheckerError::Stream(_))));
        let intake = lock(&shared.intake);
        assert!(intake.closed && intake.rejecting && intake.len == 0);
        assert_eq!(lock(&shared.counters).rejected, 1);
        assert_eq!(shared.queue_len.load(Ordering::Acquire), 0);
    }

    /// A panicked worker spends respawn budget, the replacement keeps the
    /// service draining, and `respawns` records the replacement. The
    /// panic is forced by poisoning the ticket-independent path: we
    /// simulate it end-to-end in the chaos integration suite; here we
    /// verify the supervisor accounting machinery directly by observing a
    /// fault-free pool respawning nothing.
    #[test]
    fn supervisor_joins_cleanly_without_respawns() {
        let service = StreamingVerifier::new(
            nfl_db(),
            CheckerConfig::default(),
            StreamConfig {
                workers: 3,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        for _ in 0..4 {
            service.submit_text(ARTICLE).unwrap().wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.respawns, 0);
        assert_eq!(stats.completed, 4);
        // into_checker joins supervisor + workers; reaching here without
        // a hang is the assertion.
        let _ = service.into_checker();
    }

    /// An already-expired deadline settles as a `TimedOut` *partial*
    /// report — every claim `Unverified`, nothing scanned, the ticket
    /// never hangs, and the document lands in the `timed_out` bin.
    #[test]
    fn expired_deadline_settles_partial_report() {
        let db = nfl_db();
        let service =
            StreamingVerifier::new(db, CheckerConfig::default(), StreamConfig::default()).unwrap();
        let ticket = service
            .submit_text_with_deadline(ARTICLE, Some(Instant::now()))
            .unwrap();
        let report = ticket.wait().unwrap();
        assert_eq!(report.status, ReportStatus::TimedOut);
        assert!(report.status.is_partial());
        assert!(!report.claims.is_empty(), "claims are still detected");
        for claim in &report.claims {
            assert_eq!(claim.verdict, crate::pipeline::Verdict::Unverified);
            assert!(claim.top_queries.is_empty());
        }
        assert_eq!(report.stats.rows_scanned, 0, "expired docs never scan");
        let stats = service.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.partial, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.submitted, stats.settled());
        // A generous deadline on the same service still completes fully.
        let ok = service
            .submit_text_with_deadline(
                ARTICLE,
                Some(Instant::now() + std::time::Duration::from_secs(60)),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ok.status, ReportStatus::Complete);
        assert!(ok.claims.iter().all(|c| !c.top_queries.is_empty()));
    }

    /// Cancelling a still-queued submission de-queues it immediately:
    /// the ticket settles (from the cancelling thread) with a `Cancelled`
    /// partial report, and the worker never sees the document.
    #[test]
    fn cancel_dequeues_and_settles_immediately() {
        let service = StreamingVerifier::new(
            nfl_db(),
            CheckerConfig::default(),
            StreamConfig {
                workers: 1,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        // Fillers keep the single worker busy for several milliseconds,
        // so the cancel (microseconds later) beats the queue's tail.
        let fillers: Vec<Ticket> = (0..3)
            .map(|_| service.submit_text(ARTICLE).unwrap())
            .collect();
        let victim = service.submit_text(WRONG).unwrap();
        victim.cancel();
        assert!(victim.is_done(), "cancel settles a queued ticket in place");
        let report = victim.wait().unwrap();
        assert_eq!(report.status, ReportStatus::Cancelled);
        assert!(report
            .claims
            .iter()
            .all(|c| c.verdict == crate::pipeline::Verdict::Unverified));
        for t in fillers {
            let r = t.wait().unwrap();
            assert_eq!(r.status, ReportStatus::Complete, "siblings unaffected");
        }
        let stats = service.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.partial, 1);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.submitted, stats.settled());
        let checker = service.into_checker();
        assert_eq!(checker.cache().inflight_len(), 0);
    }

    /// Cancelling after the report settled is a no-op: the report stays
    /// complete and no `cancelled` bin is charged.
    #[test]
    fn cancel_after_completion_is_noop() {
        let service =
            StreamingVerifier::new(nfl_db(), CheckerConfig::default(), StreamConfig::default())
                .unwrap();
        let ticket = service.submit_text(ARTICLE).unwrap();
        while !ticket.is_done() {
            std::thread::yield_now();
        }
        ticket.cancel();
        let report = ticket.wait().unwrap();
        assert_eq!(report.status, ReportStatus::Complete);
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cancelled, 0);
        assert_eq!(stats.partial, 0);
    }

    #[test]
    fn invalid_stream_config_is_rejected() {
        let bad = StreamConfig {
            intake_capacity: 0,
            ..StreamConfig::default()
        };
        assert!(matches!(
            StreamingVerifier::new(nfl_db(), CheckerConfig::default(), bad),
            Err(CheckerError::Config(_))
        ));
    }

    /// A per-wave observer sees at least one wave, the final wave is
    /// flagged `last`, and its verdicts/probabilities agree with the
    /// settled report — observation never perturbs evaluation (the
    /// observed report stays bit-identical to solo).
    #[test]
    fn progress_observer_matches_settled_report() {
        use crate::pipeline::ClaimProgress;

        #[derive(Default)]
        struct Recorder {
            waves: Mutex<Vec<(usize, bool, Vec<ClaimProgress>)>>,
        }
        impl ProgressObserver for Recorder {
            fn wave_complete(&self, wave: usize, last: bool, claims: &[ClaimProgress]) {
                lock(&self.waves).push((wave, last, claims.to_vec()));
            }
        }

        let db = nfl_db();
        let cfg = CheckerConfig::default();
        let solo = solo_fingerprint(&db, &cfg, ARTICLE);
        let service = StreamingVerifier::new(db, cfg, StreamConfig::default()).unwrap();
        let recorder = Arc::new(Recorder::default());
        let ticket = service
            .submit_text_with(
                ARTICLE,
                SubmitOptions {
                    observer: Some(recorder.clone()),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let report = ticket.wait().unwrap();
        assert_eq!(report.content_fingerprint(), solo, "observation is free");

        let waves = lock(&recorder.waves);
        assert!(!waves.is_empty(), "at least one wave is observed");
        // Waves arrive in order, exactly one is last, and it is the final one.
        for (i, (wave, _, _)) in waves.iter().enumerate() {
            assert_eq!(*wave, i + 1);
        }
        assert_eq!(waves.iter().filter(|(_, last, _)| *last).count(), 1);
        let (wave, last, progress) = waves.last().unwrap();
        assert!(*last);
        assert_eq!(*wave, report.stats.em_iterations);
        assert_eq!(progress.len(), report.claims.len());
        for (p, c) in progress.iter().zip(&report.claims) {
            assert_eq!(p.claim, c.mention.id);
            assert_eq!(p.verdict, c.verdict);
            assert_eq!(p.claimed_value.to_bits(), c.claimed_value.to_bits());
            assert_eq!(
                p.correctness_probability.to_bits(),
                c.correctness_probability.to_bits()
            );
        }
    }

    /// Observer that blocks the driving worker at every wave boundary
    /// until released — pins a 1-worker pool deterministically so
    /// intake-order tests are race-free.
    struct GateObserver {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl GateObserver {
        fn new() -> Arc<GateObserver> {
            Arc::new(GateObserver {
                open: Mutex::new(false),
                cv: Condvar::new(),
            })
        }

        fn release(&self) {
            *lock(&self.open) = true;
            self.cv.notify_all();
        }
    }

    impl ProgressObserver for GateObserver {
        fn wave_complete(&self, _: usize, _: bool, _: &[crate::pipeline::ClaimProgress]) {
            let mut open = lock(&self.open);
            while !*open {
                open = self
                    .cv
                    .wait(open)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }

    /// Observer that logs a tag when a document's final wave completes —
    /// records the order the pool actually served documents in.
    struct TagObserver {
        name: &'static str,
        log: Arc<Mutex<Vec<&'static str>>>,
    }

    impl ProgressObserver for TagObserver {
        fn wave_complete(&self, _: usize, last: bool, _: &[crate::pipeline::ClaimProgress]) {
            if last {
                lock(&self.log).push(self.name);
            }
        }
    }

    /// Round-robin lane fairness: with one worker and a flooded lane, the
    /// light client's single document is served right after the flooder's
    /// *first* document — bounded skew — instead of behind its whole
    /// backlog. Deterministic: a gate observer pins the worker inside the
    /// first document until every submission is queued.
    #[test]
    fn lanes_drain_round_robin() {
        let service = StreamingVerifier::new(
            nfl_db(),
            CheckerConfig::default(),
            StreamConfig {
                workers: 1,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let gate = GateObserver::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::default();
        let tag = |name| {
            Some(Arc::new(TagObserver {
                name,
                log: log.clone(),
            }) as Arc<dyn ProgressObserver>)
        };
        let stall = service
            .submit_text_with(
                ARTICLE,
                SubmitOptions {
                    observer: Some(gate.clone()),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        // Pinned worker: wait until the stall document is in flight, so
        // every queue-depth observation below is exact.
        while service.in_flight() == 0 {
            std::thread::yield_now();
        }
        let flood: Vec<Ticket> = (0..6)
            .map(|_| {
                service
                    .submit_text_with(
                        WRONG,
                        SubmitOptions {
                            lane: 1,
                            observer: tag("flood"),
                            ..SubmitOptions::default()
                        },
                    )
                    .unwrap()
            })
            .collect();
        let light = service
            .submit_text_with(
                ARTICLE,
                SubmitOptions {
                    lane: 2,
                    observer: tag("light"),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        assert_eq!(service.queue_depth(), 7);
        let depths = service.lane_depths();
        assert!(
            depths.contains(&(1, 6)) && depths.contains(&(2, 1)),
            "{depths:?}"
        );
        gate.release();
        stall.wait().unwrap();
        light.wait().unwrap();
        for t in flood {
            t.wait().unwrap();
        }
        // The worker served: flood #1 (round-robin start), then the light
        // lane, then the rest of the flood — skew bounded by one document.
        let order = lock(&log).clone();
        assert_eq!(
            order,
            vec!["flood", "light", "flood", "flood", "flood", "flood", "flood"],
        );
        assert!(service.lane_depths().is_empty(), "drained lanes are pruned");
        let stats = service.stats();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.submitted, stats.settled());
    }

    /// A per-lane cap (`lane_capacity`) rejects the flooder's overflow
    /// while other lanes still have room. Deterministic via the gate: the
    /// single worker is pinned, so queue depths cannot drain mid-test.
    #[test]
    fn lane_capacity_bounds_one_client() {
        let service = StreamingVerifier::new(
            nfl_db(),
            CheckerConfig::default(),
            StreamConfig {
                workers: 1,
                intake_capacity: 16,
                lane_capacity: 2,
                policy: IntakePolicy::Reject,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let gate = GateObserver::new();
        let stall = service
            .submit_text_with(
                ARTICLE,
                SubmitOptions {
                    observer: Some(gate.clone()),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        // Pinned worker: wait until it has the stall document in flight,
        // so nothing below can drain.
        while service.in_flight() == 0 {
            std::thread::yield_now();
        }
        let lane = |l| SubmitOptions {
            lane: l,
            ..SubmitOptions::default()
        };
        let mut accepted = Vec::new();
        for i in 0..4 {
            match service.submit_with(parse_document(WRONG), lane(1)) {
                Ok(t) => {
                    assert!(i < 2, "lane cap is 2");
                    accepted.push(t);
                }
                Err(SubmitError::Full) => assert!(i >= 2, "under-cap submit rejected"),
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(accepted.len(), 2);
        // The capped lane being full must not block other lanes.
        accepted.push(
            service
                .submit_with(parse_document(ARTICLE), lane(2))
                .unwrap(),
        );
        gate.release();
        stall.wait().unwrap();
        for t in accepted {
            t.wait().unwrap();
        }
    }

    /// `submit_batch` admits everything under one lock hold and one kick;
    /// results and dedup counters stay identical to one-by-one admission.
    #[test]
    fn submit_batch_coalesces_admission() {
        let db = nfl_db();
        let cfg = CheckerConfig::default();
        let texts = [ARTICLE, WRONG, ARTICLE, WRONG];
        let expected: Vec<String> = texts
            .iter()
            .map(|t| solo_fingerprint(&db, &cfg, t))
            .collect();
        let service = StreamingVerifier::new(
            db,
            cfg,
            StreamConfig {
                workers: 4,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let docs: Vec<Document> = texts.iter().map(|t| parse_document(t)).collect();
        let tickets = service
            .submit_batch(docs, SubmitOptions::default())
            .unwrap();
        assert_eq!(tickets.len(), texts.len());
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            assert_eq!(ticket.wait().unwrap().content_fingerprint(), *want);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, texts.len() as u64);
        assert_eq!(stats.completed, texts.len() as u64);
        // An oversized batch can never fit and fails fast either way.
        let service2 = StreamingVerifier::new(
            nfl_db(),
            CheckerConfig::default(),
            StreamConfig {
                intake_capacity: 2,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let too_many: Vec<Document> = (0..3).map(|_| parse_document(ARTICLE)).collect();
        assert_eq!(
            service2
                .submit_batch(too_many, SubmitOptions::default())
                .err(),
            Some(SubmitError::Full)
        );
        assert_eq!(service2.stats().submitted, 0);
    }

    /// `try_take` polls without consuming: `None` while pending, the
    /// report exactly once when settled, and a later `wait` reports the
    /// result as already taken instead of panicking or hanging.
    #[test]
    fn try_take_polls_without_blocking() {
        let service =
            StreamingVerifier::new(nfl_db(), CheckerConfig::default(), StreamConfig::default())
                .unwrap();
        let ticket = service.submit_text(ARTICLE).unwrap();
        while !ticket.is_done() {
            std::thread::yield_now();
        }
        let report = ticket.try_take().expect("settled").unwrap();
        assert_eq!(report.status, ReportStatus::Complete);
        assert!(ticket.try_take().is_none(), "a report is taken once");
        assert!(matches!(ticket.wait(), Err(CheckerError::Stream(_))));
    }
}
