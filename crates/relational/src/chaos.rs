//! Deterministic fault injection for the execution substrate.
//!
//! Robustness claims — "no ticket ever hangs", "a drained shutdown leaves
//! no in-flight cache entry" — are worthless if they are only ever tested
//! on the happy path. This module compiles in (under
//! `cfg(any(test, feature = "chaos"))`) a set of **named hook points** in
//! the scan kernel, the wave orchestrator, and the single-flight cache,
//! all driven by one seeded [`FaultPlan`]:
//!
//! * [`scan_block_cross`] — called at the top of every
//!   [`DenseGrid::scan_block`](crate::cube) invocation, i.e. once per
//!   scanned block *inside* fused row passes. Injects panics (a worker
//!   dying mid-pass) and delays (a slow scan stretching the window in
//!   which other waves race the cache).
//! * [`inject_flight_poison`] — consulted by
//!   [`EvalCache::flight`](crate::cache::EvalCache::flight) before
//!   registering a fresh computation. A firing hook hands the caller an
//!   already-poisoned flight instead, exercising the bounded
//!   poison-retry path without ever leaking an `inflight` entry.
//! * [`inject_wave_guard_drop`] — consulted by
//!   [`run_requests`](crate::schedule::run_requests) for each flight
//!   guard a wave probe won. A firing hook drops the guard (poisoning
//!   the flight for every joined waiter) while the wave still computes
//!   the aggregate for itself — the "publisher crashed between claim and
//!   publish" shape.
//!
//! Faults are **deterministic**: each hook keeps a global invocation
//! counter and fires when `(count + seed) % every == 0`, so a given plan
//! over a given workload injects the same faults in the same order (up to
//! thread interleaving of the counter increments, which only permutes
//! *which* concurrent caller absorbs each fault). A plan with every
//! `*_every_*` knob at 0 injects nothing, and the fast path is one relaxed
//! atomic load — the zero-fault proptest pins that enabling the layer
//! changes no report bit.
//!
//! Install a plan with [`install`]; the returned [`ChaosGuard`] deactivates
//! it on drop and serializes chaos tests against each other. The hooks are
//! process-global, so a fault-injecting plan is visible to every thread of
//! the process: install one only in a test binary whose every test holds a
//! guard (`tests/chaos.rs` here and in the workspace root) — never in this
//! crate's unit tests, which scan blocks on parallel test threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn lock<'m, T>(m: &'m Mutex<T>) -> MutexGuard<'m, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One seeded fault-injection plan. Every `*_every_*` knob means "fire at
/// each Nth hook crossing" with 0 disabling that fault entirely; `seed`
/// phase-shifts the firing pattern so different seeds exercise different
/// interleavings of the same workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Phase shift applied to every hook counter.
    pub seed: u64,
    /// Panic at every Nth scan block (0 = never). The panic payload
    /// contains `"chaos"`, so suites can tell injected panics from real
    /// ones.
    pub panic_every_scan_blocks: u64,
    /// Sleep [`FaultPlan::delay_micros`] at every Nth scan block (0 =
    /// never) — a slow scan inside a fused pass.
    pub delay_every_scan_blocks: u64,
    /// Duration of an injected scan delay.
    pub delay_micros: u64,
    /// Hand out an already-poisoned flight at every Nth fresh
    /// [`EvalCache::flight`](crate::cache::EvalCache::flight) registration
    /// (0 = never).
    pub poison_every_flights: u64,
    /// Drop every Nth wave-probe flight guard before execution (0 =
    /// never).
    pub poison_every_wave_guards: u64,
}

impl FaultPlan {
    /// A plan that injects nothing — the zero-fault control arm.
    pub fn zero(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Does this plan inject any fault at all?
    pub fn is_zero(&self) -> bool {
        self.panic_every_scan_blocks == 0
            && self.delay_every_scan_blocks == 0
            && self.poison_every_flights == 0
            && self.poison_every_wave_guards == 0
    }
}

/// Per-hook crossing and injection counters for one installed plan.
#[derive(Debug, Default)]
struct Hooks {
    scan_blocks: AtomicU64,
    flights: AtomicU64,
    wave_guards: AtomicU64,
    injected_panics: AtomicU64,
    injected_delays: AtomicU64,
    injected_flight_poisons: AtomicU64,
    injected_guard_drops: AtomicU64,
}

#[derive(Debug)]
struct ChaosState {
    plan: FaultPlan,
    hooks: Hooks,
}

/// The currently-installed plan, if any. `ENABLED` mirrors `is_some()` so
/// the disabled fast path is a single atomic load, never a lock.
static ACTIVE: Mutex<Option<Arc<ChaosState>>> = Mutex::new(None);
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Serializes chaos tests: the hooks are process-global, so two plans must
/// never be active at once. Held by the [`ChaosGuard`] for its lifetime.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// Activate `plan` process-wide until the returned guard drops. Blocks
/// while another guard is alive (chaos tests serialize on this).
pub fn install(plan: FaultPlan) -> ChaosGuard {
    let serial = lock(&INSTALL_LOCK);
    let state = Arc::new(ChaosState {
        plan,
        hooks: Hooks::default(),
    });
    *lock(&ACTIVE) = Some(state.clone());
    ENABLED.store(true, Ordering::Release);
    ChaosGuard {
        state,
        _serial: serial,
    }
}

/// Keeps a [`FaultPlan`] active and exposes what it actually injected;
/// dropping it deactivates the plan and releases the chaos serialization
/// lock.
pub struct ChaosGuard {
    state: Arc<ChaosState>,
    _serial: MutexGuard<'static, ()>,
}

impl ChaosGuard {
    /// Scan-block panics injected so far.
    pub fn injected_panics(&self) -> u64 {
        self.state.hooks.injected_panics.load(Ordering::Relaxed)
    }

    /// Scan-block delays injected so far.
    pub fn injected_delays(&self) -> u64 {
        self.state.hooks.injected_delays.load(Ordering::Relaxed)
    }

    /// Fresh flights handed out pre-poisoned so far.
    pub fn injected_flight_poisons(&self) -> u64 {
        self.state
            .hooks
            .injected_flight_poisons
            .load(Ordering::Relaxed)
    }

    /// Wave-probe guards dropped before execution so far.
    pub fn injected_guard_drops(&self) -> u64 {
        self.state
            .hooks
            .injected_guard_drops
            .load(Ordering::Relaxed)
    }

    /// Total faults of any kind injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected_panics()
            + self.injected_delays()
            + self.injected_flight_poisons()
            + self.injected_guard_drops()
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
        *lock(&ACTIVE) = None;
    }
}

fn active() -> Option<Arc<ChaosState>> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    lock(&ACTIVE).clone()
}

/// Does the `count`-th crossing of a hook with period `every` fire?
fn fires(count: u64, every: u64, seed: u64) -> bool {
    every != 0 && (count + seed).is_multiple_of(every)
}

/// Hook: one scan block is about to be processed (inside a fused pass or a
/// solo scan alike). May sleep, may panic — with a `"chaos"`-tagged
/// payload — per the installed plan.
pub fn scan_block_cross() {
    let Some(state) = active() else { return };
    let n = state.hooks.scan_blocks.fetch_add(1, Ordering::Relaxed) + 1;
    let plan = &state.plan;
    if fires(n, plan.delay_every_scan_blocks, plan.seed) {
        state.hooks.injected_delays.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_micros(plan.delay_micros));
    }
    if fires(n, plan.panic_every_scan_blocks, plan.seed) {
        state.hooks.injected_panics.fetch_add(1, Ordering::Relaxed);
        panic!("chaos: injected scan-block panic at crossing {n}");
    }
}

/// Hook: the cache is about to register a fresh in-flight computation.
/// Returns true if the caller should instead hand out an already-poisoned
/// flight (simulating a computer that died before anyone could join).
pub fn inject_flight_poison() -> bool {
    let Some(state) = active() else { return false };
    let n = state.hooks.flights.fetch_add(1, Ordering::Relaxed) + 1;
    if fires(n, state.plan.poison_every_flights, state.plan.seed) {
        state
            .hooks
            .injected_flight_poisons
            .fetch_add(1, Ordering::Relaxed);
        return true;
    }
    false
}

/// Hook: a wave probe won a flight guard. Returns true if the guard should
/// be dropped (poisoning its flight) before the wave executes — the
/// "crashed between claim and publish" shape.
pub fn inject_wave_guard_drop() -> bool {
    let Some(state) = active() else { return false };
    let n = state.hooks.wave_guards.fetch_add(1, Ordering::Relaxed) + 1;
    if fires(n, state.plan.poison_every_wave_guards, state.plan.seed) {
        state
            .hooks
            .injected_guard_drops
            .fetch_add(1, Ordering::Relaxed);
        return true;
    }
    false
}

/// Is the payload of a caught panic one of ours?
pub fn is_chaos_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| s.contains("chaos"))
        .or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(|s| s.contains("chaos"))
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_injects_nothing() {
        let guard = install(FaultPlan::zero(42));
        assert!(guard.state.plan.is_zero());
        for _ in 0..100 {
            scan_block_cross();
            assert!(!inject_flight_poison());
            assert!(!inject_wave_guard_drop());
        }
        assert_eq!(guard.injected_total(), 0);
    }

    #[test]
    fn uninstalled_hooks_are_inert() {
        // Serialize against other chaos tests, then drop the plan.
        drop(install(FaultPlan::zero(0)));
        scan_block_cross();
        assert!(!inject_flight_poison());
        assert!(!inject_wave_guard_drop());
    }
}
