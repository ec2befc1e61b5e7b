//! Tests that install a **non-zero** [`FaultPlan`].
//!
//! The chaos hooks are process-global, so an installed plan is visible to
//! every thread of the test binary it is installed in. These tests
//! therefore live in a binary of their own in which *every* test holds a
//! [`agg_relational::chaos::ChaosGuard`] from its first statement to its
//! last (the guard also serializes them), so no test here — and no test of
//! any other binary — can cross a hook under a plan it did not install.
//! Keep it that way: a test added here must call `install` first.

use agg_relational::block::BLOCK_ROWS;
use agg_relational::chaos::{
    inject_flight_poison, inject_wave_guard_drop, install, is_chaos_panic, scan_block_cross,
    FaultPlan,
};
use agg_relational::{
    run_wave, AggColumn, AggFunction, CacheKey, ColumnRef, CubeQuery, CubeTask, Database,
    EvalCache, Flight, ScanGroup, Table, Value,
};
use std::sync::Arc;

#[test]
fn periodic_plan_fires_deterministically() {
    let plan = FaultPlan {
        seed: 1,
        poison_every_flights: 3,
        poison_every_wave_guards: 2,
        ..FaultPlan::default()
    };
    let run = || {
        let guard = install(plan);
        let flights: Vec<bool> = (0..12).map(|_| inject_flight_poison()).collect();
        let guards: Vec<bool> = (0..12).map(|_| inject_wave_guard_drop()).collect();
        assert_eq!(guard.injected_flight_poisons(), 4);
        assert_eq!(guard.injected_guard_drops(), 6);
        (flights, guards)
    };
    assert_eq!(run(), run(), "same plan, same firing pattern");
}

#[test]
fn scan_panic_is_tagged_and_counted() {
    let guard = install(FaultPlan {
        panic_every_scan_blocks: 1,
        ..FaultPlan::default()
    });
    let payload = std::panic::catch_unwind(scan_block_cross).unwrap_err();
    assert!(is_chaos_panic(payload.as_ref()));
    assert_eq!(guard.injected_panics(), 1);
}

/// An injected panic inside ONE partition subtask of a fanned-out pass
/// must fail EVERY member task, poison their registered flights (waking
/// waiters), and leave no merge barrier hung — then re-raise on the
/// executing thread so a supervisor can see the death.
#[test]
fn partition_subtask_panic_fails_all_members_and_notifies_waiters() {
    // Seed 0, period 2: partition 0's single block crosses the hook at
    // n=1 (clean), partition 1 panics at n=2.
    let chaos = install(FaultPlan {
        seed: 0,
        panic_every_scan_blocks: 2,
        ..FaultPlan::default()
    });

    let rows = 3 * BLOCK_ROWS; // 3 one-block partitions at span 1
    let cats: Vec<Value> = (0..rows).map(|i| ["a", "b", "c"][i % 3].into()).collect();
    let t = Table::from_columns("t", vec![("cat", cats)]).unwrap();
    let mut db = Database::new("d");
    db.add_table(t);
    let db = Arc::new(db);
    let count_cube = |literal: &str| CubeQuery {
        dims: vec![db.resolve("t", "cat").unwrap()],
        relevant: vec![vec![literal.into()].into()],
        aggregates: vec![(AggFunction::Count, AggColumn::Star)],
    };

    let cache = EvalCache::new();
    let key = CacheKey::new(
        AggFunction::Count,
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

    let (task_a, handle_a) = CubeTask::new(count_cube("a"), vec![(0, AggFunction::Count, guard)]);
    let (task_b, handle_b) = CubeTask::new(count_cube("b"), Vec::new());
    let mut groups = ScanGroup::fuse(vec![task_a, task_b]);
    assert_eq!(groups.len(), 1, "one shared scope fuses into one pass");
    for group in &mut groups {
        group.set_partition_blocks(1);
    }
    let handles = [handle_a, handle_b];

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_wave(&db, None, groups, &handles, 1);
    }));
    assert!(chaos.injected_panics() >= 1, "the plan must actually fire");
    // The members settle BEFORE the payload re-raises: the driver's
    // unwind is observable here, not a hang.
    assert!(unwound.is_err(), "the chaos panic re-raises after settling");

    for (i, handle) in handles.iter().enumerate() {
        assert!(handle.is_done(), "member {i} hung on the merge barrier");
        assert!(
            handle.result().is_err(),
            "member {i}: one partition's panic fails the whole pass"
        );
    }
    assert!(
        waiter.wait().is_none(),
        "the failed member's flight was poisoned, waking its waiters"
    );
}
