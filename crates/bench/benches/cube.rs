//! Microbenchmark: the CUBE operator versus equivalent per-query scans
//! (the mechanism behind Table 6's "+ Query Merging" row), plus the
//! executor's dense-grid and hashed-fallback variants.
//!
//! For the machine-readable variant (including the frozen seed-executor
//! baseline) run `cargo run --release -p agg-bench --bin bench_cube`.

use agg_relational::{
    execute_query, AggColumn, AggFunction, CubeOptions, CubeQuery, Database, Predicate,
    SimpleAggregateQuery, Table, Value,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthetic_db(rows: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(42);
    let cats = ["alpha", "beta", "gamma", "delta", "epsilon"];
    let regions = ["north", "south", "east", "west"];
    let cat_col: Vec<Value> = (0..rows)
        .map(|_| Value::Str(cats[rng.gen_range(0..cats.len())].into()))
        .collect();
    let region_col: Vec<Value> = (0..rows)
        .map(|_| Value::Str(regions[rng.gen_range(0..regions.len())].into()))
        .collect();
    let amount: Vec<Value> = (0..rows)
        .map(|_| Value::Int(rng.gen_range(0..1000)))
        .collect();
    let t = Table::from_columns(
        "facts",
        vec![("cat", cat_col), ("region", region_col), ("amount", amount)],
    )
    .unwrap();
    let mut db = Database::new("bench");
    db.add_table(t);
    db
}

fn bench_cube_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube_vs_naive");
    for rows in [1_000usize, 10_000] {
        let db = synthetic_db(rows);
        let cat = db.resolve("facts", "cat").unwrap();
        let region = db.resolve("facts", "region").unwrap();
        let amount = db.resolve("facts", "amount").unwrap();
        let cats = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let regions = ["north", "south", "east", "west"];

        // The cube covers all 5×4 literal combinations plus rollups: 30
        // addressable groups × 2 aggregates = 60 query results per scan.
        let cube = CubeQuery {
            dims: vec![cat, region],
            relevant: vec![
                cats.iter().map(|s| Value::from(*s)).collect(),
                regions.iter().map(|s| Value::from(*s)).collect(),
            ],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Sum, AggColumn::Column(amount)),
            ],
        };
        group.bench_with_input(BenchmarkId::new("cube_once", rows), &rows, |b, _| {
            b.iter(|| cube.execute(&db).unwrap());
        });

        // Executor matrix: dense grid vs hashed fallback.
        let hashed = CubeOptions {
            dense_cell_cap: 0,
            ..CubeOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("cube_hashed_1t", rows), &rows, |b, _| {
            b.iter(|| cube.execute_with(&db, &hashed).unwrap());
        });
        let dense = CubeOptions::default();
        group.bench_with_input(BenchmarkId::new("cube_dense_1t", rows), &rows, |b, _| {
            b.iter(|| cube.execute_with(&db, &dense).unwrap());
        });

        // The equivalent naive workload: every (cat, region) combination
        // (including unrestricted) for both aggregates.
        let mut queries = Vec::new();
        for f in [
            (AggFunction::Count, AggColumn::Star),
            (AggFunction::Sum, AggColumn::Column(amount)),
        ] {
            for c_lit in cats.iter().map(Some).chain([None]) {
                for r_lit in regions.iter().map(Some).chain([None]) {
                    let mut preds = Vec::new();
                    if let Some(cl) = c_lit {
                        preds.push(Predicate::new(cat, *cl));
                    }
                    if let Some(rl) = r_lit {
                        preds.push(Predicate::new(region, *rl));
                    }
                    queries.push(SimpleAggregateQuery::new(f.0, f.1, preds));
                }
            }
        }
        group.bench_with_input(BenchmarkId::new("naive_equivalent", rows), &rows, |b, _| {
            b.iter(|| {
                for q in &queries {
                    execute_query(&db, q).unwrap();
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cube_vs_naive);
criterion_main!(benches);
