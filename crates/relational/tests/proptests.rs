//! Property-based tests of the relational engine's core invariants.

use agg_relational::{
    execute_query, run_wave, AggColumn, AggFunction, ColumnMeta, CubeOptions, CubeQuery, CubeTask,
    DataType, Database, DimSel, GridMode, Predicate, ScanGroup, SimpleAggregateQuery,
    StringDictionary, Table, TableSchema, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// String dictionary
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn dictionary_intern_resolve_round_trip(words in prop::collection::vec("[a-zA-Z]{1,10}", 1..40)) {
        let mut dict = StringDictionary::new();
        let codes: Vec<u32> = words.iter().map(|w| dict.intern(w)).collect();
        for (w, c) in words.iter().zip(&codes) {
            // Lookup by any casing returns the same code.
            prop_assert_eq!(dict.code_of(&w.to_uppercase()), Some(*c));
            // The resolved spelling matches case-insensitively.
            let resolved = dict.resolve(*c).unwrap();
            prop_assert!(resolved.eq_ignore_ascii_case(w));
        }
        // Codes are dense: 0..len.
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), dict.len());
        prop_assert!(unique.iter().all(|c| (*c as usize) < dict.len()));
    }

    #[test]
    fn csv_parser_never_panics(input in "[ -~\\n\"]{0,200}") {
        // Structurally broken input may error, but must never panic.
        let _ = agg_relational::csv::parse_csv(&input);
    }

    #[test]
    fn parse_cell_classifies_integers(v in -1_000_000i64..1_000_000) {
        prop_assert_eq!(Value::parse_cell(&v.to_string()), Value::Int(v));
    }
}

// ---------------------------------------------------------------------------
// Cube execution ≡ naive execution on random data
// ---------------------------------------------------------------------------

fn random_db(rows: &[(u8, u8, i64)]) -> Database {
    let cats = ["a", "b", "c"];
    let regions = ["x", "y"];
    let table = Table::from_columns(
        "t",
        vec![
            (
                "cat",
                rows.iter()
                    .map(|(c, _, _)| Value::Str(cats[*c as usize].into()))
                    .collect(),
            ),
            (
                "region",
                rows.iter()
                    .map(|(_, r, _)| Value::Str(regions[*r as usize].into()))
                    .collect(),
            ),
            ("num", rows.iter().map(|(_, _, n)| Value::Int(*n)).collect()),
        ],
    )
    .unwrap();
    let mut db = Database::new("p");
    db.add_table(table);
    db
}

/// An arbitrary valid simple aggregate query over the fixed schema.
fn arb_query() -> impl Strategy<Value = (u8, bool, Option<u8>, Option<u8>)> {
    // (function selector, use num column, cat literal, region literal)
    (
        0u8..8,
        any::<bool>(),
        prop::option::of(0u8..3),
        prop::option::of(0u8..2),
    )
}

fn materialize_query(
    db: &Database,
    (f, use_num, cat_lit, region_lit): (u8, bool, Option<u8>, Option<u8>),
) -> Option<SimpleAggregateQuery> {
    let cats = ["a", "b", "c"];
    let regions = ["x", "y"];
    let cat = db.resolve("t", "cat").unwrap();
    let region = db.resolve("t", "region").unwrap();
    let num = db.resolve("t", "num").unwrap();
    let function = AggFunction::ALL[f as usize];
    let column = match function {
        AggFunction::Count | AggFunction::Percentage | AggFunction::ConditionalProbability => {
            if use_num {
                AggColumn::Column(num)
            } else {
                AggColumn::Star
            }
        }
        AggFunction::CountDistinct => AggColumn::Column(if use_num { num } else { cat }),
        _ => AggColumn::Column(num),
    };
    let mut predicates = Vec::new();
    if let Some(l) = cat_lit {
        predicates.push(Predicate::new(cat, cats[l as usize]));
    }
    if let Some(l) = region_lit {
        predicates.push(Predicate::new(region, regions[l as usize]));
    }
    if function == AggFunction::ConditionalProbability && predicates.is_empty() {
        return None;
    }
    Some(SimpleAggregateQuery::new(function, column, predicates))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cube_grid_modes_and_naive_scans_agree(
        rows in prop::collection::vec(
            // (category, region, tier selector, nullable numeric): cat 4,
            // region 3 and tier 2 encode NULL cells; numerics repeat.
            (0u8..5, 0u8..4, 0u8..3, prop::option::of(-6i64..6)),
            1..50,
        ),
        threads in 2usize..5,
    ) {
        // "ghost" never occurs in the data (empty-group lookups); "gamma"
        // and "delta" occur but are *not* relevant (OTHER-bucket coverage).
        let cat_names = [Some("alpha"), Some("beta"), Some("gamma"), Some("delta"), None];
        let region_names = [Some("north"), Some("south"), Some("east"), None];
        let tier_names = [Some("gold"), Some("tin"), None];
        let mut table = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnMeta::new("cat", DataType::Str),
                ColumnMeta::new("region", DataType::Str),
                ColumnMeta::new("tier", DataType::Str),
                ColumnMeta::new("num", DataType::Int),
            ],
        ));
        for (c, r, t, n) in &rows {
            table
                .push_row(&[
                    cat_names[*c as usize].map(Value::from).unwrap_or(Value::Null),
                    region_names[*r as usize].map(Value::from).unwrap_or(Value::Null),
                    tier_names[*t as usize].map(Value::from).unwrap_or(Value::Null),
                    n.map(Value::Int).unwrap_or(Value::Null),
                ])
                .unwrap();
        }
        let mut db = Database::new("p");
        db.add_table(table);
        let cat = db.resolve("t", "cat").unwrap();
        let region = db.resolve("t", "region").unwrap();
        let tier = db.resolve("t", "tier").unwrap();
        let num = db.resolve("t", "num").unwrap();

        let cat_relevant = ["alpha", "beta", "ghost"];
        let region_relevant = ["north"];
        let tier_relevant = ["gold"];
        let cube = CubeQuery {
            dims: vec![cat, region, tier],
            relevant: vec![
                cat_relevant.iter().map(|s| Value::from(*s)).collect(),
                region_relevant.iter().map(|s| Value::from(*s)).collect(),
                tier_relevant.iter().map(|s| Value::from(*s)).collect(),
            ],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Count, AggColumn::Column(num)),
                (AggFunction::Sum, AggColumn::Column(num)),
                (AggFunction::Avg, AggColumn::Column(num)),
                (AggFunction::Min, AggColumn::Column(num)),
                (AggFunction::Max, AggColumn::Column(num)),
                (AggFunction::CountDistinct, AggColumn::Column(num)),
                (AggFunction::CountDistinct, AggColumn::Column(cat)),
                (AggFunction::Median, AggColumn::Column(num)),
            ],
        };

        let dense = cube.execute(&db).unwrap();
        prop_assert_eq!(dense.stats.grid_mode, GridMode::Dense);
        let hashed = cube
            .execute_with(&db, &CubeOptions { dense_cell_cap: 0, ..CubeOptions::default() })
            .unwrap();
        prop_assert_eq!(hashed.stats.grid_mode, GridMode::Hashed);
        // The production fan-out (`run_wave`) at `threads` workers. Under 50
        // rows is a single 2048-row partition, so the pass never explodes:
        // the submitting worker runs it in-process by construction.
        let db = Arc::new(db);
        let (task, handle) = CubeTask::new(cube.clone(), Vec::new());
        let mut groups = ScanGroup::fuse(vec![task]);
        groups[0].set_partition_blocks(1);
        run_wave(&db, None, groups, std::slice::from_ref(&handle), threads);
        let parallel = handle.into_result().unwrap();
        prop_assert_eq!(parallel.stats.partitions_scanned, 0);

        // Every addressable (selector, aggregate) combination must agree
        // with a naive per-query scan — across all three executors.
        let cat_sels: Vec<(DimSel, Option<&str>)> = (0..cat_relevant.len())
            .map(|i| (DimSel::Literal(i), Some(cat_relevant[i])))
            .chain([(DimSel::Any, None)])
            .collect();
        let region_sels: Vec<(DimSel, Option<&str>)> = (0..region_relevant.len())
            .map(|i| (DimSel::Literal(i), Some(region_relevant[i])))
            .chain([(DimSel::Any, None)])
            .collect();
        let tier_sels = [(DimSel::Literal(0), Some(tier_relevant[0])), (DimSel::Any, None)];
        let mut combos = Vec::new();
        for c in &cat_sels {
            for r in &region_sels {
                combos.extend(tier_sels.iter().map(|t| [*c, *r, *t]));
            }
        }
        for sels in combos {
            let assignment = sels.map(|(sel, _)| sel);
            let mut preds = Vec::new();
            for (column, (_, lit)) in [cat, region, tier].into_iter().zip(sels) {
                if let Some(lit) = lit {
                    preds.push(Predicate::new(column, lit));
                }
            }
            for (idx, (f, col)) in cube.aggregates.iter().enumerate() {
                let naive =
                    execute_query(&db, &SimpleAggregateQuery::new(*f, *col, preds.clone()))
                        .unwrap();
                let count_like = matches!(f, AggFunction::Count | AggFunction::CountDistinct);
                for (name, result) in
                    [("dense", &dense), ("hashed", &hashed), ("parallel", &parallel)]
                {
                    let merged = if count_like {
                        Some(result.get_count(&assignment, idx))
                    } else {
                        result.get(&assignment, idx)
                    };
                    prop_assert_eq!(
                        merged,
                        naive,
                        "[{}] {:?} over {:?} at {:?}",
                        name,
                        f,
                        col,
                        assignment
                    );
                }
            }
        }
    }

    #[test]
    fn semantic_equality_is_reflexive_and_symmetric(
        rows in prop::collection::vec((0u8..3, 0u8..2, -50i64..50), 1..5),
        a in arb_query(),
        b in arb_query(),
    ) {
        let db = random_db(&rows);
        let qa = materialize_query(&db, a);
        let qb = materialize_query(&db, b);
        if let Some(qa) = &qa {
            prop_assert!(qa.semantically_equal(qa));
        }
        if let (Some(qa), Some(qb)) = (&qa, &qb) {
            prop_assert_eq!(qa.semantically_equal(qb), qb.semantically_equal(qa));
        }
    }
}

// ---------------------------------------------------------------------------
// Set- and list-valued aggregates are functions of each group's values
// ---------------------------------------------------------------------------

/// Three categorical dimensions (`x0`–`x2`) and a nullable float column
/// whose values repeat and include both zeros, in the given row order.
fn score_db(rows: &[(u8, u8, u8, Option<usize>)]) -> Database {
    const SCORES: [f64; 6] = [0.0, -0.0, 1.5, 1.5, -2.25, 0.1];
    let mut table = Table::new(TableSchema::new(
        "t",
        vec![
            ColumnMeta::new("a", DataType::Str),
            ColumnMeta::new("b", DataType::Str),
            ColumnMeta::new("c", DataType::Str),
            ColumnMeta::new("score", DataType::Float),
        ],
    ));
    for &(a, b, c, score) in rows {
        table
            .push_row(&[
                Value::Str(format!("x{a}")),
                Value::Str(format!("x{b}")),
                Value::Str(format!("x{c}")),
                score.map_or(Value::Null, |i| Value::Float(SCORES[i])),
            ])
            .unwrap();
    }
    let mut db = Database::new("scores");
    db.add_table(table);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Median` and `CountDistinct` depend on each group's values, not on
    /// the order rows arrive in: a table and a permutation of its rows give
    /// bit-identical results for every group, on dense and hashed grids,
    /// and both agree bit for bit with the naive executor — with `±0.0`
    /// ties and repeated values in the data.
    #[test]
    fn median_and_distinct_count_ignore_row_order(
        rows in prop::collection::vec(
            (0u8..3, 0u8..3, 0u8..3, prop::option::of(0usize..6), any::<u64>()),
            1..80,
        ),
    ) {
        let ordered: Vec<_> = rows.iter().map(|&(a, b, c, s, _)| (a, b, c, s)).collect();
        let mut permuted = rows.clone();
        permuted.sort_by_key(|row| row.4);
        let permuted: Vec<_> = permuted.iter().map(|&(a, b, c, s, _)| (a, b, c, s)).collect();
        let db = score_db(&ordered);
        let dims: Vec<_> = ["a", "b", "c"].iter().map(|c| db.resolve("t", c).unwrap()).collect();
        let score = db.resolve("t", "score").unwrap();
        let relevant: [&[&str]; 3] = [&["x0", "x1"], &["x2"], &["x1", "x0"]];
        let cube = CubeQuery {
            dims: dims.clone(),
            relevant: relevant
                .iter()
                .map(|lits| lits.iter().map(|s| Value::from(*s)).collect())
                .collect(),
            aggregates: vec![
                (AggFunction::Median, AggColumn::Column(score)),
                (AggFunction::CountDistinct, AggColumn::Column(score)),
            ],
        };
        let hashed = CubeOptions { dense_cell_cap: 0, ..CubeOptions::default() };
        let results = [
            ("dense", cube.execute(&db).unwrap()),
            ("hashed", cube.execute_with(&db, &hashed).unwrap()),
            ("permuted dense", cube.execute(&score_db(&permuted)).unwrap()),
            ("permuted hashed", cube.execute_with(&score_db(&permuted), &hashed).unwrap()),
        ];
        // Every selector per dimension: each relevant literal, then Any.
        let mut assignments: Vec<Vec<(DimSel, Option<&str>)>> = vec![Vec::new()];
        for lits in relevant {
            let sels: Vec<(DimSel, Option<&str>)> = lits
                .iter()
                .enumerate()
                .map(|(i, lit)| (DimSel::Literal(i), Some(*lit)))
                .chain([(DimSel::Any, None)])
                .collect();
            assignments = assignments
                .iter()
                .flat_map(|prefix| sels.iter().map(move |sel| [&prefix[..], &[*sel]].concat()))
                .collect();
        }
        for sels in &assignments {
            let assignment: Vec<DimSel> = sels.iter().map(|(sel, _)| *sel).collect();
            let preds: Vec<Predicate> = dims
                .iter()
                .zip(sels)
                .filter_map(|(dim, (_, lit))| lit.map(|lit| Predicate::new(*dim, lit)))
                .collect();
            for (idx, (f, col)) in cube.aggregates.iter().enumerate() {
                let naive = execute_query(&db, &SimpleAggregateQuery::new(*f, *col, preds.clone()))
                    .unwrap()
                    .map(f64::to_bits);
                for (name, result) in &results {
                    let merged = match f {
                        AggFunction::CountDistinct => Some(result.get_count(&assignment, idx)),
                        _ => result.get(&assignment, idx),
                    };
                    prop_assert_eq!(
                        merged.map(f64::to_bits),
                        naive,
                        "[{}] {:?} at {:?}",
                        name,
                        f,
                        assignment
                    );
                }
            }
        }
    }
}
