//! Property-based tests over the core invariants:
//!
//! * the cube operator agrees with naive query execution on arbitrary
//!   data and predicate combinations (the merging correctness invariant
//!   everything in §6 rests on);
//! * rounding-aware matching is reflexive and respects its own rounding, and
//!   the per-claim interval matcher agrees with it on every input;
//! * the evaluator's code-indexed demultiplexing agrees with naive execution
//!   whatever slice serves a cube (canonical, document-wide fallback, a
//!   wider slice another request published, a literal the slice lacks);
//! * CSV parsing round-trips values;
//! * the tokenizer produces byte-accurate, non-overlapping spans;
//! * number rendering/parsing round-trips through the corpus generator's
//!   conventions.

use aggchecker::nlp::numbers::NumberMention;
use aggchecker::nlp::rounding::{matches_claim, matches_value, round_significant, ClaimMatcher};
use aggchecker::nlp::tokenize::tokenize;
use aggchecker::relational::csv::{load_csv, parse_csv};
use aggchecker::relational::{
    execute_query, AggColumn, AggFunction, CubeQuery, Database, DimSel, Predicate,
    SimpleAggregateQuery, Table, Value,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Cube ≡ naive execution
// ---------------------------------------------------------------------------

/// A random two-categorical + one-numeric table.
fn arb_table() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<Option<i64>>)> {
    let rows = 1..60usize;
    rows.prop_flat_map(|n| {
        (
            prop::collection::vec(0u8..4, n),
            prop::collection::vec(0u8..3, n),
            prop::collection::vec(prop::option::of(-100i64..100), n),
        )
    })
}

fn build_db(cats: &[u8], regions: &[u8], nums: &[Option<i64>]) -> Database {
    use aggchecker::relational::{ColumnMeta, DataType, TableSchema};
    let cat_names = ["alpha", "beta", "gamma", "delta"];
    let region_names = ["north", "south", "east"];
    // Explicit schema: an all-NULL numeric column must stay numeric, which
    // value-based type inference cannot know.
    let mut table = Table::new(TableSchema::new(
        "t",
        vec![
            ColumnMeta::new("cat", DataType::Str),
            ColumnMeta::new("region", DataType::Str),
            ColumnMeta::new("num", DataType::Int),
        ],
    ));
    for i in 0..cats.len() {
        table
            .push_row(&[
                Value::Str(cat_names[cats[i] as usize].into()),
                Value::Str(region_names[regions[i] as usize].into()),
                nums[i].map(Value::Int).unwrap_or(Value::Null),
            ])
            .unwrap();
    }
    let mut db = Database::new("prop");
    db.add_table(table);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cube_agrees_with_naive_execution(
        (cats, regions, nums) in arb_table(),
        cat_lit in 0u8..4,
        region_lit in 0u8..3,
    ) {
        let db = build_db(&cats, &regions, &nums);
        let cat = db.resolve("t", "cat").unwrap();
        let region = db.resolve("t", "region").unwrap();
        let num = db.resolve("t", "num").unwrap();
        let cat_names = ["alpha", "beta", "gamma", "delta"];
        let region_names = ["north", "south", "east"];

        let cube = CubeQuery {
            dims: vec![cat, region],
            relevant: vec![
                vec![Value::from(cat_names[cat_lit as usize])].into(),
                vec![Value::from(region_names[region_lit as usize])].into(),
            ],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Sum, AggColumn::Column(num)),
                (AggFunction::Min, AggColumn::Column(num)),
                (AggFunction::Max, AggColumn::Column(num)),
                (AggFunction::Avg, AggColumn::Column(num)),
                (AggFunction::CountDistinct, AggColumn::Column(num)),
                (AggFunction::Median, AggColumn::Column(num)),
            ],
        };
        let result = cube.execute(&db).unwrap();

        // Check every dimension subset against the naive executor.
        for (ci, c_sel) in [None, Some(cat_lit)].into_iter().enumerate() {
            let _ = ci;
            for r_sel in [None, Some(region_lit)] {
                let mut preds = Vec::new();
                let mut assignment = Vec::new();
                match c_sel {
                    Some(l) => {
                        preds.push(Predicate::new(cat, cat_names[l as usize]));
                        assignment.push(DimSel::Literal(0));
                    }
                    None => assignment.push(DimSel::Any),
                }
                match r_sel {
                    Some(l) => {
                        preds.push(Predicate::new(region, region_names[l as usize]));
                        assignment.push(DimSel::Literal(0));
                    }
                    None => assignment.push(DimSel::Any),
                }
                for (idx, (f, col)) in cube.aggregates.iter().enumerate() {
                    let q = SimpleAggregateQuery::new(*f, *col, preds.clone());
                    let naive = execute_query(&db, &q).unwrap();
                    let merged = if matches!(f, AggFunction::Count | AggFunction::CountDistinct) {
                        Some(result.get_count(&assignment, idx))
                    } else {
                        result.get(&assignment, idx)
                    };
                    prop_assert_eq!(merged, naive, "{} at {:?}", q.to_sql(&db), assignment);
                }
            }
        }
    }

    #[test]
    fn ratio_aggregates_agree_between_paths(
        (cats, regions, nums) in arb_table(),
        cat_lit in 0u8..4,
    ) {
        let db = build_db(&cats, &regions, &nums);
        let cat = db.resolve("t", "cat").unwrap();
        let cat_names = ["alpha", "beta", "gamma", "delta"];
        let q = SimpleAggregateQuery::new(
            AggFunction::Percentage,
            AggColumn::Star,
            vec![Predicate::new(cat, cat_names[cat_lit as usize])],
        );
        let naive = execute_query(&db, &q).unwrap();
        // Derive via counts, like the evaluator does.
        let count_q = SimpleAggregateQuery::count_star(vec![Predicate::new(
            cat,
            cat_names[cat_lit as usize],
        )]);
        let total_q = SimpleAggregateQuery::count_star(vec![]);
        let num = execute_query(&db, &count_q).unwrap().unwrap();
        let den = execute_query(&db, &total_q).unwrap().unwrap();
        let derived = aggchecker::relational::ratio_from_counts(num, den);
        prop_assert_eq!(naive, derived);
    }

    /// Medians and distinct counts over three dimensions, on the dense and
    /// the hashed grid, equal the naive executor's bit for bit — over a
    /// float column whose values repeat and include both zeros, so a
    /// median's sign on a `±0` tie is checked too.
    #[test]
    fn median_cubes_agree_with_naive_execution(
        rows in prop::collection::vec((0u8..4, 0u8..3, 0u8..2, prop::option::of(0usize..5)), 1..60),
        lits in (0u8..4, 0u8..3, 0u8..2),
    ) {
        use aggchecker::relational::{ColumnMeta, CubeOptions, DataType, TableSchema};
        const SCORES: [f64; 5] = [0.0, -0.0, 2.5, 2.5, -1.0];
        let names: [&[&str]; 3] = [&["alpha", "beta", "gamma", "delta"], &["north", "south", "east"], &["gold", "tin"]];
        let mut table = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnMeta::new("cat", DataType::Str),
                ColumnMeta::new("region", DataType::Str),
                ColumnMeta::new("tier", DataType::Str),
                ColumnMeta::new("score", DataType::Float),
            ],
        ));
        for &(c, r, t, score) in &rows {
            table
                .push_row(&[
                    Value::from(names[0][c as usize]),
                    Value::from(names[1][r as usize]),
                    Value::from(names[2][t as usize]),
                    score.map_or(Value::Null, |i| Value::Float(SCORES[i])),
                ])
                .unwrap();
        }
        let mut db = Database::new("prop");
        db.add_table(table);
        let dims: Vec<_> = ["cat", "region", "tier"].iter().map(|c| db.resolve("t", c).unwrap()).collect();
        let score = db.resolve("t", "score").unwrap();
        // Each dimension's drawn literal plus, for the first, a second one.
        let picked = [
            vec![names[0][lits.0 as usize], names[0][(lits.0 as usize + 1) % 4]],
            vec![names[1][lits.1 as usize]],
            vec![names[2][lits.2 as usize]],
        ];
        let cube = CubeQuery {
            dims: dims.clone(),
            relevant: picked.iter().map(|l| l.iter().map(|s| Value::from(*s)).collect()).collect(),
            aggregates: vec![
                (AggFunction::Median, AggColumn::Column(score)),
                (AggFunction::CountDistinct, AggColumn::Column(score)),
                (AggFunction::Count, AggColumn::Column(score)),
            ],
        };
        let dense = cube.execute(&db).unwrap();
        let hashed = cube
            .execute_with(&db, &CubeOptions { dense_cell_cap: 0, ..CubeOptions::default() })
            .unwrap();
        // Every selector per dimension: each picked literal, then Any.
        let mut assignments: Vec<Vec<(DimSel, Option<&str>)>> = vec![Vec::new()];
        for lits in &picked {
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
                let q = SimpleAggregateQuery::new(*f, *col, preds.clone());
                let naive = execute_query(&db, &q).unwrap().map(f64::to_bits);
                for result in [&dense, &hashed] {
                    let merged = match f {
                        AggFunction::Median => result.get(&assignment, idx),
                        _ => Some(result.get_count(&assignment, idx)),
                    };
                    prop_assert_eq!(
                        merged.map(f64::to_bits),
                        naive,
                        "{} at {:?} ({:?})",
                        q.to_sql(&db),
                        assignment,
                        result.stats.grid_mode
                    );
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // Rounding
    // -----------------------------------------------------------------------

    #[test]
    fn rounding_match_is_reflexive(v in -1e9f64..1e9, digits in 1u32..8) {
        // A value always matches itself, whatever precision is claimed.
        prop_assert!(matches_value(v, v, digits, 2));
    }

    #[test]
    fn rounded_values_match_their_source(v in 0.001f64..1e9, digits in 1u32..6) {
        let rounded = round_significant(v, digits);
        prop_assert!(
            matches_value(v, rounded, digits, 12),
            "{v} should match its own {digits}-digit rounding {rounded}"
        );
    }

    #[test]
    fn round_significant_is_idempotent(v in -1e9f64..1e9, digits in 1u32..8) {
        // Idempotent up to floating-point noise: rounding to *decimal*
        // significant digits cannot always be exact in binary floats (e.g.
        // 9.79e8 → 1e9 may land on 999999999.9999999). The value matcher
        // compares with a relative epsilon for exactly this reason.
        let once = round_significant(v, digits);
        let twice = round_significant(once, digits);
        let scale = once.abs().max(twice.abs()).max(1e-12);
        prop_assert!(
            ((once - twice) / scale).abs() < 1e-9,
            "{once} vs {twice}"
        );
        // And the matcher itself treats them as equal.
        prop_assert!(matches_value(once, twice, digits, 6) || once == 0.0);
    }

    /// The per-claim matcher is `matches_claim` behind an interval test:
    /// the two must agree on every result — around every rounding boundary
    /// of the claim (exact `x.5` ties at each admissible precision, one ulp
    /// either side), across magnitudes from 1e-12 to 1e15, and on NaN,
    /// infinities, signed zeros, subnormals and arbitrary bit patterns.
    #[test]
    fn claim_matcher_agrees_with_matches_claim(
        digits in 1u32..9,
        lead in 0.0f64..1.0,
        zeros in 0u32..8,
        decimal_places in 0u32..13,
        stated_digits in 0u32..9,
        negative in any::<bool>(),
        wild in prop::collection::vec(any::<u64>(), 8),
    ) {
        // A written number: `digits` digits of which the last `zeros` are
        // zero ("1200", "0.05", "37"), shifted by its decimal places.
        // Mostly it claims the significant digits it shows (`stated_digits`
        // 0), sometimes any count from 1 to 8.
        let zeros = zeros.min(digits - 1);
        let unit = 10u64.pow(zeros);
        let mantissa = (10f64.powi(digits as i32 - 1) * (1.0 + 9.0 * lead)) as u64 / unit * unit;
        let significant_digits = if stated_digits == 0 { digits - zeros } else { stated_digits };
        let sign = if negative { -1.0 } else { 1.0 };
        let value = sign * mantissa as f64 / 10f64.powi(decimal_places as i32);
        let claim = NumberMention {
            value,
            token_start: 0,
            token_end: 1,
            significant_digits,
            decimal_places,
            is_percentage: false,
            spelled_out: false,
            had_separator: false,
        };
        let matcher = ClaimMatcher::new(&claim);

        let mut results = vec![
            value, -value, 0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
            f64::MIN_POSITIVE, f64::MIN_POSITIVE / 2.0, -5e-324, f64::MAX, f64::MIN,
        ];
        for exp in -12..=15 {
            results.push(sign * 10f64.powi(exp));
            results.push(sign * 4.5 * 10f64.powi(exp));
        }
        // Ties and near-ties of every rounding the matcher admits: half a
        // unit of the last decimal place, and half a unit of the last
        // significant digit at the magnitudes just below, at and above the
        // claim's own.
        let mut half_units = vec![0.5 * 10f64.powi(-(decimal_places as i32))];
        if value != 0.0 {
            let magnitude = value.abs().log10().floor() as i32;
            for m in magnitude - 1..=magnitude + 1 {
                half_units.push(0.5 * 10f64.powi(m + 1 - significant_digits as i32));
            }
        }
        for half in half_units {
            for tie in [value - half, value + half] {
                results.extend([tie, next_after(tie, true), next_after(tie, false)]);
            }
            for scale in [0.25, 0.999, 1.001, 2.0, 10.0] {
                results.extend([value - half * scale, value + half * scale]);
            }
        }
        for factor in [0.4, 0.5, 0.6, 0.9, 0.95, 1.05, 1.1, 1.5, 1.9, 2.0, 2.1] {
            results.push(value * factor);
        }
        results.extend(wild.iter().map(|bits| f64::from_bits(*bits)));

        for r in results {
            prop_assert_eq!(
                matcher.matches(r),
                matches_claim(r, &claim),
                "result {:e} vs claim {} ({} s.d., {} d.p.)",
                r, value, significant_digits, decimal_places
            );
        }
        // A claim that is not a finite number matches nothing.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let claim = NumberMention { value: bad, ..claim.clone() };
            let matcher = ClaimMatcher::new(&claim);
            for r in [bad, 0.0, 1.0, value] {
                prop_assert_eq!(matcher.matches(r), matches_claim(r, &claim));
            }
        }
    }

    // -----------------------------------------------------------------------
    // CSV
    // -----------------------------------------------------------------------

    #[test]
    fn csv_quoted_fields_round_trip(
        cells in prop::collection::vec("[ -~]{0,12}", 1..6)
    ) {
        // Quote every field; embedded quotes are doubled.
        let line: Vec<String> = cells
            .iter()
            .map(|c| format!("\"{}\"", c.replace('"', "\"\"")))
            .collect();
        let text = format!("{}\n", line.join(","));
        let rows = parse_csv(&text).unwrap();
        prop_assert_eq!(rows.len(), 1);
        prop_assert_eq!(&rows[0], &cells);
    }

    #[test]
    fn csv_integer_columns_round_trip(values in prop::collection::vec(-1000i64..1000, 1..30)) {
        let mut text = String::from("x\n");
        for v in &values {
            text.push_str(&format!("{v}\n"));
        }
        let table = load_csv("t", &text).unwrap();
        prop_assert_eq!(table.row_count(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(table.get(i, 0), Value::Int(*v));
        }
    }

    // -----------------------------------------------------------------------
    // Tokenizer
    // -----------------------------------------------------------------------

    #[test]
    fn tokenizer_spans_are_exact_and_ordered(text in "[ -~]{0,80}") {
        let tokens = tokenize(&text);
        let mut last_end = 0usize;
        for t in &tokens {
            prop_assert!(t.start >= last_end, "overlapping spans");
            prop_assert!(t.end > t.start);
            prop_assert_eq!(&text[t.start..t.end], t.text.as_str());
            last_end = t.end;
        }
    }

    #[test]
    fn tokenizer_never_panics_on_unicode(text in "\\PC{0,60}") {
        let _ = tokenize(&text);
    }

    // -----------------------------------------------------------------------
    // Number words
    // -----------------------------------------------------------------------

    #[test]
    fn spelled_small_numbers_parse_back(n in 0u32..13) {
        const WORDS: [&str; 13] = [
            "zero", "one", "two", "three", "four", "five", "six", "seven",
            "eight", "nine", "ten", "eleven", "twelve",
        ];
        let text = format!("there were {} cases", WORDS[n as usize]);
        let mentions =
            aggchecker::nlp::numbers::parse_number_mentions(&tokenize(&text));
        prop_assert_eq!(mentions.len(), 1);
        prop_assert_eq!(mentions[0].value, n as f64);
    }

    #[test]
    fn digit_numbers_parse_back(n in 0i64..10_000_000) {
        let text = format!("a total of {n} units");
        let mentions =
            aggchecker::nlp::numbers::parse_number_mentions(&tokenize(&text));
        prop_assert_eq!(mentions.len(), 1);
        prop_assert_eq!(mentions[0].value, n as f64);
    }
}

/// The neighbouring float above (`up`) or below a finite value.
fn next_after(x: f64, up: bool) -> f64 {
    if x == 0.0 {
        return if up { 5e-324 } else { -5e-324 };
    }
    let bits = x.to_bits();
    f64::from_bits(if (x > 0.0) == up { bits + 1 } else { bits - 1 })
}

// ---------------------------------------------------------------------------
// Coded demux ≡ naive execution
// ---------------------------------------------------------------------------

/// A table with one column too wide to canonicalize into a cube dimension
/// (300 distinct values against the 253-literal cap), two narrow categorical
/// columns and a nullable numeric one.
fn wide_db(wides: &[u16], cats: &[u8], regions: &[u8], nums: &[Option<i64>]) -> Database {
    use aggchecker::relational::{ColumnMeta, DataType, TableSchema};
    let mut table = Table::new(TableSchema::new(
        "t",
        vec![
            ColumnMeta::new("wide", DataType::Str),
            ColumnMeta::new("cat", DataType::Str),
            ColumnMeta::new("region", DataType::Str),
            ColumnMeta::new("num", DataType::Int),
        ],
    ));
    // Every wide value occurs at least once, then the generated rows.
    let rows = (0..300u16).chain(wides.iter().copied()).enumerate();
    for (i, wide) in rows {
        let j = i % cats.len();
        table
            .push_row(&[
                Value::Str(format!("w{wide}")),
                Value::Str(["alpha", "beta", "gamma", "delta"][cats[j] as usize].into()),
                Value::Str(["north", "south", "east"][regions[j] as usize].into()),
                nums[j].map(Value::Int).unwrap_or(Value::Null),
            ])
            .unwrap();
    }
    let mut db = Database::new("wide");
    db.add_table(table);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `Evaluator::evaluate` reads every candidate through literal codes
    /// resolved once per cube. Whatever slice ends up serving a cube — one
    /// built over the claim's own literals, over a document-wide fallback
    /// list (the wide column: slice list ≠ catalog list), or a wider slice
    /// an earlier request published (nested coverage, and two non-nested
    /// slices resident under one key) — every valid candidate over one to
    /// three predicate columns must equal its own naive query. A wide
    /// literal the document-wide list leaves out reads NULL, as a coverage
    /// miss always has.
    #[test]
    fn coded_demux_agrees_with_naive_execution(
        wides in prop::collection::vec(0u16..300, 20..60),
        cats in prop::collection::vec(0u8..4, 20..60),
        regions in prop::collection::vec(0u8..3, 20..60),
        nums in prop::collection::vec(prop::option::of(-100i64..100), 20..60),
        scoped_wide in prop::collection::vec(0usize..300, 2..4),
        extra in prop::collection::vec(0usize..300, 6),
    ) {
        use aggchecker::core::evaluate::evaluate_naive;
        use aggchecker::core::{
            Candidate, CandidateSet, CatalogConfig, EvalStats, Evaluator, FragmentCatalog, Scope,
        };
        use aggchecker::relational::EvalCache;
        use std::sync::Arc;

        let n = cats.len().min(regions.len()).min(nums.len());
        let db = Arc::new(wide_db(&wides, &cats[..n], &regions[..n], &nums[..n]));
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let col = |name: &str| {
            let target = db.resolve("t", name).unwrap();
            cat.predicate_columns.iter().position(|c| *c == target).unwrap()
        };
        let (wide, category, region) = (col("wide"), col("cat"), col("region"));
        prop_assert!(cat.literals[wide].len() == 300, "the wide column must overflow a dimension");

        let mut scoped_wide = scoped_wide.clone();
        scoped_wide.sort_unstable();
        scoped_wide.dedup();
        let mut pairs: Vec<(usize, usize)> = scoped_wide.iter().map(|&l| (wide, l)).collect();
        pairs.extend([(category, 0), (category, 1), (region, 0), (region, 1)]);
        let scope = Scope {
            agg_columns: (0..cat.agg_columns.len()).collect(),
            predicate_pairs: pairs,
        };
        let set = CandidateSet::enumerate(&cat, &scope, 3, 10_000);
        prop_assert!(set.combos.iter().any(|c| c.len() == 3));
        let naive = evaluate_naive(&db, &cat, &set, &mut EvalStats::default()).unwrap();

        // One evaluation with `declared` as the wide column's document-wide
        // literals (`None`: nothing declared), checked cell by cell.
        let check = |cache: &EvalCache, declared: Option<&[usize]>, what: &str| {
            let mut evaluator = Evaluator::new(&db, &cat, Some(cache.clone()));
            if let Some(declared) = declared {
                let mut literals = vec![Vec::new(); cat.predicate_columns.len()];
                literals[wide] = declared.to_vec();
                literals[wide].sort_unstable();
                literals[wide].dedup();
                evaluator.set_document_literals(literals);
            }
            let merged = evaluator.evaluate(&set).unwrap();
            for (ci, combo) in set.combos.iter().enumerate() {
                let covered = combo.iter().all(|&(c, l)| {
                    c as usize != wide || declared.is_none_or(|d| d.contains(&(l as usize)))
                });
                for pi in 0..set.agg_pairs.len() {
                    let cand = Candidate { combo: ci as u32, pair: pi as u32 };
                    if !set.is_valid(&cat, cand) {
                        continue;
                    }
                    let expected = if covered { naive.get(ci, pi) } else { None };
                    if merged.get(ci, pi) != expected {
                        return Err(format!(
                            "{what}: {} read {:?}, expected {:?}",
                            set.to_query(&cat, cand).to_sql(&db),
                            merged.get(ci, pi),
                            expected
                        ));
                    }
                }
            }
            Ok(evaluator.stats)
        };
        let with = |more: &[usize]| -> Vec<usize> {
            scoped_wide.iter().chain(more).copied().collect()
        };

        // Nothing declared: the cube is built over the claim's own literals.
        let own = check(&EvalCache::new(), None, "claim's own literals");
        prop_assert!(own.is_ok(), "{:?}", own);
        // A scoped wide literal the document-wide list leaves out.
        let partial = check(&EvalCache::new(), Some(&scoped_wide[1..]), "undeclared literal");
        prop_assert!(partial.is_ok(), "{:?}", partial);

        // One cache, changing document-wide lists.
        let cache = EvalCache::new();
        let first = check(&cache, Some(&with(&extra[..2])), "first list");
        prop_assert!(first.is_ok(), "{:?}", first);
        let wider = check(&cache, Some(&with(&extra[..4])), "superset list");
        prop_assert!(wider.is_ok(), "{:?}", wider);
        // A subset is served by the wider resident slices: nothing runs,
        // and the slice's list is neither the request's nor the catalog's.
        let nested = check(&cache, Some(&with(&[])), "subset served by a wider slice");
        prop_assert!(nested.is_ok(), "{:?}", nested);
        prop_assert_eq!(nested.unwrap().cubes_executed, 0);
        // An overlapping list that neither covers nor is covered by the
        // resident one is computed and coexists with it under the same keys.
        let other = check(&cache, Some(&with(&extra[4..])), "overlapping list");
        prop_assert!(other.is_ok(), "{:?}", other);
        let again = check(&cache, Some(&with(&[])), "subset with two slices resident");
        prop_assert!(again.is_ok(), "{:?}", again);
        prop_assert_eq!(again.unwrap().cubes_executed, 0);
    }
}

// ---------------------------------------------------------------------------
// Batched ≡ sequential verification
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The cube-task scheduler (merged, cached, claims × cubes parallel)
    /// verifies randomized corpora identically to the serial
    /// `evaluate_naive` path (`EvalStrategy::Naive`: one query execution
    /// per candidate, no merging, no caching, no scheduler).
    #[test]
    fn scheduler_reports_match_serial_naive_evaluation(
        seed in 1u64..10_000,
        index in 0usize..6,
        threads in 1usize..5,
    ) {
        use aggchecker::core::EvalStrategy;
        use aggchecker::corpus::{generate_test_case, CorpusSpec};
        use aggchecker::{AggChecker, CheckerConfig};

        let spec = CorpusSpec::small(1, seed);
        let tc = generate_test_case(&spec, index);
        let run = |strategy: EvalStrategy, threads: usize| {
            let cfg = CheckerConfig {
                strategy,
                threads,
                // A small hit budget keeps the naive arm affordable.
                lucene_hits: 6,
                ..CheckerConfig::default()
            };
            let checker = AggChecker::new(tc.db.clone(), cfg).unwrap();
            checker.check_text(&tc.article_html).unwrap()
        };
        let naive = run(EvalStrategy::Naive, 1);
        let scheduled = run(EvalStrategy::MergedCached, threads);
        prop_assert_eq!(naive.claims.len(), scheduled.claims.len());
        for (n, s) in naive.claims.iter().zip(&scheduled.claims) {
            prop_assert_eq!(
                n.verdict, s.verdict,
                "seed={} index={} threads={} claim {}",
                seed, index, threads, n.claimed_value
            );
            prop_assert!(
                (n.correctness_probability - s.correctness_probability).abs() < 1e-6,
                "probabilities diverged: {} vs {}",
                n.correctness_probability,
                s.correctness_probability
            );
            prop_assert_eq!(n.top_queries.len(), s.top_queries.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fused multi-cube scans are purely physical: over randomized
    /// multi-document corpora, batched fused verification at **1/2/4/8
    /// workers** produces reports bit-identical to the unfused PR 3
    /// execution shape (`fuse_scans: false`, one row pass per cube task)
    /// — and the fused pipeline's verdicts agree with the serial
    /// `evaluate_naive` oracle.
    #[test]
    fn fused_reports_match_unfused_path_and_naive_oracle(
        seed in 1u64..10_000,
        index in 0usize..4,
    ) {
        use aggchecker::core::EvalStrategy;
        use aggchecker::corpus::{generate_multi_doc_case, CorpusSpec};
        use aggchecker::{AggChecker, BatchVerifier, CheckerConfig};

        let spec = CorpusSpec::small(1, seed);
        let case = generate_multi_doc_case(&spec, index, 3);
        let texts: Vec<&str> = case.articles.iter().map(String::as_str).collect();

        // The unfused PR 3 path: solo checkers with fusion disabled.
        let unfused: Vec<_> = texts
            .iter()
            .map(|t| {
                let cfg = CheckerConfig {
                    fuse_scans: false,
                    ..CheckerConfig::default()
                };
                let checker = AggChecker::new(case.db.clone(), cfg).unwrap();
                checker.check_text(t).unwrap()
            })
            .collect();

        for workers in [1usize, 2, 4, 8] {
            let cfg = CheckerConfig {
                threads: workers,
                ..CheckerConfig::default()
            };
            let batch = BatchVerifier::new(case.db.clone(), cfg).unwrap();
            let reports = batch.verify_texts(&texts).unwrap();
            for (i, (fused, expected)) in reports.iter().zip(&unfused).enumerate() {
                prop_assert_eq!(
                    fused.content_fingerprint(),
                    expected.content_fingerprint(),
                    "workers={} doc={} seed={} index={}",
                    workers, i, seed, index
                );
            }
        }

        // Naive oracle on the first document (small hit budget keeps the
        // per-candidate executions affordable): verdicts must agree with
        // the fused merged-cached pipeline under the same budget.
        let run_first = |strategy: EvalStrategy| {
            let cfg = CheckerConfig {
                strategy,
                lucene_hits: 6,
                ..CheckerConfig::default()
            };
            let checker = AggChecker::new(case.db.clone(), cfg).unwrap();
            checker.check_text(texts[0]).unwrap()
        };
        let naive = run_first(EvalStrategy::Naive);
        let fused = run_first(EvalStrategy::MergedCached);
        prop_assert_eq!(naive.claims.len(), fused.claims.len());
        for (n, f) in naive.claims.iter().zip(&fused.claims) {
            prop_assert_eq!(
                n.verdict, f.verdict,
                "seed={} index={} claim {}",
                seed, index, n.claimed_value
            );
            prop_assert!(
                (n.correctness_probability - f.correctness_probability).abs() < 1e-6
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Streaming ≡ batch ≡ solo: a randomized corpus submitted to a
    /// [`StreamingVerifier`] in a randomized **arrival order** with a
    /// randomized worker count (1/2/4/8) produces reports bit-identical
    /// to `BatchVerifier` (input order, same worker count) and to fresh
    /// solo checkers — and its verdicts agree with the serial
    /// `evaluate_naive` oracle. Dynamic admission must change scheduling
    /// only, never content.
    #[test]
    fn streaming_reports_match_batch_and_solo(
        seed in 1u64..10_000,
        index in 0usize..6,
        n_docs in 2usize..5,
        workers_pick in 0usize..4,
        order_seed in 0u64..10_000,
    ) {
        use aggchecker::core::EvalStrategy;
        use aggchecker::corpus::{generate_multi_doc_case, CorpusSpec};
        use aggchecker::{
            AggChecker, BatchVerifier, CheckerConfig, StreamConfig, StreamingVerifier,
        };

        let workers = [1usize, 2, 4, 8][workers_pick];
        let spec = CorpusSpec::small(1, seed);
        let case = generate_multi_doc_case(&spec, index, n_docs);
        let texts: Vec<&str> = case.articles.iter().map(String::as_str).collect();
        let cfg = CheckerConfig {
            threads: workers,
            ..CheckerConfig::default()
        };

        // Randomized arrival order: a deterministic shuffle driven by
        // `order_seed` (Fisher–Yates with a splitmix-style step).
        let mut order: Vec<usize> = (0..texts.len()).collect();
        let mut state = order_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }

        // Solo oracle: a fresh checker per document.
        let solo: Vec<String> = texts
            .iter()
            .map(|t| {
                let checker = AggChecker::new(case.db.clone(), cfg.clone()).unwrap();
                checker.check_text(t).unwrap().content_fingerprint()
            })
            .collect();

        // Batch arm, input order.
        let batch = BatchVerifier::new(case.db.clone(), cfg.clone()).unwrap();
        let batch_fps: Vec<String> = batch
            .verify_texts(&texts)
            .unwrap()
            .iter()
            .map(|r| r.content_fingerprint())
            .collect();

        // Streaming arm, shuffled arrival order.
        let service = StreamingVerifier::new(
            case.db.clone(),
            cfg.clone(),
            StreamConfig {
                workers,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let tickets: Vec<(usize, aggchecker::Ticket)> = order
            .iter()
            .map(|&i| (i, service.submit_text(texts[i]).unwrap()))
            .collect();
        let mut stream_fps: Vec<Option<String>> = vec![None; texts.len()];
        for (i, ticket) in tickets {
            stream_fps[i] = Some(ticket.wait().unwrap().content_fingerprint());
        }

        for (i, fp) in stream_fps.iter().enumerate() {
            let fp = fp.as_ref().unwrap();
            prop_assert_eq!(
                fp, &solo[i],
                "stream≡solo: workers={} order={:?} doc={} seed={} index={}",
                workers, order, i, seed, index
            );
            prop_assert_eq!(
                fp, &batch_fps[i],
                "stream≡batch: workers={} order={:?} doc={} seed={} index={}",
                workers, order, i, seed, index
            );
        }

        // Naive oracle on the first document (small hit budget keeps the
        // per-candidate executions affordable): verdicts and probabilities
        // must agree with the streamed pipeline under the same budget.
        let naive_cfg = CheckerConfig {
            strategy: EvalStrategy::Naive,
            lucene_hits: 6,
            ..CheckerConfig::default()
        };
        let naive = AggChecker::new(case.db.clone(), naive_cfg.clone()).unwrap()
            .check_text(texts[0])
            .unwrap();
        let budget_cfg = CheckerConfig {
            lucene_hits: 6,
            ..cfg.clone()
        };
        let budget_service = StreamingVerifier::new(
            case.db.clone(),
            budget_cfg,
            StreamConfig { workers, ..StreamConfig::default() },
        )
        .unwrap();
        let streamed = budget_service.submit_text(texts[0]).unwrap().wait().unwrap();
        prop_assert_eq!(naive.claims.len(), streamed.claims.len());
        for (n, s) in naive.claims.iter().zip(&streamed.claims) {
            prop_assert_eq!(
                n.verdict, s.verdict,
                "stream≡naive: seed={} index={} claim {}",
                seed, index, n.claimed_value
            );
            prop_assert!(
                (n.correctness_probability - s.correctness_probability).abs() < 1e-6
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Compressed-block execution is purely physical: verifying a
    /// randomized multi-document corpus against a **sealed** database
    /// (columns carry dictionary-code block encodings, the cube scans
    /// decode/skip blocks via zone maps) produces reports bit-identical
    /// to the same corpus verified against an **unsealed** clone (plain
    /// row-at-a-time scans) — at 1, 2, 4, and 8 workers.
    #[test]
    fn encoded_reports_match_plain_scan_reports(
        seed in 1u64..10_000,
        index in 0usize..4,
        n_docs in 2usize..4,
    ) {
        use aggchecker::corpus::{generate_multi_doc_case, CorpusSpec};
        use aggchecker::{BatchVerifier, CheckerConfig};

        let spec = CorpusSpec::small(1, seed);
        let case = generate_multi_doc_case(&spec, index, n_docs);
        let texts: Vec<&str> = case.articles.iter().map(String::as_str).collect();

        // `generate_multi_doc_case` builds the database through
        // `Database::add_table`, which seals every table; stripping the
        // encodings from a clone forces the plain scan path everywhere.
        let mut plain_db = case.db.clone();
        plain_db.unseal_tables();

        for workers in [1usize, 2, 4, 8] {
            let cfg = CheckerConfig {
                threads: workers,
                ..CheckerConfig::default()
            };
            let encoded = BatchVerifier::new(case.db.clone(), cfg.clone())
                .unwrap()
                .verify_texts(&texts)
                .unwrap();
            let plain = BatchVerifier::new(plain_db.clone(), cfg)
                .unwrap()
                .verify_texts(&texts)
                .unwrap();
            for (i, (e, p)) in encoded.iter().zip(&plain).enumerate() {
                prop_assert_eq!(
                    e.content_fingerprint(),
                    p.content_fingerprint(),
                    "encoded≡plain: workers={} doc={} seed={} index={}",
                    workers, i, seed, index
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// `BatchVerifier` over a randomized multi-document case (random
    /// database, random articles, random worker count) produces reports
    /// byte-identical to sequential single-document verification with a
    /// fresh checker per document.
    #[test]
    fn batched_verification_matches_sequential(
        seed in 1u64..10_000,
        index in 0usize..6,
        n_docs in 2usize..5,
        threads in 1usize..5,
    ) {
        use aggchecker::corpus::{generate_multi_doc_case, CorpusSpec};
        use aggchecker::{AggChecker, BatchVerifier, CheckerConfig};

        let spec = CorpusSpec::small(1, seed);
        let case = generate_multi_doc_case(&spec, index, n_docs);
        let cfg = CheckerConfig {
            threads,
            ..CheckerConfig::default()
        };
        let texts: Vec<&str> = case.articles.iter().map(String::as_str).collect();
        let batch = BatchVerifier::new(case.db.clone(), cfg.clone()).unwrap();
        let reports = batch.verify_texts(&texts).unwrap();
        prop_assert_eq!(reports.len(), n_docs);
        for (text, report) in texts.iter().zip(&reports) {
            let solo = AggChecker::new(case.db.clone(), cfg.clone()).unwrap();
            let expected = solo.check_text(text).unwrap();
            prop_assert_eq!(
                report.content_fingerprint(),
                expected.content_fingerprint(),
                "threads={} seed={} index={}",
                threads, seed, index
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Partition-parallel determinism contract
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Partitioned fused scans honor the determinism contract end to end:
    /// over randomized corpora large enough that fused passes fan out
    /// (5-6 partitions at span 1, 2 at span 4, a single one at span 64),
    /// every combination of worker count {1, 2, 4, 8} × partition span
    /// {1, 4, 64} — with partition subtasks completing in whatever order
    /// the stealing workers reach them, and documents arriving in a
    /// shuffled order — produces reports bit-identical to a 1-thread
    /// default-span solo run. Verdicts agree with the serial
    /// `evaluate_naive` oracle. (Exact across *spans* because the
    /// generator's numeric columns are integer-valued, so partition sums
    /// are exact and merge associatively.)
    #[test]
    fn partitioned_reports_are_worker_and_span_independent(
        seed in 1u64..10_000,
        rows in 8_300usize..12_000,
        order_seed in 0u64..10_000,
    ) {
        use aggchecker::core::EvalStrategy;
        use aggchecker::corpus::{generate_multi_doc_case, CorpusSpec};
        use aggchecker::{AggChecker, BatchVerifier, CheckerConfig};

        let spec = CorpusSpec {
            min_rows: rows,
            max_rows: rows,
            ..CorpusSpec::small(1, seed)
        };
        let case = generate_multi_doc_case(&spec, 0, 2);
        let texts: Vec<&str> = case.articles.iter().map(String::as_str).collect();

        // Reference: 1 thread, the default span.
        let reference: Vec<String> = texts
            .iter()
            .map(|t| {
                let checker =
                    AggChecker::new(case.db.clone(), CheckerConfig::default()).unwrap();
                checker.check_text(t).unwrap().content_fingerprint()
            })
            .collect();

        // Shuffled document arrival order (deterministic xorshift).
        let mut order: Vec<usize> = (0..texts.len()).collect();
        let mut state = order_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let shuffled: Vec<&str> = order.iter().map(|&i| texts[i]).collect();

        let mut fanned_out = 0u64;
        for workers in [1usize, 2, 4, 8] {
            for span in [1usize, 4, 64] {
                let cfg = CheckerConfig {
                    threads: workers,
                    partition_blocks: span,
                    ..CheckerConfig::default()
                };
                let batch = BatchVerifier::new(case.db.clone(), cfg).unwrap();
                let reports = batch.verify_texts(&shuffled).unwrap();
                for (pos, &doc) in order.iter().enumerate() {
                    prop_assert_eq!(
                        reports[pos].content_fingerprint(),
                        reference[doc].clone(),
                        "workers={} span={} doc={} seed={} rows={}",
                        workers, span, doc, seed, rows
                    );
                    if span == 1 {
                        fanned_out += reports[pos].stats.partitions_scanned;
                    }
                }
            }
        }
        prop_assert!(
            fanned_out > 0,
            "span-1 runs over {} rows must actually partition",
            rows
        );

        // Naive oracle on the first document under a small hit budget.
        let run_first = |strategy: EvalStrategy| {
            let cfg = CheckerConfig {
                strategy,
                lucene_hits: 6,
                ..CheckerConfig::default()
            };
            let checker = AggChecker::new(case.db.clone(), cfg).unwrap();
            checker.check_text(texts[0]).unwrap()
        };
        let naive = run_first(EvalStrategy::Naive);
        let partitioned = run_first(EvalStrategy::MergedCached);
        prop_assert_eq!(naive.claims.len(), partitioned.claims.len());
        for (n, p) in naive.claims.iter().zip(&partitioned.claims) {
            prop_assert_eq!(
                n.verdict, p.verdict,
                "seed={} claim {}",
                seed, n.claimed_value
            );
            prop_assert!(
                (n.correctness_probability - p.correctness_probability).abs() < 1e-6
            );
        }
    }
}
