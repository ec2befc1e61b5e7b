//! Seeded chaos matrix: the CI robustness check.
//!
//! Runs the same fault matrix as `tests/chaos.rs` — injected scan panics,
//! scan delays, single-flight poisoning, and wave-guard drops, across
//! worker pools of 1/2/4/8 — emits one JSON record per cell to
//! `target/CHAOS_matrix.json` (same `"variants"` array shape as the
//! benchmark files; under `target/` so it never clutters the repo root),
//! then judges the records itself:
//!
//! ```text
//! cargo run --release --example chaos_matrix
//! ```
//!
//! It exits 1 on any unsettled ticket, any dangling in-flight cache entry
//! after drain, any outcome-bin accounting mismatch, or a respawn count
//! past the budget ([`violations`]). The plans are seeded, so a failure is
//! a real robustness regression, never runner noise. A watchdog thread
//! turns a hang into exit code 3 instead of a stuck CI job.

use aggchecker::core::CheckerError;
use aggchecker::relational::chaos::{self, FaultPlan};
use aggchecker::{CheckerConfig, IntakePolicy, StreamConfig, StreamingVerifier, SubmitError};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const ARTICLE: &str = r#"
<h1>Indefinite suspensions</h1>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"#;

const WRONG: &str = r#"
<h1>Indefinite suspensions</h1>
<p>There were seven previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"#;

const DOCS_PER_CELL: usize = 10;
const MAX_RESPAWNS: usize = 6;
const WATCHDOG: Duration = Duration::from_secs(60);

struct CellRecord {
    name: String,
    workers: usize,
    unsettled: u64,
    inflight_len: usize,
    bins_ok: bool,
    respawns: u64,
    stats: aggchecker::StreamStats,
    injected: u64,
}

/// The robustness invariants `r` breaks, one line each; empty means the
/// cell settled cleanly.
fn violations(r: &CellRecord) -> Vec<String> {
    let mut out = Vec::new();
    if r.unsettled != 0 {
        out.push(format!(
            "{}: {} ticket(s) never settled",
            r.name, r.unsettled
        ));
    }
    if r.inflight_len != 0 {
        out.push(format!(
            "{}: {} in-flight cache entr(ies) dangling after drain",
            r.name, r.inflight_len
        ));
    }
    if !r.bins_ok {
        out.push(format!(
            "{}: outcome bins do not reconcile (submitted != settled)",
            r.name
        ));
    }
    if r.respawns > MAX_RESPAWNS as u64 {
        out.push(format!(
            "{}: {} respawns exceed the budget of {MAX_RESPAWNS}",
            r.name, r.respawns
        ));
    }
    out
}

/// Run one matrix cell and report its invariant-relevant counters.
/// Never panics on a fault outcome — judging is [`violations`]' job.
/// `texts[i % texts.len()]` is submitted as document `i`, against `db`
/// under `cfg` — the partition cells swap in a multi-partition corpus.
fn run_cell(
    name: &str,
    plan: FaultPlan,
    workers: usize,
    policy: IntakePolicy,
    db: aggchecker::relational::Database,
    cfg: CheckerConfig,
    texts: &[&str],
) -> CellRecord {
    let guard = chaos::install(plan);
    let service = StreamingVerifier::new(
        db,
        cfg,
        StreamConfig {
            workers,
            policy,
            intake_capacity: 4,
            max_respawns: MAX_RESPAWNS,
            lane_capacity: 0,
        },
    )
    .expect("service construction is fault-free");
    let mut accepted = Vec::new();
    for i in 0..DOCS_PER_CELL {
        let text = texts[i % texts.len()];
        let outcome = if i == 4 {
            service.submit_text_with_deadline(text, Some(Instant::now() + WATCHDOG))
        } else {
            service.submit_text(text)
        };
        match outcome {
            Ok(t) => accepted.push(t),
            // `Reject` intake under a burst: dropped before acceptance,
            // deliberately not part of the outcome bins.
            Err(SubmitError::Full | SubmitError::Closed) => {}
        }
    }
    if let Some(victim) = accepted.last() {
        victim.cancel();
    }
    service.close();
    let deadline = Instant::now() + WATCHDOG;
    while !accepted.iter().all(|t| t.is_done()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let unsettled = accepted.iter().filter(|t| !t.is_done()).count() as u64;
    let mut errors = 0usize;
    for ticket in accepted {
        if ticket.is_done() {
            if let Err(e) = ticket.wait() {
                errors += 1;
                debug_assert!(
                    matches!(e, CheckerError::Relational(_) | CheckerError::Stream(_)),
                    "unexpected error class: {e}"
                );
            }
        }
    }
    let stats = service.stats();
    // Errored tickets land in `failed` (evaluation died) or `rejected`
    // (queued when the pool died / the stream closed rejecting).
    let bins_ok = stats.submitted == stats.settled()
        && stats.failed + stats.rejected >= errors as u64
        && stats.respawns <= MAX_RESPAWNS as u64;
    let injected = guard.injected_total();
    let inflight_len = if unsettled == 0 {
        service.into_checker().cache().inflight_len()
    } else {
        // Can't drain a wedged service; report a poison value so the
        // gate fails loudly on this cell too.
        usize::MAX
    };
    CellRecord {
        name: name.to_string(),
        workers,
        unsettled,
        inflight_len,
        bins_ok,
        respawns: stats.respawns,
        stats,
        injected,
    }
}

fn main() -> ExitCode {
    // Injected panics are expected by the hundreds — keep them out of the
    // CI log. Anything else still prints through the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !chaos::is_chaos_panic(info.payload()) {
            default_hook(info);
        }
    }));

    // A wedged cell must kill the process with a distinct exit code, not
    // hang CI: cells share one global watchdog sized for the whole matrix.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG * 5);
        eprintln!("chaos_matrix: watchdog fired — a cell hung");
        std::process::exit(3);
    });

    let plans: [(&str, FaultPlan); 5] = [
        (
            "panic",
            FaultPlan {
                seed: 3,
                panic_every_scan_blocks: 7,
                ..FaultPlan::default()
            },
        ),
        (
            "delay",
            FaultPlan {
                seed: 5,
                delay_every_scan_blocks: 3,
                delay_micros: 100,
                ..FaultPlan::default()
            },
        ),
        (
            "poison_flight",
            FaultPlan {
                seed: 2,
                poison_every_flights: 5,
                ..FaultPlan::default()
            },
        ),
        (
            "guard_drop",
            FaultPlan {
                seed: 1,
                poison_every_wave_guards: 4,
                ..FaultPlan::default()
            },
        ),
        (
            "combined",
            FaultPlan {
                seed: 11,
                panic_every_scan_blocks: 13,
                delay_every_scan_blocks: 5,
                delay_micros: 50,
                poison_every_flights: 9,
                poison_every_wave_guards: 7,
            },
        ),
    ];

    let mut records = Vec::new();
    for (i, (plan_name, plan)) in plans.iter().enumerate() {
        for (j, workers) in [1usize, 2, 4, 8].iter().enumerate() {
            let policy = if (i + j) % 2 == 0 {
                IntakePolicy::Block
            } else {
                IntakePolicy::Reject
            };
            let name = format!("{plan_name}_{workers}w");
            let record = run_cell(
                &name,
                *plan,
                *workers,
                policy,
                aggchecker::corpus::builtin::nfl_suspensions().db,
                CheckerConfig::default(),
                &[WRONG, ARTICLE, ARTICLE],
            );
            println!(
                "{:<18} submitted={:<3} completed={:<3} failed={:<3} rejected={:<2} \
                 cancelled={} respawns={} injected={:<3} unsettled={} inflight={}",
                record.name,
                record.stats.submitted,
                record.stats.completed,
                record.stats.failed,
                record.stats.rejected,
                record.stats.cancelled,
                record.respawns,
                record.injected,
                record.unsettled,
                record.inflight_len,
            );
            records.push(record);
        }
    }

    // Partition cells: the same panic-style plan, but over a generated
    // corpus whose fused passes span three 1-block partitions, so the
    // injected panic lands *inside a partition subtask*. The invariants
    // are the same — a dead partition fails every member of its pass,
    // wakes its waiters, and never wedges the merge barrier.
    let part_case = aggchecker::corpus::generate_multi_doc_case(
        &aggchecker::corpus::CorpusSpec {
            min_rows: 6 * 1024,
            max_rows: 6 * 1024,
            ..aggchecker::corpus::CorpusSpec::default()
        },
        7,
        3,
    );
    let part_texts: Vec<&str> = part_case.articles.iter().map(String::as_str).collect();
    for (j, workers) in [1usize, 2, 4, 8].iter().enumerate() {
        let policy = if j % 2 == 0 {
            IntakePolicy::Block
        } else {
            IntakePolicy::Reject
        };
        let name = format!("partition_panic_{workers}w");
        let record = run_cell(
            &name,
            FaultPlan {
                seed: 3,
                panic_every_scan_blocks: 23,
                ..FaultPlan::default()
            },
            *workers,
            policy,
            part_case.db.clone(),
            CheckerConfig {
                partition_blocks: 1,
                ..CheckerConfig::default()
            },
            &part_texts,
        );
        println!(
            "{:<18} submitted={:<3} completed={:<3} failed={:<3} rejected={:<2} \
             cancelled={} respawns={} injected={:<3} unsettled={} inflight={}",
            record.name,
            record.stats.submitted,
            record.stats.completed,
            record.stats.failed,
            record.stats.rejected,
            record.stats.cancelled,
            record.respawns,
            record.injected,
            record.unsettled,
            record.inflight_len,
        );
        records.push(record);
    }

    let variants: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"workers\": {}, \"submitted\": {}, \
                 \"completed\": {}, \"failed\": {}, \"rejected\": {}, \
                 \"timed_out\": {}, \"cancelled\": {}, \"partial\": {}, \
                 \"respawns\": {}, \"max_respawns\": {}, \"poison_retries\": {}, \
                 \"injected_faults\": {}, \"unsettled\": {}, \"inflight_len\": {}, \
                 \"bins_ok\": {}}}",
                r.name,
                r.workers,
                r.stats.submitted,
                r.stats.completed,
                r.stats.failed,
                r.stats.rejected,
                r.stats.timed_out,
                r.stats.cancelled,
                r.stats.partial,
                r.respawns,
                MAX_RESPAWNS,
                r.stats.poison_retries,
                r.injected,
                r.unsettled,
                r.inflight_len,
                if r.bins_ok { 1 } else { 0 },
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"docs_per_cell\": {DOCS_PER_CELL},\n  \"variants\": [\n{}\n  ]\n}}\n",
        variants.join(",\n")
    );
    // `target/` exists whenever cargo built this example, but the runner
    // may point CARGO_TARGET_DIR elsewhere — create the plain dir anyway.
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/CHAOS_matrix.json", &json).expect("write target/CHAOS_matrix.json");
    let violations: Vec<String> = records.iter().flat_map(violations).collect();
    for v in &violations {
        eprintln!("chaos_matrix FAIL: {v}");
    }
    if violations.is_empty() {
        println!(
            "wrote target/CHAOS_matrix.json: all {} cells settled cleanly",
            records.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seeded mutation per violation class: exactly the named
    /// violation is reported and nothing else.
    #[test]
    fn violations_names_exactly_the_broken_invariant() {
        type Mutation = fn(&mut CellRecord);
        let table: &[(Mutation, Option<&str>)] = &[
            (|_| {}, None),
            // Spending the whole respawn budget is still inside it.
            (|r| r.respawns = MAX_RESPAWNS as u64, None),
            (|r| r.unsettled = 1, Some("1 ticket(s) never settled")),
            (
                |r| r.inflight_len = 3,
                Some("3 in-flight cache entr(ies) dangling"),
            ),
            (|r| r.bins_ok = false, Some("do not reconcile")),
            (
                |r| r.respawns = 7,
                Some("7 respawns exceed the budget of 6"),
            ),
        ];
        for (i, (mutate, expected)) in table.iter().enumerate() {
            let mut record = CellRecord {
                name: "combined_8w".into(),
                workers: 8,
                unsettled: 0,
                inflight_len: 0,
                bins_ok: true,
                respawns: 2,
                stats: aggchecker::StreamStats::default(),
                injected: 40,
            };
            mutate(&mut record);
            let got = violations(&record);
            assert_eq!(got.len(), expected.iter().len(), "row {i}: {got:?}");
            for (line, needle) in got.iter().zip(expected) {
                assert!(line.contains(needle), "row {i}: {line:?} lacks {needle:?}");
            }
        }
    }
}
