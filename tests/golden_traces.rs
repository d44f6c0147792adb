//! Golden-trace regression tests: the rendered `--explain` decision log
//! for two Table-1 workloads under every scheduler (the paper's three
//! plus an 8-wide beam search) is snapshotted in `tests/golden/` and
//! must stay byte-identical.
//!
//! When a deliberate scheduler change alters the decisions, refresh the
//! snapshots with
//!
//! ```text
//! BLESS=1 cargo test -p mcds-bench --test golden_traces
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;

use mcds_core::{Pipeline, SchedulerKind};
use mcds_sweep::{SweepReport, SweepSpec, SweepWorkload};
use mcds_workloads::table1::{table1_experiments, Experiment};

/// The snapshotted workloads: one small pipeline and one real-media
/// decoder, both feasible under every scheduler at their paper
/// architecture.
const GOLDEN: [&str; 2] = ["E1", "MPEG"];

/// The snapshotted schedulers with the file-name label of each. The
/// labels are explicit because the `Display` form of a search kind
/// (`search:8:10000`) contains colons.
const SCHEDULERS: [(SchedulerKind, &str); 4] = [
    (SchedulerKind::Basic, "basic"),
    (SchedulerKind::Ds, "ds"),
    (SchedulerKind::Cds, "cds"),
    (
        SchedulerKind::Search {
            beam_width: 8,
            max_expansions: SchedulerKind::DEFAULT_SEARCH_EXPANSIONS,
        },
        "search8",
    ),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .canonicalize()
        .expect("tests/golden exists")
}

fn experiments() -> Vec<Experiment> {
    let exps: Vec<Experiment> = table1_experiments()
        .into_iter()
        .filter(|e| GOLDEN.contains(&e.name))
        .collect();
    assert_eq!(exps.len(), GOLDEN.len(), "both golden workloads found");
    exps
}

fn explain(e: &Experiment, kind: SchedulerKind) -> String {
    let (_, log) = Pipeline::new(e.app.clone())
        .arch(e.arch)
        .schedule(e.sched.clone())
        .scheduler(kind)
        .explain()
        .expect("golden workloads are feasible");
    log
}

#[test]
fn explain_logs_match_golden_snapshots() {
    let bless = std::env::var_os("BLESS").is_some();
    let dir = golden_dir();
    for e in &experiments() {
        for (kind, label) in SCHEDULERS {
            let log = explain(e, kind);
            let path = dir.join(format!("{}_{label}.txt", e.name));
            if bless {
                std::fs::write(&path, &log).expect("write snapshot");
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|err| {
                panic!(
                    "missing snapshot {} ({err}); run `BLESS=1 cargo test -p mcds-bench \
                     --test golden_traces` to create it",
                    path.display()
                )
            });
            assert_eq!(
                log,
                want,
                "decision log for {}/{kind} drifted from {}; if the change is \
                 intentional, refresh with BLESS=1",
                e.name,
                path.display()
            );
        }
    }
}

fn sweep_with_explains(threads: usize) -> SweepReport {
    let mut spec = SweepSpec::new()
        .capture_explain(true)
        .threads(Some(threads));
    for e in experiments() {
        spec = spec
            .arch(e.arch)
            .workload(SweepWorkload::new(e.name, e.app).partition("golden", e.sched));
    }
    spec.run().expect("sweep runs")
}

#[test]
fn sweep_traces_are_byte_identical_across_thread_counts() {
    let serial = sweep_with_explains(1);
    let serial_json = serial.to_json().expect("serializes");
    for threads in [2, 8] {
        let parallel = sweep_with_explains(threads);
        assert_eq!(
            serial_json,
            parallel.to_json().expect("serializes"),
            "captured traces must not depend on thread count ({threads} workers)"
        );
    }
    // Where a sweep cell matches an experiment's own architecture, the
    // captured trace is the exact golden log — the sweep engine and the
    // pipeline facade drive the identical instrumented path.
    let dir = golden_dir();
    let mut checked = 0;
    for e in &experiments() {
        let row = serial
            .rows
            .iter()
            .find(|r| r.workload == e.name && r.fb_set == e.arch.fb_set_words())
            .expect("cell on the grid");
        for o in &row.outcomes {
            let path = dir.join(format!("{}_{}.txt", e.name, o.scheduler));
            let Ok(want) = std::fs::read_to_string(&path) else {
                continue; // unblessed tree: the snapshot test reports it
            };
            assert_eq!(
                o.explain.as_deref(),
                Some(want.as_str()),
                "sweep-captured trace for {}/{} must equal the golden log",
                e.name,
                o.scheduler
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "at least one golden cell compared");
}
