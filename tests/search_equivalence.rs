//! Greedy-equivalence differential suite: a beam width of 1 makes the
//! search scheduler walk exactly one path — the TF-ranked greedy walk —
//! so `Search { beam_width: 1, .. }` must reproduce the Complete Data
//! Scheduler **byte-for-byte** over the whole Table-1 grid: same plan
//! (rf, stages, retention, ops, allocation), same simulated report,
//! same trace event stream, same error on every infeasible cell. The
//! only permitted difference is the scheduler's display name.
//!
//! Wider beams are pinned on the knapsack trap, the one workload where
//! the search beats the greedy walk: it must never lose to CDS on
//! either axis, and its outcomes, decision logs and metrics across two
//! fine FB ranges are snapshotted in `tests/golden/trap_search32.txt`. Refresh
//! the snapshot after a deliberate scheduler change with
//!
//! ```text
//! BLESS=1 cargo test -p mcds-bench --test search_equivalence
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use mcds_core::{
    evaluate, structure_key, CdsScheduler, DataScheduler, Event, MetricsRegistry, Observer,
    Pipeline, PipelineRun, ScheduleAnalysis, SchedulerConfig, SchedulerKind, SearchScheduler,
    VecSink,
};
use mcds_model::{ArchParams, Words};
use mcds_workloads::synthetic::knapsack_trap;
use mcds_workloads::table1::table1_experiments;

/// The architecture axis of the Table-1 sweep grid.
const FB_KILOWORDS: [u64; 4] = [1, 2, 3, 8];

const BEAM_ONE: SchedulerKind = SchedulerKind::Search {
    beam_width: 1,
    max_expansions: 10_000,
};

/// Serializes one pipeline outcome (or its error) to comparable bytes,
/// leaving the scheduler's display name out — it is the one field the
/// two schedulers are allowed to disagree on.
fn outcome_bytes(result: Result<PipelineRun, mcds_core::McdsError>) -> String {
    match result {
        Ok(run) => format!(
            "ok rf={} stages={} retention={} ops={} alloc={} report={}",
            run.plan().rf(),
            serde_json::to_string(&run.plan().stages().to_vec()).expect("serializes"),
            serde_json::to_string(run.plan().retention()).expect("serializes"),
            serde_json::to_string(run.plan().ops()).expect("serializes"),
            serde_json::to_string(run.plan().allocation()).expect("serializes"),
            serde_json::to_string(run.report()).expect("serializes"),
        ),
        // Infeasibility errors name the reporting scheduler too.
        Err(e) => format!("err {}", e.to_string().replacen("search: ", "cds: ", 1)),
    }
}

#[test]
fn beam_one_outcomes_match_cds_over_the_table1_grid() {
    // Dedupe the experiment rows by structure key, as the other
    // differential suites do — starred rows share a structure.
    let mut structures = HashMap::new();
    for e in table1_experiments() {
        structures
            .entry(structure_key(&e.app, Some(&e.sched)))
            .or_insert((e.name, e.app, e.sched));
    }
    let mut cells = 0;
    let mut feasible = 0;
    for (name, app, sched) in structures.values() {
        for fb_kw in FB_KILOWORDS {
            let arch = ArchParams::m1_with_fb(Words::kilo(fb_kw));
            let build = |kind| {
                Pipeline::new(app.clone())
                    .schedule(sched.clone())
                    .arch(arch)
                    .scheduler(kind)
            };
            let cds = outcome_bytes(build(SchedulerKind::Cds).run());
            let search = outcome_bytes(build(BEAM_ONE).run());
            assert_eq!(cds, search, "outcome diverged for {name} @ {fb_kw}K");
            cells += 1;
            if cds.starts_with("ok ") {
                feasible += 1;
            }
        }
    }
    assert_eq!(cells, structures.len() * FB_KILOWORDS.len());
    assert!(
        feasible > cells / 2,
        "most of the grid is feasible ({feasible}/{cells}) — an all-error \
         grid would make the equivalence vacuous"
    );
}

#[test]
fn beam_one_traces_match_cds_modulo_scheduler_name() {
    // The trace stream is the observable the golden suite pins, so the
    // equivalence must hold event-for-event. Events are compared as
    // JSON with the scheduler-name field normalized; a width-1 search
    // takes the greedy path without branching, so no `Search*` events
    // may appear either.
    for e in table1_experiments()
        .into_iter()
        .filter(|e| ["E1", "MPEG", "ATR-SLD"].contains(&e.name))
    {
        let trace = |kind| {
            let sink = VecSink::new();
            let _ = Pipeline::new(e.app.clone())
                .schedule(e.sched.clone())
                .arch(e.arch)
                .scheduler(kind)
                .trace(sink.clone())
                .run();
            sink.take()
                .iter()
                .map(|ev| {
                    serde_json::to_string(ev)
                        .expect("serializes")
                        .replace("\"scheduler\":\"search\"", "\"scheduler\":\"cds\"")
                })
                .collect::<Vec<String>>()
        };
        let cds = trace(SchedulerKind::Cds);
        let search = trace(BEAM_ONE);
        assert!(!cds.is_empty(), "{} produced no events", e.name);
        assert_eq!(cds, search, "trace stream diverged for {}", e.name);
        assert!(
            !search.iter().any(|l| l.contains("Search")),
            "a width-1 search must not branch, so no Search* events: {}",
            e.name
        );
    }
}

/// A config that pins the ladder to RF 1, so each trap point is one
/// retention decision.
fn rf_one() -> SchedulerConfig {
    SchedulerConfig::new().with_max_rf(Some(1))
}

#[test]
fn search_never_loses_and_beats_greedy_somewhere() {
    let (app, sched) = knapsack_trap().expect("valid");
    let mut won_at = Vec::new();
    for fb in (180..=320).step_by(5) {
        let a = ArchParams::m1_with_fb(Words::new(fb));
        let cds = CdsScheduler::with_config(rf_one()).plan(&app, &sched, &a);
        let search = SearchScheduler::new(8, 10_000)
            .with_config(rf_one())
            .plan(&app, &sched, &a);
        match (cds, search) {
            (Ok(c), Ok(s)) => {
                assert!(
                    s.dt_avoided_per_iter() >= c.dt_avoided_per_iter(),
                    "fb={fb}: search avoided {} < greedy {}",
                    s.dt_avoided_per_iter(),
                    c.dt_avoided_per_iter()
                );
                let tc = evaluate(&c, &a).expect("runs").total();
                let ts = evaluate(&s, &a).expect("runs").total();
                assert!(ts <= tc, "fb={fb}: search {ts} cycles > greedy {tc}");
                if s.dt_avoided_per_iter() > c.dt_avoided_per_iter() {
                    won_at.push(fb);
                }
            }
            (Err(_), Err(_)) => {}
            (c, s) => panic!("feasibility must agree at fb={fb}: cds={c:?} search={s:?}"),
        }
    }
    assert!(
        !won_at.is_empty(),
        "no FB size let the search beat the greedy walk"
    );
}

#[test]
fn search_metrics_and_events_are_recorded() {
    let (app, sched) = knapsack_trap().expect("valid");
    let a = ArchParams::m1_with_fb(Words::new(250));
    let metrics = MetricsRegistry::new();
    let sink = VecSink::new();
    let analysis = ScheduleAnalysis::new(&app, &sched);
    let observer = Observer::new(Some(&sink), Some(&metrics));
    SearchScheduler::new(8, 10_000)
        .with_config(rf_one())
        .plan_observed(&app, &sched, &a, &analysis, observer)
        .expect("fits");
    let snap = metrics.snapshot();
    let counter = |name: &str| snap.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
    assert!(counter("search.expansions") > 0);
    assert!(counter("search.rungs") > 0);
    assert!(counter("search.rollbacks") > 0);
    let events = sink.take();
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::SearchExpand { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::SearchRollback { .. })));
}

/// `mcds search-bench`'s default beam width and expansion cap.
const SEARCH_BENCH: SchedulerKind = SchedulerKind::Search {
    beam_width: 32,
    max_expansions: 100_000,
};

/// 64-bit FNV-1a of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The snapshotted trap FB points: the search-bench window around the
/// RF-1 trap (where searched retentions win and get narrated), plus the
/// RF-2 window where a searched rung ties greedy CDS's best cycles while
/// avoiding less traffic, so the never-worse guard falls back to greedy.
fn trap_points() -> impl Iterator<Item = u64> {
    (180..=320).step_by(5).chain((725..=790).step_by(5))
}

#[test]
fn trap_outcomes_and_explain_logs_match_snapshot() {
    let (app, sched) = knapsack_trap().expect("valid");
    let mut log = String::new();
    let (mut improved, mut fallbacks) = (0, 0);
    for fb in trap_points() {
        let arch = ArchParams::m1_with_fb(Words::new(fb));
        let metrics = Arc::new(MetricsRegistry::new());
        let pipeline = Pipeline::new(app.clone())
            .schedule(sched.clone())
            .arch(arch)
            .scheduler(SEARCH_BENCH)
            .metrics(Arc::clone(&metrics));
        let _ = writeln!(log, "== trap @ {fb}w");
        match pipeline.explain() {
            Ok((run, explain)) => {
                // The full plan bytes are pinned by digest; the readable
                // fields the trap varies are spelled out.
                let _ = writeln!(
                    log,
                    "ok rf={} retention={} cycles={} data_words={} plan_fnv={:016x}",
                    run.plan().rf(),
                    serde_json::to_string(run.plan().retention()).expect("serializes"),
                    run.report().total(),
                    run.plan().total_data_words(),
                    fnv1a(&outcome_bytes(Ok(run)))
                );
                log.push_str(&explain);
            }
            Err(e) => {
                let _ = writeln!(log, "{}", outcome_bytes(Err(e)));
            }
        }
        for (name, value) in metrics.snapshot() {
            let _ = writeln!(log, "  metric {name} = {value}");
        }
        improved += metrics.get("search.rungs_improved").unwrap_or(0);
        fallbacks += metrics.get("search.fallback_greedy").unwrap_or(0);
    }
    assert!(
        improved > 0,
        "the window must adopt some searched retention"
    );
    assert!(
        fallbacks > 0,
        "the window must exercise the never-worse guard"
    );
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trap_search32.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &log).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing snapshot {} ({err}); run `BLESS=1 cargo test -p mcds-bench \
             --test search_equivalence` to create it",
            path.display()
        )
    });
    assert_eq!(
        log,
        want,
        "trap outcomes drifted from {}; if the change is intentional, \
         refresh with BLESS=1",
        path.display()
    );
}
