//! The mcds benchmark: offline planning and serving, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-paper|plan-deep|serve-mixed --seed N --seconds S --trace 0|1 \
//!     [--rates LOW,MID,HIGH] [--limit-us L] [--self-test]
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced run. `--self-test` instead runs the
//! workload twice per seed and checks that its counts repeat.
//! See `perfbench/README.md` for the metrics and the workloads.

mod planner;
mod serving;
mod util;
mod wait;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mcds_bench::table1_sweep;
use mcds_core::SchedulerKind;
use mcds_workloads::mix::{by_name, CATALOG};
use mcds_workloads::table1::table1_experiments;

use planner::{m1_with_fb_kw, PlanLayers, Point, Reference};
use serving::{ServeLayers, ServingLayers};
use util::{median, peak_rss_mb, stamp, Metric, Rng};

/// Table-1 Frame Buffer sizes (kilowords per set).
const PAPER_FB_KW: [u64; 4] = [1, 2, 3, 8];
/// Catalog applications of `plan-deep`.
const DEEP_APPS: [&str; 5] = ["e1", "e2", "e3", "mpeg", "atr-fi"];
/// Streaming depths of `plan-deep`; each point adds a seeded jitter of
/// up to 1/32 of its depth.
const DEEP_ITERATIONS: [u64; 2] = [1024, 4096];
/// How many times a run repeats its set-up to report a median.
const SETUP_REPEATS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `serve-mixed` open-loop rates (requests/s): low, mid, high.
    pub rates: [f64; 3],
    /// `serve-mixed` p99 latency limit (µs) for the rate ladder.
    pub limit_us: f64,
    pub self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rates: [2000.0, 4000.0, 7000.0],
        limit_us: 10_000.0,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => args.trace = value == "1",
            "--limit-us" => args.limit_us = value.parse().map_err(|_| bad(()))?,
            "--rates" => {
                let rates: Vec<f64> = value
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad(()))?;
                args.rates = rates.try_into().map_err(|_| bad(()))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// What one workload run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly for a given seed.
    pub counts: Vec<(&'static str, f64)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    let Some(result) = run(&args) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    println!("stamp {}", stamp());
    util::print_result(
        result.correct,
        result.attempted,
        result.failed,
        &result.metrics,
    );
    ExitCode::SUCCESS
}

fn run(args: &Args) -> Option<RunResult> {
    match args.workload.as_str() {
        "plan-paper" => Some(plan_workload(args, paper_points)),
        "plan-deep" => Some(plan_workload(args, deep_points)),
        "serve-mixed" => Some(serving::serve_mixed(args)),
        _ => None,
    }
}

/// Runs the workload twice with the seed and once with the next seed,
/// requiring identical counts from the first two and, for `plan-paper`
/// (whose seed only orders the same points), from the third as well.
fn self_test(args: &Args) -> ExitCode {
    let short = Args {
        seconds: args.seconds.min(2.0),
        trace: true,
        workload: args.workload.clone(),
        rates: args.rates,
        ..*args
    };
    let Some(a) = run(&short) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let b = run(&short).expect("known workload");
    let c = run(&Args {
        seed: args.seed + 1,
        workload: args.workload.clone(),
        ..short
    })
    .expect("known workload");
    let mut ok = a.correct && b.correct && c.correct;
    for ((name, x), (_, y)) in a.counts.iter().zip(&b.counts) {
        let same = x == y;
        ok &= same;
        println!(
            "same seed   {name:<24} {x} vs {y} {}",
            if same { "ok" } else { "DIFFERS" }
        );
    }
    for ((name, x), (_, z)) in a.counts.iter().zip(&c.counts) {
        let same = x == z;
        if args.workload == "plan-paper" {
            ok &= same;
        }
        println!(
            "next seed   {name:<24} {x} vs {z} {}",
            if same { "same" } else { "changed" }
        );
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every Table-1 application/partition cell, as `table1_sweep` groups
/// them: starred rows collapse onto their base workload, distinct
/// partitions stay separate cells.
fn paper_cells() -> Vec<(
    &'static str,
    mcds_model::Application,
    mcds_model::ClusterSchedule,
)> {
    let mut cells: Vec<(
        &'static str,
        mcds_model::Application,
        mcds_model::ClusterSchedule,
    )> = Vec::new();
    for e in table1_experiments() {
        let base = e.name.trim_end_matches('*').to_lowercase();
        let name = CATALOG
            .iter()
            .find(|&&c| c == base)
            .copied()
            .expect("every Table-1 row is a catalog workload");
        if !cells.iter().any(|(n, _, s)| *n == name && *s == e.sched) {
            cells.push((name, e.app, e.sched));
        }
    }
    cells
}

/// `plan-paper`: 9 cells × FB {1,2,3,8} kW × {basic, ds, cds, search:8}
/// at the paper's 48 iterations. The seed only orders them.
fn paper_points(_rng: &mut Rng) -> Vec<Point> {
    let cells = paper_cells();
    let grid = table1_sweep(&PAPER_FB_KW, false).points();
    assert_eq!(
        cells.len() * PAPER_FB_KW.len() * SchedulerKind::ALL.len(),
        grid,
        "cells match table1_sweep"
    );
    let kinds = [
        SchedulerKind::Basic,
        SchedulerKind::Ds,
        SchedulerKind::Cds,
        "search:8".parse().expect("search:8 parses"),
    ];
    let mut points = Vec::new();
    for (c, (name, app, sched)) in cells.iter().enumerate() {
        for (f, &kw) in PAPER_FB_KW.iter().enumerate() {
            for &kind in &kinds {
                points.push(Point {
                    group: c * PAPER_FB_KW.len() + f,
                    workload: name,
                    iterations: app.iterations(),
                    fb_kw: kw,
                    app: app.clone(),
                    sched: sched.clone(),
                    arch: planner::m1_with_fb_kw(kw),
                    kind,
                });
            }
        }
    }
    points
}

/// `plan-deep`: {e1, e2, e3, mpeg, atr-fi} at both depths (seeded
/// jitter) × {ds, cds}, FB 2 kW.
fn deep_points(rng: &mut Rng) -> Vec<Point> {
    let mut points = Vec::new();
    for (a, &name) in DEEP_APPS.iter().enumerate() {
        for (d, &depth) in DEEP_ITERATIONS.iter().enumerate() {
            let iterations = depth + rng.below(depth / 32);
            let (app, sched) = by_name(name, iterations).expect("catalog workload");
            for kind in [SchedulerKind::Ds, SchedulerKind::Cds] {
                points.push(Point {
                    group: a * DEEP_ITERATIONS.len() + d,
                    workload: name,
                    iterations,
                    fb_kw: 2,
                    app: app.clone(),
                    sched: sched.clone(),
                    arch: m1_with_fb_kw(2),
                    kind,
                });
            }
        }
    }
    points
}

/// The two plan workloads: set-up (point generation plus the checked,
/// untimed reference pass that also warms the process; repeated for a
/// median), then either the untraced timed loop or the traced replay.
fn plan_workload(args: &Args, make: fn(&mut Rng) -> Vec<Point>) -> RunResult {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let points = make(&mut Rng::new(args.seed));
        let reference = Reference::build(&points);
        setups.push(t.elapsed().as_secs_f64());
        built = Some((points, reference));
    }
    let setup_s = median(&setups);
    let (points, reference) = built.expect("at least one set-up");
    for p in &reference.problems {
        println!("check failed: {p}");
    }
    let (sim_cycles, ext_words) = reference.totals();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut order_rng = Rng::new(args.seed.wrapping_add(1));
    let counts_base = vec![
        ("sim_cycles", sim_cycles as f64),
        ("ext_words", ext_words as f64),
    ];
    println!(
        "workload {} seed {}: {} points, {} feasible",
        args.workload,
        args.seed,
        points.len(),
        reference.outputs.iter().filter(|o| o.is_ok()).count()
    );

    if args.trace {
        let traced = trace_plans(
            &points,
            &reference,
            &mut order_rng,
            budget,
            args.workload == "plan-paper",
        );
        let serving = serving::replay_points(&points, &reference);
        let mut counts = counts_base;
        counts.extend(traced.layers_counts());
        let failed = traced.failed;
        let attempted = traced.layers.plans;
        let metrics = layer_metrics(&traced.layers, &serving, &ServeLayers::default());
        return RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
            counts,
        };
    }

    let timed = planner::run_timed(&points, &reference, &mut order_rng, budget);
    let n = timed.plan_us.len();
    let (quiet, passes) = timed.quiet();
    let q = quiet.len();
    let plans_per_s = q as f64 / (quiet.sum() / 1e6);
    let tail = tail_q(q);
    println!(
        "{n} cold plans in {} complete passes; figures from the fastest quarter ({passes} passes, n={q})",
        timed.pass_plans.len()
    );
    println!("plans_per_s = {plans_per_s:.1} plans/s (n={q})");
    println!("plan_p50_us = {:.1} us (n={q})", quiet.median());
    println!(
        "plan_p{:.0}_us = {:.1} us (n={q}; per-layer plan.tail_us in the traced run)",
        tail * 100.0,
        quiet.quantile(tail)
    );
    println!(
        "sim_cycles = {sim_cycles} cycles (one pass, {} feasible points)",
        reference.outputs.iter().filter(|o| o.is_ok()).count()
    );
    println!("ext_words = {ext_words} words (one pass)");
    println!(
        "error_rate = {} ratio ({}/{n})",
        timed.failed as f64 / n.max(1) as f64,
        timed.failed
    );
    let metrics = vec![
        Metric::new(
            "throughput_per_s",
            plans_per_s,
            "1/s",
            format!("plans_per_s, cold plans per busy second, n={q}"),
        ),
        Metric::new(
            "p50_us",
            quiet.median(),
            "us",
            format!("plan_p50_us, n={q}"),
        ),
        Metric::new(
            "sim_cycles",
            sim_cycles as f64,
            "cycles",
            "one pass of the feasible points",
        ),
        Metric::new(
            "ext_words",
            ext_words as f64,
            "words",
            "data + context words, one pass",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM"),
        Metric::new(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUP_REPEATS} set-ups: inputs + checked reference pass"),
        ),
    ];
    RunResult {
        correct: timed.failed == 0,
        attempted: n as u64,
        failed: timed.failed,
        metrics,
        counts: counts_base,
    }
}

pub struct TracedPlans {
    pub layers: PlanLayers,
    pub failed: u64,
}

impl TracedPlans {
    pub fn layers_counts(&self) -> Vec<(&'static str, f64)> {
        let l = &self.layers;
        vec![
            ("ladder.rungs", l.mean_count(l.rungs)),
            ("emit.ops", l.mean_count(l.ops)),
            ("fballoc.allocs", l.mean_count(l.allocs)),
            ("fballoc.splits", l.mean_count(l.splits)),
            ("search.expansions", l.per_search_plan(l.expansions)),
            ("search.prunes", l.per_search_plan(l.prunes)),
        ]
    }
}

/// The traced planner run: seeded shuffled passes (at least one whole
/// pass, whose counts are kept) until the budget is spent.
pub fn trace_plans(
    points: &[Point],
    reference: &Reference,
    rng: &mut Rng,
    budget: Duration,
    basic_from_group: bool,
) -> TracedPlans {
    let basic: Vec<Option<u64>> = points
        .iter()
        .map(|p| {
            if basic_from_group {
                points
                    .iter()
                    .zip(&reference.outputs)
                    .find(|(q, _)| q.group == p.group && q.kind == SchedulerKind::Basic)
                    .and_then(|(_, o)| o.as_ref().ok().map(|s| s.cycles))
            } else {
                let basic = Point {
                    kind: SchedulerKind::Basic,
                    ..p.clone()
                };
                basic
                    .pipeline()
                    .run()
                    .ok()
                    .map(|r| r.report().total().get())
            }
        })
        .collect();
    let mut traced = TracedPlans {
        layers: PlanLayers::default(),
        failed: 0,
    };
    let start = Instant::now();
    let mut order: Vec<usize> = (0..points.len()).collect();
    let mut first = true;
    loop {
        rng.shuffle(&mut order);
        for &i in &order {
            let out = planner::trace_point(&points[i], &mut traced.layers, first, basic[i]);
            if reference.bad[i] || out != reference.outputs[i] {
                traced.failed += 1;
            }
        }
        first = false;
        if start.elapsed() >= budget {
            break;
        }
    }
    traced
}

/// The highest of p99, p95 and p90 (else p50) with at least ten of `n`
/// samples beyond it.
fn tail_q(n: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)).floor() >= 10.0)
        .unwrap_or(0.5)
}

/// The per-layer metric list, identical for every workload; a layer a
/// workload does not exercise reads 0.
pub fn layer_metrics(
    plan: &PlanLayers,
    serving: &ServingLayers,
    serve: &ServeLayers,
) -> Vec<Metric> {
    let get = |total: f64| plan.per_plan(total);
    let plans = format!("mean per traced plan, n={}", plan.plans);
    let counted = format!("mean per plan over one pass, n={}", plan.counted);
    vec![
        Metric::new(
            "ksched.resolve_us",
            get(plan.resolve),
            "us",
            format!("{plans}; control: moves nothing"),
        ),
        Metric::new(
            "analysis.new_us",
            get(plan.analysis),
            "us",
            format!("{plans}; control: moves nothing"),
        ),
        Metric::new(
            "ladder.rungs",
            plan.mean_count(plan.rungs),
            "count",
            format!("{counted}; moves throughput_per_s on plan-*, mostly plan-deep"),
        ),
        Metric::new(
            "retention.select_us",
            get(plan.select),
            "us",
            format!("{plans}; moves p50_us on plan-paper"),
        ),
        Metric::new("csched.plan_us", get(plan.csched), "us", plans.clone()),
        Metric::new(
            "plan.build_stages_us",
            get(plan.stages),
            "us",
            plans.clone(),
        ),
        Metric::new(
            "emit.emit_ops_us",
            get(plan.emit),
            "us",
            format!("{plans}; moves p50_us on plan-deep, miss service on serve-mixed"),
        ),
        Metric::new(
            "emit.ops",
            plan.mean_count(plan.ops),
            "count",
            counted.clone(),
        ),
        Metric::new(
            "sim.run_us",
            get(plan.sim),
            "us",
            format!("{plans}; moves p50_us on plan-deep, miss service on serve-mixed"),
        ),
        Metric::new(
            "alloc_walk.run_us",
            get(plan.alloc),
            "us",
            format!("{plans}; moves p50_us on plan-paper, flat on plan-deep"),
        ),
        Metric::new(
            "fballoc.allocs",
            plan.mean_count(plan.allocs),
            "count",
            counted.clone(),
        ),
        Metric::new(
            "fballoc.splits",
            plan.mean_count(plan.splits),
            "count",
            counted,
        ),
        Metric::new(
            "search.expansions",
            plan.per_search_plan(plan.expansions),
            "count",
            format!(
                "mean per search:8 plan, n={}; moves tail_us on plan-paper",
                plan.search_plans
            ),
        ),
        Metric::new(
            "search.prunes",
            plan.per_search_plan(plan.prunes),
            "count",
            format!("mean per search:8 plan, n={}", plan.search_plans),
        ),
        Metric::new(
            "pipeline.evaluate_us",
            get(plan.evaluate),
            "us",
            plans.clone(),
        ),
        Metric::new(
            "ladder.residual_us",
            plan.residual_us(),
            "us",
            format!("{plans}; ladder span minus replayed rungs and walk"),
        ),
        Metric::new(
            "plan.traced_us",
            get(plan.traced),
            "us",
            format!("{plans}; = sum of the self times above"),
        ),
        Metric::new(
            "plan.untraced_us",
            get(plan.untraced),
            "us",
            format!("{plans}; same points untraced, interleaved"),
        ),
        Metric::new(
            "plan.tail_us",
            plan.untraced_us.quantile(tail_q(plan.untraced_us.len())),
            "us",
            format!(
                "p{:.0} of the untraced plans (highest with 10 samples beyond), n={}",
                tail_q(plan.untraced_us.len()) * 100.0,
                plan.untraced_us.len()
            ),
        ),
        Metric::new(
            "trace.overhead_pct",
            plan.overhead_pct(),
            "%",
            "traced over untraced plan time",
        ),
        Metric::new(
            "plan.ns_per_cycle_saved",
            plan.ns_per_cycle_saved.median(),
            "ns/cycle",
            format!(
                "median over {} plans that beat Basic",
                plan.ns_per_cycle_saved.len()
            ),
        ),
        Metric::new(
            "protocol.decode_us",
            serving.decode_us,
            "us",
            format!(
                "per frame, n={}; moves p50_us on serve-mixed",
                serving.frames
            ),
        ),
        Metric::new(
            "protocol.render_us",
            serving.render_us,
            "us",
            format!("per response, n={}", serving.frames),
        ),
        Metric::new(
            "cache.lookup_us",
            serving.lookup_us,
            "us",
            format!(
                "per lookup, n={}; moves p50_us on serve-mixed",
                serving.frames
            ),
        ),
        Metric::new(
            "cache.publish_us",
            serving.publish_us,
            "us",
            format!("per publish, n={}", serving.misses),
        ),
        Metric::new(
            "cache.hit_ratio",
            serving.hit_ratio(),
            "ratio",
            format!("{} hits / {} lookups", serving.hits, serving.frames),
        ),
        Metric::new(
            "serve.hit_service_us",
            serve.hit_service_us,
            "us",
            "lockstep warm-hit p50 (hit_p50_us)",
        ),
        Metric::new(
            "serve.miss_service_us",
            serve.miss_service_us,
            "us",
            "lockstep cold-miss p50 (miss_p50_us)",
        ),
        Metric::new(
            "serve.queue_wait_us.low",
            serve.queue_wait_us[0],
            "us",
            "p99 of latency minus class service time; moves p99 at low",
        ),
        Metric::new(
            "serve.queue_wait_us.mid",
            serve.queue_wait_us[1],
            "us",
            "same at mid",
        ),
        Metric::new(
            "serve.queue_wait_us.high",
            serve.queue_wait_us[2],
            "us",
            "same at high; moves serve.max_rate_rps",
        ),
        Metric::new(
            "serve.p99_us.low",
            serve.p99_us_low,
            "us",
            "open-loop p99 at low",
        ),
        Metric::new(
            "serve.p99_us.mid",
            serve.p99_us_mid,
            "us",
            "open-loop p99 at mid",
        ),
        Metric::new(
            "serve.p99_us.high",
            serve.p99_us_high,
            "us",
            "open-loop p99 at high",
        ),
        Metric::new(
            "serve.max_rate_rps",
            serve.max_rate_rps,
            "1/s",
            "highest ladder step meeting the limit",
        ),
        Metric::new(
            "serve.rejected",
            serve.rejected,
            "count",
            "stats verb; moves error rate",
        ),
        Metric::new(
            "serve.shed",
            serve.shed,
            "count",
            "stats verb; moves error rate",
        ),
        Metric::new(
            "gen.late_p99_us",
            serve.late_p99_us,
            "us",
            "generator lateness, fixed-rate phases",
        ),
    ]
}
