//! The offline planner path: cold `Pipeline` runs, their output
//! checks, and the traced replay that times each layer's public calls.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcds_core::{
    all_fit, build_stages, emit_ops, evaluate, evaluate_with_analysis, select_greedy,
    AllocationWalk, ContextPolicy, FootprintModel, McdsError, MetricsRegistry, Observer, Pipeline,
    PipelineRun, RetentionSet, ScheduleAnalysis, SchedulePlan, SchedulerConfig, SchedulerKind,
};
use mcds_csched::ContextScheduler;
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use mcds_sim::{SimReport, Simulator};

use crate::util::{us, Rng, Samples};

/// One planning request: an application under a fixed partition, an
/// architecture and a scheduler.
#[derive(Clone)]
pub struct Point {
    /// Points sharing a group differ only in the scheduler (the
    /// Figure-6 ordering is checked within a group).
    pub group: usize,
    /// Catalog workload name, as a client would put it on the wire.
    pub workload: &'static str,
    pub iterations: u64,
    pub fb_kw: u64,
    pub app: Application,
    pub sched: ClusterSchedule,
    pub arch: ArchParams,
    pub kind: SchedulerKind,
}

impl Point {
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(self.app.clone())
            .arch(self.arch)
            .scheduler(self.kind)
            .schedule(self.sched.clone())
    }

    pub fn scheduler_name(&self) -> String {
        match self.kind {
            SchedulerKind::Search { beam_width, .. } => format!("search:{beam_width}"),
            other => other.name().to_owned(),
        }
    }
}

/// The M1 architecture with `kw` kilowords per Frame Buffer set.
pub fn m1_with_fb_kw(kw: u64) -> ArchParams {
    ArchParams::m1()
        .to_builder()
        .fb_set_words(Words::kilo(kw))
        .build()
}

/// What a plan produced, reduced to the figures the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub cycles: u64,
    pub data_words: u64,
    pub context_words: u64,
    pub rf: u64,
    pub avoided: u64,
}

impl Summary {
    pub fn of(run: &PipelineRun) -> Summary {
        Summary::from_parts(run.plan(), run.report())
    }

    fn from_parts(plan: &SchedulePlan, report: &SimReport) -> Summary {
        Summary {
            cycles: report.total().get(),
            data_words: plan.total_data_words().get(),
            context_words: plan.total_context_words(),
            rf: plan.rf(),
            avoided: plan.dt_avoided_per_iter().get(),
        }
    }
}

/// A plan's output: its summary, or the error text of an infeasible
/// point (infeasible points are kept and must stay infeasible).
pub type Output = Result<Summary, String>;

/// One cold plan: a fresh `Pipeline` (no shared analysis), planned and
/// evaluated. Returns the wall time and the run.
pub fn plan_cold(p: &Point) -> (Duration, Result<PipelineRun, McdsError>) {
    let t = Instant::now();
    let run = p.pipeline().run();
    (t.elapsed(), run)
}

/// Re-simulates the returned plan from scratch and requires the cycles
/// the pipeline reported.
fn reevaluates(p: &Point, run: &PipelineRun) -> bool {
    evaluate(run.plan(), &p.arch).map(|r| r.total()) == Ok(run.report().total())
}

/// Checks one returned run against the point's reference output.
pub fn check(p: &Point, run: &Result<PipelineRun, McdsError>, expected: &Output) -> bool {
    match (run, expected) {
        (Ok(run), Ok(s)) => Summary::of(run) == *s && reevaluates(p, run),
        (Err(e), Err(msg)) => e.to_string() == *msg,
        _ => false,
    }
}

/// Reference outputs of every point (one untimed pass), plus the
/// points whose outputs break a required property.
pub struct Reference {
    pub outputs: Vec<Output>,
    pub bad: Vec<bool>,
    pub problems: Vec<String>,
}

impl Reference {
    pub fn build(points: &[Point]) -> Reference {
        let mut outputs = Vec::with_capacity(points.len());
        let mut bad = vec![false; points.len()];
        let mut problems = Vec::new();
        for (i, p) in points.iter().enumerate() {
            match p.pipeline().run() {
                Ok(run) => {
                    if !reevaluates(p, &run) {
                        bad[i] = true;
                        problems.push(format!("{}: re-evaluation disagrees", label(p)));
                    }
                    outputs.push(Ok(Summary::of(&run)));
                }
                Err(e) => outputs.push(Err(e.to_string())),
            }
        }
        let mut reference = Reference {
            outputs,
            bad,
            problems,
        };
        reference.check_ordering(points);
        reference
    }

    /// Figure 6 per group: CDS <= DS <= Basic on cycles (feasibility
    /// may only improve along that chain), and search never avoids
    /// less traffic than CDS.
    fn check_ordering(&mut self, points: &[Point]) {
        let find = |group: usize, name: &str| {
            points
                .iter()
                .position(|p| p.group == group && p.kind.name() == name)
        };
        let groups = points.iter().map(|p| p.group).max().map_or(0, |g| g + 1);
        for g in 0..groups {
            let chain = [find(g, "basic"), find(g, "ds"), find(g, "cds")];
            for pair in chain.windows(2) {
                let (Some(worse), Some(better)) = (pair[0], pair[1]) else {
                    continue;
                };
                let ok = match (&self.outputs[worse], &self.outputs[better]) {
                    (Ok(w), Ok(b)) => b.cycles <= w.cycles,
                    (Ok(_), Err(_)) => false,
                    (Err(_), _) => true,
                };
                if !ok {
                    self.flag(
                        better,
                        format!(
                            "{}: slower than {}",
                            label(&points[better]),
                            points[worse].kind.name()
                        ),
                    );
                }
            }
            if let (Some(cds), Some(search)) = (find(g, "cds"), find(g, "search")) {
                let ok = match (&self.outputs[cds], &self.outputs[search]) {
                    (Ok(c), Ok(s)) => s.avoided >= c.avoided,
                    (Ok(_), Err(_)) => false,
                    (Err(_), _) => true,
                };
                if !ok {
                    self.flag(
                        search,
                        format!("{}: avoids less traffic than cds", label(&points[search])),
                    );
                }
            }
        }
    }

    fn flag(&mut self, i: usize, problem: String) {
        self.bad[i] = true;
        self.problems.push(problem);
    }

    /// Sum of simulated makespans and of external words over the
    /// feasible points.
    pub fn totals(&self) -> (u64, u64) {
        self.outputs.iter().flatten().fold((0, 0), |(c, w), s| {
            (c + s.cycles, w + s.data_words + s.context_words)
        })
    }
}

pub fn label(p: &Point) -> String {
    format!(
        "{}@{}/fb{}/{}",
        p.app.name(),
        p.iterations,
        p.fb_kw,
        p.scheduler_name()
    )
}

/// The untraced timed loop's results.
#[derive(Default)]
pub struct Timed {
    pub plan_us: Samples,
    /// Plan times (µs) of each complete pass.
    pub pass_plans: Vec<Samples>,
    pub failed: u64,
}

impl Timed {
    /// The plan times of the fastest quarter of the complete passes
    /// (all plans if no pass completed), and how many passes that is.
    /// Other tenants of a shared host only ever slow a pass down, so
    /// the quietest passes are the ones that repeat from run to run.
    pub fn quiet(&self) -> (Samples, usize) {
        if self.pass_plans.is_empty() {
            return (self.plan_us.clone(), 0);
        }
        let mut passes: Vec<&Samples> = self.pass_plans.iter().collect();
        passes.sort_by(|a, b| a.sum().total_cmp(&b.sum()));
        let keep = passes.len().div_ceil(4);
        let mut quiet = Samples::default();
        for p in &passes[..keep] {
            quiet.extend(p);
        }
        (quiet, keep)
    }
}

/// Plans the points cold in seeded shuffled passes until `budget` has
/// elapsed, checking every returned plan against the reference.
pub fn run_timed(
    points: &[Point],
    reference: &Reference,
    rng: &mut Rng,
    budget: Duration,
) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    let mut order: Vec<usize> = (0..points.len()).collect();
    'passes: loop {
        rng.shuffle(&mut order);
        let mut pass = Samples::default();
        for &i in &order {
            let (d, run) = plan_cold(&points[i]);
            timed.plan_us.push(us(d));
            pass.push(us(d));
            if reference.bad[i] || !check(&points[i], &run, &reference.outputs[i]) {
                timed.failed += 1;
            }
            if start.elapsed() >= budget {
                break 'passes;
            }
        }
        timed.pass_plans.push(pass);
    }
    timed
}

/// Per-plan self times (µs) of the planner's layers, as measured by
/// the traced replay, and the counts read at the same boundaries.
#[derive(Default, Clone)]
pub struct PlanLayers {
    pub plans: u64,
    pub resolve: f64,
    pub analysis: f64,
    pub select: f64,
    pub csched: f64,
    pub stages: f64,
    pub emit: f64,
    pub sim: f64,
    pub alloc: f64,
    pub evaluate: f64,
    /// The `plan_observed` span: the RF ladder plus the allocation walk.
    pub ladder: f64,
    /// The whole traced plan (resolve + analysis + ladder + evaluate).
    pub traced: f64,
    /// The same plan run untraced, interleaved with the traced one.
    pub untraced: f64,
    /// Each untraced plan time, in µs.
    pub untraced_us: Samples,
    /// Plans whose counts were taken (the first pass).
    pub counted: u64,
    pub rungs: u64,
    pub ops: u64,
    pub allocs: u64,
    pub splits: u64,
    pub search_plans: u64,
    pub expansions: u64,
    pub prunes: u64,
    /// Per feasible point that beats Basic: plan ns per cycle saved.
    pub ns_per_cycle_saved: Samples,
}

impl PlanLayers {
    /// A summed span as µs per traced plan.
    pub fn per_plan(&self, total: f64) -> f64 {
        if self.plans == 0 {
            0.0
        } else {
            total / self.plans as f64
        }
    }

    /// Ladder time not covered by the replayed rung and walk spans.
    pub fn residual_us(&self) -> f64 {
        self.per_plan(
            self.ladder
                - self.select
                - self.csched
                - self.stages
                - self.emit
                - self.sim
                - self.alloc,
        )
    }

    pub fn overhead_pct(&self) -> f64 {
        if self.untraced <= 0.0 {
            0.0
        } else {
            (self.traced / self.untraced - 1.0) * 100.0
        }
    }

    /// A count per counted plan.
    pub fn mean_count(&self, count: u64) -> f64 {
        if self.counted == 0 {
            0.0
        } else {
            count as f64 / self.counted as f64
        }
    }

    /// A search count per counted search plan.
    pub fn per_search_plan(&self, count: u64) -> f64 {
        if self.search_plans == 0 {
            0.0
        } else {
            count as f64 / self.search_plans as f64
        }
    }
}

/// Counts of one plan, read through `Pipeline::metrics`.
struct PlanCounts {
    rungs: u64,
    expansions: u64,
    prunes: u64,
}

fn counted_run(p: &Point) -> PlanCounts {
    let registry = Arc::new(MetricsRegistry::new());
    let _ = p.pipeline().metrics(Arc::clone(&registry)).run();
    let get = |name: &str| registry.get(name).unwrap_or(0);
    PlanCounts {
        rungs: get("plan.rf_evaluated"),
        expansions: get("search.expansions"),
        prunes: get("search.prunes"),
    }
}

/// Traces one point into `layers`: an untraced cold plan, then the same
/// plan driven step by step through `Pipeline::run`'s own chain with a
/// span around each step, then a replay of every RF rung and of the
/// allocation walk on the plan's own inputs (the children of the ladder
/// span). `count` also takes the point's counts (one pass is enough:
/// they repeat exactly). `basic_cycles` enables the saved-cycles ratio.
/// Returns the traced run's output for checking.
pub fn trace_point(
    p: &Point,
    layers: &mut PlanLayers,
    count: bool,
    basic_cycles: Option<u64>,
) -> Output {
    // Alternate which of the two runs of the point goes first, so the
    // second one's warmer caches favour neither side of the overhead.
    let untraced_first = layers.plans.is_multiple_of(2);
    let mut untraced = Duration::ZERO;
    if untraced_first {
        untraced = run_only(p);
    }
    let config = SchedulerConfig::default();
    let pipeline = p.pipeline();
    let start = Instant::now();
    let t = Instant::now();
    let sched = pipeline.resolve_clusters();
    let resolve = us(t.elapsed());
    let Ok(sched) = sched else {
        return Err("clustering failed".to_owned());
    };
    let t = Instant::now();
    let analysis = ScheduleAnalysis::new(&p.app, &sched);
    let analysis_us = us(t.elapsed());
    let t = Instant::now();
    let plan = p.kind.instantiate(config).plan_observed(
        &p.app,
        &sched,
        &p.arch,
        &analysis,
        Observer::none(),
    );
    let ladder = us(t.elapsed());
    let t = Instant::now();
    let report = plan
        .as_ref()
        .ok()
        .map(|plan| evaluate_with_analysis(plan, &p.arch, &config, &analysis, Observer::none()));
    let evaluate_us = us(t.elapsed());
    let traced = us(start.elapsed());
    if !untraced_first {
        untraced = run_only(p);
    }

    layers.plans += 1;
    layers.untraced += us(untraced);
    layers.untraced_us.push(us(untraced));
    layers.traced += traced;
    layers.resolve += resolve;
    layers.analysis += analysis_us;
    layers.ladder += ladder;
    layers.evaluate += evaluate_us;
    if count {
        let c = counted_run(p);
        layers.counted += 1;
        layers.rungs += c.rungs;
        if matches!(p.kind, SchedulerKind::Search { .. }) {
            layers.search_plans += 1;
            layers.expansions += c.expansions;
            layers.prunes += c.prunes;
        }
    }
    let (plan, report) = match (plan, report) {
        (Ok(plan), Some(Ok(report))) => (plan, report),
        (Err(e), _) => {
            drop_analysis(analysis, layers);
            return Err(McdsError::from(e).to_string());
        }
        (Ok(_), report) => {
            drop_analysis(analysis, layers);
            return Err(report
                .and_then(Result::err)
                .map_or_else(String::new, |e| McdsError::from(e).to_string()));
        }
    };

    let model = footprint_model(p.kind);
    replay_rungs(p, &sched, &analysis, &config, model, layers, count);
    let t = Instant::now();
    let walk = AllocationWalk::new(
        &p.app,
        &sched,
        analysis.lifetimes(),
        plan.retention(),
        plan.rf(),
        p.arch.fb_set_words(),
        model,
    )
    .run(2, false);
    layers.alloc += us(t.elapsed());
    if let (true, Ok(walk)) = (count, &walk) {
        layers.allocs += walk.allocs();
        layers.splits += walk.splits();
    }
    drop_analysis(analysis, layers);
    let cycles = report.total().get();
    if let Some(basic) = basic_cycles.filter(|&b| b > cycles) {
        layers
            .ns_per_cycle_saved
            .push(untraced.as_nanos() as f64 / (basic - cycles) as f64);
    }
    Ok(Summary::from_parts(&plan, &report))
}

/// `Pipeline::run` alone: the pipeline is built before the clock starts
/// and its result dropped after it stops, as in the traced chain.
fn run_only(p: &Point) -> Duration {
    let pipeline = p.pipeline();
    let t = Instant::now();
    let run = pipeline.run();
    let d = t.elapsed();
    drop(run);
    d
}

/// Drops the traced plan's analysis (with its rung memo), timing it as
/// part of the ladder span: `Pipeline::run` drops it before returning.
fn drop_analysis(analysis: ScheduleAnalysis, layers: &mut PlanLayers) {
    let t = Instant::now();
    drop(analysis);
    let d = us(t.elapsed());
    layers.ladder += d;
    layers.traced += d;
}

fn footprint_model(kind: SchedulerKind) -> FootprintModel {
    match kind {
        SchedulerKind::Basic => FootprintModel::NoReplacement,
        _ => FootprintModel::Replacement,
    }
}

/// Replays the RF ladder the scheduler walked — the same rung list,
/// greedy retention at each rung, context plan, stage build, op
/// emission and simulation — timing each public call. The search
/// scheduler's beam search is not replayed; it stays in the residual.
fn replay_rungs(
    p: &Point,
    sched: &ClusterSchedule,
    analysis: &ScheduleAnalysis,
    config: &SchedulerConfig,
    model: FootprintModel,
    layers: &mut PlanLayers,
    count: bool,
) {
    let app = &p.app;
    let fbs = p.arch.fb_set_words();
    let rungs: Vec<u64> = match p.kind {
        SchedulerKind::Basic => vec![1],
        _ => {
            let Some(rf_max) = analysis.max_common_rf_empty(app, sched, model, fbs) else {
                return;
            };
            let rf_max = config.max_rf.map_or(rf_max, |cap| rf_max.min(cap)).max(1);
            if rf_max <= 64 {
                (1..=rf_max).collect()
            } else {
                let mut ladder: Vec<u64> = std::iter::successors(Some(1u64), |rf| Some(rf * 2))
                    .take_while(|&rf| rf < rf_max)
                    .collect();
                ladder.push(rf_max);
                ladder
            }
        }
    };
    let retain = matches!(p.kind, SchedulerKind::Cds | SchedulerKind::Search { .. });
    let candidates = if retain {
        analysis.sharing_candidates(app, sched, p.arch.fb_cross_set_access())
    } else {
        &[]
    };
    let cluster_contexts: Vec<u32> = sched
        .clusters()
        .iter()
        .map(|c| c.kernels().iter().map(|&k| app.kernel(k).contexts()).sum())
        .collect();
    let cs = ContextScheduler::new(p.arch.cm_context_words());
    let simulator = Simulator::new(p.arch);
    for rf in rungs {
        let t = Instant::now();
        let retention = if retain {
            select_greedy(
                candidates,
                config.retention_ranking,
                |d| app.size_of(d),
                |tentative| all_fit(app, sched, analysis.lifetimes(), tentative, rf, model, fbs),
            )
        } else {
            RetentionSet::empty()
        };
        layers.select += us(t.elapsed());

        let t = Instant::now();
        let rounds = app.iterations().div_ceil(rf);
        let stage_clusters: Vec<usize> = (0..rounds).flat_map(|_| 0..sched.len()).collect();
        let ctx_plan = match config.context_policy {
            ContextPolicy::ReloadPerActivation => {
                cs.plan_reload_always(&cluster_contexts, &stage_clusters)
            }
            _ => cs.plan(&cluster_contexts, &stage_clusters),
        };
        layers.csched += us(t.elapsed());

        let t = Instant::now();
        let stages = build_stages(
            app,
            sched,
            analysis.lifetimes(),
            &retention,
            rf,
            ctx_plan.loads(),
        );
        layers.stages += us(t.elapsed());

        let t = Instant::now();
        let ops = emit_ops(app, sched, &stages);
        layers.emit += us(t.elapsed());
        let Ok(ops) = ops else {
            return;
        };
        if count {
            layers.ops += ops.len() as u64;
        }

        let t = Instant::now();
        let report = simulator.run(&ops);
        layers.sim += us(t.elapsed());
        std::hint::black_box(report.ok());
    }
}
