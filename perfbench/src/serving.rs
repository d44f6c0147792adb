//! The serving path: `serve-mixed` against an in-process `Server` on
//! loopback, and the replay that times the protocol and cache layers on
//! a workload's own frames and keys.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcds_core::{arch_key, compose_key, structure_key, SchedulerConfig, SchedulerKind};
use mcds_serve::{
    decode_request, render_scheduled, CachedEntry, ClientConfig, ErrorCode, Lookup, Outcome,
    OutcomeCache, ScheduleSpec, ServeConfig, ServeRequest, ServeResponse, ServeSummary, Server,
};
use mcds_workloads::mix::{by_name, CATALOG};

use crate::planner::{m1_with_fb_kw, Point, Reference, Summary};
use crate::util::{median, peak_rss_mb, quiet_windows, us, Metric, Rng, Samples};
use crate::wait;
use crate::{Args, RunResult};

/// Frame Buffer sizes (kilowords) of the serving key space.
const FB_KW: [u64; 4] = [1, 2, 3, 8];
/// Share of requests that carry a never-seen key (cold misses).
const MISS_SHARE: f64 = 0.01;
/// Iteration range of the cold-miss keys.
const MISS_ITERATIONS: std::ops::RangeInclusive<u64> = 16..=256;
/// A stratum's key sits this many iterations (at most) above the
/// stratum's start, seeded: the seed changes the keys but hardly the
/// total work they ask for.
const MISS_JITTER: u64 = 4;
/// Warm keys per (application, FB, scheduler): one from 1..8 and one
/// from 8..16 iterations.
const HIT_STRATA: [(u64, u64); 2] = [(1, 8), (8, 16)];
/// Lockstep requests per second of `--seconds`.
const LOCKSTEP_PER_S: f64 = 300.0;
/// Share of `--seconds` each fixed-rate phase (low, mid, high) runs.
const PHASE_SHARES: [f64; 3] = [0.2, 0.1, 0.1];
/// Windows a measured sequence is cut into to find its quietest quarter.
const QUIET_WINDOWS: usize = 16;
/// Rate ladder: steps up from the `mid` rate by this ratio, each
/// running this share of `--seconds`.
const LADDER_RATIO: f64 = 1.25;
const LADDER_STEPS: u32 = 6;
const LADDER_STEP_SHARE: f64 = 0.05;
/// Set-ups per run (server bind + hit-population warm-up); the last one
/// is measured against.
const SETUP_REPEATS: usize = 5;
/// Planner keys replayed through the traced planner path.
const TRACED_PLANS: usize = 60;

/// One `schedule` request of the serving key space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Spec {
    workload: &'static str,
    iterations: u64,
    fb_kw: u64,
    kind: SchedulerKind,
}

impl Spec {
    fn frame(&self) -> String {
        let spec = ScheduleSpec {
            workload: Some(self.workload.to_owned()),
            iterations: Some(self.iterations),
            fb_kw: Some(self.fb_kw),
            scheduler: Some(self.kind.name().to_owned()),
            ..ScheduleSpec::default()
        };
        let mut line = ServeRequest::Schedule(spec).encode();
        line.push('\n');
        line
    }

    fn point(&self) -> Point {
        let (app, sched) = by_name(self.workload, self.iterations).expect("catalog workload");
        Point {
            group: 0,
            workload: self.workload,
            iterations: self.iterations,
            fb_kw: self.fb_kw,
            app,
            sched,
            arch: m1_with_fb_kw(self.fb_kw),
            kind: self.kind,
        }
    }
}

/// The request key the server caches a point under.
fn point_key(p: &Point) -> u64 {
    compose_key(
        structure_key(&p.app, Some(&p.sched)),
        arch_key(&p.arch, p.kind, &SchedulerConfig::default()),
    )
}

/// The wire outcome a point's plan must produce.
fn outcome(p: &Point, s: &Summary) -> Outcome {
    Outcome {
        app: p.app.name().to_owned(),
        scheduler: p.kind.name().to_owned(),
        clusters: p.sched.len() as u64,
        rf: s.rf,
        dt_avoided_words: s.avoided,
        data_words: s.data_words,
        context_words: s.context_words,
        total_cycles: s.cycles,
        degraded: false,
    }
}

/// Protocol and cache costs measured by replaying a request sequence.
#[derive(Default)]
pub struct ServingLayers {
    pub decode_us: f64,
    pub render_us: f64,
    pub lookup_us: f64,
    pub publish_us: f64,
    pub frames: u64,
    pub hits: u64,
    pub misses: u64,
}

impl ServingLayers {
    pub fn hit_ratio(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.hits as f64 / self.frames as f64
        }
    }
}

/// One replayed request: its frame, key and the entry a miss publishes.
struct Replayed<'a> {
    frame: &'a str,
    key: u64,
    entry: &'a CachedEntry,
}

/// Times `decode_request` and `render_scheduled` per frame and an
/// `OutcomeCache` lookup (plus publish on a miss) per key, in sequence
/// order, `reps` times over.
fn replay(seq: &[Replayed<'_>], reps: usize) -> ServingLayers {
    let mut layers = ServingLayers::default();
    let (mut decode, mut render, mut lookup, mut publish) = (0.0, 0.0, 0.0, 0.0);
    let mut out = Vec::with_capacity(1024);
    for rep in 0..reps {
        let cache = OutcomeCache::new();
        for (token, r) in seq.iter().enumerate() {
            let t = Instant::now();
            let decoded = decode_request(r.frame.trim_end());
            decode += us(t.elapsed());
            assert!(decoded.is_ok(), "benchmark frames decode");

            let t = Instant::now();
            let found = cache.lookup(r.key, token as u64);
            lookup += us(t.elapsed());
            let (hit, entry) = match found {
                Lookup::Hit(e) => (true, e),
                Lookup::Lead(guard) => {
                    let t = Instant::now();
                    let (e, _) = guard.fulfill(r.entry.clone());
                    publish += us(t.elapsed());
                    (false, e)
                }
                Lookup::Wait => unreachable!("the replay never leaves a flight open"),
            };
            if rep == 0 {
                layers.frames += 1;
                if hit {
                    layers.hits += 1;
                } else {
                    layers.misses += 1;
                }
            }
            if let Some(json) = entry.outcome_json() {
                out.clear();
                let t = Instant::now();
                render_scheduled(&mut out, r.key, hit, json.as_bytes(), 0);
                render += us(t.elapsed());
            }
        }
    }
    let n = (layers.frames * reps as u64).max(1) as f64;
    layers.decode_us = decode / n;
    layers.render_us = render / n;
    layers.lookup_us = lookup / n;
    layers.publish_us = publish / (layers.misses * reps as u64).max(1) as f64;
    layers
}

/// The serving-layer replay of a plan workload: each point's request
/// as a client would send it, twice over (the first pass fills the
/// cache, the second hits it).
pub fn replay_points(points: &[Point], reference: &Reference) -> ServingLayers {
    let frames: Vec<String> = points
        .iter()
        .map(|p| {
            Spec {
                workload: p.workload,
                iterations: p.iterations,
                fb_kw: p.fb_kw,
                kind: p.kind,
            }
            .frame()
        })
        .collect();
    let entries: Vec<CachedEntry> = points
        .iter()
        .zip(&reference.outputs)
        .map(|(p, o)| match o {
            Ok(s) => CachedEntry::ok(outcome(p, s)),
            Err(e) => CachedEntry::err(ErrorCode::BadRequest, e.clone()),
        })
        .collect();
    let keys: Vec<u64> = points.iter().map(point_key).collect();
    let seq: Vec<Replayed<'_>> = (0..2)
        .flat_map(|_| 0..points.len())
        .map(|i| Replayed {
            frame: &frames[i],
            key: keys[i],
            entry: &entries[i],
        })
        .collect();
    replay(&seq, 5)
}

/// Serve-only figures, measured from outside the server.
#[derive(Default)]
pub struct ServeLayers {
    pub hit_service_us: f64,
    pub miss_service_us: f64,
    pub queue_wait_us: [f64; 3],
    pub p99_us_low: f64,
    pub p99_us_mid: f64,
    pub p99_us_high: f64,
    pub max_rate_rps: f64,
    pub rejected: f64,
    pub shed: f64,
    pub late_p99_us: f64,
}

/// Every feasible (application, FB, scheduler) combination of the key
/// space: CATALOG × FB × {ds, cds}. Feasibility does not depend on the
/// iteration count (it is decided at reuse factor 1), so one cheap
/// plan per (application, FB) decides it.
fn combos() -> Vec<(&'static str, u64, SchedulerKind)> {
    let mut v = Vec::new();
    for &w in CATALOG {
        for kw in FB_KW {
            let spec = Spec {
                workload: w,
                iterations: 1,
                fb_kw: kw,
                kind: SchedulerKind::Ds,
            };
            if spec.point().pipeline().run().is_ok() {
                v.push((w, kw, SchedulerKind::Ds));
                v.push((w, kw, SchedulerKind::Cds));
            }
        }
    }
    v
}

/// The seeded inputs of one run.
struct Inputs {
    hits: Vec<Spec>,
    lockstep: Vec<Spec>,
    /// The three fixed-rate phases: requests and due times.
    phases: Vec<(Vec<Spec>, Vec<Duration>)>,
    /// Rate-ladder steps: rate, requests and due times.
    ladder: Vec<(f64, Vec<Spec>, Vec<Duration>)>,
}

/// Never-seen keys. The lockstep and fixed-rate phases draw from a
/// stratified pool: each combination's iteration range is cut into equal
/// strata and the pool holds one value per stratum, so every seed asks
/// for the same spread of plan sizes. The rate ladder draws from the
/// values left over.
struct MissPool {
    combos: Vec<(&'static str, u64, SchedulerKind)>,
    fixed: Vec<Vec<u64>>,
    spare: Vec<Vec<u64>>,
    /// Combination visiting order: round-robin, shuffled per round.
    order: Vec<usize>,
    taken: [usize; 2],
}

impl MissPool {
    fn new(
        combos: Vec<(&'static str, u64, SchedulerKind)>,
        strata: u64,
        rng: &mut Rng,
    ) -> MissPool {
        let lo = *MISS_ITERATIONS.start();
        let span = MISS_ITERATIONS.end() - lo + 1;
        let strata = strata.clamp(1, span);
        let mut fixed = Vec::new();
        let mut spare = Vec::new();
        for _ in &combos {
            let mut picks: Vec<u64> = (0..strata)
                .map(|j| {
                    let a = lo + j * span / strata;
                    let b = lo + (j + 1) * span / strata;
                    a + rng.below((b - a).min(MISS_JITTER))
                })
                .collect();
            let mut rest: Vec<u64> = MISS_ITERATIONS.filter(|i| !picks.contains(i)).collect();
            rng.shuffle(&mut picks);
            rng.shuffle(&mut rest);
            fixed.push(picks);
            spare.push(rest);
        }
        let rounds = span as usize;
        let mut order: Vec<usize> = (0..rounds).flat_map(|_| 0..combos.len()).collect();
        for round in order.chunks_mut(combos.len()) {
            rng.shuffle(round);
        }
        MissPool {
            combos,
            fixed,
            spare,
            order,
            taken: [0, 0],
        }
    }

    fn take(&mut self, spare: bool) -> Spec {
        let lists = if spare {
            &mut self.spare
        } else {
            &mut self.fixed
        };
        let taken = &mut self.taken[usize::from(spare)];
        let iterations = loop {
            let c = self.order[*taken % self.order.len()];
            *taken += 1;
            if let Some(i) = lists[c].pop() {
                break (c, i);
            }
        };
        let (workload, fb_kw, kind) = self.combos[iterations.0];
        Spec {
            workload,
            iterations: iterations.1,
            fb_kw,
            kind,
        }
    }
}

fn misses_in(n: usize) -> usize {
    (n as f64 * MISS_SHARE).round() as usize
}

/// `n` requests with exactly `misses_in(n)` cold misses at seeded
/// positions; the rest pick a warm key uniformly.
fn mix(n: usize, hits: &[Spec], pool: &mut MissPool, spare: bool, rng: &mut Rng) -> Vec<Spec> {
    let misses = misses_in(n);
    let mut is_miss: Vec<bool> = (0..n).map(|i| i < misses).collect();
    rng.shuffle(&mut is_miss);
    is_miss
        .into_iter()
        .map(|m| {
            if m {
                pool.take(spare)
            } else {
                hits[rng.below(hits.len() as u64) as usize]
            }
        })
        .collect()
}

/// `n` Poisson arrivals at `rate` per second.
fn arrivals(rate: f64, n: usize, rng: &mut Rng) -> Vec<Duration> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

fn inputs(args: &Args) -> Inputs {
    let mut rng = Rng::new(args.seed);
    let combos = combos();
    let mut hits = Vec::new();
    for &(workload, fb_kw, kind) in &combos {
        for (lo, hi) in HIT_STRATA {
            hits.push(Spec {
                workload,
                iterations: lo + rng.below(hi - lo),
                fb_kw,
                kind,
            });
        }
    }
    let phase_n: Vec<usize> = args
        .rates
        .iter()
        .zip(PHASE_SHARES)
        .map(|(r, share)| (r * share * args.seconds).round() as usize)
        .collect();
    let phase_misses: usize = phase_n.iter().map(|&n| misses_in(n)).sum();
    // The lockstep phase rounds the cold keys up to whole rounds of the
    // combinations, so every combination gets the same number of them
    // whatever the seed.
    let min_lockstep = misses_in((LOCKSTEP_PER_S * args.seconds) as usize);
    let fixed_misses = (phase_misses + min_lockstep).next_multiple_of(combos.len());
    let lockstep_n = ((fixed_misses - phase_misses) as f64 / MISS_SHARE).round() as usize;
    let strata = (fixed_misses / combos.len()) as u64;
    let mut pool = MissPool::new(combos, strata, &mut rng);
    let lockstep = mix(lockstep_n, &hits, &mut pool, false, &mut rng);
    let phases = args
        .rates
        .iter()
        .zip(&phase_n)
        .map(|(&rate, &n)| {
            let due = arrivals(rate, n, &mut rng);
            (mix(n, &hits, &mut pool, false, &mut rng), due)
        })
        .collect();
    let ladder = (0..LADDER_STEPS)
        .map(|k| {
            let rate = args.rates[1] * LADDER_RATIO.powi(k as i32);
            let n = (rate * LADDER_STEP_SHARE * args.seconds).round() as usize;
            let due = arrivals(rate, n, &mut rng);
            (rate, mix(n, &hits, &mut pool, true, &mut rng), due)
        })
        .collect();
    Inputs {
        hits,
        lockstep,
        phases,
        ladder,
    }
}

/// A server on loopback with one worker, run on its own thread.
struct Running {
    addr: SocketAddr,
    handle: JoinHandle<Result<ServeSummary, mcds_core::McdsError>>,
}

impl Running {
    fn start() -> Running {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Running { addr, handle }
    }

    fn stats(&self) -> HashMap<String, u64> {
        let mut client = ClientConfig::new(self.addr.to_string())
            .connect()
            .expect("connect for stats");
        let stats = client.stats().expect("stats verb");
        stats
            .entries
            .into_iter()
            .map(|e| (e.name, e.value))
            .collect()
    }

    fn stop(self) {
        let mut client = ClientConfig::new(self.addr.to_string())
            .connect()
            .expect("connect for shutdown");
        client.shutdown().expect("shutdown verb");
        self.handle
            .join()
            .expect("server thread")
            .expect("server drains cleanly");
    }
}

/// One received response line and when it arrived.
struct Received {
    at: Duration,
    line: String,
}

/// One blocking connection, reading whole response lines.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            chunk: vec![0u8; 1 << 16].into_boxed_slice(),
        })
    }

    /// One read (blocking until bytes arrive); appends every completed
    /// line stamped with the time since `t0`. `false` at end of stream.
    fn read_lines(&mut self, t0: Instant, out: &mut Vec<Received>) -> std::io::Result<bool> {
        let k = loop {
            match self.stream.read(&mut self.chunk) {
                Ok(k) => break k,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if k == 0 {
            return Ok(false);
        }
        let at = t0.elapsed();
        let scanned = self.buf.len();
        self.buf.extend_from_slice(&self.chunk[..k]);
        if let Some(last) = self.buf[scanned..].iter().rposition(|&b| b == b'\n') {
            let end = scanned + last;
            for line in self.buf[..end].split(|&b| b == b'\n') {
                out.push(Received {
                    at,
                    line: String::from_utf8_lossy(line).into_owned(),
                });
            }
            self.buf.drain(..=end);
        }
        Ok(true)
    }
}

/// What one phase observed, request by request.
struct Observed {
    /// Latency per request in µs (`INFINITY` when no reply came).
    latency_us: Vec<f64>,
    lines: Vec<Option<String>>,
    late_us: Samples,
    /// Requests still unanswered when the last one was sent.
    backlog: usize,
}

/// Sends one request, waits for its reply, repeats (pipeline depth 1).
fn lockstep(addr: SocketAddr, reqs: &[Spec]) -> Observed {
    let mut conn = Conn::open(addr).expect("connect");
    let frames: Vec<String> = reqs.iter().map(Spec::frame).collect();
    let t0 = Instant::now();
    let mut latency_us = Vec::with_capacity(reqs.len());
    let mut lines = Vec::with_capacity(reqs.len());
    let mut got = Vec::new();
    for frame in &frames {
        let sent = t0.elapsed();
        conn.stream.write_all(frame.as_bytes()).expect("send");
        got.clear();
        while got.is_empty() && conn.read_lines(t0, &mut got).expect("read") {}
        match got.pop() {
            Some(r) => {
                latency_us.push(us(r.at - sent));
                lines.push(Some(r.line));
            }
            None => {
                latency_us.push(f64::INFINITY);
                lines.push(None);
            }
        }
    }
    Observed {
        latency_us,
        lines,
        late_us: Samples::default(),
        backlog: 0,
    }
}

/// Open loop from one thread over two connections (request `i` on
/// connection `i % 2`): each request is written at its due time whatever
/// is still outstanding, and timed from that due time. Replies come back
/// in request order per connection.
fn open_loop(addr: SocketAddr, reqs: &[Spec], due: &[Duration], drain: Duration) -> Observed {
    let mut conns = [
        Conn::open(addr).expect("connect"),
        Conn::open(addr).expect("connect"),
    ];
    let fds = conns.each_ref().map(|c| c.stream.as_raw_fd());
    wait::tighten_timer_slack();
    let frames: Vec<String> = reqs.iter().map(Spec::frame).collect();
    let n = frames.len();
    let mut got: [Vec<Received>; 2] =
        [Vec::with_capacity(n / 2 + 1), Vec::with_capacity(n / 2 + 1)];
    let mut open = [true; 2];
    let mut late_us = Samples::default();
    let mut next = 0;
    let mut backlog = 0;
    let t0 = Instant::now();
    let give_up = due.last().copied().unwrap_or_default() + drain;
    loop {
        let mut now = t0.elapsed();
        while next < n && due[next] <= now {
            conns[next % 2]
                .stream
                .write_all(frames[next].as_bytes())
                .expect("send");
            now = t0.elapsed();
            late_us.push(us(now.saturating_sub(due[next])));
            next += 1;
            if next == n {
                backlog = n - got[0].len() - got[1].len();
            }
        }
        let received = got[0].len() + got[1].len();
        if received == n || now >= give_up || !open.iter().any(|&o| o) {
            break;
        }
        let until = if next < n { due[next] } else { give_up };
        let ready = wait::readable(&fds, until.saturating_sub(now)).expect("ppoll");
        for c in 0..2 {
            if ready[c] && open[c] {
                open[c] = conns[c].read_lines(t0, &mut got[c]).expect("read");
            }
        }
    }
    let mut latency_us = vec![f64::INFINITY; n];
    let mut lines = vec![None; n];
    for (c, replies) in got.into_iter().enumerate() {
        for (j, r) in replies.into_iter().enumerate() {
            let i = 2 * j + c;
            if i < n {
                latency_us[i] = us(r.at.saturating_sub(due[i]));
                lines[i] = Some(r.line);
            }
        }
    }
    Observed {
        latency_us,
        lines,
        late_us,
        backlog,
    }
}

/// A reply as the checks see it.
enum Reply {
    Ok { hit: bool, outcome: Outcome },
    Failed(ErrorCode),
    Missing,
}

fn parse(line: &Option<String>) -> Reply {
    let Some(line) = line else {
        return Reply::Missing;
    };
    match ServeResponse::decode(line) {
        Ok(ServeResponse::Scheduled(s)) => Reply::Ok {
            hit: s.cache_hit,
            outcome: s.outcome,
        },
        Ok(ServeResponse::Failed(e)) => Reply::Failed(e.code),
        _ => Reply::Failed(ErrorCode::BadRequest),
    }
}

/// Checks every reply of a phase: a served outcome must equal the
/// in-process plan of its spec (computed once per distinct key), a hit
/// flag must match the key's class, and any failure counts. Failed
/// requests' latencies become infinite, so they miss any limit.
fn check_phase(
    reqs: &[Spec],
    obs: &mut Observed,
    warm: &std::collections::HashSet<Spec>,
    expected: &mut HashMap<Spec, Option<Outcome>>,
    tally: &mut Tally,
) -> u64 {
    let mut failed = 0;
    for (i, spec) in reqs.iter().enumerate() {
        let want = expected
            .entry(*spec)
            .or_insert_with(|| {
                let p = spec.point();
                p.pipeline()
                    .run()
                    .ok()
                    .map(|r| outcome(&p, &Summary::of(&r)))
            })
            .clone();
        let ok = match parse(&obs.lines[i]) {
            Reply::Ok { hit, outcome } => {
                if hit {
                    tally.hits += 1;
                } else {
                    tally.misses += 1;
                }
                let right = hit == warm.contains(spec) && Some(outcome) == want;
                tally.wrong += u64::from(!right);
                right
            }
            Reply::Failed(code) => {
                tally.errors.push(code);
                false
            }
            Reply::Missing => false,
        };
        if !ok {
            failed += 1;
            obs.latency_us[i] = f64::INFINITY;
        }
    }
    failed
}

#[derive(Default)]
struct Tally {
    hits: u64,
    misses: u64,
    /// Replies whose outcome or cache flag was wrong.
    wrong: u64,
    errors: Vec<ErrorCode>,
}

fn samples(v: &[f64]) -> Samples {
    let mut s = Samples::default();
    for &x in v {
        s.push(x);
    }
    s
}

/// Sets up a server and warms its hit population (each warm key asked
/// once, lockstep); returns the server and the warm-up's replies.
fn set_up(hits: &[Spec]) -> (Running, Observed) {
    let server = Running::start();
    let warm = lockstep(server.addr, hits);
    (server, warm)
}

pub fn serve_mixed(args: &Args) -> RunResult {
    // Set-up: input generation, server bind, hit-population warm-up,
    // repeated; every set-up but the last is torn down again.
    let mut setups = Vec::new();
    let mut current = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, _, _)) = current.take() {
            Running::stop(server);
        }
        let t = Instant::now();
        let inputs = inputs(args);
        let (server, warm) = set_up(&inputs.hits);
        setups.push(t.elapsed().as_secs_f64());
        current = Some((server, inputs, warm));
    }
    let setup_s = median(&setups);
    let (server, inputs, mut warm_obs) = current.expect("at least one set-up");
    let addr = server.addr;

    let mut lock = lockstep(addr, &inputs.lockstep);
    let drain = Duration::from_secs_f64(0.5 + args.limit_us / 1e6);
    let mut phases: Vec<Observed> = inputs
        .phases
        .iter()
        .map(|(reqs, due)| open_loop(addr, reqs, due, drain))
        .collect();
    let rss_mb = peak_rss_mb();
    let stats = server.stats();
    // Rate ladder (traced run only: its length, and so its cold keys
    // and memory, depend on timing): step up until a step misses the
    // p99 limit (failed requests count as missing it) or leaves a
    // growing backlog.
    let mut max_rate = 0.0;
    let mut ladder = Vec::new();
    for (rate, reqs, due) in inputs.ladder.iter().filter(|_| args.trace) {
        let obs = open_loop(addr, reqs, due, drain);
        let lat = samples(&obs.latency_us);
        let backlog_cap = (rate * args.limit_us / 1e6).max(10.0) as usize;
        let errors = obs
            .lines
            .iter()
            .filter(|l| !matches!(parse(l), Reply::Ok { .. }))
            .count();
        let passed =
            lat.quantile(0.99) <= args.limit_us && obs.backlog <= backlog_cap && errors == 0;
        ladder.push((reqs, obs));
        if !passed {
            break;
        }
        max_rate = *rate;
    }
    let stats_after = server.stats();
    Running::stop(server);

    // Checks, after the load: every reply against the in-process plan.
    let warm: std::collections::HashSet<Spec> = inputs.hits.iter().copied().collect();
    let mut expected = HashMap::new();
    let mut tally = Tally::default();
    let none = std::collections::HashSet::new();
    let mut failed = check_phase(
        &inputs.hits,
        &mut warm_obs,
        &none,
        &mut expected,
        &mut tally,
    );
    failed += check_phase(
        &inputs.lockstep,
        &mut lock,
        &warm,
        &mut expected,
        &mut tally,
    );
    for ((reqs, _), obs) in inputs.phases.iter().zip(&mut phases) {
        failed += check_phase(reqs, obs, &warm, &mut expected, &mut tally);
    }
    let attempted = (inputs.hits.len()
        + inputs.lockstep.len()
        + inputs.phases.iter().map(|(r, _)| r.len()).sum::<usize>()) as u64;
    let (sim_cycles, ext_words) = expected.values().flatten().fold((0u64, 0u64), |(c, w), o| {
        (c + o.total_cycles, w + o.data_words + o.context_words)
    });
    let distinct = expected.len();
    // The ladder probes overload, so its refusals are its measurement,
    // not failures; a wrong outcome still is one.
    let mut ladder_tally = Tally::default();
    for (reqs, obs) in &mut ladder {
        check_phase(reqs, obs, &warm, &mut expected, &mut ladder_tally);
    }
    failed += ladder_tally.wrong;
    let stat = |name: &str| stats.get(name).copied().unwrap_or(0);
    let after = |name: &str| stats_after.get(name).copied().unwrap_or(0);
    let shed: u64 = stats_after
        .iter()
        .filter(|(k, _)| k.starts_with("serve.qos.shed."))
        .map(|(_, v)| v)
        .sum();

    // Service time per class, lockstep.
    let mut hit_lat = Samples::default();
    let mut miss_lat = Samples::default();
    for (spec, &l) in inputs.lockstep.iter().zip(&lock.latency_us) {
        if warm.contains(spec) {
            hit_lat.push(l);
        } else {
            miss_lat.push(l);
        }
    }
    let service = |spec: &Spec| {
        if warm.contains(spec) {
            hit_lat.median()
        } else {
            miss_lat.median()
        }
    };
    let names = ["low", "mid", "high"];
    let mut layers = ServeLayers {
        hit_service_us: hit_lat.median(),
        miss_service_us: miss_lat.median(),
        max_rate_rps: max_rate,
        rejected: after("serve.rejected") as f64,
        shed: shed as f64,
        ..ServeLayers::default()
    };
    let mut late = Samples::default();
    let mut lat = Vec::new();
    for (k, ((reqs, _), obs)) in inputs.phases.iter().zip(&phases).enumerate() {
        let mut wait = Samples::default();
        for (spec, &l) in reqs.iter().zip(&obs.latency_us) {
            wait.push((l - service(spec)).max(0.0));
        }
        layers.queue_wait_us[k] = wait.quantile(0.99);
        late.extend(&obs.late_us);
        lat.push(samples(&obs.latency_us));
        println!(
            "p50_us.{0} = {1:.1} us, p99_us.{0} = {2:.1} us (n={3}, {4:.0} req/s); queue wait p50/p99 {5:.1}/{6:.1} us; late p50/p99 {7:.1}/{8:.1} us; backlog {9}",
            names[k],
            lat[k].median(),
            lat[k].quantile(0.99),
            reqs.len(),
            args.rates[k],
            wait.median(),
            wait.quantile(0.99),
            obs.late_us.median(),
            obs.late_us.quantile(0.99),
            obs.backlog
        );
    }
    layers.p99_us_low = lat[0].quantile(0.99);
    layers.p99_us_mid = lat[1].quantile(0.99);
    layers.p99_us_high = lat[2].quantile(0.99);
    layers.late_p99_us = late.quantile(0.99);

    // The generator fell behind, and the run is invalid, if it sent the
    // typical request more than a tenth of the latency limit late, or its
    // p99 lateness alone would exceed the limit. (Shorter stalls happen
    // when the server's two threads hold both cores; they stay in the
    // latencies, which are timed from the due time.)
    let generator_ok = late.median() <= args.limit_us / 10.0 && layers.late_p99_us <= args.limit_us;
    // The server's own hit/miss counters must match the replies.
    let counters_ok =
        stat("serve.cache.hits") == tally.hits && stat("serve.cache.misses") == tally.misses;
    println!(
        "hit_p50_us = {:.1} us (n={}), miss_p50_us = {:.1} us (n={}), lockstep",
        hit_lat.median(),
        hit_lat.len(),
        miss_lat.median(),
        miss_lat.len(),
    );
    if args.trace {
        println!(
            "max_rate_rps = {max_rate:.0} req/s ({} ladder steps from {:.0}/s by x{LADDER_RATIO}, p99 limit {:.0} us)",
            ladder.len(),
            args.rates[1],
            args.limit_us
        );
    }
    println!(
        "error_rate = {} ratio ({failed}/{attempted}); stats hits {} misses {} rejected {} shed {}; replies hits {} misses {}; errors {:?}",
        failed as f64 / attempted as f64,
        stat("serve.cache.hits"),
        stat("serve.cache.misses"),
        after("serve.rejected"),
        shed,
        tally.hits,
        tally.misses,
        tally.errors.iter().take(5).collect::<Vec<_>>()
    );
    println!(
        "gen.late_p99_us = {:.1} us ({})",
        layers.late_p99_us,
        if generator_ok {
            "generator kept up"
        } else {
            "GENERATOR FELL BEHIND: run invalid"
        }
    );
    let correct = failed == 0 && generator_ok && counters_ok;
    let counts = vec![
        ("sim_cycles", sim_cycles as f64),
        ("ext_words", ext_words as f64),
        ("lockstep.hits", hit_lat.len() as f64),
        ("lockstep.misses", miss_lat.len() as f64),
    ];

    if args.trace {
        let mut rng = Rng::new(args.seed.wrapping_add(2));
        let (points, reference) = traced_points(&inputs, &expected);
        let traced = crate::trace_plans(&points, &reference, &mut rng, Duration::ZERO, false);
        let serving = replay_requests(&inputs, &expected);
        let mut counts = counts;
        counts.extend(traced.layers_counts());
        return RunResult {
            correct: correct && traced.failed == 0,
            attempted,
            failed: failed + traced.failed,
            metrics: crate::layer_metrics(&traced.layers, &serving, &layers),
            counts,
        };
    }

    let low = quiet_windows(&phases[0].latency_us, QUIET_WINDOWS);
    let hits: Vec<f64> = inputs
        .lockstep
        .iter()
        .zip(&lock.latency_us)
        .filter(|(spec, _)| warm.contains(*spec))
        .map(|(_, &l)| l)
        .collect();
    let quiet_hits = quiet_windows(&hits, QUIET_WINDOWS);
    let hits_per_s = 1e6 / quiet_hits.median();
    println!(
        "quietest quarter of {QUIET_WINDOWS} windows: p50_us.low = {:.1} us, p90_us.low = {:.1} us, p95_us.low = {:.1} us, p99_us.low = {:.1} us (n={}); lockstep warm hits {hits_per_s:.0} per second (n={})",
        low.median(),
        low.quantile(0.90),
        low.quantile(0.95),
        low.quantile(0.99),
        low.len(),
        quiet_hits.len()
    );
    let metrics = vec![
        Metric::new(
            "throughput_per_s",
            hits_per_s,
            "1/s",
            format!(
                "lockstep warm-hit round trips per second (1 / median), quietest quarter, n={}",
                quiet_hits.len()
            ),
        ),
        Metric::new(
            "p50_us",
            low.median(),
            "us",
            format!(
                "p50_us.low, open loop from due time, quietest quarter, n={}",
                low.len()
            ),
        ),
        Metric::new(
            "sim_cycles",
            sim_cycles as f64,
            "cycles",
            format!("distinct keys served, n={distinct}"),
        ),
        Metric::new(
            "ext_words",
            ext_words as f64,
            "words",
            "data + context words of those keys",
        ),
        Metric::new(
            "peak_rss_mb",
            rss_mb,
            "MiB",
            "VmHWM after the fixed-rate phases",
        ),
        Metric::new(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUP_REPEATS} set-ups"),
        ),
    ];
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
        counts,
    }
}

/// The first distinct cold-miss keys of the run, as plan points with
/// their served outcomes as the reference.
fn traced_points(
    inputs: &Inputs,
    expected: &HashMap<Spec, Option<Outcome>>,
) -> (Vec<Point>, Reference) {
    let warm: std::collections::HashSet<Spec> = inputs.hits.iter().copied().collect();
    let mut seen = std::collections::HashSet::new();
    let mut points = Vec::new();
    let mut outputs = Vec::new();
    let specs = inputs
        .lockstep
        .iter()
        .chain(inputs.phases.iter().flat_map(|(r, _)| r));
    for spec in specs {
        if warm.contains(spec) || !seen.insert(*spec) {
            continue;
        }
        let mut p = spec.point();
        p.group = points.len();
        outputs.push(match expected.get(spec).cloned().flatten() {
            Some(o) => Ok(Summary {
                cycles: o.total_cycles,
                data_words: o.data_words,
                context_words: o.context_words,
                rf: o.rf,
                avoided: o.dt_avoided_words,
            }),
            None => Err("infeasible".to_owned()),
        });
        points.push(p);
        if points.len() == TRACED_PLANS {
            break;
        }
    }
    let bad = vec![false; points.len()];
    (
        points,
        Reference {
            outputs,
            bad,
            problems: Vec::new(),
        },
    )
}

/// The serving-layer replay of `serve-mixed`: the warm-up, then every
/// request of the fixed phases in order.
fn replay_requests(inputs: &Inputs, expected: &HashMap<Spec, Option<Outcome>>) -> ServingLayers {
    let specs: Vec<Spec> = inputs
        .hits
        .iter()
        .chain(&inputs.lockstep)
        .chain(inputs.phases.iter().flat_map(|(r, _)| r))
        .copied()
        .collect();
    let mut frames: HashMap<Spec, (String, u64, CachedEntry)> = HashMap::new();
    for spec in &specs {
        frames.entry(*spec).or_insert_with(|| {
            let p = spec.point();
            let entry = match expected.get(spec).cloned().flatten() {
                Some(o) => CachedEntry::ok(o),
                None => CachedEntry::err(ErrorCode::BadRequest, "infeasible"),
            };
            (spec.frame(), point_key(&p), entry)
        });
    }
    let seq: Vec<Replayed<'_>> = specs
        .iter()
        .map(|s| {
            let (frame, key, entry) = &frames[s];
            Replayed {
                frame,
                key: *key,
                entry,
            }
        })
        .collect();
    replay(&seq, 1)
}
