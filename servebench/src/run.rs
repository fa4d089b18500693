//! The untraced runs: set-up, the measured phases against a live
//! server, the workload rules and the output checks.

use crate::gen::{self, Item, BATCH_SHAPES, BATCH_SIZE, COLD_SHAPES, SOLVER};
use crate::load::{self, Arrival, Sample, StealLog};
use crate::server::{Counters, Server};
use crate::stats::{self, knee_of, median, percentile_of, Step};
use crate::{metric, Outcome, Paths, Workload};
use mst_api::wire::{solution_from_json, Json};
use mst_api::{verify, CanonicalInstance, SolverRegistry, TopologyKind};
use mst_sim::WorkerPool;
use mst_store::{FileStore, StoreBackend};
use rand::Rng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Server lifetimes per run, each with its own boot.
pub const BOOTS: usize = 5;

/// Further boots per run that only set up (after the first lifetimes),
/// so `setup_s` is the median over the quiet ones of nine boots.
const SETUP_ONLY_BOOTS: usize = 4;

/// Sequential warm-up requests after each boot (batch: sweeps).
const WARM_SOLVES: usize = 20;
const WARM_SWEEPS: usize = 1;

/// One in this many responses is kept whole for the witness checks.
const KEEP_ONE_IN: u64 = 16;

/// One in this many solve requests is also compared with a direct
/// solve of the instance as sent.
pub const DIRECT_ONE_IN: usize = 8;

/// The generator's median send lateness may not exceed this. Its tail
/// follows the host's steal (a send due while the hypervisor runs
/// another guest goes out late), so the tail is reported in the traced
/// run; a generator that falls behind is late on most sends.
pub const LATE_LIMIT_MS: f64 = 1.0;

/// `kernel.cpu_share` must exceed this where kernels do the work.
pub const KERNEL_MAJORITY: f64 = 0.5;

/// The labels of the server's kernel timer for the benchmark's solves.
const KERNEL_LABELS: &str = "kernel=\"solve\",solver=\"optimal\"";

/// Pause before each ladder step. A step ends only once every response
/// is in, so no backlog carries over; the pause lets the server settle.
const STEP_GAP_S: f64 = 0.05;

/// Share of the run's seconds spent in the fixed-rate (or closed-loop)
/// phase; the ladder's steps share the rest.
const FIXED_SHARE: f64 = 0.4;

/// Seconds of one ladder step (each lifetime runs its own ladder); the
/// p90 of a step is the median over its thirds.
pub fn step_seconds(seconds: f64, plan: &Plan) -> f64 {
    let per_life = seconds * (1.0 - FIXED_SHARE) / BOOTS as f64;
    (per_life / plan.ladder_steps as f64 - STEP_GAP_S).max(0.2)
}

/// Equal windows each lifetime's fixed-rate segment is cut into. p50
/// and p90 are taken per window, and reported as the median over the
/// quiet windows (see [`stats::quiet`]).
const WINDOWS: usize = 3;

/// The shape of a workload's measured phases.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Nominal open-loop rate of the fixed-rate phase, requests/s
    /// (the batch workload runs a closed loop there instead).
    pub nominal: f64,
    /// The p90 latency limit of the rate ladder, ms.
    pub limit_ms: f64,
    /// First ladder rate and the factor between steps.
    pub ladder_start: f64,
    pub ladder_growth: f64,
    pub ladder_steps: usize,
}

pub fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::SolveHot => Plan {
            nominal: 1000.0,
            limit_ms: 1.0,
            ladder_start: 4000.0,
            ladder_growth: 1.35,
            ladder_steps: 5,
        },
        Workload::SolveCold => Plan {
            nominal: 200.0,
            limit_ms: 10.0,
            ladder_start: 450.0,
            ladder_growth: 1.15,
            ladder_steps: 5,
        },
        // A closed loop, one sweep outstanding: no queue can grow, so
        // the sweep rate it sustains is its capacity at the limit.
        Workload::BatchSweep => Plan {
            nominal: 0.0,
            limit_ms: 200.0,
            ladder_start: 0.0,
            ladder_growth: 1.0,
            ladder_steps: 0,
        },
    }
}

/// The inputs every workload shares: the seeded history log, solved
/// and written to disk.
#[derive(Debug)]
pub struct Setup {
    pub log: Vec<Item>,
    pub log_path: PathBuf,
    pub pool: WorkerPool,
}

impl Setup {
    pub fn new(seed: u64, paths: &Paths) -> Result<Setup, String> {
        let pool = WorkerPool::with_parallelism(2);
        let log = gen::log_items(seed);
        let records = gen::log_records(&log, &pool);
        let log_path = paths.work.join("history.log");
        let _ = std::fs::remove_file(&log_path);
        let store =
            FileStore::open(&log_path).map_err(|e| format!("cannot create the log: {e}"))?;
        store.append_all(&records).map_err(|e| format!("cannot write the log: {e}"))?;
        Ok(Setup { log, log_path, pool })
    }

    /// A fresh copy of the log for one server (which appends to it).
    pub fn copy_log(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.log_path.with_file_name(name);
        std::fs::copy(&self.log_path, &path).map_err(|e| format!("cannot copy the log: {e}"))?;
        Ok(path)
    }
}

/// Sends `frames` one after another on one connection; any failure
/// aborts the run.
pub fn sequential(server: &Server, frames: &[Vec<u8>]) -> Result<Vec<Sample>, String> {
    let mut conn = crate::client::Conn::new(server.addr);
    let start = Instant::now();
    frames
        .iter()
        .enumerate()
        .map(|(i, frame)| {
            let sent = start.elapsed().as_secs_f64();
            let (status, body) =
                conn.exchange(frame).map_err(|e| format!("sequential request failed: {e}"))?;
            if status != 200 {
                return Err(format!(
                    "sequential request answered {status}: {}",
                    String::from_utf8_lossy(&body)
                ));
            }
            let done = start.elapsed().as_secs_f64();
            Ok(Sample {
                frame: i,
                scheduled: sent,
                done,
                status,
                makespans: crate::client::makespans(&body),
                body: None,
                late: 0.0,
            })
        })
        .collect()
}

/// Latency percentile over samples, a failed request counting as
/// infinitely late.
pub fn latency_pct(samples: &[Sample], p: f64) -> f64 {
    percentile_of(&samples.iter().map(Sample::counted_ms).collect::<Vec<_>>(), p)
}

/// Fewest samples a window needs for its own percentile.
const WINDOW_MIN: usize = 100;

/// The median over consecutive `window_s` windows (by scheduled time)
/// of each window's latency percentile: a stall of the shared box that
/// lasts under half the windows moves it little. With fewer than three
/// full windows it is the plain percentile.
pub fn windowed_pct(samples: &[Sample], p: f64, window_s: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let first = samples.first().map_or(0.0, |s| s.scheduled);
    for s in samples {
        let w = ((s.scheduled - first) / window_s) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(s.counted_ms());
    }
    let pcts: Vec<f64> =
        windows.iter().filter(|w| w.len() >= WINDOW_MIN).map(|w| percentile_of(w, p)).collect();
    if pcts.len() < 3 {
        latency_pct(samples, p)
    } else {
        median(&pcts)
    }
}

/// The median over the quiet [`WINDOWS`] of the lifetimes' fixed-rate
/// segments of each window's percentile of `value`.
fn quiet_pct(lives: &[Lifetime], p: f64, window_s: f64, value: impl Fn(&Sample) -> f64) -> f64 {
    let mut windows = Vec::new();
    for l in lives {
        let mut values = vec![Vec::new(); l.fixed_steal.len()];
        for s in &l.fixed {
            let w = ((s.scheduled / window_s) as usize).min(values.len() - 1);
            values[w].push(value(s));
        }
        windows.extend(l.fixed_steal.iter().copied().zip(values).filter(|(_, v)| !v.is_empty()));
    }
    let pcts: Vec<f64> = stats::quiet(windows).iter().map(|v| percentile_of(v, p)).collect();
    median(&pcts)
}

/// A ladder step's numbers from its samples.
pub fn step_of(offered: f64, samples: &[Sample], window_span: f64) -> Step {
    let last = samples.iter().map(|s| s.done).fold(0.0, f64::max);
    let first = samples.iter().map(|s| s.scheduled).fold(f64::INFINITY, f64::min).min(last);
    let span = samples.iter().map(|s| s.scheduled).fold(0.0, f64::max) - first;
    Step {
        // The achieved rate scales the nominal one by how much longer
        // the completions took than the schedule: the same count over
        // both spans, so Poisson noise in the count cancels.
        offered,
        achieved: offered * span / (last - first).max(1e-9),
        p90_ms: windowed_pct(samples, 90.0, window_span / 3.0),
        failed: samples.iter().filter(|s| !s.ok()).count(),
    }
}

/// Counter deltas over one measured stretch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Deltas {
    pub hits: f64,
    pub misses: f64,
    pub poll_waits: f64,
    pub poll_wait_us: f64,
    pub pool_jobs: f64,
    /// Microseconds the server's own kernel timer recorded.
    pub kernel_us: f64,
}

impl Deltas {
    fn between(a: &Counters, b: &Counters) -> Deltas {
        Deltas {
            hits: a.tenant_delta(b, "mst_tenant_cache_hits_total"),
            misses: a.tenant_delta(b, "mst_tenant_cache_misses_total"),
            poll_waits: a.delta(b, "mst_poll_waits_total"),
            poll_wait_us: a.delta(b, "mst_poll_wait_us_total"),
            pool_jobs: a.delta(b, "mst_pool_jobs_submitted"),
            kernel_us: a.labeled_delta(b, "mst_kernel_latency_us_sum", KERNEL_LABELS),
        }
    }

    fn add(&mut self, o: Deltas) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.poll_waits += o.poll_waits;
        self.poll_wait_us += o.poll_wait_us;
        self.pool_jobs += o.pool_jobs;
        self.kernel_us += o.kernel_us;
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits / (self.hits + self.misses).max(1.0)
    }
}

/// What one server lifetime measured.
#[derive(Debug, Default)]
pub struct Lifetime {
    /// Host steal share and seconds from spawn to the end of warm-up, of
    /// the lifetime's boot and of a set-up-only boot after it.
    pub setups: Vec<(f64, f64)>,
    /// The fixed-rate (or closed-loop) segment: samples, wall seconds,
    /// server and client CPU seconds, counter deltas.
    pub fixed: Vec<Sample>,
    pub fixed_s: f64,
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    pub fixed_counts: Deltas,
    /// Host steal share over each of the segment's [`WINDOWS`].
    pub fixed_steal: Vec<f64>,
    /// The rate ladder, with the host steal share over each step.
    pub steps: Vec<Step>,
    pub step_steal: Vec<f64>,
    pub ladder: Vec<Sample>,
    pub ladder_counts: Deltas,
    pub peak_rss_mb: f64,
    /// Host steal share over the lifetime's measured phases.
    pub steal_frac: f64,
}

/// Everything a run measured, for the checks and the traced run.
#[derive(Debug)]
pub struct Measured {
    /// The instance behind each frame (batch: each sweep's, in order).
    pub items: Vec<Item>,
    pub lives: Vec<Lifetime>,
    /// The last server, when the caller asked to keep it.
    pub server: Option<Server>,
}

impl Measured {
    pub fn fixed(&self) -> impl Iterator<Item = &Sample> {
        self.lives.iter().flat_map(|l| &l.fixed)
    }

    pub fn fixed_counts(&self) -> Deltas {
        let mut total = Deltas::default();
        for l in &self.lives {
            total.add(l.fixed_counts);
        }
        total
    }

    /// The median set-up time over the quiet boots.
    pub fn setup_s(&self) -> f64 {
        median(&stats::quiet(self.lives.iter().flat_map(|l| l.setups.iter().copied()).collect()))
    }

    /// Kernel seconds the server's own timer recorded in the fixed
    /// segments, the same stretches as its CPU time, so host noise
    /// slows both alike.
    pub fn kernel_s(&self) -> f64 {
        self.fixed_counts().kernel_us / 1e6
    }

    fn sum(&self, f: impl Fn(&Lifetime) -> f64) -> f64 {
        self.lives.iter().map(f).sum()
    }

    pub fn fixed_s(&self) -> f64 {
        self.sum(|l| l.fixed_s)
    }

    pub fn server_cpu_s(&self) -> f64 {
        self.sum(|l| l.server_cpu_s)
    }

    pub fn client_cpu_s(&self) -> f64 {
        self.sum(|l| l.client_cpu_s)
    }
}

/// Runs `load`, measuring the server's and this process's CPU and the
/// server's counters around it.
fn measured<T>(
    server: &Server,
    load: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64, f64, Deltas), String> {
    let c0 = server.prometheus()?;
    let (cpu0, me0) = (server.cpu_secs()?, stats::cpu_secs("self").unwrap_or(0.0));
    let out = load()?;
    let (cpu1, me1) = (server.cpu_secs()?, stats::cpu_secs("self").unwrap_or(0.0));
    let c1 = server.prometheus()?;
    Ok((out, cpu1 - cpu0, me1 - me0, Deltas::between(&c0, &c1)))
}

/// Boots a fresh server on a fresh copy of the log named `store` and
/// warms it as lifetime `b`: the server, and the host steal share and
/// seconds from spawn to the end of warm-up.
fn boot(
    mst: &Path,
    setup: &Setup,
    store: &str,
    b: usize,
    warm: &mut impl FnMut(&Server, usize) -> Result<(), String>,
) -> Result<(Server, (f64, f64)), String> {
    let store = setup.copy_log(store)?;
    let mut steal = StealLog::default();
    steal.sample();
    let server = Server::boot(mst, &store)?;
    warm(&server, b)?;
    let setup_s = server.spawned.elapsed().as_secs_f64();
    steal.sample();
    let share = steal.share(server.spawned, Instant::now());
    Ok((server, (share, setup_s)))
}

/// Boots a fresh server per lifetime, warms it, and lets `measure`
/// fill in the lifetime's measurements. Each lifetime gets a fresh copy
/// of the log. Spreading the measured phases over several server
/// lifetimes keeps one slow lifetime (thread placement on the two
/// shared cores varies per process) from deciding a run. After each of
/// the first lifetimes, one more boot only sets up (warmed as that
/// lifetime was: a fresh server has seen none of its requests).
fn drive(
    mst: &Path,
    setup: &Setup,
    keep_last: bool,
    mut warm: impl FnMut(&Server, usize) -> Result<(), String>,
    mut measure: impl FnMut(&Server, usize, &mut Lifetime) -> Result<(), String>,
) -> Result<(Vec<Lifetime>, Option<Server>), String> {
    let mut lives = Vec::new();
    let mut kept = None;
    for b in 0..BOOTS {
        let (server, set_up) = boot(mst, setup, &format!("store-{b}.log"), b, &mut warm)?;
        let mut life = Lifetime { setups: vec![set_up], ..Lifetime::default() };
        measure(&server, b, &mut life)?;
        life.peak_rss_mb = server.peak_rss_mb()?;
        lives.push(life);
        if keep_last && b + 1 == BOOTS {
            kept = Some(server);
        } else {
            server.stop();
        }
        if b < SETUP_ONLY_BOOTS {
            let (server, set_up) = boot(mst, setup, "setup-only.log", b, &mut warm)?;
            server.stop();
            lives[b].setups.push(set_up);
        }
    }
    Ok((lives, kept))
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mst: &Path,
    paths: &Paths,
) -> Result<Outcome, String> {
    let setup = Setup::new(seed, paths)?;
    match workload {
        Workload::BatchSweep => batch_run(seed, seconds, mst, &setup, false),
        _ => solve_run(workload, seed, seconds, mst, &setup, false),
    }
    .map(|(outcome, _)| outcome)
}

/// solve-hot and solve-cold: per server lifetime, warm-up, a segment
/// of the fixed-rate phase and a rate ladder; then the checks. With
/// `keep_server` the last server is left running for the traced run.
pub fn solve_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mst: &Path,
    setup: &Setup,
    keep_server: bool,
) -> Result<(Outcome, Measured), String> {
    let plan = plan(workload);
    let hot = workload == Workload::SolveHot;
    let seg_s = seconds * FIXED_SHARE / BOOTS as f64;
    let window_s = seg_s / WINDOWS as f64;
    let step_s = step_seconds(seconds, &plan);
    let rates: Vec<f64> = (0..plan.ladder_steps)
        .map(|k| plan.ladder_start * plan.ladder_growth.powi(k as i32))
        .collect();

    // Every schedule up front, so solve-cold knows how many never-seen
    // instances to make.
    let mut rng = gen::stream(seed, 3);
    let fixed_at: Vec<Vec<f64>> =
        (0..BOOTS).map(|_| gen::arrivals(&mut rng, plan.nominal, seg_s)).collect();
    let ladder_at: Vec<Vec<Vec<f64>>> = (0..BOOTS)
        .map(|_| rates.iter().map(|&r| gen::arrivals(&mut rng, r, step_s)).collect())
        .collect();
    let sent = BOOTS * WARM_SOLVES
        + fixed_at.iter().map(Vec::len).sum::<usize>()
        + ladder_at.iter().flatten().map(Vec::len).sum::<usize>();
    let items: Vec<Item> = if hot {
        gen::hot_items(&setup.log).to_vec()
    } else {
        gen::ColdStream::new(seed, setup.log.iter().map(|i| i.hash)).take(sent, &COLD_SHAPES)
    };
    let frames: Vec<Vec<u8>> =
        items.iter().map(|i| gen::post("/solve", &gen::solve_body(&i.instance))).collect();
    // Hot requests draw from the hot set; cold ones take the next
    // never-sent instance.
    let mut pick = gen::stream(seed, 5);
    let mut keep_rng = gen::stream(seed, 4);
    let mut next = 0usize;
    let mut frame_for = || {
        next += 1;
        if hot {
            pick.gen_range(0..frames.len())
        } else {
            next - 1
        }
    };
    let warm: Vec<Vec<usize>> =
        (0..BOOTS).map(|_| (0..WARM_SOLVES).map(|_| frame_for()).collect()).collect();
    let fixed: Vec<Vec<Arrival>> = fixed_at
        .iter()
        .map(|ats| {
            ats.iter()
                .map(|&at| Arrival {
                    at,
                    frame: frame_for(),
                    keep_body: keep_rng.gen_range(0..KEEP_ONE_IN) == 0,
                })
                .collect()
        })
        .collect();
    let ladder: Vec<Vec<Vec<Arrival>>> = ladder_at
        .iter()
        .map(|steps| {
            steps
                .iter()
                .map(|ats| {
                    ats.iter()
                        .map(|&at| Arrival { at, frame: frame_for(), keep_body: false })
                        .collect()
                })
                .collect()
        })
        .collect();

    let (lives, server) = drive(
        mst,
        setup,
        keep_server,
        |server, b| {
            let frames: Vec<Vec<u8>> = warm[b].iter().map(|&f| frames[f].clone()).collect();
            sequential(server, &frames).map(|_| ())
        },
        |server, b, life| {
            let mut steal = StealLog::default();
            let start = Instant::now();
            let (samples, cpu, me, counts) = measured(server, || {
                Ok(load::open_loop(server.addr, &frames, &fixed[b], start, &mut steal))
            })?;
            (life.fixed, life.fixed_s, life.server_cpu_s, life.client_cpu_s, life.fixed_counts) =
                (samples, seg_s, cpu, me, counts);
            let at = |w: usize| start + Duration::from_secs_f64(w as f64 * window_s);
            life.fixed_steal = (0..WINDOWS).map(|w| steal.share(at(w), at(w + 1))).collect();
            let ((steps, step_steal, samples), _, _, counts) = measured(server, || {
                let (mut steps, mut step_steal, mut all) = (Vec::new(), Vec::new(), Vec::new());
                for (rate, arrivals) in rates.iter().zip(&ladder[b]) {
                    std::thread::sleep(Duration::from_secs_f64(STEP_GAP_S));
                    let t = Instant::now();
                    let samples = load::open_loop(server.addr, &frames, arrivals, t, &mut steal);
                    if !samples.is_empty() {
                        steps.push(step_of(*rate, &samples, step_s));
                        step_steal.push(steal.share(t, Instant::now()));
                    }
                    all.extend(samples);
                }
                Ok((steps, step_steal, all))
            })?;
            (life.steps, life.step_steal, life.ladder, life.ladder_counts) =
                (steps, step_steal, samples, counts);
            life.steal_frac = steal.share(start, Instant::now());
            Ok(())
        },
    )?;

    // Output checks: every makespan against an in-process solve, and a
    // seeded sample of witnesses through the oracle.
    let all: Vec<&Sample> = lives.iter().flat_map(|l| l.fixed.iter().chain(&l.ladder)).collect();
    let mut used: Vec<usize> = all.iter().map(|s| s.frame).collect();
    used.sort_unstable();
    used.dedup();
    let solved: Vec<Expected> =
        setup.pool.run(&used, |&f| expected(&items[f], f % DIRECT_ONE_IN == 0));
    let mut want = vec![Expected::default(); items.len()];
    for (&f, e) in used.iter().zip(&solved) {
        want[f] = *e;
    }
    let mut outcome = Outcome {
        attempted: all.len(),
        failed: all.iter().filter(|s| !s.ok()).count(),
        ..Outcome::default()
    };
    for s in all.iter().filter(|s| s.ok()) {
        if s.makespans != [want[s.frame].served] {
            outcome.wrong.push(format!(
                "request {} answered makespan {:?}, in-process solve gives {}",
                s.frame, s.makespans, want[s.frame].served
            ));
        }
    }
    check_direct(used.iter().map(|&f| (&items[f], &want[f])), &mut outcome);
    let fixed_samples: Vec<Sample> = lives.iter().flat_map(|l| l.fixed.iter().cloned()).collect();
    check_witnesses(&fixed_samples, |f| vec![&items[f]], &mut outcome);

    // Workload rules.
    let mut counts = Deltas::default();
    for l in &lives {
        counts.add(l.fixed_counts);
        counts.add(l.ladder_counts);
    }
    let hit_ratio = counts.hit_ratio();
    outcome.rules.push(("cache_hit_ratio", hit_ratio));
    let needed = if hot { 1.0 } else { 0.0 };
    if hit_ratio != needed {
        outcome.violations.push(format!(
            "cache hit ratio {hit_ratio} (hits {}, misses {}), the workload needs {needed}",
            counts.hits, counts.misses
        ));
    }
    let run = Measured { items, lives, server };
    let server_cpu = run.server_cpu_s();
    let share = run.kernel_s() / server_cpu.max(1e-9);
    outcome.rules.push(("kernel_cpu_share", share));
    if !hot && share <= KERNEL_MAJORITY {
        outcome.violations.push(format!("kernel.cpu_share {share:.3} is not a majority"));
    }
    // Achieved against offered over the fixed segments together: the
    // schedules' spans against the spans to their last completions.
    let (span, done): (f64, f64) = run
        .lives
        .iter()
        .map(|l| {
            let s = step_of(plan.nominal, &l.fixed, l.fixed_s);
            (1.0, s.achieved / s.offered)
        })
        .fold((0.0, 0.0), |(n, sum), (one, r)| (n + one, sum + r));
    let achieved = done / span.max(1.0);
    outcome.rules.push(("achieved_over_offered", achieved));
    if achieved < stats::BACKLOG_SLACK {
        outcome
            .violations
            .push(format!("the fixed-rate phase achieved {achieved:.3} of its offered rate"));
    }
    let late = percentile_of(&fixed_samples.iter().map(|s| s.late * 1e3).collect::<Vec<_>>(), 50.0);
    outcome.rules.push(("client_late_ms_p50", late));
    if late > LATE_LIMIT_MS {
        outcome
            .violations
            .push(format!("generator median lateness {late:.3} ms exceeds {LATE_LIMIT_MS} ms"));
    }

    let ok = fixed_samples.iter().filter(|s| s.ok()).count() as f64;
    // Wall seconds of the fixed segments, to each one's last answer.
    let answered_s: f64 =
        run.lives.iter().map(|l| l.fixed.iter().map(|s| s.done).fold(l.fixed_s, f64::max)).sum();
    // The knee of one ladder: at each rate, the median load score over
    // the lifetimes whose step there was quiet.
    let (mut ran, mut scores) = (Vec::new(), Vec::new());
    for (k, &rate) in rates.iter().enumerate() {
        let at_rate: Vec<(f64, f64)> = run
            .lives
            .iter()
            .filter_map(|l| {
                Some((*l.step_steal.get(k)?, l.steps.get(k)?.load_score(plan.limit_ms)))
            })
            .collect();
        if !at_rate.is_empty() {
            ran.push(rate);
            scores.push(median(&stats::quiet(at_rate)));
        }
    }
    let knee = knee_of(&ran, &scores).ok_or("no ladder step ran")?;
    outcome.metrics = vec![
        metric("p50_ms", quiet_pct(&run.lives, 50.0, window_s, Sample::counted_ms), "ms"),
        metric("p90_ms", quiet_pct(&run.lives, 90.0, window_s, Sample::counted_ms), "ms"),
        metric("max_rps_at_slo", knee, "req/s"),
        metric("instances_per_sec", ok / answered_s, "1/s"),
        metric("cpu_us_per_instance", server_cpu * 1e6 / ok.max(1.0), "us"),
        metric("setup_s", run.setup_s(), "s"),
        metric(
            "peak_rss_mb",
            median(&run.lives.iter().map(|l| l.peak_rss_mb).collect::<Vec<_>>()),
            "MB",
        ),
    ];
    for (b, l) in run.lives.iter().enumerate() {
        let line: Vec<String> =
            l.steps.iter().map(|s| format!("{:.0}:{:.2}ms", s.offered, s.p90_ms)).collect();
        eprintln!(
            "servebench: lifetime {b} steal {:.1}% ladder {}",
            l.steal_frac * 100.0,
            line.join(" ")
        );
    }
    Ok((outcome, run))
}

/// What the server must answer for one instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expected {
    /// Makespan of the in-process solve of the instance's canonical
    /// form, restored: the path the server takes, hit or miss.
    pub served: i64,
    /// Makespan of an in-process solve of the instance as sent, for a
    /// seeded one in [`DIRECT_ONE_IN`] (the solve costs as much again).
    pub direct: Option<i64>,
}

/// The expected answer for `item`; the direct solve only when asked.
pub fn expected(item: &Item, direct: bool) -> Expected {
    let registry = SolverRegistry::global();
    let canon = CanonicalInstance::of(&item.instance, SOLVER, None);
    let solution = registry.solve(SOLVER, canon.instance()).expect("benchmark instances solve");
    let direct = direct.then(|| {
        registry.solve(SOLVER, &item.instance).expect("benchmark instances solve").makespan()
    });
    Expected { served: canon.restore(&solution).makespan(), direct }
}

/// The served makespan must equal a direct solve of the instance as
/// sent. On chains, forks and spiders the solvers are optimal, so a
/// difference is a wrong answer. The tree solver is a heuristic whose
/// result depends on node labels, and the server solves the relabelled
/// canonical form; a tree difference is counted and reported, not
/// failed.
fn check_direct<'a>(pairs: impl Iterator<Item = (&'a Item, &'a Expected)>, outcome: &mut Outcome) {
    let (mut trees, mut diverged) = (0usize, 0usize);
    for (item, e) in pairs {
        let tree = item.instance.kind() == TopologyKind::Tree;
        let Some(direct) = e.direct else { continue };
        trees += usize::from(tree);
        if e.served == direct {
            continue;
        }
        if tree {
            diverged += 1;
        } else {
            outcome.wrong.push(format!(
                "a {} instance is served with makespan {} but solves directly to {}",
                item.instance.kind().name(),
                e.served,
                direct
            ));
        }
    }
    if diverged > 0 {
        outcome.notes.push(format!(
            "{diverged} of {trees} tree instances are served with a makespan other than a direct \
             solve gives (the tree heuristic is label-sensitive and the server solves canonical forms)"
        ));
    }
}

/// Decodes the kept bodies and checks every witness in them with the
/// oracle against the instance it answers, and its makespan against the
/// reported one.
pub fn check_witnesses<'a>(
    samples: &[Sample],
    items_of: impl Fn(usize) -> Vec<&'a Item>,
    outcome: &mut Outcome,
) {
    for s in samples.iter().filter(|s| s.ok()) {
        let Some(body) = &s.body else { continue };
        let parts = crate::client::result_objects(body).unwrap_or_else(|| vec![&body[..]]);
        let solutions: Option<Vec<Json>> = parts
            .iter()
            .map(|part| std::str::from_utf8(part).ok().and_then(|t| Json::parse(t).ok()))
            .collect();
        let Some(solutions) = solutions else {
            outcome.wrong.push(format!("request {} answered a body that is not JSON", s.frame));
            continue;
        };
        let items = items_of(s.frame);
        if solutions.len() != items.len() {
            outcome.wrong.push(format!(
                "request {} answered {} results for {} instances",
                s.frame,
                solutions.len(),
                items.len()
            ));
            continue;
        }
        for (item, solution) in items.iter().zip(&solutions) {
            let verdict = solution_from_json(solution).map_err(|e| e.to_string()).and_then(|sol| {
                verify(&item.instance, &sol).map(|r| (r, sol)).map_err(|e| e.to_string())
            });
            match verdict {
                Ok((report, sol)) if report.is_feasible() && report.makespan == sol.makespan() => {}
                Ok((report, _)) => outcome.wrong.push(format!(
                    "request {}: the oracle rejects a witness ({} violation(s))",
                    s.frame,
                    report.violations.len()
                )),
                Err(e) => {
                    outcome.wrong.push(format!("request {}: undecodable witness: {e}", s.frame))
                }
            }
        }
    }
}

/// batch-sweep: per server lifetime, warm-up and a segment of the
/// closed loop; then the checks.
pub fn batch_run(
    seed: u64,
    seconds: f64,
    mst: &Path,
    setup: &Setup,
    keep_server: bool,
) -> Result<(Outcome, Measured), String> {
    let plan = plan(Workload::BatchSweep);
    let seg_s = seconds / BOOTS as f64;
    // Sweeps, every instance never seen before: warm-ups and enough for
    // the closed loop at a rate no 2-core box reaches.
    let sweeps =
        (BOOTS + SETUP_ONLY_BOOTS) * WARM_SWEEPS + (seconds * MAX_SWEEPS_PER_S) as usize + 1;
    let mut cold = gen::ColdStream::new(seed, setup.log.iter().map(|i| i.hash));
    let batches: Vec<Vec<Item>> =
        (0..sweeps).map(|_| cold.take(BATCH_SIZE, &BATCH_SHAPES)).collect();
    let frames: Vec<Vec<u8>> =
        batches.iter().map(|b| gen::post("/batch", &gen::batch_body(b))).collect();
    let mut keep_rng = gen::stream(seed, 4);
    let keep: Vec<bool> =
        (0..frames.len()).map(|_| keep_rng.gen_range(0..KEEP_ONE_IN) == 0).collect();
    let next = std::cell::Cell::new(0usize);

    let (lives, server) = drive(
        mst,
        setup,
        keep_server,
        |server, _| {
            let from = next.get();
            next.set(from + WARM_SWEEPS);
            sequential(server, &frames[from..from + WARM_SWEEPS]).map(|_| ())
        },
        |server, _, life| {
            let from = next.get();
            let (mut steal, start) = (StealLog::default(), Instant::now());
            let ((mut samples, wall), cpu, me, counts) = measured(server, || {
                load::closed_loop(
                    server.addr,
                    &frames[from..],
                    |i| keep[from + i],
                    seg_s,
                    &mut steal,
                )
            })?;
            life.steal_frac = steal.share(start, Instant::now());
            for s in &mut samples {
                s.frame += from;
            }
            next.set(from + samples.len());
            (life.fixed, life.fixed_s, life.server_cpu_s, life.client_cpu_s, life.fixed_counts) =
                (samples, wall, cpu, me, counts);
            Ok(())
        },
    )?;

    let closed: Vec<Sample> = lives.iter().flat_map(|l| l.fixed.iter().cloned()).collect();
    let mut outcome = Outcome {
        attempted: closed.len(),
        failed: closed.iter().filter(|s| !s.ok()).count(),
        ..Outcome::default()
    };
    for s in closed.iter().filter(|s| s.ok()) {
        if s.makespans.len() != BATCH_SIZE {
            outcome.wrong.push(format!(
                "sweep {} answered {} makespans for {BATCH_SIZE} instances",
                s.frame,
                s.makespans.len()
            ));
        }
    }
    // Summary flags of every kept sweep: all solved, none failed, none
    // cached, every witness feasible by the server's oracle.
    let flags = [
        "\"failed\":0,",
        "\"cancelled\":0,",
        "\"cache_hits\":0,",
        "\"complete\":true",
        "\"infeasible\":0,",
    ];
    let kept: Vec<Sample> = closed.iter().filter(|s| s.ok() && s.body.is_some()).cloned().collect();
    for s in &kept {
        let body = String::from_utf8_lossy(s.body.as_deref().unwrap_or_default());
        if let Some(flag) = flags.iter().find(|f| !body.contains(*f)) {
            outcome.wrong.push(format!("sweep {} summary lacks {flag}", s.frame));
        }
    }
    // Makespans of the kept sweeps against in-process solves.
    let kept_items: Vec<&Item> = kept.iter().flat_map(|s| &batches[s.frame]).collect();
    let solved: Vec<Expected> = setup.pool.run(&kept_items, |item| expected(item, true));
    for (s, want) in kept.iter().zip(solved.chunks(BATCH_SIZE)) {
        if s.makespans != want.iter().map(|e| e.served).collect::<Vec<_>>() {
            outcome
                .wrong
                .push(format!("sweep {}: makespans differ from in-process solves", s.frame));
        }
    }
    check_direct(kept_items.iter().copied().zip(&solved), &mut outcome);
    check_witnesses(&kept, |f| batches[f].iter().collect(), &mut outcome);
    if kept.is_empty() {
        outcome.violations.push("no sweep was kept for the witness checks".to_string());
    }

    let ok = closed.iter().filter(|s| s.ok()).count() as f64;
    let instances = ok * BATCH_SIZE as f64;
    let run = Measured { items: batches.into_iter().flatten().collect(), lives, server };
    let server_cpu = run.server_cpu_s();
    let share = run.kernel_s() / server_cpu.max(1e-9);
    outcome.rules.push(("kernel_cpu_share", share));
    if share <= KERNEL_MAJORITY {
        outcome.violations.push(format!("kernel.cpu_share {share:.3} is not a majority"));
    }
    let hits = run.fixed_counts().hits;
    if hits != 0.0 {
        outcome.violations.push(format!("{hits} cache hits on a workload of distinct instances"));
    }
    // Latency and rate from the quiet lifetimes' closed loops.
    let quiet: Vec<&Lifetime> = stats::quiet(run.lives.iter().map(|l| (l.steal_frac, l)).collect());
    let sweeps: Vec<Sample> = quiet.iter().flat_map(|l| l.fixed.iter().cloned()).collect();
    let wall: f64 = quiet.iter().map(|l| l.fixed_s).sum();
    let answered = sweeps.iter().filter(|s| s.ok()).count() as f64 * BATCH_SIZE as f64;
    outcome.metrics = vec![
        metric("p50_ms", latency_pct(&sweeps, 50.0), "ms"),
        metric("p90_ms", latency_pct(&sweeps, 90.0), "ms"),
        metric("max_rps_at_slo", sweeps_at_slo(&sweeps, wall, plan.limit_ms), "req/s"),
        metric("instances_per_sec", answered / wall, "1/s"),
        metric("cpu_us_per_instance", server_cpu * 1e6 / instances.max(1.0), "us"),
        metric("setup_s", run.setup_s(), "s"),
        metric(
            "peak_rss_mb",
            median(&run.lives.iter().map(|l| l.peak_rss_mb).collect::<Vec<_>>()),
            "MB",
        ),
    ];
    for (b, l) in run.lives.iter().enumerate() {
        eprintln!(
            "servebench: lifetime {b} steal {:.1}% sweeps {} p50 {:.1}ms",
            l.steal_frac * 100.0,
            l.fixed.len(),
            latency_pct(&l.fixed, 50.0)
        );
    }
    Ok((outcome, run))
}

/// Upper bound on closed-loop sweeps per second, for preparing enough
/// distinct instances.
const MAX_SWEEPS_PER_S: f64 = 40.0;

/// The closed loop's sweep rate, scaled down by how far its p90
/// overshoots the limit: with one sweep outstanding no backlog can
/// grow, so this is the rate the server sustains within the limit.
pub fn sweeps_at_slo(closed: &[Sample], wall: f64, limit_ms: f64) -> f64 {
    let ok = closed.iter().filter(|s| s.ok()).count() as f64;
    let p90 = latency_pct(closed, 90.0);
    ok / wall * (limit_ms / p90).min(1.0)
}
