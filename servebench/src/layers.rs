//! The traced run: the workload's measured phase against a live server
//! for the client-side and exported counters, then an in-process replay
//! of the same requests with spans recorded around each public call.

use crate::gen::{self, Item, SOLVER};
use crate::load::Sample;
use crate::run::{self, latency_pct, sequential, Measured, Setup};
use crate::stats::{mean, median, percentile_of};
use crate::trace::{self, Span, Tracer, NO_PARENT};
use crate::{metric, Metric, Outcome, Paths, Workload};
use mst_api::cache::{CacheKey, SolutionCache, DEFAULT_CACHE_ENTRIES};
use mst_api::wire::{instance_from_json, solution_from_json, solution_to_json, Json};
use mst_api::{
    verify, CanonicalInstance, ExecPolicy, Instance, Solution, SolverRegistry, TenantExec,
    TopologyKind,
};
use mst_serve::{http::read_request, MstService, ServeConfig, Service};
use mst_sim::WorkerPool;
use mst_store::{FileStore, Record, StoreBackend};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests in the sequential idle replay and the in-process replays.
fn replay_count(workload: Workload) -> usize {
    match workload {
        Workload::SolveHot => 1000,
        Workload::SolveCold => 300,
        Workload::BatchSweep => 6,
    }
}

/// Largest request body the replays parse (the server's default cap).
const MAX_BODY: usize = 1024 * 1024;

/// Overhead comparison: rounds of an untraced and a traced replay, the
/// order alternating from round to round.
const OVERHEAD_ROUNDS: usize = 4;

/// The layers one replayed request passes through.
struct Layers<'a> {
    registry: &'static SolverRegistry,
    cache: &'a SolutionCache,
    exec: &'a TenantExec,
    store: &'a FileStore,
    pool: &'a WorkerPool,
}

fn solve_span(kind: TopologyKind) -> &'static str {
    match kind {
        TopologyKind::Chain => "core.solve",
        TopologyKind::Fork => "fork.solve",
        TopologyKind::Spider => "spider.solve",
        TopologyKind::Tree => "tree.solve",
    }
}

fn record(canon: &CanonicalInstance, solution: &Solution) -> Record {
    Record {
        tenant: "default".to_string(),
        solver: SOLVER.to_string(),
        platform: canon.instance().platform.to_text(),
        tasks: canon.instance().tasks,
        deadline: canon.deadline(),
        canon_hash: canon.hash_hex(),
        makespan: solution.makespan(),
        scheduled: solution.n(),
        elapsed_us: 0,
        solution: solution_to_json(solution),
    }
}

impl Layers<'_> {
    /// One `/solve` request the way the handler runs it, one span per
    /// layer call under a `request` root.
    fn solve(&self, t: &mut Tracer, req: usize, frame: &[u8]) -> String {
        let p = t.begin("serve.http_parse", NO_PARENT, req);
        let request = read_request(&mut &frame[..], MAX_BODY).expect("benchmark frames parse");
        t.end(p);
        let root = t.begin("request", NO_PARENT, req);
        let s = t.begin("api.wire_decode", root, req);
        let json = Json::parse(std::str::from_utf8(&request.body).expect("UTF-8 body"))
            .expect("JSON body");
        let instance = instance_from_json(&json).expect("benchmark instances decode");
        t.end(s);
        let s = t.begin("api.canon", root, req);
        let canon = CanonicalInstance::of(&instance, SOLVER, None);
        let key = CacheKey::of(&canon, SOLVER);
        t.end(s);
        let s = t.begin("api.cache_get", root, req);
        let hit = self.cache.get(&key);
        t.end(s);
        let canonical = match hit {
            Some(solution) => solution,
            None => {
                let s = t.begin("api.exec_admit", root, req);
                drop(self.exec.admit().expect("an idle tenant admits"));
                t.end(s);
                let s = t.begin(solve_span(instance.kind()), root, req);
                let solution =
                    self.registry.solve(SOLVER, canon.instance()).expect("instances solve");
                t.end(s);
                let s = t.begin("api.cache_insert", root, req);
                self.cache.insert(key, solution.clone());
                t.end(s);
                let s = t.begin("store.append", root, req);
                self.store.append(&record(&canon, &solution)).expect("scratch store appends");
                t.end(s);
                solution
            }
        };
        let s = t.begin("api.canon_restore", root, req);
        let restored = canon.restore(&canonical);
        t.end(s);
        let s = t.begin("api.wire_encode", root, req);
        let text = solution_to_json(&restored).to_string();
        t.end(s);
        t.end(root);
        text
    }

    /// One `/batch` sweep the way the handler runs it: plan against the
    /// cache, admit once, solve the misses on the pool, memoise, store,
    /// restore, verify, encode.
    fn batch(&self, t: &mut Tracer, req: usize, frame: &[u8]) -> String {
        let p = t.begin("serve.http_parse", NO_PARENT, req);
        let request = read_request(&mut &frame[..], MAX_BODY).expect("benchmark frames parse");
        t.end(p);
        let root = t.begin("request", NO_PARENT, req);
        let s = t.begin("api.wire_decode", root, req);
        let json = Json::parse(std::str::from_utf8(&request.body).expect("UTF-8 body"))
            .expect("JSON body");
        let instances: Vec<Instance> = json
            .get("instances")
            .and_then(Json::as_arr)
            .expect("an instance list")
            .iter()
            .map(|i| instance_from_json(i).expect("benchmark instances decode"))
            .collect();
        t.end(s);
        let mut planned = Vec::with_capacity(instances.len());
        for instance in &instances {
            let s = t.begin("api.canon", root, req);
            let canon = CanonicalInstance::of(instance, SOLVER, None);
            let key = CacheKey::of(&canon, SOLVER);
            t.end(s);
            let s = t.begin("api.cache_get", root, req);
            let hit = self.cache.get(&key);
            t.end(s);
            planned.push((canon, key, hit));
        }
        let s = t.begin("api.exec_admit", root, req);
        drop(self.exec.admit().expect("an idle tenant admits"));
        t.end(s);
        let misses: Vec<(usize, &CanonicalInstance)> = planned
            .iter()
            .enumerate()
            .filter(|(_, p)| p.2.is_none())
            .map(|(i, p)| (i, &p.0))
            .collect();
        let pool_span = t.begin("sim.pool_run", root, req);
        let base = Instant::now();
        let epoch_offset = t.now();
        let solved: Vec<(Solution, u64, u64)> = self.pool.run(&misses, |(_, canon)| {
            let a = base.elapsed().as_nanos() as u64;
            let solution = self.registry.solve(SOLVER, canon.instance()).expect("instances solve");
            (solution, a, base.elapsed().as_nanos() as u64)
        });
        t.end(pool_span);
        let mut canonical: Vec<Option<Solution>> = planned.iter().map(|p| p.2.clone()).collect();
        for ((i, canon), (solution, a, b)) in misses.iter().zip(solved) {
            t.record(Span {
                name: solve_span(canon.instance().kind()),
                start: epoch_offset + a,
                end: epoch_offset + b,
                parent: pool_span,
                request: req,
            });
            let s = t.begin("api.cache_insert", root, req);
            self.cache.insert(planned[*i].1.clone(), solution.clone());
            t.end(s);
            let s = t.begin("store.append", root, req);
            self.store.append(&record(canon, &solution)).expect("scratch store appends");
            t.end(s);
            canonical[*i] = Some(solution);
        }
        let mut restored = Vec::with_capacity(planned.len());
        for (p, solution) in planned.iter().zip(&canonical) {
            let s = t.begin("api.canon_restore", root, req);
            restored.push(p.0.restore(solution.as_ref().expect("every instance solved")));
            t.end(s);
        }
        for (instance, solution) in instances.iter().zip(&restored) {
            let s = t.begin("schedule.verify", root, req);
            let feasible = verify(instance, solution).map(|r| r.is_feasible()).unwrap_or(false);
            t.end(s);
            assert!(feasible, "a replayed witness fails the oracle");
        }
        let s = t.begin("api.wire_encode", root, req);
        let text = Json::Arr(restored.iter().map(solution_to_json).collect()).to_string();
        t.end(s);
        t.end(root);
        text
    }

    fn replay(&self, workload: Workload, t: &mut Tracer, frames: &[Vec<u8>]) -> Vec<String> {
        frames
            .iter()
            .enumerate()
            .map(|(req, frame)| match workload {
                Workload::BatchSweep => self.batch(t, req, frame),
                _ => self.solve(t, req, frame),
            })
            .collect()
    }

    /// Calls the layers the workload's requests do not reach, on the
    /// workload's own instances, so every layer has numbers on every
    /// workload. These spans sit under a `probe` root, outside the
    /// per-request budget.
    fn probe(&self, t: &mut Tracer, items: &[Item], missing: &[&str], scratch: &SolutionCache) {
        let root = t.begin("probe", NO_PARENT, usize::MAX);
        for item in items {
            let canon = CanonicalInstance::of(&item.instance, SOLVER, None);
            let name = solve_span(item.instance.kind());
            let s =
                if missing.contains(&name) { t.begin(name, root, usize::MAX) } else { NO_PARENT };
            let solution = self.registry.solve(SOLVER, canon.instance()).expect("instances solve");
            if s != NO_PARENT {
                t.end(s);
            }
            if missing.contains(&"api.exec_admit") {
                let s = t.begin("api.exec_admit", root, usize::MAX);
                drop(self.exec.admit().expect("an idle tenant admits"));
                t.end(s);
            }
            if missing.contains(&"api.cache_insert") {
                let s = t.begin("api.cache_insert", root, usize::MAX);
                scratch.insert(CacheKey::of(&canon, SOLVER), solution.clone());
                t.end(s);
            }
            if missing.contains(&"store.append") {
                let s = t.begin("store.append", root, usize::MAX);
                self.store.append(&record(&canon, &solution)).expect("scratch store appends");
                t.end(s);
            }
            if missing.contains(&"schedule.verify") {
                let restored = canon.restore(&solution);
                let s = t.begin("schedule.verify", root, usize::MAX);
                let _ = verify(&item.instance, &restored);
                t.end(s);
            }
        }
        if missing.contains(&"sim.pool_run") {
            for chunk in items.chunks(gen::BATCH_SIZE) {
                let pool_span = t.begin("sim.pool_run", root, usize::MAX);
                let base = Instant::now();
                let offset = t.now();
                let times: Vec<(u64, u64)> = self.pool.run(chunk, |item| {
                    let a = base.elapsed().as_nanos() as u64;
                    let _ = self.registry.solve(SOLVER, &item.instance);
                    (a, base.elapsed().as_nanos() as u64)
                });
                t.end(pool_span);
                for (a, b) in times {
                    t.record(Span {
                        name: "sim.pool_item",
                        start: offset + a,
                        end: offset + b,
                        parent: pool_span,
                        request: usize::MAX,
                    });
                }
            }
        }
        t.end(root);
    }
}

/// Warm start through public calls, as the server does it at boot:
/// every record's solution decoded and inserted, oldest first.
fn warm_start(store: &FileStore, cache: &SolutionCache) {
    for record in store.records() {
        let hash = u128::from_str_radix(&record.canon_hash, 16).expect("hex hashes");
        let solution = solution_from_json(&record.solution).expect("stored solutions decode");
        cache.insert(
            CacheKey { hash, solver: record.solver.clone(), deadline: record.deadline },
            solution,
        );
    }
}

/// The timing metrics reported for a layer: p50, mean and count.
fn timing(out: &mut Vec<Metric>, name: &str, samples: &[f64]) {
    let (p50, avg) =
        if samples.is_empty() { (0.0, 0.0) } else { (percentile_of(samples, 50.0), mean(samples)) };
    out.push(metric(format!("{name}.p50"), p50, "us"));
    out.push(metric(format!("{name}.mean"), avg, "us"));
    out.push(metric(format!("{name}.count"), samples.len() as f64, "count"));
}

/// Span names and the per-layer metric each feeds.
const LAYERS: [(&str, &str); 15] = [
    ("serve.http_parse", "serve.http_parse_us"),
    ("api.wire_decode", "api.wire_decode_us"),
    ("api.wire_encode", "api.wire_encode_us"),
    ("api.canon", "api.canon_us"),
    ("api.canon_restore", "api.canon_restore_us"),
    ("api.cache_get", "api.cache_get_us"),
    ("api.cache_insert", "api.cache_insert_us"),
    ("api.exec_admit", "api.exec_admit_us"),
    ("core.solve", "core.solve_us"),
    ("fork.solve", "fork.solve_us"),
    ("spider.solve", "spider.solve_us"),
    ("tree.solve", "tree.solve_us"),
    ("schedule.verify", "schedule.verify_us"),
    ("store.append", "store.append_us"),
    ("sim.pool_run", "sim.pool_run_us"),
];

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mst: &Path,
    paths: &Paths,
) -> Result<Outcome, String> {
    let setup = Setup::new(seed, paths)?;
    let mut metrics = Vec::new();

    // The store layer: open and warm start through public calls.
    let log_copy = setup.copy_log("trace-open.log")?;
    let t = Instant::now();
    let opened = FileStore::open(&log_copy).map_err(|e| format!("cannot open the log: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    let cache = SolutionCache::new(DEFAULT_CACHE_ENTRIES);
    let t = Instant::now();
    warm_start(&opened, &cache);
    let replay_s = t.elapsed().as_secs_f64();
    let log_mb = std::fs::metadata(&setup.log_path).map(|m| m.len()).unwrap_or(0) as f64 / 1e6;

    // The live phase, untraced: one boot, the measured phase, then a
    // sequential idle replay of the requests the in-process replay uses.
    let (mut outcome, live) = match workload {
        Workload::BatchSweep => run::batch_run(seed, seconds, mst, &setup, true)?,
        _ => run::solve_run(workload, seed, seconds, mst, &setup, true)?,
    };
    let counts = live.fixed_counts();
    let (fixed_s, server_cpu_s, client_cpu_s) =
        (live.fixed_s(), live.server_cpu_s(), live.client_cpu_s());
    let fixed: Vec<Sample> = live.fixed().cloned().collect();
    let steal = mean(&live.lives.iter().map(|l| l.steal_frac).collect::<Vec<_>>());
    let kernel_s = live.kernel_s();
    let Measured { items, server, .. } = live;
    let server = server.expect("kept for the idle replay");
    let frames: Vec<Vec<u8>> = replay_frames(workload, seed, &setup, &items);
    let idle = sequential(&server, &frames)?;
    server.stop();
    let requests = fixed.len().max(1) as f64;
    metrics.push(metric("e2e.p99_ms", latency_pct(&fixed, 99.0), "ms"));
    metrics.push(metric("e2e.p999_ms", latency_pct(&fixed, 99.9), "ms"));
    metrics.push(metric(
        "client.late_ms_p99",
        percentile_of(&fixed.iter().map(|s| s.late * 1e3).collect::<Vec<_>>(), 99.0),
        "ms",
    ));
    metrics.push(metric(
        "client.cpu_frac",
        client_cpu_s / (client_cpu_s + server_cpu_s).max(1e-9),
        "frac",
    ));
    metrics.push(metric("host.steal_frac", steal, "frac"));
    metrics.push(metric("net.poll_waits_per_req", counts.poll_waits / requests, "1/req"));
    metrics.push(metric(
        "net.poll_park_frac",
        counts.poll_wait_us / 1e6 / fixed_s.max(1e-9),
        "frac",
    ));
    metrics.push(metric("api.cache_hit_ratio", counts.hit_ratio(), "frac"));
    metrics.push(metric("kernel.cpu_share", kernel_s / server_cpu_s.max(1e-9), "frac"));
    metrics.push(metric("sim.pool_jobs_per_req", counts.pool_jobs / requests, "1/req"));
    metrics.push(metric("store.open_s", open_s, "s"));
    metrics.push(metric("store.replay_s", replay_s, "s"));
    metrics.push(metric("store.log_mb", log_mb, "MB"));

    // The whole handler in-process, on a server bound to the same log
    // but never run: parse and `MstService::call` per request.
    let mut tracer = Tracer::new(true);
    let state = {
        let store = setup.copy_log("trace-service.log")?;
        let server = mst_serve::Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            store: Some(store.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("cannot bind the in-process service: {e}"))?;
        Arc::clone(server.handle().state_arc())
    };
    let service = MstService::new(state);
    for (req, frame) in frames.iter().enumerate() {
        let p = tracer.begin("serve.http_parse", NO_PARENT, req);
        let request =
            read_request(&mut &frame[..], MAX_BODY).map_err(|e| format!("replay parse: {e:?}"))?;
        tracer.end(p);
        let c = tracer.begin("serve.service_call", NO_PARENT, req);
        let reply = service.call(&request, None);
        tracer.end(c);
        if !matches!(&reply, mst_serve::ResponseBody::Full(r) if r.status == 200) {
            return Err(format!("in-process call {req} did not answer 200: {reply:?}"));
        }
    }
    let calls: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "serve.service_call")
        .map(|s| s.dur() as f64 / 1e3)
        .collect();
    let client: Vec<f64> = idle.iter().map(|s| s.latency_ms() * 1e3).collect();
    let transport: Vec<f64> = client.iter().zip(&calls).map(|(c, k)| c - k).collect();
    metrics.push(metric(
        "serve.transport_us.p50",
        percentile_of(&client, 50.0) - percentile_of(&calls, 50.0),
        "us",
    ));
    metrics.push(metric("serve.transport_us.mean", mean(&client) - mean(&calls), "us"));
    metrics.push(metric("serve.transport_us.count", transport.len() as f64, "count"));
    timing(&mut metrics, "serve.service_call_us", &calls);
    let service_spans = std::mem::take(&mut tracer.spans);

    // The decomposed replay: each layer's public call under its own span.
    let registry = SolverRegistry::global();
    let pool = WorkerPool::with_parallelism(2);
    let exec = TenantExec::new(
        ExecPolicy::new("default", registry.clone()),
        Arc::new(WorkerPool::with_parallelism(2)),
    );
    let append_log = setup.copy_log("trace-append.log")?;
    let store =
        FileStore::open(&append_log).map_err(|e| format!("cannot open the scratch log: {e}"))?;
    let layers = Layers { registry, cache: &cache, exec: &exec, store: &store, pool: &pool };
    layers.replay(workload, &mut tracer, &frames);
    let present: Vec<&str> = tracer.spans.iter().map(|s| s.name).collect();
    let missing: Vec<&str> = LAYERS
        .iter()
        .map(|l| l.0)
        .chain(["schedule.verify"])
        .filter(|n| !present.contains(n))
        .collect();
    let probe_items: Vec<Item> = probe_items(workload, &items);
    layers.probe(&mut tracer, &probe_items, &missing, &SolutionCache::new(DEFAULT_CACHE_ENTRIES));

    let by_name = trace::durations_us(&tracer.spans);
    for (span, name) in LAYERS.iter().filter(|l| l.0 != "sim.pool_run") {
        let samples = by_name.get(span).cloned().unwrap_or_default();
        timing(&mut metrics, name, &samples);
    }
    let sums = trace::child_sums_us(&tracer.spans, "request");
    let budget: Vec<f64> = calls.iter().zip(&sums).map(|(c, s)| c - s).collect();
    timing(&mut metrics, "budget.unattributed_us", &budget);
    metrics.push(metric(
        "sim.pool_efficiency",
        pool_efficiency(&tracer.spans, pool.workers() + 1),
        "frac",
    ));

    // Tracing overhead: the same replay with the tracer off and on, on
    // fresh caches holding just the hot set.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for round in 0..OVERHEAD_ROUNDS {
        for traced in [round % 2 == 1, round % 2 == 0] {
            let fresh = SolutionCache::new(DEFAULT_CACHE_ENTRIES);
            warm_start_hot(&opened, &fresh);
            let layers = Layers { cache: &fresh, ..layers };
            let mut t = Tracer::new(traced);
            let start = Instant::now();
            layers.replay(workload, &mut t, &frames);
            (if traced { &mut on } else { &mut off }).push(start.elapsed().as_secs_f64());
        }
    }
    metrics.push(metric("bench.trace_overhead_frac", median(&on) / median(&off) - 1.0, "frac"));

    let mut spans = service_spans;
    let shift = spans.len();
    spans.extend(tracer.spans.iter().map(|s| Span {
        parent: if s.parent == NO_PARENT { NO_PARENT } else { s.parent + shift },
        ..*s
    }));
    let file = paths.work.join(format!("spans-{}-seed{seed}.tsv", workload.name()));
    trace::write(&spans, &file).map_err(|e| format!("cannot write spans: {e}"))?;
    let selfs = trace::self_times(&tracer.spans);
    let root_self: Vec<f64> = tracer
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "request")
        .map(|(_, &v)| v as f64 / 1e3)
        .collect();
    eprintln!(
        "servebench: replay request self time p50 {:.2} us",
        if root_self.is_empty() { 0.0 } else { percentile_of(&root_self, 50.0) }
    );

    outcome.metrics = metrics;
    Ok(outcome)
}

/// The newest log records only, into `cache`: the hot set's entries.
fn warm_start_hot(store: &FileStore, cache: &SolutionCache) {
    let records = store.records();
    for record in &records[records.len() - gen::HOT_SET..] {
        let hash = u128::from_str_radix(&record.canon_hash, 16).expect("hex hashes");
        let solution = solution_from_json(&record.solution).expect("stored solutions decode");
        cache.insert(
            CacheKey { hash, solver: record.solver.clone(), deadline: record.deadline },
            solution,
        );
    }
}

/// Σ per-item time ÷ (pool wall × executors), over every pool run.
fn pool_efficiency(spans: &[Span], executors: usize) -> f64 {
    let mut busy = 0u64;
    let mut wall = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name == "sim.pool_run" {
            wall += s.dur();
            busy += spans.iter().filter(|c| c.parent == i).map(Span::dur).sum::<u64>();
        }
    }
    busy as f64 / (wall as f64 * executors as f64).max(1.0)
}

/// The requests both replays use: fresh ones for the cold workloads
/// (new to both the live and the in-process server), hot-set ones for
/// solve-hot.
fn replay_frames(workload: Workload, seed: u64, setup: &Setup, items: &[Item]) -> Vec<Vec<u8>> {
    let n = replay_count(workload);
    let seen = setup.log.iter().chain(items).map(|i| i.hash);
    let mut cold = gen::ColdStream::new(seed ^ 0x5eed, seen);
    match workload {
        Workload::SolveHot => {
            let hot = gen::hot_items(&setup.log);
            (0..n)
                .map(|i| {
                    gen::post("/solve", &gen::solve_body(&hot[(i * 7919) % hot.len()].instance))
                })
                .collect()
        }
        Workload::SolveCold => (0..n)
            .map(|_| gen::post("/solve", &gen::solve_body(&cold.next(&gen::COLD_SHAPES).instance)))
            .collect(),
        Workload::BatchSweep => (0..n)
            .map(|_| {
                gen::post(
                    "/batch",
                    &gen::batch_body(&cold.take(gen::BATCH_SIZE, &gen::BATCH_SHAPES)),
                )
            })
            .collect(),
    }
}

/// Instances for the off-path probes: the workload's own.
fn probe_items(workload: Workload, items: &[Item]) -> Vec<Item> {
    let n = match workload {
        Workload::SolveHot => 256,
        _ => 192,
    };
    items.iter().take(n).cloned().collect()
}
