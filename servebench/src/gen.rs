//! Seeded workload inputs: the history log, the hot set, the cold
//! stream and the batch sweeps. Everything here is a pure function of
//! the seed, so one seed names one set of request bodies.

use mst_api::wire::{instance_to_json, solution_to_json, Json};
use mst_api::{CanonicalInstance, Instance, SolverRegistry, TopologyKind};
use mst_platform::HeterogeneityProfile;
use mst_sim::WorkerPool;
use mst_store::Record;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Solver every request names (the server's default).
pub const SOLVER: &str = "optimal";

/// Records in the seeded history log the server warm-starts from.
pub const LOG_RECORDS: usize = 4000;

/// Hot-set size: the newest log records. The server's default cache
/// holds 4096 entries in 8 LRU shards of 512, so the newest 512
/// records are cached whatever shards they hash to.
pub const HOT_SET: usize = 512;

/// Instances per batch-sweep request.
pub const BATCH_SIZE: usize = 96;

/// Profiles for generated platforms. The homogeneous profile is left
/// out: every homogeneous platform of one size is the same platform.
const PROFILES: [HeterogeneityProfile; 4] = [
    HeterogeneityProfile::ALL[0],
    HeterogeneityProfile::ALL[2],
    HeterogeneityProfile::ALL[3],
    HeterogeneityProfile::ALL[4],
];

/// `(size, tasks)` per topology for solve-cold, in `TopologyKind::ALL`
/// order, chosen so each topology's kernel costs about the same
/// (a mean of about 0.8 ms on a 2-core Xeon): the latency distribution
/// stays unimodal instead of splitting cheap chains from costly trees.
/// Platforms are small and task counts large so the kernel, which grows
/// faster than linearly in tasks, is most of a request's server time.
pub const COLD_SHAPES: [(usize, usize); 4] = [(64, 128), (32, 112), (8, 80), (8, 72)];

/// `(size, tasks)` per topology inside a batch-sweep request: the same,
/// so the kernel is most of a sweep's server time too.
pub const BATCH_SHAPES: [(usize, usize); 4] = COLD_SHAPES;

/// A workload's request stream, with what each answer must contain.
#[derive(Debug, Clone)]
pub struct Item {
    pub instance: Instance,
    /// Canonical content hash (the cache key's).
    pub hash: u128,
}

/// Splits a run seed into independent streams.
pub fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniform draw in `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    rng.gen_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64
}

fn item(kind: TopologyKind, rng: &mut StdRng, size: usize, tasks: usize) -> Item {
    let profile = PROFILES[rng.gen_range(0..PROFILES.len())];
    let instance = Instance::generate(kind, profile, rng.gen_range(0..u64::MAX), size, tasks);
    let hash = CanonicalInstance::of(&instance, SOLVER, None).hash();
    Item { instance, hash }
}

/// Draws items until one has a canonical hash not in `seen`, then
/// records it there.
fn fresh(seen: &mut HashSet<u128>, mut draw: impl FnMut() -> Item) -> Item {
    loop {
        let candidate = draw();
        if seen.insert(candidate.hash) {
            return candidate;
        }
    }
}

/// The history log's instances, oldest first: all four topologies in
/// rotation, small and varied, with distinct canonical hashes.
pub fn log_items(seed: u64) -> Vec<Item> {
    let mut rng = stream(seed, 1);
    let mut seen = HashSet::new();
    (0..LOG_RECORDS)
        .map(|i| {
            let kind = TopologyKind::ALL[i % 4];
            fresh(&mut seen, || {
                let size = rng.gen_range(3..=10);
                let tasks = rng.gen_range(8..=24);
                item(kind, &mut rng, size, tasks)
            })
        })
        .collect()
}

/// The hot set: the newest [`HOT_SET`] log items.
pub fn hot_items(log: &[Item]) -> &[Item] {
    &log[log.len() - HOT_SET..]
}

/// Solves the log's items on `pool` and renders them as the records a
/// `--store` server would have appended: canonical platform, canonical
/// solution, content hash.
pub fn log_records(items: &[Item], pool: &WorkerPool) -> Vec<Record> {
    let registry = SolverRegistry::global();
    pool.run(items, |item| {
        let canon = CanonicalInstance::of(&item.instance, SOLVER, None);
        let solution = registry.solve(SOLVER, canon.instance()).expect("log instances solve");
        Record {
            tenant: "default".to_string(),
            solver: SOLVER.to_string(),
            platform: canon.instance().platform.to_text(),
            tasks: canon.instance().tasks,
            deadline: None,
            canon_hash: canon.hash_hex(),
            makespan: solution.makespan(),
            scheduled: solution.n(),
            elapsed_us: 0,
            solution: solution_to_json(&solution),
        }
    })
}

/// A stream of cold items, topologies in rotation at [`COLD_SHAPES`],
/// none sharing a canonical hash with the log or with each other.
#[derive(Debug)]
pub struct ColdStream {
    rng: StdRng,
    seen: HashSet<u128>,
    next: usize,
}

impl ColdStream {
    /// A stream avoiding every hash in `seen` (the log's, at least).
    pub fn new(seed: u64, seen: impl IntoIterator<Item = u128>) -> ColdStream {
        ColdStream { rng: stream(seed, 2), seen: seen.into_iter().collect(), next: 0 }
    }

    /// The next distinct item at `shapes`' size for its topology.
    pub fn next(&mut self, shapes: &[(usize, usize); 4]) -> Item {
        let slot = self.next % 4;
        self.next += 1;
        let (size, tasks) = shapes[slot];
        let rng = &mut self.rng;
        fresh(&mut self.seen, || item(TopologyKind::ALL[slot], rng, size, tasks))
    }

    pub fn take(&mut self, n: usize, shapes: &[(usize, usize); 4]) -> Vec<Item> {
        (0..n).map(|_| self.next(shapes)).collect()
    }
}

/// The `/solve` body for one instance.
pub fn solve_body(instance: &Instance) -> String {
    instance_to_json(instance).to_string()
}

/// The `/batch` body for one sweep: explicit instances, oracle
/// verification on, per-instance results returned.
pub fn batch_body(items: &[Item]) -> String {
    Json::obj([
        ("instances", Json::Arr(items.iter().map(|i| instance_to_json(&i.instance)).collect())),
        ("verify", Json::Bool(true)),
        ("include_results", Json::Bool(true)),
    ])
    .to_string()
}

/// A keep-alive `POST` frame.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Seeded Poisson arrival offsets (seconds from the phase start) for
/// `rate` requests per second over `seconds`: a Poisson process given
/// its count, which is fixed at `rate * seconds` so that the count does
/// not vary from seed to seed (the times are uniform and sorted).
pub fn arrivals(rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut out: Vec<f64> = (0..n).map(|_| unit(rng) * seconds).collect();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_api::cache::{CacheKey, SolutionCache, DEFAULT_CACHE_ENTRIES};
    use mst_api::wire::solution_from_json;

    #[test]
    fn the_same_seed_gives_the_same_bodies() {
        let a = log_items(7);
        let b = log_items(7);
        let bodies =
            |items: &[Item]| items.iter().map(|i| solve_body(&i.instance)).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&log_items(8)));
        let cold_a = ColdStream::new(7, a.iter().map(|i| i.hash)).take(64, &COLD_SHAPES);
        let cold_b = ColdStream::new(7, b.iter().map(|i| i.hash)).take(64, &COLD_SHAPES);
        assert_eq!(batch_body(&cold_a), batch_body(&cold_b));
        assert_eq!(
            arrivals(&mut stream(7, 3), 500.0, 1.0),
            arrivals(&mut stream(7, 3), 500.0, 1.0)
        );
    }

    #[test]
    fn cold_hashes_are_distinct_and_absent_from_the_log() {
        let log = log_items(3);
        let log_hashes: HashSet<u128> = log.iter().map(|i| i.hash).collect();
        assert_eq!(log_hashes.len(), LOG_RECORDS);
        let mut cold = ColdStream::new(3, log.iter().map(|i| i.hash));
        let items: Vec<Item> =
            cold.take(400, &COLD_SHAPES).into_iter().chain(cold.take(400, &BATCH_SHAPES)).collect();
        let mut seen = HashSet::new();
        for item in &items {
            // The stored hash is the one the server will compute.
            assert_eq!(item.hash, CanonicalInstance::of(&item.instance, SOLVER, None).hash());
            assert!(!log_hashes.contains(&item.hash));
            assert!(seen.insert(item.hash), "a cold hash repeats");
        }
        let kinds: HashSet<&str> = items.iter().map(|i| i.instance.kind().name()).collect();
        assert_eq!(kinds.len(), 4);
    }

    #[test]
    fn the_hot_set_survives_warm_start_in_the_default_cache() {
        let log = log_items(11);
        let records = log_records(&log, &WorkerPool::with_parallelism(2));
        // Warm start inserts every record, oldest first, into a cache
        // of the server's default size.
        let cache = SolutionCache::new(DEFAULT_CACHE_ENTRIES);
        for record in &records {
            let hash = u128::from_str_radix(&record.canon_hash, 16).unwrap();
            let key = CacheKey { hash, solver: record.solver.clone(), deadline: None };
            cache.insert(key, solution_from_json(&record.solution).unwrap());
        }
        let hot = hot_items(&log);
        let kinds: HashSet<&str> = hot.iter().map(|i| i.instance.kind().name()).collect();
        assert_eq!(kinds.len(), 4, "the hot set spans every topology");
        for item in hot {
            let key = CacheKey { hash: item.hash, solver: SOLVER.to_string(), deadline: None };
            assert!(cache.get(&key).is_some(), "a hot item was evicted by warm start");
        }
    }

    #[test]
    fn poisson_arrivals_match_the_rate() {
        let a = arrivals(&mut stream(1, 9), 1000.0, 4.0);
        assert_eq!(a.len(), 4000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        // Exponential gaps: their mean is the inverse rate.
        let mean_gap = (a[a.len() - 1] - a[0]) / (a.len() - 1) as f64;
        assert!((mean_gap - 1e-3).abs() < 1e-4, "{mean_gap}");
    }
}
