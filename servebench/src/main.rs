//! `servebench` — the repository's serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload solve-hot|solve-cold|batch-sweep --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path servebench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! Each run builds `mst` (release) from the checkout, writes a seeded
//! history log, boots a fresh `mst serve --store <copy>` several times
//! to time set-up, drives the last one from at most two client threads,
//! checks every answer, and prints one JSON line of results last. With
//! `--trace 1` it prints the per-layer metrics instead, from an
//! in-process replay of the same requests with spans recorded here.
//! See `BENCHMARK.json` for why each workload and metric exists.

mod client;
mod gen;
mod layers;
mod load;
mod run;
mod server;
mod stats;
mod trace;

use mst_api::wire::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Wrong answers found by the output checks.
    pub wrong: Vec<String>,
    /// Broken workload rules.
    pub violations: Vec<String>,
    /// Observations that are neither: reported with the results.
    pub notes: Vec<String>,
    /// The measured value behind each workload rule.
    pub rules: Vec<(&'static str, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveHot,
    SolveCold,
    BatchSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "solve-hot" => Some(Workload::SolveHot),
            "solve-cold" => Some(Workload::SolveCold),
            "batch-sweep" => Some(Workload::BatchSweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveHot => "solve-hot",
            Workload::SolveCold => "solve-cold",
            Workload::BatchSweep => "batch-sweep",
        }
    }
}

/// Where the run builds and keeps its files, all inside the checkout.
#[derive(Debug)]
pub struct Paths {
    pub root: PathBuf,
    pub target: PathBuf,
    pub work: PathBuf,
}

impl Paths {
    fn resolve() -> Result<Paths, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("the benchmark package has no parent directory")?
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let work = target.join("servebench");
        std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {work:?}: {e}"))?;
        Ok(Paths { root, target, work })
    }

    /// Builds the `mst` binary (release) from the checkout and returns
    /// its path.
    fn build_mst(&self) -> Result<PathBuf, String> {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .args(["build", "--release", "--quiet", "--bin", "mst", "--target-dir"])
            .arg(&self.target)
            .current_dir(&self.root)
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building mst failed: {status}"));
        }
        Ok(self.target.join("release").join("mst"))
    }
}

/// The machine a result was measured on. Results are only compared
/// when the whole fingerprint but the revision matches.
fn fingerprint(root: &Path) -> Vec<(&'static str, String)> {
    let output = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("cpu", cpu),
        ("rustc", output(Command::new("rustc").arg("-V"))),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("git_rev", output(Command::new("git").args(["rev-parse", "HEAD"]).current_dir(root))),
    ]
}

/// Fingerprint keys that must match for two results to be compared.
const MACHINE_KEYS: [&str; 4] = ["nproc", "cpu", "rustc", "profile"];

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn bench(args: &Args) -> Result<bool, String> {
    let paths = Paths::resolve()?;
    let mst = paths.build_mst()?;
    let fingerprint = fingerprint(&paths.root);
    let outcome = if args.trace {
        layers::run(args.workload, args.seed, args.seconds as f64, &mst, &paths)?
    } else {
        run::run(args.workload, args.seed, args.seconds as f64, &mst, &paths)?
    };
    let valid = outcome.wrong.is_empty() && outcome.violations.is_empty();
    for problem in outcome.wrong.iter().chain(&outcome.violations).chain(&outcome.notes) {
        eprintln!("servebench: {problem}");
    }
    let metrics = if valid { metrics_json(&outcome.metrics) } else { Json::Obj(Vec::new()) };
    let report = Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::int(args.seed as i64)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "fingerprint".into(),
            Json::Obj(
                fingerprint.into_iter().map(|(k, v)| (k.to_string(), Json::str(v))).collect(),
            ),
        ),
        ("wrong".into(), Json::Arr(outcome.wrong.iter().map(Json::str).collect())),
        ("violations".into(), Json::Arr(outcome.violations.iter().map(Json::str).collect())),
        ("notes".into(), Json::Arr(outcome.notes.iter().map(Json::str).collect())),
        (
            "rules".into(),
            Json::Obj(outcome.rules.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect()),
        ),
        ("metrics".into(), metrics_json(&outcome.metrics)),
    ]);
    let results = paths.work.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("cannot create {results:?}: {e}"))?;
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&file, format!("{report}\n"))
        .map_err(|e| format!("cannot write {file:?}: {e}"))?;
    println!("{report}");
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(valid)),
            ("attempted".into(), Json::int(outcome.attempted as i64)),
            ("failed".into(), Json::int(outcome.failed as i64)),
            ("metrics".into(), metrics),
        ])
    );
    Ok(valid)
}

/// `compare A.json B.json`: prints B's metrics against A's, refusing
/// results measured on different machines.
fn compare(a: &str, b: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    for key in MACHINE_KEYS {
        let fa = a.get("fingerprint").and_then(|f| f.get(key)).and_then(Json::as_str);
        let fb = b.get("fingerprint").and_then(|f| f.get(key)).and_then(Json::as_str);
        if fa.is_none() || fa != fb {
            return Err(format!(
                "fingerprints differ on {key}: {fa:?} vs {fb:?}; refusing to compare"
            ));
        }
    }
    let (Some(ma), Some(mb)) = (a.get("metrics").and_then(Json::as_obj), b.get("metrics")) else {
        return Err("a result has no metrics".into());
    };
    for (name, va) in ma {
        let value = |m: &Json| m.get("value").and_then(Json::as_f64);
        if let (Some(x), Some(y)) = (value(va), mb.get(name).and_then(value)) {
            println!("{name:<40} {x:>14.4} {y:>14.4} {:>+9.1}%", (y / x - 1.0) * 100.0);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]).map(|()| true),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
