//! `bench`: the repository benchmark (see `benchmark/README.md`).
//!
//! ```text
//! bench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!           [--repeats R] [--quick]
//! bench compare A.json B.json
//! ```
//!
//! `run` with `--workload` and `--trace` makes one run and ends its
//! standard output with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Without them it makes every such run, workload by workload,
//! untraced then traced, each in a process of its own, and writes them all
//! to `benchmark/out/results-seed<N>.json`, which `compare` reads.

mod compare;
mod inputs;
mod layers;
mod library;
mod metrics;
mod procstat;
mod serve;
mod sut;
mod trace;

use metrics::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use sut::Json;

/// Seconds a run measures for unless `--seconds` says otherwise; the same
/// as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 2008;

/// What every workload needs to know about this invocation.
pub struct Opts {
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Times the set-up is repeated at least (once in a `--quick` run).
    pub setup_repeats: usize,
    /// Per-seed input cache, under the cargo target directory.
    pub cache_dir: PathBuf,
    /// `benchmark/out`: traces, results, daemon sockets.
    pub out_dir: PathBuf,
    /// The released `vdsms` binary.
    pub daemon: PathBuf,
}

/// One run's result: metrics, failure accounting, and notes for the log.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Values,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Count `attempted` operations of which `failed` failed.
    pub fn expect(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// Layers a workload does not exercise report 0 (the driver wants every
/// per-layer metric from every traced run).
pub fn zero_fill_layers(values: &mut Values) {
    for m in &PER_LAYER {
        if values.get(m.name).is_none() {
            values.set(m.name, 0.0);
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--repeats R] [--quick]\n       bench compare A.json B.json\nworkloads: {}",
        WORKLOADS.map(|(name, _)| name).join(", ")
    );
    ExitCode::from(2)
}

fn run_one(workload: &str, trace: bool, opts: &Opts) -> io::Result<Outcome> {
    use library::Workload::{BroadcastFanin, Catalogue1k, SubscriptionChurn};
    let lib = match workload {
        "broadcast_fanin" => BroadcastFanin,
        "catalogue_1k" => Catalogue1k,
        "subscription_churn" => SubscriptionChurn,
        "serve_live" if trace => return serve::run_traced(opts),
        "serve_live" => return serve::run(opts),
        other => return Err(io::Error::other(format!("unknown workload {other}"))),
    };
    if trace {
        library::run_traced(lib, opts)
    } else {
        library::run(lib, opts)
    }
}

/// Print one run for people, then the driver's JSON line. Returns whether
/// the run was correct.
fn report(workload: &str, trace: bool, opts: &Opts, outcome: &Outcome) -> bool {
    let wanted: &[metrics::MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> =
        wanted.iter().map(|m| m.name).filter(|n| outcome.metrics.get(n).is_none()).collect();
    let correct = outcome.failed == 0 && missing.is_empty() && outcome.attempted > 0;
    println!(
        "== {workload} ({}, seed {}, {} s) ==",
        if trace { "traced" } else { "untraced" },
        opts.seed,
        opts.seconds
    );
    for (key, value) in &outcome.notes {
        println!("  . {key} = {value}");
    }
    for m in wanted {
        if let Some(v) = outcome.metrics.get(m.name) {
            println!("  {:<40} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }
    for name in &missing {
        println!("  FAILED: no value for {name}");
    }
    println!(
        "  ops_attempted {}  ops_failed {}  correct {correct}",
        outcome.attempted, outcome.failed
    );
    let metrics = wanted
        .iter()
        .filter_map(|m| {
            let value = outcome.metrics.get(m.name)?;
            Some((
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            ))
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_compact());
    correct
}

fn cmd_run(args: &[String]) -> io::Result<ExitCode> {
    let (mut workload, mut trace, mut repeats) = (None, None, 1usize);
    let (mut seed, mut seconds, mut quick) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter().peekable();
    let bad = |flag: &str| io::Error::other(format!("{flag} needs a valid value"));
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(it.next().ok_or_else(|| bad(flag))?.clone()),
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| bad(flag))?,
            "--seconds" => {
                seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad(flag))?
            }
            "--repeats" => {
                repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r| *r > 0)
                    .ok_or_else(|| bad(flag))?
            }
            "--trace" => {
                trace = Some(it.next_if(|v| *v == "0" || *v == "1").is_none_or(|v| v == "1"))
            }
            "--quick" => quick = true,
            other => return Err(io::Error::other(format!("unknown flag {other}"))),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(io::Error::other(format!("unknown workload {w}")));
        }
    }

    // Everything is read and written below the repository root, through
    // short relative paths (a unix socket path holds ~100 bytes).
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(std::path::absolute)
        .transpose()?;
    let daemon = match std::env::var_os("VDSMS_DAEMON") {
        Some(path) => std::path::absolute(PathBuf::from(path))?,
        None => std::env::current_exe()?.with_file_name("vdsms"),
    };
    let root = std::env::var_os("VDSMS_BENCH_ROOT")
        .map_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")), PathBuf::from);
    std::env::set_current_dir(&root)?;
    let opts = Opts {
        seed,
        seconds: if quick { seconds / 20.0 } else { seconds },
        setup_repeats: if quick { 1 } else { 3 },
        cache_dir: target
            .clone()
            .unwrap_or_else(|| PathBuf::from("target"))
            .join("benchmark-cache"),
        out_dir: PathBuf::from("benchmark/out"),
        daemon,
    };

    // One run: here, in this process.
    if let (Some(w), Some(traced), 1) = (&workload, trace, repeats) {
        let outcome = run_one(w, traced, &opts)?;
        let correct = report(w, traced, &opts, &outcome);
        return Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }

    // Several runs: each in a process of its own, as the driver makes them,
    // so that no run inherits another's heap or peak memory.
    let workloads: Vec<&str> = match &workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };
    let modes: Vec<bool> = trace.map_or(vec![false, true], |t| vec![t]);
    let mut results = compare::Results::new(seed);
    let mut all_correct = true;
    for _ in 0..repeats {
        for w in &workloads {
            for &traced in &modes {
                let mut run = Command::new(std::env::current_exe()?);
                run.args(["run", "--workload", w, "--trace", if traced { "1" } else { "0" }])
                    .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                    .args(quick.then_some("--quick"))
                    .envs(target.iter().map(|t| ("CARGO_TARGET_DIR", t)))
                    .env("VDSMS_DAEMON", &opts.daemon);
                let output = run.stderr(Stdio::inherit()).output()?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                all_correct &= output.status.success();
                if let Some(metrics) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) {
                    results.add(w, &metrics);
                }
            }
        }
    }
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(format!("results-seed{seed}.json"));
    std::fs::write(&path, results.to_json().to_pretty())?;
    eprintln!("bench: results written to {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_generate(args: &[String]) -> io::Result<ExitCode> {
    let value = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let parsed = (
        value("--kind").and_then(|k| inputs::Kind::parse(k)),
        value("--seed").and_then(|s| s.parse().ok()),
        value("--cache"),
    );
    let (Some(kind), Some(seed), Some(cache)) = parsed else {
        return Ok(usage());
    };
    inputs::generate(std::path::Path::new(cache), kind, seed)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        // Internal: input synthesis runs as a child (see `inputs`).
        Some("generate") => cmd_generate(&args[1..]),
        _ => return usage(),
    };
    done.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::FAILURE
    })
}
