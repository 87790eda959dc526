//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the API subset the workspace's benches use — groups,
//! `bench_function` / `bench_with_input`, `BenchmarkId`, `sample_size`,
//! `Throughput`, and the `criterion_group!`/`criterion_main!` macros — on
//! a simple measure-and-report harness: per benchmark it warms up briefly,
//! then takes `sample_size` timed samples of an auto-calibrated batch and
//! reports the median time per iteration (plus throughput when configured).
//! Running with `--test` (as `cargo test` does for `harness = false` bench
//! targets) executes each benchmark once for correctness and skips timing.

#![forbid(unsafe_code)]

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// The harness's one clock read: measuring wall-clock time is its job.
#[expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall-clock time by design"
)]
fn now() -> Instant {
    Instant::now()
}

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifier of one benchmark within a group: a function name plus an
/// optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId { name: format!("{}/{}", name.into(), parameter) }
    }

    /// A parameter-only id (upstream: `from_parameter`).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId { name: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { name: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { name: s }
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration.
    Bytes(u64),
    /// Elements per iteration.
    Elements(u64),
}

/// How many setup outputs one timed run may hold at once. Inputs are
/// made before the clock starts and outputs dropped after it stops, so a
/// run keeps all of them alive together: the variants cap the run length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input: as many per run as calibration asks.
    SmallInput,
    /// Large per-iteration input: at most 16 per run.
    LargeInput,
    /// One input per run.
    PerIteration,
}

impl BatchSize {
    fn max_batch(self) -> u64 {
        match self {
            BatchSize::SmallInput => 1 << 24,
            BatchSize::LargeInput => 16,
            BatchSize::PerIteration => 1,
        }
    }
}

/// The timing loop handed to benchmark closures.
pub struct Bencher<'a> {
    mode: Mode,
    /// Filled by `iter`: (total time, iterations).
    result: &'a mut Option<(Duration, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Calibrate + sample.
    Measure { sample_size: usize },
    /// Run the routine once (used under `cargo test`).
    Check,
}

impl Bencher<'_> {
    /// Time `routine`, storing the median sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        match self.mode {
            Mode::Check => {
                std_black_box(routine());
                *self.result = Some((Duration::ZERO, 1));
            }
            Mode::Measure { sample_size } => {
                // Calibrate a batch size aiming at ~2ms per sample.
                let mut batch = 1u64;
                loop {
                    let t = now();
                    for _ in 0..batch {
                        std_black_box(routine());
                    }
                    let elapsed = t.elapsed();
                    if elapsed >= Duration::from_millis(2) || batch >= 1 << 24 {
                        break;
                    }
                    batch = (batch * 2).max(1);
                }
                let mut samples: Vec<Duration> = (0..sample_size.max(3))
                    .map(|_| {
                        let t = now();
                        for _ in 0..batch {
                            std_black_box(routine());
                        }
                        t.elapsed()
                    })
                    .collect();
                samples.sort_unstable();
                let median = samples[samples.len() / 2];
                *self.result = Some((median, batch));
            }
        }
    }

    /// Time `routine` over inputs produced by `setup`; only the routine is
    /// timed — setup runs before the clock and the routine's outputs are
    /// dropped after it, as upstream does.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        match self.mode {
            Mode::Check => {
                std_black_box(routine(setup()));
                *self.result = Some((Duration::ZERO, 1));
            }
            Mode::Measure { sample_size } => {
                // Calibrate as in `iter`, but time only the routine.
                let mut batch = 1u64;
                let timed = |batch: u64, setup: &mut S, routine: &mut R| {
                    let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
                    let mut outputs = Vec::with_capacity(inputs.len());
                    let t = now();
                    for input in inputs {
                        outputs.push(routine(input));
                    }
                    let elapsed = t.elapsed();
                    drop(std_black_box(outputs));
                    elapsed
                };
                loop {
                    let elapsed = timed(batch, &mut setup, &mut routine);
                    if elapsed >= Duration::from_millis(2) || batch >= size.max_batch() {
                        break;
                    }
                    batch = (batch * 2).max(1);
                }
                let mut samples: Vec<Duration> = (0..sample_size.max(3))
                    .map(|_| timed(batch, &mut setup, &mut routine))
                    .collect();
                samples.sort_unstable();
                let median = samples[samples.len() / 2];
                *self.result = Some((median, batch));
            }
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Samples per benchmark (upstream default 100; this harness defaults
    /// lower because each sample is a calibrated batch).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Configure derived throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.name);
        self.criterion.run_one(&full, self.sample_size, self.throughput, |b| f(b));
        self
    }

    /// Benchmark a closure parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.name);
        self.criterion.run_one(&full, self.sample_size, self.throughput, |b| f(b, input));
        self
    }

    /// End the group (formatting no-op).
    pub fn finish(&mut self) {}
}

/// The harness entry point handed to benchmark functions.
pub struct Criterion {
    check_only: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // `cargo test` runs harness=false bench binaries with `--test`;
        // plain positional args act as name filters like upstream.
        let mut check_only = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => check_only = true,
                "--bench" => {}
                a if a.starts_with("--") => {}
                a => filter = Some(a.to_string()),
            }
        }
        Criterion { check_only, filter }
    }
}

impl Criterion {
    /// Open a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            sample_size: 10,
            throughput: None,
        }
    }

    /// Benchmark a closure outside any group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(name, 10, None, |b| f(b));
        self
    }

    fn run_one<F>(
        &mut self,
        name: &str,
        sample_size: usize,
        throughput: Option<Throughput>,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mode = if self.check_only {
            Mode::Check
        } else {
            Mode::Measure { sample_size }
        };
        let mut result = None;
        f(&mut Bencher { mode, result: &mut result });
        let Some((total, iters)) = result else {
            println!("{name:<52} (no measurement: iter was not called)");
            return;
        };
        if self.check_only {
            println!("{name:<52} ok (check mode)");
            return;
        }
        let per_iter = total.as_nanos() as f64 / iters as f64;
        let rate = match throughput {
            Some(Throughput::Bytes(n)) => {
                format!("  {:>10.1} MiB/s", n as f64 / per_iter * 1e9 / (1024.0 * 1024.0))
            }
            Some(Throughput::Elements(n)) => {
                format!("  {:>10.0} elem/s", n as f64 / per_iter * 1e9)
            }
            None => String::new(),
        };
        println!("{name:<52} {:>12}/iter{rate}", format_ns(per_iter));
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Collect benchmark functions into a group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_mode_runs_once_and_measure_reports() {
        let mut c = Criterion { check_only: true, filter: None };
        let mut runs = 0u32;
        {
            let mut g = c.benchmark_group("g");
            g.bench_function("one", |b| b.iter(|| runs += 1));
            g.finish();
        }
        assert_eq!(runs, 1);

        let mut c = Criterion { check_only: false, filter: None };
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::new("param", 7), &7u32, |b, &x| {
            b.iter(|| black_box(x) * 2)
        });
        g.finish();
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion { check_only: true, filter: Some("nomatch".into()) };
        let mut runs = 0u32;
        c.bench_function("something", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 0);
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(2_500.0), "2.50 µs");
        assert_eq!(format_ns(3_000_000.0), "3.00 ms");
    }
}
