//! Offline stand-in for the subset of [`criterion`](https://bheisler.github.io/criterion.rs)
//! this workspace uses. It performs real (if simpler) measurements:
//! per benchmark it warms up, runs `sample_size` timed samples (each
//! batching enough iterations to dominate timer overhead) and reports the
//! median/min/max nanoseconds per iteration on stdout.
//!
//! Environment knobs:
//!
//! * `UDB_BENCH_JSON=<path>` — append one JSON object per benchmark
//!   (NDJSON) with the measured statistics;
//! * `UDB_BENCH_FAST=1` — shrink warm-up and sample targets for CI smoke
//!   runs.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// `group/id` path.
    pub name: String,
    /// Median over samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

/// The benchmark driver (subset of `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
    fast: bool,
    json_path: Option<String>,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench` passes `--bench`; a positional arg acts as a
        // substring filter like real criterion.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            sample_size: 30,
            fast: std::env::var("UDB_BENCH_FAST").is_ok_and(|v| v != "0"),
            json_path: std::env::var("UDB_BENCH_JSON")
                .ok()
                .filter(|p| !p.is_empty()),
            filter,
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let sample_size = self.sample_size;
        self.run_one(id.to_string(), sample_size, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: String, sample_size: usize, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let stats = measure(&name, sample_size, self.fast, &mut f);
        println!(
            "bench {:<48} median {:>12.1} ns/iter  (min {:.1}, max {:.1}, {} samples x {} iters)",
            stats.name,
            stats.median_ns,
            stats.min_ns,
            stats.max_ns,
            stats.samples,
            stats.iters_per_sample
        );
        if let Some(path) = &self.json_path {
            let line = format!(
                "{{\"bench\":\"{}\",\"median_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}\n",
                stats.name,
                stats.median_ns,
                stats.min_ns,
                stats.max_ns,
                stats.samples,
                stats.iters_per_sample
            );
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = file.write_all(line.as_bytes());
            }
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into().0);
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        self.criterion.run_one(name, samples, f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: Into<BenchmarkId>, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// A benchmark identifier (subset of `criterion::BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function_name}/{parameter}"))
    }

    /// Just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// How [`Bencher::iter_batched`] groups its inputs (the subset of
/// `criterion::BatchSize` this workspace uses). The stand-in runs one
/// untimed setup per timed routine call, which is exact for the
/// millisecond-scale routines batched here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs too large to hold many of at once.
    LargeInput,
}

/// Passed to the benchmark closure; [`Bencher::iter`] times the payload.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back executions of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `iters` executions of `routine`, each on a fresh input
    /// from `setup`. Only `routine` is timed: building the input and
    /// dropping the output happen outside the measurement, as in real
    /// criterion.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            elapsed += start.elapsed();
            drop(output);
        }
        self.elapsed = elapsed;
    }
}

fn measure<F: FnMut(&mut Bencher)>(
    name: &str,
    sample_size: usize,
    fast: bool,
    f: &mut F,
) -> BenchStats {
    // calibration: one iteration, to size the batches
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let single_ns = bencher.elapsed.as_nanos().max(1) as f64;

    // batch enough iterations that each sample runs >= `target_sample_ns`
    let target_sample_ns = if fast { 200_000.0 } else { 2_000_000.0 };
    let iters_per_sample = ((target_sample_ns / single_ns).ceil() as u64).clamp(1, 1_000_000);
    let samples = if fast {
        sample_size.clamp(3, 10)
    } else {
        sample_size.max(3)
    };

    // warm-up
    bencher.iters = iters_per_sample;
    f(&mut bencher);

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        bencher.iters = iters_per_sample;
        bencher.elapsed = Duration::ZERO;
        f(&mut bencher);
        per_iter.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    BenchStats {
        name: name.to_string(),
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        max_ns: *per_iter.last().unwrap(),
        samples,
        iters_per_sample,
    }
}

/// Collects benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
