//! Host speed: a fixed reference computation, timed again and again
//! through a run, against which the run's times are normalised.
//!
//! The recording host's CPU speed drifts by tens of percent over minutes,
//! so the same code measures differently from run to run. The reference
//! does not depend on the repository's code: a change to the code under
//! test moves the normalised times, a slower host does not.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The nominal reference time, ms: normalised times read what a run
/// would measure on a host where the reference takes this long (on the
/// recording host its run median ranged from 0.65 to 1.13 ms).
pub const NOMINAL_MS: f64 = 1.0;

/// Words in the reference's working set (256 KiB: past L1, inside L2).
const TABLE: usize = 1 << 15;
/// Steps of one reference computation.
const STEPS: u32 = 200_000;

/// One reference computation: a pseudo-random walk over a table with
/// dependent loads, stores and floating-point work, as refinement does.
/// Returns its time in ms.
pub fn reference_ms() -> f64 {
    let mut table: Vec<u64> = (0..TABLE as u64).collect();
    let t = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut f = 1.0f64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (TABLE - 1);
        let v = table[i].wrapping_add(x);
        table[(v as usize) & (TABLE - 1)] = v;
        f = f.mul_add(0.999_999, (v >> 40) as f64 * 1e-12);
    }
    black_box((x, f, &table));
    t.elapsed().as_secs_f64() * 1e3
}

/// Reference times collected through a run.
#[derive(Debug, Default, Clone)]
pub struct Speed {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Speed {
    /// Times the reference once.
    pub fn sample(&mut self) {
        self.samples.push(reference_ms());
        self.last = Some(Instant::now());
    }

    /// Times the reference if the last sample is `every_ms` old.
    pub fn sample_every(&mut self, every_ms: f64) {
        match self.last {
            Some(t) if t.elapsed().as_secs_f64() * 1e3 < every_ms => {}
            _ => self.sample(),
        }
    }

    /// How much slower the host ran than the recording host's nominal
    /// speed (median reference time ÷ [`NOMINAL_MS`]).
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / NOMINAL_MS
    }

    /// The samples taken.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
