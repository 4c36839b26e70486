//! Figure 5: runtime of the Monte-Carlo approach for increasing sample
//! size.
//!
//! Paper shape: per-query runtime grows superlinearly with the sample
//! count (the exact per-sample-pair generating function dominates),
//! reaching hundreds of seconds at S = 1500 on the authors' testbed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use udb_mc::MonteCarlo;

use crate::harness::{time, Scale, Table};

/// Sample-size sweep relative to the scale's default `mc_samples`.
pub const SAMPLE_FRACTIONS: [f64; 6] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5];

/// Runs the experiment.
pub fn run(scale: &Scale) -> Table {
    let (db, cfg) = scale.synthetic_db();
    let qs = scale.query_set(&db, &cfg);
    let mut table = Table::new(
        "fig5",
        "Runtime of MC for increasing sample size",
        "samples",
        vec!["mc_runtime_sec_per_query".into()],
    );
    let mut prev = None;
    for frac in SAMPLE_FRACTIONS {
        let samples = ((scale.mc_samples as f64 * frac) as usize).max(10);
        // the floor of 10 can map two fractions to one sample count
        if prev.replace(samples) == Some(samples) {
            continue;
        }
        let mc = MonteCarlo {
            samples,
            ..Default::default()
        };
        let mut total = 0.0;
        for (i, (r, b)) in qs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(500 + i as u64);
            let (secs, _) = time(|| mc.domination_count(&db, b, r, &mut rng));
            total += secs;
        }
        table.push(samples as f64, vec![total / qs.len() as f64]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_monotone_trend() {
        let t = run(&Scale::smoke());
        let samples: Vec<f64> = t.rows.iter().map(|r| r.0).collect();
        assert!(
            samples.windows(2).all(|w| w[0] < w[1]),
            "sample column must strictly increase: {samples:?}"
        );
        // runtime at the largest sample size exceeds the smallest
        let first = t.rows.first().unwrap().1[0];
        let last = t.rows.last().unwrap().1[0];
        assert!(last > first, "expected growth: {first} -> {last}");
    }
}
