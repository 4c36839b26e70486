//! Order statistics and the result line.

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let x = (v.len() - 1) as f64 * p / 100.0;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean; `0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How many samples lie strictly above `v`.
pub fn beyond(values: &[f64], v: f64) -> usize {
    values.iter().filter(|&&x| x > v).count()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every reply passed every check.
    pub correct: bool,
    /// Ops sent in the measured phase and the mutation probe.
    pub attempted: u64,
    /// Ops among them answered `ERR` or never answered.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The one-line JSON result. Non-finite values cannot be printed as
    /// JSON numbers, so they print as -1 and make the run incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value + 0.0 // prints -0 as 0
                } else {
                    correct = false;
                    -1.0
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 10.5);
        assert_eq!(beyond(&v, 10.0), 1);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.push("x", f64::NAN, "ms");
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
