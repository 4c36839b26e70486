//! Bounded probability distributions over counts.

/// Lower/upper bounds on `P(count = k)` for `k = 0..len` — the
/// `(DomCountLB, DomCountUB)` lists returned by Algorithm 1 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct CountDistributionBounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl CountDistributionBounds {
    /// The vacuous bounds `[0, 1]` for every count in `0..len`.
    pub fn unknown(len: usize) -> Self {
        CountDistributionBounds {
            lower: vec![0.0; len],
            upper: vec![1.0; len],
        }
    }

    /// All-zero bounds of the given length (the neutral element of
    /// [`CountDistributionBounds::add_weighted`]).
    pub fn zero(len: usize) -> Self {
        CountDistributionBounds {
            lower: vec![0.0; len],
            upper: vec![0.0; len],
        }
    }

    /// Builds from explicit per-`k` bounds.
    ///
    /// # Panics
    /// Panics if lengths differ or any pair violates
    /// `0 ≤ lower ≤ upper ≤ 1`.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bound vectors must align");
        for (k, (l, u)) in lower.iter().zip(upper.iter()).enumerate() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(l)
                    && (0.0..=1.0 + 1e-9).contains(u)
                    && l <= &(u + 1e-9),
                "invalid bounds at k={k}: [{l}, {u}]"
            );
        }
        CountDistributionBounds { lower, upper }
    }

    /// Number of counts covered (`k = 0..len`).
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// Lower bound of `P(count = k)` (0 beyond the stored range).
    pub fn lower(&self, k: usize) -> f64 {
        self.lower.get(k).copied().unwrap_or(0.0)
    }

    /// Upper bound of `P(count = k)` (0 beyond the stored range).
    pub fn upper(&self, k: usize) -> f64 {
        self.upper.get(k).copied().unwrap_or(0.0)
    }

    /// The full lower-bound vector.
    pub fn lower_slice(&self) -> &[f64] {
        &self.lower
    }

    /// The full upper-bound vector.
    pub fn upper_slice(&self) -> &[f64] {
        &self.upper
    }

    /// Mutable views of both bound vectors, for fused in-place
    /// accumulation (see [`crate::Ugf::add_bounds_weighted`]).
    pub fn bounds_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.lower, &mut self.upper)
    }

    /// The paper's *accumulated uncertainty*
    /// `Σ_k (upper_k − lower_k)` — the convergence measure plotted in
    /// Figures 6(b) and 7.
    pub fn uncertainty(&self) -> f64 {
        self.lower
            .iter()
            .zip(self.upper.iter())
            .map(|(l, u)| (u - l).max(0.0))
            .sum()
    }

    /// Bounds on the CDF `P(count < k)`.
    ///
    /// The lower bound is the larger of `Σ_{i<k} lower_i` and
    /// `1 − Σ_{i≥k} upper_i`; the upper bound is the smaller of
    /// `Σ_{i<k} upper_i` and `1 − Σ_{i≥k} lower_i`. Both complements are
    /// valid because the true per-`k` probabilities sum to one.
    pub fn cdf_bounds(&self, k: usize) -> (f64, f64) {
        let k = k.min(self.len());
        let low_head: f64 = self.lower[..k].iter().sum();
        let up_head: f64 = self.upper[..k].iter().sum();
        let low_tail: f64 = self.lower[k..].iter().sum();
        let up_tail: f64 = self.upper[k..].iter().sum();
        let lo = low_head.max(1.0 - up_tail).clamp(0.0, 1.0);
        let hi = up_head.min(1.0 - low_tail).clamp(0.0, 1.0);
        (lo, hi.max(lo))
    }

    /// Bounds on the expectation `E[count + 1]` — the *expected rank* of
    /// Corollary 6 (rank = domination count + 1).
    pub fn expected_rank_bounds(&self) -> (f64, f64) {
        // distribute the undecided mass adversarially: all of it on the
        // smallest k for the lower bound, on the largest k for the upper
        let total_lower: f64 = self.lower.iter().sum();
        let slack = (1.0 - total_lower).max(0.0);
        let base: f64 = self
            .lower
            .iter()
            .enumerate()
            .map(|(k, l)| l * (k + 1) as f64)
            .sum();
        let lo = base + slack * 1.0;
        let hi = base + slack * self.len() as f64;
        (lo, hi)
    }

    /// Shifts the distribution right by `c` counts (the
    /// `ShiftRight(DomCount, CompleteDominationCount)` of Algorithm 1:
    /// objects that *certainly* dominate add a constant to the count).
    /// The vector grows by `c`.
    pub fn shift_right(&mut self, c: usize) {
        if c == 0 {
            return;
        }
        let mut lower = vec![0.0; c];
        lower.extend_from_slice(&self.lower);
        let mut upper = vec![0.0; c];
        upper.extend_from_slice(&self.upper);
        self.lower = lower;
        self.upper = upper;
    }

    /// Accumulates `weight × other` (the per-partition-pair aggregation of
    /// §IV-E: `DomCount_k(B,R) = Σ_{B',R'} DomCount_k(B',R') · P(B')P(R')`).
    ///
    /// # Panics
    /// Panics if `other` is longer than `self`.
    pub fn add_weighted(&mut self, other: &CountDistributionBounds, weight: f64) {
        assert!(
            other.len() <= self.len(),
            "cannot accumulate longer bounds ({} > {})",
            other.len(),
            self.len()
        );
        for k in 0..other.len() {
            self.lower[k] += weight * other.lower[k];
            self.upper[k] += weight * other.upper[k];
        }
    }

    /// Clamps all bounds into `[0, 1]` and enforces `lower ≤ upper`
    /// (floating-point hygiene after long accumulations).
    pub fn normalize(&mut self) {
        for (l, u) in self.lower.iter_mut().zip(self.upper.iter_mut()) {
            *l = l.clamp(0.0, 1.0);
            *u = u.clamp(0.0, 1.0);
            if *u < *l {
                let m = 0.5 * (*l + *u);
                *l = m;
                *u = m;
            }
        }
    }

    /// Truncates to the first `k` counts (used when only
    /// `P(count < k)` matters, cf. §VI).
    pub fn truncate(&mut self, k: usize) {
        self.lower.truncate(k);
        self.upper.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CountDistributionBounds {
        // Example 3 / Figure 4 of the paper
        CountDistributionBounds::new(vec![0.10, 0.34, 0.12], vec![0.32, 0.78, 0.40])
    }

    #[test]
    fn accessors() {
        let b = example();
        assert_eq!(b.len(), 3);
        assert_eq!(b.lower(1), 0.34);
        assert_eq!(b.upper(2), 0.40);
        assert_eq!(b.lower(99), 0.0);
    }

    #[test]
    fn uncertainty_sums_widths() {
        let b = example();
        let expect = (0.32 - 0.10) + (0.78 - 0.34) + (0.40 - 0.12);
        assert!((b.uncertainty() - expect).abs() < 1e-12);
        assert_eq!(CountDistributionBounds::unknown(4).uncertainty(), 4.0);
    }

    #[test]
    fn cdf_bounds_use_complement() {
        let b = example();
        // P(count < 2) >= max(0.10 + 0.34, 1 - 0.40) = 0.60
        let (lo, hi) = b.cdf_bounds(2);
        assert!((lo - 0.60).abs() < 1e-12, "lo={lo}");
        // P(count < 2) <= min(0.32 + 0.78, 1 - 0.12) = 0.88
        assert!((hi - 0.88).abs() < 1e-12, "hi={hi}");
    }

    #[test]
    fn cdf_bounds_full_range_is_one() {
        let b = example();
        let (lo, hi) = b.cdf_bounds(3);
        // total mass is exactly 1 for a real distribution; bounds must
        // allow it
        assert!(lo <= 1.0 && hi >= lo);
        assert!((hi - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_bounds_zero() {
        let b = example();
        assert_eq!(b.cdf_bounds(0), (0.0, 0.0));
    }

    #[test]
    fn shift_right_prepends_zeros() {
        let mut b = example();
        b.shift_right(2);
        assert_eq!(b.len(), 5);
        assert_eq!(b.lower(0), 0.0);
        assert_eq!(b.lower(2), 0.10);
        assert_eq!(b.upper(4), 0.40);
    }

    #[test]
    fn add_weighted_accumulates() {
        let mut acc = CountDistributionBounds::zero(3);
        acc.add_weighted(&example(), 0.5);
        acc.add_weighted(&example(), 0.5);
        let b = example();
        for k in 0..3 {
            assert!((acc.lower(k) - b.lower(k)).abs() < 1e-12);
            assert!((acc.upper(k) - b.upper(k)).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_fixes_rounding() {
        let mut b = CountDistributionBounds {
            lower: vec![1.0 + 1e-12, 0.5],
            upper: vec![1.0, 0.5 - 1e-13],
        };
        b.normalize();
        assert!(b.lower(0) <= b.upper(0));
        assert!(b.lower(1) <= b.upper(1));
        assert!(b.upper(0) <= 1.0);
    }

    #[test]
    fn expected_rank_bounds_bracket() {
        // fully decided distribution: count = 1 surely -> rank 2
        let b = CountDistributionBounds::new(vec![0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0]);
        let (lo, hi) = b.expected_rank_bounds();
        assert!((lo - 2.0).abs() < 1e-12);
        assert!((hi - 2.0).abs() < 1e-12);
        // fully unknown: rank anywhere in [1, len]
        let u = CountDistributionBounds::new(vec![0.0; 3], vec![1.0; 3]);
        let (lo, hi) = u.expected_rank_bounds();
        assert!((lo - 1.0).abs() < 1e-12);
        assert!((hi - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn rejects_lower_above_upper() {
        let _ = CountDistributionBounds::new(vec![0.8], vec![0.2]);
    }

    #[test]
    fn truncate_drops_tail() {
        let mut b = example();
        b.truncate(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.lower(0), 0.10);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary valid bound vectors whose exact distribution exists:
        /// generate a true PDF plus per-k slack.
        fn arb_bounds() -> impl Strategy<Value = (CountDistributionBounds, Vec<f64>)> {
            proptest::collection::vec((0.01..1.0f64, 0.0..0.5f64, 0.0..0.5f64), 1..8).prop_map(
                |raw| {
                    let total: f64 = raw.iter().map(|(p, _, _)| p).sum();
                    let pdf: Vec<f64> = raw.iter().map(|(p, _, _)| p / total).collect();
                    let lower: Vec<f64> = pdf
                        .iter()
                        .zip(raw.iter())
                        .map(|(p, (_, dl, _))| (p * (1.0 - dl)).max(0.0))
                        .collect();
                    let upper: Vec<f64> = pdf
                        .iter()
                        .zip(raw.iter())
                        .map(|(p, (_, _, du))| (p + du * (1.0 - p)).min(1.0))
                        .collect();
                    (CountDistributionBounds::new(lower, upper), pdf)
                },
            )
        }

        proptest! {
            /// The CDF bounds bracket the true CDF of the generating PDF
            /// and are monotone in k.
            #[test]
            fn prop_cdf_bounds_bracket_truth((b, pdf) in arb_bounds()) {
                let mut prev = (0.0f64, 0.0f64);
                for k in 0..=b.len() {
                    let truth: f64 = pdf[..k].iter().sum();
                    let (lo, hi) = b.cdf_bounds(k);
                    prop_assert!(lo <= truth + 1e-9, "k={k}: lo {lo} truth {truth}");
                    prop_assert!(hi >= truth - 1e-9, "k={k}: hi {hi} truth {truth}");
                    prop_assert!(lo >= prev.0 - 1e-9, "lower CDF must be monotone");
                    prop_assert!(hi >= prev.1 - 1e-9, "upper CDF must be monotone");
                    prev = (lo, hi);
                }
            }

            /// Shifting preserves per-k widths (hence total uncertainty).
            #[test]
            fn prop_shift_preserves_uncertainty((b, _) in arb_bounds(), c in 0usize..5) {
                let mut shifted = b.clone();
                shifted.shift_right(c);
                prop_assert!((shifted.uncertainty() - b.uncertainty()).abs() < 1e-12);
                prop_assert_eq!(shifted.len(), b.len() + c);
                for k in 0..b.len() {
                    prop_assert_eq!(shifted.lower(k + c), b.lower(k));
                    prop_assert_eq!(shifted.upper(k + c), b.upper(k));
                }
            }

            /// Weighted accumulation is linear: accumulating the same
            /// bounds with weights summing to one reproduces them.
            #[test]
            fn prop_add_weighted_convexity((b, _) in arb_bounds(), w in 0.1..0.9f64) {
                let mut acc = CountDistributionBounds::zero(b.len());
                acc.add_weighted(&b, w);
                acc.add_weighted(&b, 1.0 - w);
                for k in 0..b.len() {
                    prop_assert!((acc.lower(k) - b.lower(k)).abs() < 1e-12);
                    prop_assert!((acc.upper(k) - b.upper(k)).abs() < 1e-12);
                }
            }

            /// Expected-rank bounds bracket the true expectation.
            #[test]
            fn prop_expected_rank_brackets_truth((b, pdf) in arb_bounds()) {
                let truth: f64 = pdf
                    .iter()
                    .enumerate()
                    .map(|(k, p)| p * (k + 1) as f64)
                    .sum();
                let (lo, hi) = b.expected_rank_bounds();
                prop_assert!(lo <= truth + 1e-9, "lo {lo} truth {truth}");
                prop_assert!(hi >= truth - 1e-9, "hi {hi} truth {truth}");
            }
        }
    }
}
