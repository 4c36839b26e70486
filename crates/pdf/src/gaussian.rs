//! Truncated axis-independent Gaussian density.
//!
//! The paper's iceberg workload attaches Gaussian positional noise to each
//! sighting and — following the convention the paper cites from related
//! work — truncates the tails to a bounded uncertainty region and
//! renormalizes. Dimensions are independent here; correlated Gaussians are
//! represented through [`crate::HistogramPdf::from_correlated_gaussian`].

use rand::Rng;
use serde::{Deserialize, Serialize};
use udb_geometry::codec::{self, Reader};
use udb_geometry::{Point, Rect};

use crate::math::{inverse_normal_cdf, normal_cdf, normal_pdf, sample_standard_normal};

/// A Gaussian with diagonal covariance, truncated to a rectangular support
/// and renormalized.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "GaussianRaw")]
pub struct GaussianPdf {
    mean: Point,
    std: Box<[f64]>,
    support: Rect,
    /// Per-dimension normalization `Φ(β_i) − Φ(α_i)` over the support.
    dim_mass: Box<[f64]>,
}

/// The serialized form of a [`GaussianPdf`]: the normalization is
/// recomputed by [`GaussianPdf::try_new`].
#[derive(Deserialize)]
struct GaussianRaw {
    mean: Point,
    std: Vec<f64>,
    support: Rect,
}

impl TryFrom<GaussianRaw> for GaussianPdf {
    type Error = String;

    fn try_from(raw: GaussianRaw) -> Result<Self, String> {
        GaussianPdf::try_new(raw.mean, raw.std, raw.support)
    }
}

impl GaussianPdf {
    /// Creates a truncated Gaussian.
    ///
    /// # Panics
    /// Panics on dimension mismatches, non-positive or non-finite standard
    /// deviations or a support that carries (numerically) no Gaussian mass.
    pub fn new(mean: Point, std: Vec<f64>, support: Rect) -> Self {
        GaussianPdf::try_new(mean, std, support).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`GaussianPdf::new`], naming the violated invariant instead of
    /// panicking. Deserialization goes through here, so the normalization
    /// is always computed, never read.
    ///
    /// # Errors
    /// On the conditions under which [`GaussianPdf::new`] panics.
    pub fn try_new(mean: Point, std: Vec<f64>, support: Rect) -> Result<Self, String> {
        if mean.dims() != std.len() {
            return Err("mean/std dimensionality mismatch".to_owned());
        }
        if mean.dims() != support.dims() {
            return Err("mean/support dimensionality mismatch".to_owned());
        }
        if !std.iter().all(|&s| s > 0.0 && s.is_finite()) {
            return Err("standard deviations must be positive and finite".to_owned());
        }
        let dim_mass: Vec<f64> = (0..mean.dims())
            .map(|i| {
                let iv = support.dim(i);
                let a = (iv.lo() - mean[i]) / std[i];
                let b = (iv.hi() - mean[i]) / std[i];
                normal_cdf(b) - normal_cdf(a)
            })
            .collect();
        if !dim_mass.iter().all(|&m| m > 1e-12) {
            return Err("support carries no Gaussian mass in some dimension".to_owned());
        }
        Ok(GaussianPdf {
            mean,
            std: std.into(),
            support,
            dim_mass: dim_mass.into(),
        })
    }

    /// Convenience constructor: common `sigma` for every dimension.
    pub fn isotropic(mean: Point, sigma: f64, support: Rect) -> Self {
        let d = mean.dims();
        GaussianPdf::new(mean, vec![sigma; d], support)
    }

    /// A Gaussian truncated at `k` standard deviations around the mean.
    pub fn truncated_at_sigmas(mean: Point, std: Vec<f64>, k: f64) -> Self {
        assert!(k > 0.0);
        let half: Vec<f64> = std.iter().map(|s| k * s).collect();
        let support = Rect::centered(&mean, &half);
        GaussianPdf::new(mean, std, support)
    }

    /// The support rectangle.
    pub fn support(&self) -> &Rect {
        &self.support
    }

    /// Per-dimension standard deviations.
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Appends the binary encoding: the untruncated mean, the standard
    /// deviations and the support (the normalization is recomputed on
    /// decoding).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.mean.encode(out);
        codec::put_f64s(out, &self.std);
        self.support.encode(out);
    }

    /// Reads a density written by [`GaussianPdf::encode`], through
    /// [`GaussianPdf::try_new`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let mean = Point::decode(r)?;
        let std = r.f64s()?;
        GaussianPdf::try_new(mean, std, Rect::decode(r)?)
    }

    /// Mass of `[lo, hi]` in dimension `i` under the *truncated* marginal.
    fn dim_mass_between(&self, i: usize, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let a = (lo - self.mean[i]) / self.std[i];
        let b = (hi - self.mean[i]) / self.std[i];
        ((normal_cdf(b) - normal_cdf(a)) / self.dim_mass[i]).clamp(0.0, 1.0)
    }

    /// `P(X ∈ region)`.
    pub fn mass_in(&self, region: &Rect) -> f64 {
        let Some(clip) = self.support.intersection(region) else {
            return 0.0;
        };
        (0..self.mean.dims())
            .map(|i| self.dim_mass_between(i, clip.dim(i).lo(), clip.dim(i).hi()))
            .product()
    }

    /// `P(X ∈ region ∧ X_axis < x)` (boundary is mass-free).
    pub fn mass_below(&self, region: &Rect, axis: usize, x: f64) -> f64 {
        let iv = region.dim(axis);
        if x <= iv.lo() {
            return 0.0;
        }
        let mut dims = region.intervals().to_vec();
        dims[axis] = udb_geometry::Interval::new(iv.lo(), x.min(iv.hi()));
        self.mass_in(&Rect::new(dims))
    }

    /// Rejection-samples the truncated Gaussian (the support typically
    /// covers ≥ 95 % of the mass so a handful of retries suffice); falls
    /// back to per-dimension clamping after a bounded number of attempts to
    /// keep the sampler total.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        const MAX_ATTEMPTS: usize = 256;
        for _ in 0..MAX_ATTEMPTS {
            let coords: Vec<f64> = (0..self.mean.dims())
                .map(|i| self.mean[i] + self.std[i] * sample_standard_normal(rng))
                .collect();
            let p = Point::new(coords);
            if self.support.contains(&p) {
                return p;
            }
        }
        // pathological truncation: clamp into the support
        let coords: Vec<f64> = (0..self.mean.dims())
            .map(|i| {
                let iv = self.support.dim(i);
                (self.mean[i] + self.std[i] * sample_standard_normal(rng)).clamp(iv.lo(), iv.hi())
            })
            .collect();
        Point::new(coords)
    }

    /// Conditional median of `X_axis` given `X ∈ region` — exact for the
    /// truncated Gaussian via the inverse CDF: dimensions are
    /// independent, so the conditional marginal along `axis` is the
    /// Gaussian restricted to the clipped interval `[a, b]` and its
    /// median is `μ + σ·Φ⁻¹((Φ(α) + Φ(β)) / 2)`. This is the O(1) answer
    /// the generic bisection of `Pdf::split_coordinate` converges to in
    /// 60 `mass_below` evaluations ([`inverse_normal_cdf`] deliberately
    /// inverts the same approximated `Φ` the bisection evaluates).
    ///
    /// Returns `None` when the region carries (numerically) no mass or
    /// is degenerate along `axis` after clipping, letting the caller
    /// fall back to its generic handling.
    pub fn split_coordinate(&self, region: &Rect, axis: usize) -> Option<f64> {
        let clip = self.support.intersection(region)?;
        if self.mass_in(region) <= crate::MASS_EPSILON {
            return None;
        }
        let iv = clip.dim(axis);
        if iv.is_degenerate() {
            return None;
        }
        let (m, s) = (self.mean[axis], self.std[axis]);
        let alpha = normal_cdf((iv.lo() - m) / s);
        let beta = normal_cdf((iv.hi() - m) / s);
        if beta - alpha <= crate::MASS_EPSILON {
            return None; // axis marginal numerically flat: bisect instead
        }
        let x = m + s * inverse_normal_cdf(0.5 * (alpha + beta));
        Some(x.clamp(iv.lo(), iv.hi()))
    }

    /// Mean of the *truncated* distribution (per-dimension closed form
    /// `μ + σ·(φ(α) − φ(β)) / (Φ(β) − Φ(α))`).
    pub fn mean(&self) -> Point {
        Point::new(
            (0..self.mean.dims())
                .map(|i| {
                    let iv = self.support.dim(i);
                    let a = (iv.lo() - self.mean[i]) / self.std[i];
                    let b = (iv.hi() - self.mean[i]) / self.std[i];
                    self.mean[i] + self.std[i] * (normal_pdf(a) - normal_pdf(b)) / self.dim_mass[i]
                })
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udb_geometry::Interval;

    fn sym() -> GaussianPdf {
        GaussianPdf::truncated_at_sigmas(Point::from([0.0, 0.0]), vec![1.0, 1.0], 3.0)
    }

    #[test]
    fn support_is_three_sigma_box() {
        let g = sym();
        assert_eq!(g.support().lo(), Point::from([-3.0, -3.0]));
        assert_eq!(g.support().hi(), Point::from([3.0, 3.0]));
    }

    #[test]
    fn full_support_mass_is_one() {
        let g = sym();
        let m = g.mass_in(g.support());
        assert!((m - 1.0).abs() < 1e-9, "m={m}");
    }

    #[test]
    fn symmetric_half_mass() {
        let g = sym();
        let left = Rect::new(vec![Interval::new(-3.0, 0.0), Interval::new(-3.0, 3.0)]);
        assert!((g.mass_in(&left) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn central_box_mass_matches_tables() {
        let g = sym();
        // [-1, 1] of a 3-sigma-truncated standard normal:
        // (Φ(1) − Φ(−1)) / (Φ(3) − Φ(−3)) ≈ 0.6827 / 0.9973 ≈ 0.6845
        let c = Rect::new(vec![Interval::new(-1.0, 1.0), Interval::new(-3.0, 3.0)]);
        assert!((g.mass_in(&c) - 0.6845).abs() < 1e-3);
    }

    #[test]
    fn mass_outside_support_is_zero() {
        let g = sym();
        let out = Rect::new(vec![Interval::new(4.0, 5.0), Interval::new(0.0, 1.0)]);
        assert_eq!(g.mass_in(&out), 0.0);
    }

    #[test]
    fn mass_below_matches_mass_in_of_slab() {
        let g = sym();
        let region = g.support().clone();
        let below = g.mass_below(&region, 0, 0.7);
        let slab = Rect::new(vec![Interval::new(-3.0, 0.7), Interval::new(-3.0, 3.0)]);
        assert!((below - g.mass_in(&slab)).abs() < 1e-12);
    }

    #[test]
    fn samples_in_support_and_centered() {
        let g = sym();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 5_000;
        let mut mean = [0.0f64; 2];
        for _ in 0..n {
            let p = g.sample(&mut rng);
            assert!(g.support().contains(&p));
            mean[0] += p[0];
            mean[1] += p[1];
        }
        assert!((mean[0] / n as f64).abs() < 0.05);
        assert!((mean[1] / n as f64).abs() < 0.05);
    }

    #[test]
    fn truncated_mean_shifts_toward_support() {
        // support cut asymmetrically: [−1σ, 3σ] pulls the mean right
        let g = GaussianPdf::new(
            Point::from([0.0]),
            vec![1.0],
            Rect::new(vec![Interval::new(-1.0, 3.0)]),
        );
        assert!(g.mean()[0] > 0.05);
    }

    #[test]
    fn symmetric_truncation_keeps_mean() {
        let g = sym();
        let m = g.mean();
        assert!(m[0].abs() < 1e-9 && m[1].abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_sigma_rejected() {
        let _ = GaussianPdf::new(
            Point::from([0.0]),
            vec![0.0],
            Rect::new(vec![Interval::new(-1.0, 1.0)]),
        );
    }

    #[test]
    #[should_panic(expected = "no Gaussian mass")]
    fn empty_support_rejected() {
        // support 40 sigmas away from the mean
        let _ = GaussianPdf::new(
            Point::from([0.0]),
            vec![1.0],
            Rect::new(vec![Interval::new(40.0, 41.0)]),
        );
    }

    #[test]
    fn anisotropic_mass_factorizes() {
        let g = GaussianPdf::new(
            Point::from([0.0, 0.0]),
            vec![1.0, 2.0],
            Rect::new(vec![Interval::new(-3.0, 3.0), Interval::new(-6.0, 6.0)]),
        );
        let region = Rect::new(vec![Interval::new(-1.0, 1.0), Interval::new(-6.0, 6.0)]);
        let gx = GaussianPdf::new(
            Point::from([0.0]),
            vec![1.0],
            Rect::new(vec![Interval::new(-3.0, 3.0)]),
        );
        let rx = Rect::new(vec![Interval::new(-1.0, 1.0)]);
        assert!((g.mass_in(&region) - gx.mass_in(&rx)).abs() < 1e-12);
    }
}
