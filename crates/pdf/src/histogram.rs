//! Piecewise-constant grid densities.
//!
//! The paper's uncertainty model explicitly allows *mutually dependent*
//! attributes: "the object PDF can have any arbitrary form, and in general,
//! cannot simply be derived from the marginal distribution of the uncertain
//! attributes". A histogram over a regular grid represents any such
//! correlated density up to the grid resolution and keeps the mass /
//! median primitives exact with respect to the represented model.

use rand::Rng;
use serde::{Deserialize, Serialize};
use udb_geometry::codec::{self, Reader};
use udb_geometry::{Interval, Point, Rect};

use crate::math::{bivariate_normal_pdf, search_cumulative};

/// A normalized piecewise-constant density on a regular grid over a
/// rectangular support.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "HistogramRaw")]
pub struct HistogramPdf {
    support: Rect,
    /// Cells per dimension.
    resolution: Box<[usize]>,
    /// Normalized cell weights in row-major order (last dimension varies
    /// fastest).
    weights: Box<[f64]>,
    /// Cumulative weights for sampling.
    cumulative: Box<[f64]>,
}

/// The serialized form of a [`HistogramPdf`]: the running sums are
/// recomputed by [`HistogramPdf::try_new`].
#[derive(Deserialize)]
struct HistogramRaw {
    support: Rect,
    resolution: Vec<usize>,
    weights: Vec<f64>,
}

impl TryFrom<HistogramRaw> for HistogramPdf {
    type Error = String;

    fn try_from(raw: HistogramRaw) -> Result<Self, String> {
        HistogramPdf::try_new(raw.support, raw.resolution, raw.weights)
    }
}

impl HistogramPdf {
    /// Builds a histogram from raw (non-negative) cell weights, normalizing
    /// them to sum to one.
    ///
    /// # Panics
    /// Panics if the weight count does not match the grid, if any weight is
    /// negative / non-finite, or if all weights are zero.
    pub fn new(support: Rect, resolution: Vec<usize>, weights: Vec<f64>) -> Self {
        HistogramPdf::try_new(support, resolution, weights).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`HistogramPdf::new`], naming the violated invariant instead of
    /// panicking. Deserialization goes through here, so the running sums
    /// are always derived, never read.
    ///
    /// # Errors
    /// On the conditions under which [`HistogramPdf::new`] panics.
    pub fn try_new(
        support: Rect,
        resolution: Vec<usize>,
        weights: Vec<f64>,
    ) -> Result<Self, String> {
        if support.dims() != resolution.len() {
            return Err("resolution dimensionality mismatch".to_owned());
        }
        if resolution.contains(&0) {
            return Err("resolution must be positive".to_owned());
        }
        let cells = resolution.iter().try_fold(1usize, |n, &r| n.checked_mul(r));
        if cells != Some(weights.len()) {
            return Err("weight count must match the grid".to_owned());
        }
        let (weights, cumulative) = crate::normalize_weights(weights)?;
        Ok(HistogramPdf {
            support,
            resolution: resolution.into(),
            weights: weights.into(),
            cumulative: cumulative.into(),
        })
    }

    /// Rasterizes a density function `f` (up to proportionality) by
    /// midpoint evaluation on a `resolution` grid.
    pub fn from_fn(
        support: Rect,
        resolution: Vec<usize>,
        mut f: impl FnMut(&Point) -> f64,
    ) -> Self {
        let cells: usize = resolution.iter().product();
        let mut weights = Vec::with_capacity(cells);
        let tmp = HistogramGrid::new(&support, &resolution);
        for c in 0..cells {
            let mid = tmp.cell_rect(c).center();
            let w = f(&mid);
            assert!(w.is_finite() && w >= 0.0, "density must be non-negative");
            weights.push(w * tmp.cell_rect(c).volume().max(f64::MIN_POSITIVE));
        }
        HistogramPdf::new(support, resolution, weights)
    }

    /// A correlated bivariate Gaussian (correlation `rho`), truncated to
    /// `support` and rasterized on a `res × res` grid. This is the
    /// workspace's representation of non-axis-aligned (dependent) attribute
    /// uncertainty.
    pub fn from_correlated_gaussian(
        mean: Point,
        std: [f64; 2],
        rho: f64,
        support: Rect,
        res: usize,
    ) -> Self {
        assert_eq!(mean.dims(), 2, "correlated Gaussian helper is 2-D");
        assert_eq!(support.dims(), 2);
        assert!(std[0] > 0.0 && std[1] > 0.0);
        assert!(rho.abs() < 1.0, "correlation must be in (-1, 1)");
        HistogramPdf::from_fn(support.clone(), vec![res, res], |p| {
            let zx = (p[0] - mean[0]) / std[0];
            let zy = (p[1] - mean[1]) / std[1];
            bivariate_normal_pdf(zx, zy, rho)
        })
    }

    /// The support rectangle.
    pub fn support(&self) -> &Rect {
        &self.support
    }

    /// Cells per dimension.
    pub fn resolution(&self) -> &[usize] {
        &self.resolution
    }

    /// Normalized cell weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Appends the binary encoding: the support, the cells per dimension
    /// and the normalized weights (the running sums are recomputed on
    /// decoding).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.support.encode(out);
        codec::put_len(out, self.resolution.len());
        for &r in self.resolution.iter() {
            codec::put_u64(out, r as u64);
        }
        codec::put_f64s(out, &self.weights);
    }

    /// Reads a density written by [`HistogramPdf::encode`], through
    /// [`HistogramPdf::try_new`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let support = Rect::decode(r)?;
        let n = r.len(8)?;
        let resolution = (0..n)
            .map(|_| {
                let cells = r.u64()?;
                usize::try_from(cells).map_err(|_| format!("resolution {cells} out of range"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        HistogramPdf::try_new(support, resolution, r.f64s()?)
    }

    fn grid(&self) -> HistogramGrid<'_> {
        HistogramGrid::new(&self.support, &self.resolution)
    }

    /// `P(X ∈ region)`: accumulates, per cell, `weight × overlapFraction`.
    pub fn mass_in(&self, region: &Rect) -> f64 {
        let Some(clip) = self.support.intersection(region) else {
            return 0.0;
        };
        let grid = self.grid();
        let mut total = 0.0;
        for (c, &w) in self.weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let cell = grid.cell_rect(c);
            if let Some(ov) = cell.intersection(&clip) {
                let cv = cell.volume();
                let frac = if cv > 0.0 {
                    ov.volume() / cv
                } else {
                    // degenerate cell: all-or-nothing on containment
                    1.0
                };
                total += w * frac;
            }
        }
        total
    }

    /// `P(X ∈ region ∧ X_axis < x)`.
    pub fn mass_below(&self, region: &Rect, axis: usize, x: f64) -> f64 {
        let iv = region.dim(axis);
        if x <= iv.lo() {
            return 0.0;
        }
        let mut dims = region.intervals().to_vec();
        dims[axis] = Interval::new(iv.lo(), x.min(iv.hi()));
        self.mass_in(&Rect::new(dims))
    }

    /// Conditional median of `X_axis` given `X ∈ region` — exact for the
    /// piecewise-constant model via a single bin scan: clipped cell
    /// masses accumulate into the grid's slices along `axis`, the slice
    /// where the cumulative mass crosses half the total is located, and
    /// the crossing coordinate is interpolated linearly inside it (the
    /// density is constant per cell, so the conditional mass-below
    /// function is exactly linear across a slice's clipped span — the
    /// interpolation is the exact median, the same value the 60-step
    /// `mass_below` bisection of `Pdf::split_coordinate` converges to).
    ///
    /// Returns `None` when the region carries (numerically) no mass or
    /// is degenerate along `axis` after clipping, letting the caller
    /// fall back to its generic handling.
    pub fn split_coordinate(&self, region: &Rect, axis: usize) -> Option<f64> {
        let clip = self.support.intersection(region)?;
        if clip.dim(axis).is_degenerate() {
            return None;
        }
        let grid = self.grid();
        let res_axis = self.resolution[axis];
        // row-major, last dimension fastest: cells of axis-slice `k` are
        // exactly those with (c / stride) % res_axis == k
        let stride: usize = self.resolution[axis + 1..].iter().product();
        let mut slice_mass = vec![0.0f64; res_axis];
        let mut total = 0.0f64;
        // zero-volume cells (the support is degenerate along some other
        // dimension — per-dimension grid geometry makes this uniform
        // across cells) follow mass_in's all-or-nothing convention: a
        // cell's whole weight appears the moment the probe touches it,
        // so mass-below is a *step* at each slice's span start rather
        // than a linear ramp across it
        let mut stepped = false;
        for (c, &w) in self.weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let cell = grid.cell_rect(c);
            if let Some(ov) = cell.intersection(&clip) {
                let cv = cell.volume();
                let frac = if cv > 0.0 {
                    ov.volume() / cv
                } else {
                    // degenerate cell: all-or-nothing on containment
                    stepped = true;
                    1.0
                };
                slice_mass[(c / stride) % res_axis] += w * frac;
                total += w * frac;
            }
        }
        if total <= crate::MASS_EPSILON {
            return None;
        }
        let target = 0.5 * total;
        let clip_iv = clip.dim(axis);
        let mut cum = 0.0f64;
        let mut last_x = clip_iv.lo();
        for (k, &mass) in slice_mass.iter().enumerate() {
            if mass <= 0.0 {
                continue;
            }
            // the slice's clipped span: where its mass actually lives
            let slice_iv = grid.dim_interval(axis, k);
            let span_lo = slice_iv.lo().max(clip_iv.lo());
            let span_hi = slice_iv.hi().min(clip_iv.hi());
            if cum + mass >= target {
                let span_len = span_hi - span_lo;
                let x = if stepped || span_len <= 0.0 {
                    // step semantics: the whole slice mass lands at the
                    // first coordinate touching it
                    span_lo
                } else {
                    span_lo + (target - cum) / mass * span_len
                };
                return Some(x.clamp(clip_iv.lo(), clip_iv.hi()));
            }
            cum += mass;
            last_x = if stepped { span_lo } else { span_hi };
        }
        // float shortfall: the cumulative never quite reached half the
        // re-summed total; the median is where the last mass appeared
        Some(last_x)
    }

    /// Samples a cell by weight, then uniformly within the cell.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let u: f64 = rng.gen();
        let c = search_cumulative(&self.cumulative, u);
        let cell = self.grid().cell_rect(c);
        Point::new(
            cell.intervals()
                .iter()
                .map(|iv| {
                    if iv.is_degenerate() {
                        iv.lo()
                    } else {
                        rng.gen_range(iv.lo()..=iv.hi())
                    }
                })
                .collect::<Vec<_>>(),
        )
    }

    /// Weighted mean of the cell centers.
    pub fn mean(&self) -> Point {
        let d = self.support.dims();
        let grid = self.grid();
        let mut acc = vec![0.0f64; d];
        for (c, &w) in self.weights.iter().enumerate() {
            let center = grid.cell_rect(c).center();
            for (a, &v) in acc.iter_mut().zip(center.coords()) {
                *a += w * v;
            }
        }
        Point::new(acc)
    }
}

/// Cell-indexing helper shared by construction and queries.
struct HistogramGrid<'a> {
    support: &'a Rect,
    resolution: &'a [usize],
}

impl<'a> HistogramGrid<'a> {
    fn new(support: &'a Rect, resolution: &'a [usize]) -> Self {
        HistogramGrid {
            support,
            resolution,
        }
    }

    /// The interval of grid slice `idx` along dimension `i`.
    fn dim_interval(&self, i: usize, idx: usize) -> Interval {
        let iv = self.support.dim(i);
        let step = iv.len() / self.resolution[i] as f64;
        let lo = iv.lo() + idx as f64 * step;
        let hi = if idx + 1 == self.resolution[i] {
            iv.hi() // avoid floating-point shortfall on the last cell
        } else {
            lo + step
        };
        Interval::new(lo, hi.max(lo))
    }

    /// The rectangle of the cell with flat index `c` (row-major, last
    /// dimension fastest).
    fn cell_rect(&self, mut c: usize) -> Rect {
        let d = self.resolution.len();
        let mut idx = vec![0usize; d];
        for i in (0..d).rev() {
            idx[i] = c % self.resolution[i];
            c /= self.resolution[i];
        }
        Rect::new(
            (0..d)
                .map(|i| self.dim_interval(i, idx[i]))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit_square() -> Rect {
        Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)])
    }

    #[test]
    fn uniform_histogram_behaves_uniform() {
        let h = HistogramPdf::new(unit_square(), vec![4, 4], vec![1.0; 16]);
        assert!((h.mass_in(&unit_square()) - 1.0).abs() < 1e-12);
        let q = Rect::new(vec![Interval::new(0.0, 0.5), Interval::new(0.0, 0.5)]);
        assert!((h.mass_in(&q) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn partial_cell_overlap_is_fractional() {
        let h = HistogramPdf::new(unit_square(), vec![2, 2], vec![1.0; 4]);
        // region covering the left 30% of the box
        let r = Rect::new(vec![Interval::new(0.0, 0.3), Interval::new(0.0, 1.0)]);
        assert!((h.mass_in(&r) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn skewed_weights() {
        // all mass in the top-right cell of a 2x2 grid
        let h = HistogramPdf::new(unit_square(), vec![2, 2], vec![0.0, 0.0, 0.0, 1.0]);
        let tr = Rect::new(vec![Interval::new(0.5, 1.0), Interval::new(0.5, 1.0)]);
        assert!((h.mass_in(&tr) - 1.0).abs() < 1e-12);
        let bl = Rect::new(vec![Interval::new(0.0, 0.5), Interval::new(0.0, 0.5)]);
        assert_eq!(h.mass_in(&bl), 0.0);
        // mean sits at the top-right cell center
        assert_eq!(h.mean(), Point::from([0.75, 0.75]));
    }

    #[test]
    fn row_major_order_last_dim_fastest() {
        // resolution [2, 2]: index 1 must be cell (x=0, y=1)
        let h = HistogramPdf::new(unit_square(), vec![2, 2], vec![0.0, 1.0, 0.0, 0.0]);
        let cell_x0_y1 = Rect::new(vec![Interval::new(0.0, 0.5), Interval::new(0.5, 1.0)]);
        assert!((h.mass_in(&cell_x0_y1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlated_gaussian_concentrates_on_diagonal() {
        let sup = Rect::new(vec![Interval::new(-3.0, 3.0), Interval::new(-3.0, 3.0)]);
        let h = HistogramPdf::from_correlated_gaussian(
            Point::from([0.0, 0.0]),
            [1.0, 1.0],
            0.9,
            sup,
            32,
        );
        let on_diag = Rect::new(vec![Interval::new(0.5, 1.5), Interval::new(0.5, 1.5)]);
        let off_diag = Rect::new(vec![Interval::new(0.5, 1.5), Interval::new(-1.5, -0.5)]);
        assert!(h.mass_in(&on_diag) > 4.0 * h.mass_in(&off_diag));
    }

    #[test]
    fn correlated_gaussian_marginal_unaffected_by_rho_sign() {
        let sup = Rect::new(vec![Interval::new(-3.0, 3.0), Interval::new(-3.0, 3.0)]);
        let slab = Rect::new(vec![Interval::new(-3.0, 0.0), Interval::new(-3.0, 3.0)]);
        let pos = HistogramPdf::from_correlated_gaussian(
            Point::from([0.0, 0.0]),
            [1.0, 1.0],
            0.7,
            sup.clone(),
            32,
        );
        let neg = HistogramPdf::from_correlated_gaussian(
            Point::from([0.0, 0.0]),
            [1.0, 1.0],
            -0.7,
            sup,
            32,
        );
        assert!((pos.mass_in(&slab) - neg.mass_in(&slab)).abs() < 1e-9);
        assert!((pos.mass_in(&slab) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sampling_respects_weights() {
        let h = HistogramPdf::new(unit_square(), vec![2, 1], vec![3.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10_000;
        let left = (0..n).filter(|_| h.sample(&mut rng)[0] < 0.5).count() as f64 / n as f64;
        assert!((left - 0.75).abs() < 0.02, "left fraction {left}");
    }

    #[test]
    fn mass_below_is_consistent() {
        let h = HistogramPdf::new(unit_square(), vec![4, 4], vec![1.0; 16]);
        let below = h.mass_below(&unit_square(), 1, 0.37);
        assert!((below - 0.37).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "weight count")]
    fn wrong_weight_count_rejected() {
        let _ = HistogramPdf::new(unit_square(), vec![2, 2], vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn all_zero_weights_rejected() {
        let _ = HistogramPdf::new(unit_square(), vec![2, 2], vec![0.0; 4]);
    }

    #[test]
    fn from_fn_uniform_density() {
        let h = HistogramPdf::from_fn(unit_square(), vec![8, 8], |_| 1.0);
        let q = Rect::new(vec![Interval::new(0.25, 0.75), Interval::new(0.25, 0.75)]);
        assert!((h.mass_in(&q) - 0.25).abs() < 1e-9);
    }
}
