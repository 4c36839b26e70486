//! Uncertain Generating Functions (§IV-C/D — the paper's novel technique).
//!
//! For independent Bernoulli variables known only through probability
//! bounds `pLB_i ≤ P(X_i = 1) ≤ pUB_i`, the UGF
//!
//! ```text
//! F^N = Π_i ( pLB_i·x  +  (pUB_i − pLB_i)·y  +  (1 − pUB_i) )
//!     = Σ_{i,j} c_{i,j} x^i y^j
//! ```
//!
//! has coefficients with the semantics: *with probability `c_{i,j}` the sum
//! is certainly at least `i` and possibly up to `i + j`*. Hence
//!
//! * `P(Σ = k) ≥ c_{k,0}` (Lemma 4, lower bound),
//! * `P(Σ = k) ≤ Σ_{i ≤ k, i+j ≥ k} c_{i,j}` (Lemma 4, upper bound),
//! * `P(Σ < k) ∈ [ Σ_{i+j < k} c_{i,j}, Σ_{i < k} c_{i,j} ]` — the direct
//!   CDF bounds used by threshold predicates (tighter than differencing
//!   the per-`k` bounds).
//!
//! (The displayed formula in the paper's §IV-C swaps the `y` and constant
//! terms; Example 3's expansion `0.12x² + 0.34x + 0.22xy + …` confirms the
//! §IV-D Equation (1) convention implemented here.)
//!
//! With `truncate_at = Some(k)` the paper's §VI optimization applies: all
//! coefficients with the same `i` and `i + j > k` are merged, and certain
//! counts beyond `k` are absorbed into row `k`, bounding the state to
//! `O(k²)` and the total cost to `O(k²·N)` instead of `O(N³)`.
//!
//! # Flat memory layout
//!
//! This is the IDCA hot path — one UGF product per partition pair, with
//! up to thousands of pairs per refinement snapshot — so the coefficient
//! triangle lives in a **single flat arena** instead of nested rows:
//!
//! ```text
//! buf = [ c_{0,0} … c_{0,L₀−1} | c_{1,0} … c_{1,L₀−2} | … | c_{rows−1,0} … ]
//! ```
//!
//! where `L₀ = min(conv + 1, k + 2)` is the length of row 0, row `i` holds
//! `L₀ − i` entries, and `conv` counts the factors materialized in the
//! triangle. Row offsets follow in closed form
//! (`offset(i) = i·L₀ − i·(i−1)/2`), so no per-row pointers exist at all.
//!
//! [`Ugf::multiply`] convolves `buf` into a same-shaped `scratch` buffer
//! and swaps the two — after the buffers have grown to the final state
//! size (or after a [`Ugf::reset`] reuse), **no allocation happens per
//! factor**. Decided factors take fast paths that skip the convolution
//! entirely:
//!
//! * `[0, 0]` (certain non-domination) multiplies by the constant 1 —
//!   a no-op on the triangle;
//! * `[1, 1]` (certain domination, untruncated) is a pure `x`-shift —
//!   tracked as the O(1) counter `shift` and applied lazily in every
//!   accessor (`c_{i,j}` logically lives at row `i + shift`). Under
//!   truncation the shift must merge mass into the cap row, which the
//!   regular convolution path already does without multiplications.
//!
//! The nested reference implementation lives in
//! [`crate::reference::NestedUgf`]; property tests assert agreement to
//! ≤ 1e-12.

use crate::bounds::CountDistributionBounds;

/// An incrementally built uncertain generating function over a flat
/// coefficient arena.
///
/// ```
/// use udb_genfunc::Ugf;
///
/// // Example 3 of the paper: bounds [0.2, 0.5] and [0.6, 0.8]
/// let mut f = Ugf::new(None);
/// f.multiply(0.2, 0.5);
/// f.multiply(0.6, 0.8);
/// // P(Σ = 2) ∈ [12 %, 40 %]
/// assert!((f.lower_bound(2) - 0.12).abs() < 1e-12);
/// assert!((f.upper_bound(2) - 0.40).abs() < 1e-12);
///
/// // reuse the arena for an unrelated product: no reallocation
/// f.reset(None);
/// f.multiply(0.5, 0.5);
/// assert!((f.upper_bound(1) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Ugf {
    /// Flat triangular coefficient arena (see the module docs).
    buf: Vec<f64>,
    /// Same-shaped double buffer for [`Ugf::multiply`], and scratch space
    /// for the one-pass bound accumulation.
    scratch: Vec<f64>,
    truncate_at: Option<usize>,
    /// Factors multiplied in total (including fast-path factors).
    factors: usize,
    /// Factors materialized in the triangle (excludes fast-path factors).
    conv: usize,
    /// Certain `[1, 1]` factors absorbed as an `x`-shift (untruncated
    /// mode only; under truncation such factors are materialized so their
    /// mass merges into the cap row).
    shift: usize,
}

impl Ugf {
    /// The empty product `F^0 = 1·x⁰y⁰`.
    pub fn new(truncate_at: Option<usize>) -> Self {
        Ugf {
            buf: vec![1.0],
            scratch: Vec::new(),
            truncate_at,
            factors: 0,
            conv: 0,
            shift: 0,
        }
    }

    /// Resets to the empty product `F^0`, keeping both buffers' capacity —
    /// the reuse API that lets one `Ugf` serve every partition pair of a
    /// refinement snapshot without allocating.
    pub fn reset(&mut self, truncate_at: Option<usize>) {
        self.buf.clear();
        self.buf.push(1.0);
        self.truncate_at = truncate_at;
        self.factors = 0;
        self.conv = 0;
        self.shift = 0;
    }

    /// Number of factors multiplied so far.
    pub fn factors(&self) -> usize {
        self.factors
    }

    /// Row count and row-0 length of the triangle for `conv` materialized
    /// factors.
    #[inline]
    fn geometry(&self, conv: usize) -> (usize, usize) {
        match self.truncate_at {
            Some(k) => (conv.min(k) + 1, (conv + 1).min(k.saturating_add(2))),
            None => (conv + 1, conv + 1),
        }
    }

    /// Arena size of a triangle with `rows` rows of lengths `l0, l0-1, …`.
    #[inline]
    fn arena_size(rows: usize, l0: usize) -> usize {
        rows * l0 - rows * (rows - 1) / 2
    }

    /// Start of row `i` in a triangle with row-0 length `l0`.
    #[inline]
    fn offset(i: usize, l0: usize) -> usize {
        i * l0 - i * i.saturating_sub(1) / 2
    }

    /// Multiplies by `(p_lb·x + (p_ub − p_lb)·y + (1 − p_ub))`.
    ///
    /// Zero-allocation once `buf`/`scratch` have grown to the final state
    /// size; decided factors short-circuit (see the module docs).
    ///
    /// # Panics
    /// Panics (debug) unless `0 ≤ p_lb ≤ p_ub ≤ 1`.
    pub fn multiply(&mut self, p_lb: f64, p_ub: f64) {
        debug_assert!(
            (-1e-9..=1.0 + 1e-9).contains(&p_lb)
                && (-1e-9..=1.0 + 1e-9).contains(&p_ub)
                && p_lb <= p_ub + 1e-9,
            "invalid probability bounds [{p_lb}, {p_ub}]"
        );
        let p_lb = p_lb.clamp(0.0, 1.0);
        let p_ub = p_ub.clamp(p_lb, 1.0);
        self.factors += 1;

        // fast path: the factor is the constant 1 — nothing to convolve
        if p_ub == 0.0 {
            return;
        }
        // fast path: a certain factor is a pure x-shift; without
        // truncation that is a counter bump instead of a convolution
        if p_lb == 1.0 && self.truncate_at.is_none() {
            self.shift += 1;
            return;
        }

        let unknown = p_ub - p_lb;
        let zero = 1.0 - p_ub;

        let (old_rows, old_l0) = self.geometry(self.conv);
        self.conv += 1;
        let (new_rows, new_l0) = self.geometry(self.conv);
        self.scratch.clear();
        self.scratch.resize(Self::arena_size(new_rows, new_l0), 0.0);

        // Dense path: while the triangle is still growing (untruncated, or
        // conv ≤ k under truncation) the new geometry is exactly
        // (conv + 1, conv + 1) and no coefficient clamps into a cap row or
        // cap column. Every destination row is then three contiguous
        // streams — `x`-carry from the row above, `1`-stay and `y`-shift
        // from the old row — with no branches, so the inner loops
        // vectorize (see `convolve_row_dense`).
        if new_rows == self.conv + 1 && new_l0 == self.conv + 1 {
            let src = &self.buf[..];
            let dst = &mut self.scratch[..];
            let mut src_base = 0usize;
            let mut dst_base = 0usize;
            for i in 0..old_rows {
                let cur_len = old_l0 - i;
                let cur = &src[src_base..src_base + cur_len];
                // dst row i has cur_len + 1 slots
                let d = &mut dst[dst_base..dst_base + cur_len + 1];
                let prev = (i > 0).then(|| {
                    // src row i − 1, exactly as long as the dst row
                    &src[src_base - (cur_len + 1)..src_base]
                });
                convolve_row_dense(d, cur, prev, p_lb, zero, unknown);
                src_base += cur_len;
                dst_base += cur_len + 1;
            }
            // last dst row: pure x-carry of the last src row
            let last_src = &src[src_base - (old_l0 - old_rows + 1)..src_base];
            let d = &mut dst[dst_base..dst_base + last_src.len()];
            for (d, &p) in d.iter_mut().zip(last_src) {
                *d = p_lb * p;
            }
        } else {
            // Saturated truncated state (conv > k): rows/columns clamp
            // into the caps. The state is only O(k²) here, so the scalar
            // scatter loop stays.
            let next = &mut self.scratch[..];
            let mut add = |i: usize, j: usize, v: f64| {
                if v == 0.0 {
                    return;
                }
                let i = i.min(new_rows - 1);
                let len = new_l0 - i;
                let slot = Self::offset(i, new_l0) + j.min(len - 1);
                next[slot] += v;
            };
            let mut base = 0usize;
            for i in 0..old_rows {
                let len = old_l0 - i;
                for j in 0..len {
                    let c = self.buf[base + j];
                    if c == 0.0 {
                        continue;
                    }
                    add(i + 1, j, c * p_lb);
                    add(i, j + 1, c * unknown);
                    add(i, j, c * zero);
                }
                base += len;
            }
        }
        std::mem::swap(&mut self.buf, &mut self.scratch);
    }

    /// The coefficient `c_{i,j}` (0 outside the stored triangle).
    pub fn coefficient(&self, i: usize, j: usize) -> f64 {
        if i < self.shift {
            return 0.0;
        }
        let i = i - self.shift;
        let (rows, l0) = self.geometry(self.conv);
        if i >= rows || j >= l0 - i {
            return 0.0;
        }
        self.buf[Self::offset(i, l0) + j]
    }

    /// Total coefficient mass (always 1 up to rounding — the three factor
    /// terms partition the probability space).
    pub fn total(&self) -> f64 {
        self.buf.iter().sum()
    }

    /// Lemma 4 lower bound: `P(Σ = k) ≥ c_{k,0}`.
    pub fn lower_bound(&self, k: usize) -> f64 {
        self.coefficient(k, 0)
    }

    /// Lemma 4 upper bound: `P(Σ = k) ≤ Σ_{i ≤ k, i+j ≥ k} c_{i,j}`.
    pub fn upper_bound(&self, k: usize) -> f64 {
        if k < self.shift {
            return 0.0;
        }
        let k = k - self.shift;
        let (rows, l0) = self.geometry(self.conv);
        let mut sum = 0.0;
        for i in 0..rows.min(k.saturating_add(1)) {
            let base = Self::offset(i, l0);
            // j ≥ k − i contributes; smaller j cannot reach k
            for j in (k - i)..(l0 - i) {
                sum += self.buf[base + j];
            }
        }
        sum.min(1.0)
    }

    /// Per-`k` bounds for `k = 0..len` as a [`CountDistributionBounds`].
    ///
    /// With truncation `Some(t)`, `len` must satisfy `len ≤ t` (counts at
    /// and beyond the truncation point have been merged).
    pub fn count_bounds(&self, len: usize) -> CountDistributionBounds {
        if let Some(t) = self.truncate_at {
            assert!(
                len <= t,
                "cannot extract {len} counts from a UGF truncated at {t}"
            );
        }
        let mut bounds = CountDistributionBounds::zero(len);
        self.accumulate_bounds(&mut bounds, 1.0, &mut vec![0.0; len + 1]);
        bounds
    }

    /// Fused, allocation-free form of
    /// `agg.add_weighted(&self.count_bounds(agg.len()), weight)`: both
    /// bound vectors are accumulated in **one pass** over the arena
    /// (`O(state + len)`) instead of re-scanning the triangle per `k`
    /// (`O(state · len)`). This is the per-partition-pair aggregation of
    /// §IV-E on the refinement hot path.
    pub fn add_bounds_weighted(&mut self, agg: &mut CountDistributionBounds, weight: f64) {
        if let Some(t) = self.truncate_at {
            assert!(
                agg.len() <= t,
                "cannot extract {} counts from a UGF truncated at {t}",
                agg.len()
            );
        }
        let len = agg.len();
        // borrow dance: the scratch diff buffer and the arena are disjoint
        // fields, so take scratch out while accumulating
        let mut diff = std::mem::take(&mut self.scratch);
        diff.clear();
        diff.resize(len + 1, 0.0);
        self.accumulate_bounds(agg, weight, &mut diff);
        self.scratch = diff;
    }

    /// Shared one-pass accumulation core. `diff` must hold `len + 1`
    /// zeroed slots; on return it is dirty.
    ///
    /// Every stored coefficient `c_{i,j}` (at logical row `i + shift`)
    /// contributes to `upper_k` for exactly the contiguous range
    /// `k ∈ [i, i + j]`, so the upper bounds build from a difference
    /// array + prefix sum; the lower bounds are the `j = 0` column.
    fn accumulate_bounds(&self, agg: &mut CountDistributionBounds, weight: f64, diff: &mut [f64]) {
        let len = agg.len();
        let (rows, l0) = self.geometry(self.conv);
        let mut base = 0usize;
        for i in 0..rows {
            let row_len = l0 - i;
            let logical_i = i + self.shift;
            if logical_i < len {
                // c_{i,j} covers `upper_k` for k ∈ [logical_i, logical_i+j]:
                // one += of the row total at the range starts, a contiguous
                // vector subtract at the range ends, and the clamped tail
                // (ranges reaching past `len`) lumped into the sentinel.
                let row = &self.buf[base..base + row_len];
                let in_range = row_len.min(len - logical_i);
                let ends = &mut diff[logical_i + 1..logical_i + 1 + in_range];
                let mut head_sum = 0.0;
                for (d, &c) in ends.iter_mut().zip(&row[..in_range]) {
                    *d -= c;
                    head_sum += c;
                }
                let tail_sum: f64 = row[in_range..].iter().sum();
                diff[logical_i] += head_sum + tail_sum;
                diff[len] -= tail_sum;
            }
            base += row_len;
        }
        let (lower, upper) = agg.bounds_mut();
        let mut running = 0.0;
        for k in 0..len {
            running += diff[k];
            upper[k] += weight * running.min(1.0);
        }
        // lower lane: Lemma 4's `P(Σ = k) ≥ c_{k,0}` is the j = 0 column —
        // one strided pass over the row starts instead of a geometry
        // lookup per k
        let mut base = 0usize;
        for i in 0..rows {
            let logical_i = i + self.shift;
            if logical_i >= len {
                break;
            }
            lower[logical_i] += weight * self.buf[base];
            base += l0 - i;
        }
    }

    /// Direct bounds on the CDF `P(Σ < k)`:
    /// `[ Σ_{i+j ≤ k−1} c_{i,j}, Σ_{i ≤ k−1} c_{i,j} ]`.
    ///
    /// Valid for `k ≤ truncate_at` (merged coefficients all satisfy
    /// `i + j > truncate_at` or live in rows `≥ truncate_at`).
    pub fn cdf_bounds(&self, k: usize) -> (f64, f64) {
        if let Some(t) = self.truncate_at {
            assert!(
                k <= t,
                "cannot extract CDF at {k} from a UGF truncated at {t}"
            );
        }
        if k <= self.shift {
            return (0.0, 0.0);
        }
        let k = k - self.shift;
        let (rows, l0) = self.geometry(self.conv);
        let mut lo = 0.0;
        let mut hi = 0.0;
        let mut base = 0usize;
        for i in 0..rows.min(k) {
            let row_len = l0 - i;
            for j in 0..row_len {
                let c = self.buf[base + j];
                hi += c;
                if i + j < k {
                    lo += c;
                }
            }
            base += row_len;
        }
        (lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0))
    }

    /// Current arena length in coefficients (diagnostic; used by state
    /// bound tests and the allocation-count test).
    pub fn state_len(&self) -> usize {
        self.buf.len()
    }
}

/// Lane width of the chunked convolution/accumulation kernels: four f64
/// fit one AVX2 register, and LLVM unrolls the fixed-width chunk body
/// into straight-line SIMD.
const LANES: usize = 4;

/// One dense destination row of the UGF convolution:
///
/// ```text
/// d[0]         = zero·cur[0]                         (+ p_lb·prev[0])
/// d[j]         = zero·cur[j] + unknown·cur[j−1]      (+ p_lb·prev[j])
/// d[cur_len]   =              unknown·cur[cur_len−1] (+ p_lb·prev[cur_len])
/// ```
///
/// `cur` is the same-index source row (the `1`-stay and `y`-shift
/// streams), `prev` the row above (the `x`-carry stream, exactly
/// `cur.len() + 1` long, `None` for row 0). All three streams are
/// contiguous and branch-free, so the chunked interior loop autovectorizes.
#[inline]
fn convolve_row_dense(
    d: &mut [f64],
    cur: &[f64],
    prev: Option<&[f64]>,
    p_lb: f64,
    zero: f64,
    unknown: f64,
) {
    let n = cur.len();
    debug_assert_eq!(d.len(), n + 1);
    match prev {
        Some(prev) => {
            debug_assert_eq!(prev.len(), n + 1);
            d[0] = zero * cur[0] + p_lb * prev[0];
            let (dm, pm, cm, cl) = (&mut d[1..n], &prev[1..n], &cur[1..n], &cur[..n - 1]);
            let mut chunks = dm
                .chunks_exact_mut(LANES)
                .zip(pm.chunks_exact(LANES))
                .zip(cm.chunks_exact(LANES))
                .zip(cl.chunks_exact(LANES));
            for (((d, p), c), l) in chunks.by_ref() {
                for t in 0..LANES {
                    d[t] = p_lb * p[t] + zero * c[t] + unknown * l[t];
                }
            }
            let done = (n - 1) / LANES * LANES;
            for t in done..n - 1 {
                dm[t] = p_lb * pm[t] + zero * cm[t] + unknown * cl[t];
            }
            d[n] = p_lb * prev[n] + unknown * cur[n - 1];
        }
        None => {
            d[0] = zero * cur[0];
            let (dm, cm, cl) = (&mut d[1..n], &cur[1..n], &cur[..n - 1]);
            for t in 0..n - 1 {
                dm[t] = zero * cm[t] + unknown * cl[t];
            }
            d[n] = unknown * cur[n - 1];
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::classic::ClassicGf;
    use crate::poisson::poisson_binomial;
    use crate::reference::NestedUgf;
    use proptest::prelude::*;

    /// Example 3 of the paper: two variables with bounds
    /// `[0.2, 0.5]` and `[0.6, 0.8]`.
    fn example3() -> Ugf {
        let mut f = Ugf::new(None);
        f.multiply(0.2, 0.5);
        f.multiply(0.6, 0.8);
        f
    }

    #[test]
    fn paper_example3_coefficients() {
        let f = example3();
        // F2 = 0.12x² + 0.22xy + 0.34x + 0.06y² + 0.16y + 0.10
        assert!((f.coefficient(2, 0) - 0.12).abs() < 1e-12);
        assert!((f.coefficient(1, 1) - 0.22).abs() < 1e-12);
        assert!((f.coefficient(1, 0) - 0.34).abs() < 1e-12);
        assert!((f.coefficient(0, 2) - 0.06).abs() < 1e-12);
        assert!((f.coefficient(0, 1) - 0.16).abs() < 1e-12);
        assert!((f.coefficient(0, 0) - 0.10).abs() < 1e-12);
        assert!((f.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_example3_bounds() {
        let f = example3();
        // P(Σ = 2) ∈ [12%, 40%]
        assert!((f.lower_bound(2) - 0.12).abs() < 1e-12);
        assert!((f.upper_bound(2) - 0.40).abs() < 1e-12);
        // P(Σ = 1) ∈ [34%, 78%]
        assert!((f.lower_bound(1) - 0.34).abs() < 1e-12);
        assert!((f.upper_bound(1) - 0.78).abs() < 1e-12);
        // P(Σ = 0) ∈ [10%, 32%]
        assert!((f.lower_bound(0) - 0.10).abs() < 1e-12);
        assert!((f.upper_bound(0) - 0.32).abs() < 1e-12);
    }

    #[test]
    fn paper_example3_count_bounds_struct() {
        let b = example3().count_bounds(3);
        for (got, want) in b.lower_slice().iter().zip([0.10, 0.34, 0.12]) {
            assert!((got - want).abs() < 1e-12);
        }
        assert!((b.upper(0) - 0.32).abs() < 1e-12);
        assert!((b.upper(1) - 0.78).abs() < 1e-12);
        assert!((b.upper(2) - 0.40).abs() < 1e-12);
    }

    #[test]
    fn cdf_bounds_direct() {
        let f = example3();
        // P(Σ < 2): lower = c00 + c10 + c01 = 0.60, upper = rows 0..=1 = 0.88
        let (lo, hi) = f.cdf_bounds(2);
        assert!((lo - 0.60).abs() < 1e-12);
        assert!((hi - 0.88).abs() < 1e-12);
        // P(Σ < 0) is empty
        assert_eq!(f.cdf_bounds(0), (0.0, 0.0));
    }

    #[test]
    fn tight_probabilities_reduce_to_classic_gf() {
        let probs = [0.2, 0.1, 0.3];
        let mut ugf = Ugf::new(None);
        let mut gf = ClassicGf::new(None);
        for &p in &probs {
            ugf.multiply(p, p);
            gf.multiply(p);
        }
        for k in 0..=probs.len() {
            assert!((ugf.lower_bound(k) - gf.coefficient(k)).abs() < 1e-12);
            assert!((ugf.upper_bound(k) - gf.coefficient(k)).abs() < 1e-12);
        }
    }

    #[test]
    fn truncation_matches_full_for_small_counts() {
        let pairs = [(0.1, 0.4), (0.3, 0.5), (0.2, 0.9), (0.0, 1.0), (0.6, 0.6)];
        let mut full = Ugf::new(None);
        let mut trunc = Ugf::new(Some(2));
        for &(l, u) in &pairs {
            full.multiply(l, u);
            trunc.multiply(l, u);
        }
        for k in 0..2 {
            assert!(
                (full.lower_bound(k) - trunc.lower_bound(k)).abs() < 1e-12,
                "lower at {k}"
            );
            assert!(
                (full.upper_bound(k) - trunc.upper_bound(k)).abs() < 1e-12,
                "upper at {k}"
            );
        }
        let (flo, fhi) = full.cdf_bounds(2);
        let (tlo, thi) = trunc.cdf_bounds(2);
        assert!((flo - tlo).abs() < 1e-12);
        assert!((fhi - thi).abs() < 1e-12);
        assert!((trunc.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncated_state_is_bounded() {
        let mut f = Ugf::new(Some(3));
        for _ in 0..200 {
            f.multiply(0.2, 0.7);
        }
        // rows 0..=3 of lengths 5, 4, 3, 2 — the arena never exceeds the
        // O(k²) truncated state
        assert!(f.state_len() <= 5 + 4 + 3 + 2, "state {}", f.state_len());
        assert!((f.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "truncated at")]
    fn count_bounds_beyond_truncation_rejected() {
        let mut f = Ugf::new(Some(2));
        f.multiply(0.1, 0.5);
        let _ = f.count_bounds(3);
    }

    #[test]
    fn certain_domination_shifts_counts() {
        let mut f = Ugf::new(None);
        f.multiply(1.0, 1.0);
        f.multiply(1.0, 1.0);
        assert!((f.lower_bound(2) - 1.0).abs() < 1e-12);
        assert!((f.upper_bound(2) - 1.0).abs() < 1e-12);
        assert_eq!(f.lower_bound(0), 0.0);
        assert_eq!(f.upper_bound(1), 0.0);
        // the fast path kept the arena at the empty product
        assert_eq!(f.state_len(), 1);
        assert_eq!(f.factors(), 2);
    }

    #[test]
    fn decided_factors_mix_with_undecided() {
        // shift counter + convolved factors must compose
        let mut f = Ugf::new(None);
        f.multiply(1.0, 1.0);
        f.multiply(0.2, 0.5);
        f.multiply(0.0, 0.0);
        f.multiply(1.0, 1.0);
        let mut reference = NestedUgf::new(None);
        reference.multiply(1.0, 1.0);
        reference.multiply(0.2, 0.5);
        reference.multiply(0.0, 0.0);
        reference.multiply(1.0, 1.0);
        for k in 0..6 {
            assert!(
                (f.lower_bound(k) - reference.lower_bound(k)).abs() < 1e-12,
                "k={k}"
            );
            assert!(
                (f.upper_bound(k) - reference.upper_bound(k)).abs() < 1e-12,
                "k={k}"
            );
            let (flo, fhi) = f.cdf_bounds(k);
            let (rlo, rhi) = reference.cdf_bounds(k);
            assert!(
                (flo - rlo).abs() < 1e-12 && (fhi - rhi).abs() < 1e-12,
                "k={k}"
            );
        }
    }

    #[test]
    fn reset_reuses_capacity_and_clears_state() {
        let mut f = Ugf::new(None);
        for _ in 0..6 {
            f.multiply(0.3, 0.6);
        }
        f.reset(Some(2));
        assert_eq!(f.factors(), 0);
        assert_eq!(f.state_len(), 1);
        assert!((f.total() - 1.0).abs() < 1e-12);
        f.multiply(0.2, 0.5);
        f.multiply(0.6, 0.8);
        // behaves exactly like a fresh truncated UGF
        let mut fresh = Ugf::new(Some(2));
        fresh.multiply(0.2, 0.5);
        fresh.multiply(0.6, 0.8);
        for k in 0..2 {
            assert_eq!(f.lower_bound(k), fresh.lower_bound(k));
            assert_eq!(f.upper_bound(k), fresh.upper_bound(k));
        }
    }

    /// Strategy for factor sequences mixing undecided, decided-one and
    /// decided-zero bounds.
    fn arb_factors() -> impl Strategy<Value = Vec<(f64, f64)>> {
        proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0..5u8), 0..12).prop_map(|raw| {
            raw.into_iter()
                .map(|(a, b, kind)| match kind {
                    0 => (0.0, 0.0),
                    1 => (1.0, 1.0),
                    _ => (a.min(b), a.max(b)),
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn prop_total_mass_one(
            pairs in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 0..12)
        ) {
            let mut f = Ugf::new(None);
            for (a, b) in &pairs {
                f.multiply(a.min(*b), a.max(*b));
            }
            prop_assert!((f.total() - 1.0).abs() < 1e-9);
        }

        /// The flat arena agrees with the nested reference implementation
        /// on every query, untruncated.
        #[test]
        fn prop_flat_matches_nested_reference(pairs in arb_factors()) {
            let mut flat = Ugf::new(None);
            let mut nested = NestedUgf::new(None);
            for &(l, u) in &pairs {
                flat.multiply(l, u);
                nested.multiply(l, u);
            }
            prop_assert!((flat.total() - nested.total()).abs() < 1e-12);
            for k in 0..=pairs.len() + 1 {
                prop_assert!(
                    (flat.lower_bound(k) - nested.lower_bound(k)).abs() < 1e-12,
                    "lower k={k}: {} vs {}", flat.lower_bound(k), nested.lower_bound(k)
                );
                prop_assert!(
                    (flat.upper_bound(k) - nested.upper_bound(k)).abs() < 1e-12,
                    "upper k={k}: {} vs {}", flat.upper_bound(k), nested.upper_bound(k)
                );
                let (flo, fhi) = flat.cdf_bounds(k);
                let (nlo, nhi) = nested.cdf_bounds(k);
                prop_assert!((flo - nlo).abs() < 1e-12, "cdf lo k={k}");
                prop_assert!((fhi - nhi).abs() < 1e-12, "cdf hi k={k}");
            }
            for i in 0..=pairs.len() {
                for j in 0..=pairs.len() {
                    prop_assert!(
                        (flat.coefficient(i, j) - nested.coefficient(i, j)).abs() < 1e-12,
                        "c({i},{j})"
                    );
                }
            }
        }

        /// Same agreement under truncation, including the one-pass
        /// count-bound accumulation against the reference's per-k scans.
        #[test]
        fn prop_flat_matches_nested_reference_truncated(
            pairs in arb_factors(),
            t in 1usize..6,
        ) {
            let mut flat = Ugf::new(Some(t));
            let mut nested = NestedUgf::new(Some(t));
            for &(l, u) in &pairs {
                flat.multiply(l, u);
                nested.multiply(l, u);
            }
            let fb = flat.count_bounds(t);
            let nb = nested.count_bounds(t);
            for k in 0..t {
                prop_assert!((fb.lower(k) - nb.lower(k)).abs() < 1e-12, "lower k={k}");
                prop_assert!((fb.upper(k) - nb.upper(k)).abs() < 1e-12, "upper k={k}");
            }
            let (flo, fhi) = flat.cdf_bounds(t);
            let (nlo, nhi) = nested.cdf_bounds(t);
            prop_assert!((flo - nlo).abs() < 1e-12);
            prop_assert!((fhi - nhi).abs() < 1e-12);
        }

        /// With tight per-variable bounds (`p_lb == p_ub`) the UGF bounds
        /// collapse onto the exact Poisson-binomial PDF.
        #[test]
        fn prop_tight_bounds_equal_poisson_binomial(
            probs in proptest::collection::vec(0.0..1.0f64, 0..10)
        ) {
            let mut f = Ugf::new(None);
            for &p in &probs {
                f.multiply(p, p);
            }
            let exact = poisson_binomial(&probs, None);
            for k in 0..exact.len() {
                prop_assert!(
                    (f.lower_bound(k) - exact[k]).abs() < 1e-12,
                    "lower k={k}: {} vs {}", f.lower_bound(k), exact[k]
                );
                prop_assert!(
                    (f.upper_bound(k) - exact[k]).abs() < 1e-12,
                    "upper k={k}: {} vs {}", f.upper_bound(k), exact[k]
                );
            }
        }

        /// The fused accumulation matches add_weighted over count_bounds.
        #[test]
        fn prop_add_bounds_weighted_matches_two_pass(
            pairs in arb_factors(),
            w in 0.0..1.0f64,
        ) {
            let mut f = Ugf::new(None);
            for &(l, u) in &pairs {
                f.multiply(l, u);
            }
            let len = pairs.len() + 1;
            let mut fused = CountDistributionBounds::zero(len);
            f.add_bounds_weighted(&mut fused, w);
            let mut two_pass = CountDistributionBounds::zero(len);
            two_pass.add_weighted(&f.count_bounds(len), w);
            for k in 0..len {
                prop_assert!((fused.lower(k) - two_pass.lower(k)).abs() < 1e-12);
                prop_assert!((fused.upper(k) - two_pass.upper(k)).abs() < 1e-12);
            }
        }

        /// Soundness: for any instantiation of the true probabilities
        /// inside the per-variable bounds, the exact Poisson-binomial PDF
        /// lies inside the UGF bounds, and the exact CDF inside the CDF
        /// bounds.
        #[test]
        fn prop_ugf_brackets_exact(
            pairs in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..9),
            ts in proptest::collection::vec(0.0..1.0f64, 9),
        ) {
            let mut f = Ugf::new(None);
            let mut probs = Vec::new();
            for ((a, b), t) in pairs.iter().zip(ts.iter()) {
                let (lo, hi) = (a.min(*b), a.max(*b));
                f.multiply(lo, hi);
                probs.push(lo + t * (hi - lo));
            }
            let exact = poisson_binomial(&probs, None);
            for k in 0..exact.len() {
                prop_assert!(exact[k] >= f.lower_bound(k) - 1e-9,
                    "k={k} exact={} lb={}", exact[k], f.lower_bound(k));
                prop_assert!(exact[k] <= f.upper_bound(k) + 1e-9,
                    "k={k} exact={} ub={}", exact[k], f.upper_bound(k));
            }
            for k in 0..=exact.len() {
                let cdf: f64 = exact[..k].iter().sum();
                let (lo, hi) = f.cdf_bounds(k);
                prop_assert!(cdf >= lo - 1e-9);
                prop_assert!(cdf <= hi + 1e-9);
            }
        }

        /// The UGF per-k bounds are never looser than the two-regular-GF
        /// bounds (the technical-report claim the paper summarizes in
        /// §IV-D).
        #[test]
        fn prop_ugf_at_least_as_tight_as_two_gf(
            pairs in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..8)
        ) {
            let p_lb: Vec<f64> = pairs.iter().map(|(a, b)| a.min(*b)).collect();
            let p_ub: Vec<f64> = pairs.iter().map(|(a, b)| a.max(*b)).collect();
            let mut f = Ugf::new(None);
            for (l, u) in p_lb.iter().zip(p_ub.iter()) {
                f.multiply(*l, *u);
            }
            let two = crate::classic::two_gf_bounds(&p_lb, &p_ub);
            let ugf_b = f.count_bounds(p_lb.len() + 1);
            let ugf_unc = ugf_b.uncertainty();
            let two_unc = two.uncertainty();
            prop_assert!(ugf_unc <= two_unc + 1e-9,
                "UGF uncertainty {ugf_unc} vs two-GF {two_unc}");
        }

        /// Long factor streams (rows far wider than one SIMD chunk) agree
        /// with the nested oracle on every bound and CDF query — the
        /// dense chunked kernel's interior, remainder and boundary lanes
        /// all get exercised, including decided factors riding along.
        #[test]
        fn prop_long_streams_match_reference(
            pairs in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0..8u8), 16..40)
        ) {
            let pairs: Vec<(f64, f64)> = pairs
                .into_iter()
                .map(|(a, b, kind)| match kind {
                    0 => (0.0, 0.0),
                    1 => (1.0, 1.0),
                    _ => (a.min(b), a.max(b)),
                })
                .collect();
            let mut flat = Ugf::new(None);
            let mut nested = NestedUgf::new(None);
            for &(l, u) in &pairs {
                flat.multiply(l, u);
                nested.multiply(l, u);
            }
            for k in 0..=pairs.len() {
                prop_assert!((flat.lower_bound(k) - nested.lower_bound(k)).abs() < 1e-12);
                prop_assert!((flat.upper_bound(k) - nested.upper_bound(k)).abs() < 1e-12);
                let (flo, fhi) = flat.cdf_bounds(k);
                let (nlo, nhi) = nested.cdf_bounds(k);
                prop_assert!((flo - nlo).abs() < 1e-12 && (fhi - nhi).abs() < 1e-12);
            }
            let len = pairs.len() + 1;
            let mut fused = CountDistributionBounds::zero(len);
            flat.add_bounds_weighted(&mut fused, 0.5);
            let nb = nested.count_bounds(len);
            for k in 0..len {
                prop_assert!((fused.lower(k) - 0.5 * nb.lower(k)).abs() < 1e-12);
                prop_assert!((fused.upper(k) - 0.5 * nb.upper(k)).abs() < 1e-12);
            }
        }

        /// The dense kernel hands over to the saturated scalar path when
        /// the factor count crosses the truncation point; the transition
        /// must be seamless against the oracle for every (stream, k).
        #[test]
        fn prop_dense_to_saturated_transition_matches_reference(
            pairs in arb_factors(),
            extra in proptest::collection::vec((0.01..0.99f64, 0.01..0.99f64), 4..16),
            t in 1usize..5,
        ) {
            let mut flat = Ugf::new(Some(t));
            let mut nested = NestedUgf::new(Some(t));
            for (l, u) in pairs.iter().copied().chain(
                extra.iter().map(|(a, b)| (a.min(*b), a.max(*b))),
            ) {
                flat.multiply(l, u);
                nested.multiply(l, u);
                // compare mid-stream too: the handover itself must agree
                let (flo, fhi) = flat.cdf_bounds(t);
                let (nlo, nhi) = nested.cdf_bounds(t);
                prop_assert!((flo - nlo).abs() < 1e-12 && (fhi - nhi).abs() < 1e-12);
            }
            let fb = flat.count_bounds(t);
            let nb = nested.count_bounds(t);
            for k in 0..t {
                prop_assert!((fb.lower(k) - nb.lower(k)).abs() < 1e-12);
                prop_assert!((fb.upper(k) - nb.upper(k)).abs() < 1e-12);
            }
        }

        /// The fused accumulation handles the lazy x-shift (certain
        /// factors absorbed as a counter): bounds equal the unshifted
        /// product's bounds shifted right, and match the oracle.
        #[test]
        fn prop_shifted_accumulation_matches_shift_right(
            pairs in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..10),
            shifts in 1usize..4,
        ) {
            let mut shifted = Ugf::new(None);
            let mut plain = Ugf::new(None);
            for _ in 0..shifts {
                shifted.multiply(1.0, 1.0);
            }
            for (a, b) in &pairs {
                shifted.multiply(a.min(*b), a.max(*b));
                plain.multiply(a.min(*b), a.max(*b));
            }
            assert_eq!(plain.state_len(), shifted.state_len(), "shift must stay lazy");
            let len = pairs.len() + shifts + 1;
            let mut via_shift = CountDistributionBounds::zero(len - shifts);
            plain.add_bounds_weighted(&mut via_shift, 1.0);
            via_shift.shift_right(shifts);
            let mut direct = CountDistributionBounds::zero(len);
            shifted.add_bounds_weighted(&mut direct, 1.0);
            for k in 0..len {
                prop_assert!((direct.lower(k) - via_shift.lower(k)).abs() < 1e-12);
                prop_assert!((direct.upper(k) - via_shift.upper(k)).abs() < 1e-12);
            }
        }

        #[test]
        fn prop_truncated_prefix_equivalence(
            pairs in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..10),
            k in 1usize..6,
        ) {
            let mut full = Ugf::new(None);
            let mut trunc = Ugf::new(Some(k));
            for (a, b) in &pairs {
                full.multiply(a.min(*b), a.max(*b));
                trunc.multiply(a.min(*b), a.max(*b));
            }
            for x in 0..k {
                prop_assert!((full.lower_bound(x) - trunc.lower_bound(x)).abs() < 1e-9);
                prop_assert!((full.upper_bound(x) - trunc.upper_bound(x)).abs() < 1e-9);
            }
            let (flo, fhi) = full.cdf_bounds(k);
            let (tlo, thi) = trunc.cdf_bounds(k);
            prop_assert!((flo - tlo).abs() < 1e-9);
            prop_assert!((fhi - thi).abs() < 1e-9);
        }
    }
}
