//! Convex combinations of component densities.
//!
//! Mixtures model multi-modal uncertainty (e.g. an object that is near one
//! of several plausible locations) and close the model family under the
//! existential-uncertainty extension mentioned in §I-A.

use rand::Rng;
use serde::{Deserialize, Serialize};
use udb_geometry::codec::{self, Reader};
use udb_geometry::{Point, Rect};

use crate::math::search_cumulative;
use crate::Pdf;

/// A normalized convex combination of component PDFs.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "MixtureRaw")]
pub struct MixturePdf {
    components: Vec<(f64, Pdf)>,
    cumulative: Vec<f64>,
    support: Rect,
}

/// The serialized form of a [`MixturePdf`]: the support and the running
/// sums are recomputed by [`MixturePdf::try_new`].
#[derive(Deserialize)]
struct MixtureRaw {
    components: Vec<(f64, Pdf)>,
}

impl TryFrom<MixtureRaw> for MixturePdf {
    type Error = String;

    fn try_from(raw: MixtureRaw) -> Result<Self, String> {
        MixturePdf::try_new(raw.components)
    }
}

impl MixturePdf {
    /// Builds a mixture from `(weight, component)` pairs; weights are
    /// normalized.
    ///
    /// # Panics
    /// Panics if `components` is empty, weights are negative or all zero,
    /// or components disagree on dimensionality.
    pub fn new(components: Vec<(f64, Pdf)>) -> Self {
        MixturePdf::try_new(components).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MixturePdf::new`], naming the violated invariant instead of
    /// panicking. Deserialization goes through here, so the support and
    /// the running sums are always derived, never read.
    ///
    /// # Errors
    /// On the conditions under which [`MixturePdf::new`] panics.
    pub fn try_new(components: Vec<(f64, Pdf)>) -> Result<Self, String> {
        let Some((_, first)) = components.first() else {
            return Err("mixture needs at least one component".to_owned());
        };
        if components.iter().any(|(_, p)| p.dims() != first.dims()) {
            return Err("components must share dimensionality".to_owned());
        }
        let (pdfs, weights): (Vec<Pdf>, Vec<f64>) =
            components.into_iter().map(|(w, p)| (p, w)).unzip();
        let (weights, cumulative) = crate::normalize_weights(weights)?;
        let components: Vec<(f64, Pdf)> = weights.into_iter().zip(pdfs).collect();
        let support = Rect::union_all(components.iter().map(|(_, p)| p.support()));
        Ok(MixturePdf {
            components,
            cumulative,
            support,
        })
    }

    /// The components with their normalized weights.
    pub fn components(&self) -> &[(f64, Pdf)] {
        &self.components
    }

    /// Appends the binary encoding: the component count, then each
    /// normalized weight and component (the support and running sums are
    /// recomputed on decoding).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_len(out, self.components.len());
        for (w, p) in &self.components {
            codec::put_f64(out, *w);
            p.encode(out);
        }
    }

    /// Reads a mixture written by [`MixturePdf::encode`], through
    /// [`MixturePdf::try_new`]; `depth` is its nesting level.
    pub(crate) fn decode(r: &mut Reader<'_>, depth: usize) -> Result<Self, String> {
        // a component is at least its weight and a one-byte tag
        let n = r.len(9)?;
        let components = (0..n)
            .map(|_| Ok((r.f64()?, Pdf::decode_nested(r, depth + 1)?)))
            .collect::<Result<Vec<(f64, Pdf)>, String>>()?;
        MixturePdf::try_new(components)
    }

    /// Union of component supports.
    pub fn support(&self) -> &Rect {
        &self.support
    }

    /// `P(X ∈ region)` — weighted sum over components.
    pub fn mass_in(&self, region: &Rect) -> f64 {
        self.components
            .iter()
            .map(|(w, p)| w * p.mass_in(region))
            .sum()
    }

    /// `P(X ∈ region ∧ X_axis < x)`.
    pub fn mass_below(&self, region: &Rect, axis: usize, x: f64) -> f64 {
        self.components
            .iter()
            .map(|(w, p)| w * p.mass_below(region, axis, x))
            .sum()
    }

    /// Samples a component by weight, then from the component.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let u: f64 = rng.gen();
        let c = search_cumulative(&self.cumulative, u);
        self.components[c].1.sample(rng)
    }

    /// Weighted mean of component means.
    pub fn mean(&self) -> Point {
        let d = self.support.dims();
        let mut acc = vec![0.0f64; d];
        for (w, p) in &self.components {
            let m = p.mean();
            for (a, &c) in acc.iter_mut().zip(m.coords()) {
                *a += w * c;
            }
        }
        Point::new(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udb_geometry::Interval;

    fn bimodal() -> MixturePdf {
        let left = Pdf::uniform(Rect::new(vec![
            Interval::new(0.0, 1.0),
            Interval::new(0.0, 1.0),
        ]));
        let right = Pdf::uniform(Rect::new(vec![
            Interval::new(3.0, 4.0),
            Interval::new(0.0, 1.0),
        ]));
        MixturePdf::new(vec![(1.0, left), (3.0, right)])
    }

    #[test]
    fn support_covers_all_components() {
        let m = bimodal();
        assert_eq!(m.support().lo(), Point::from([0.0, 0.0]));
        assert_eq!(m.support().hi(), Point::from([4.0, 1.0]));
    }

    #[test]
    fn mass_weights_components() {
        let m = bimodal();
        let left = Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]);
        let right = Rect::new(vec![Interval::new(3.0, 4.0), Interval::new(0.0, 1.0)]);
        assert!((m.mass_in(&left) - 0.25).abs() < 1e-12);
        assert!((m.mass_in(&right) - 0.75).abs() < 1e-12);
        // the gap between the modes carries no mass
        let gap = Rect::new(vec![Interval::new(1.5, 2.5), Interval::new(0.0, 1.0)]);
        assert_eq!(m.mass_in(&gap), 0.0);
    }

    #[test]
    fn total_mass_is_one() {
        let m = bimodal();
        assert!((m.mass_in(m.support()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mass_below_spans_components() {
        let m = bimodal();
        let s = m.support().clone();
        assert!((m.mass_below(&s, 0, 2.0) - 0.25).abs() < 1e-12);
        assert!((m.mass_below(&s, 0, 3.5) - 0.25 - 0.375).abs() < 1e-12);
    }

    #[test]
    fn median_lands_in_heavier_mode() {
        let m: Pdf = bimodal().into();
        let s = m.support().clone();
        let x = m.split_coordinate(&s, 0);
        // 25% of mass is left of x=1; the median must sit inside the right
        // mode [3, 4]
        assert!(x > 3.0 && x < 4.0, "median {x}");
    }

    #[test]
    fn sampling_matches_mode_weights() {
        let m = bimodal();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let right = (0..n).filter(|_| m.sample(&mut rng)[0] > 2.0).count() as f64 / n as f64;
        assert!((right - 0.75).abs() < 0.02, "right fraction {right}");
    }

    #[test]
    fn mean_is_weighted_mean() {
        let m = bimodal();
        // 0.25 * 0.5 + 0.75 * 3.5
        assert!((m.mean()[0] - 2.75).abs() < 1e-12);
        assert!((m.mean()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mixture_rejected() {
        let _ = MixturePdf::new(vec![]);
    }

    #[test]
    fn nested_mixture() {
        let inner: Pdf = bimodal().into();
        let outer = MixturePdf::new(vec![
            (1.0, inner),
            (
                1.0,
                Pdf::uniform(Rect::new(vec![
                    Interval::new(10.0, 11.0),
                    Interval::new(0.0, 1.0),
                ])),
            ),
        ]);
        let far = Rect::new(vec![Interval::new(10.0, 11.0), Interval::new(0.0, 1.0)]);
        assert!((outer.mass_in(&far) - 0.5).abs() < 1e-12);
    }
}
