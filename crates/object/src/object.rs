//! The uncertain object type.

use rand::Rng;
use serde::{Deserialize, Serialize};
use udb_geometry::codec::{self, Reader};
use udb_geometry::{Point, Rect};
use udb_pdf::Pdf;

/// Identifier of an object inside a [`crate::Database`] (its position in
/// the object vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A multi-attribute object whose attribute vector is a random variable
/// with a bounded density (Definition 1), optionally carrying existential
/// uncertainty (`P(object exists) < 1`, §I-A).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "ObjectRaw")]
pub struct UncertainObject {
    pdf: Pdf,
    /// Cached minimal bounding rectangle of the PDF support.
    mbr: Rect,
    /// `P(object exists)`; `1.0` for the paper's main setting.
    existence: f64,
}

/// The serialized form of an [`UncertainObject`]: the region is
/// recomputed by [`UncertainObject::try_with_existence`].
#[derive(Deserialize)]
struct ObjectRaw {
    pdf: Pdf,
    existence: f64,
}

impl TryFrom<ObjectRaw> for UncertainObject {
    type Error = String;

    fn try_from(raw: ObjectRaw) -> Result<Self, String> {
        UncertainObject::try_with_existence(raw.pdf, raw.existence)
    }
}

impl UncertainObject {
    /// Creates an object that certainly exists.
    pub fn new(pdf: Pdf) -> Self {
        let mbr = pdf.support().clone();
        UncertainObject {
            pdf,
            mbr,
            existence: 1.0,
        }
    }

    /// Creates an existentially uncertain object (`0 < existence <= 1`).
    ///
    /// # Panics
    /// Panics if `existence` is outside `(0, 1]`.
    pub fn with_existence(pdf: Pdf, existence: f64) -> Self {
        UncertainObject::try_with_existence(pdf, existence).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`UncertainObject::with_existence`], naming the violated invariant
    /// instead of panicking. Deserialization goes through here, so the
    /// region is always the density's support, never read.
    ///
    /// # Errors
    /// If `existence` is outside `(0, 1]`.
    pub fn try_with_existence(pdf: Pdf, existence: f64) -> Result<Self, String> {
        if !(existence > 0.0 && existence <= 1.0) {
            return Err(format!(
                "existence probability must be in (0, 1] (got {existence})"
            ));
        }
        let mbr = pdf.support().clone();
        Ok(UncertainObject {
            pdf,
            mbr,
            existence,
        })
    }

    /// A certain point object (degenerate uncertainty region).
    pub fn certain(p: Point) -> Self {
        UncertainObject::new(Pdf::uniform(Rect::from_point(&p)))
    }

    /// The object's density.
    #[inline]
    pub fn pdf(&self) -> &Pdf {
        &self.pdf
    }

    /// The uncertainty region (minimal bounding rectangle of the PDF).
    #[inline]
    pub fn mbr(&self) -> &Rect {
        &self.mbr
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.mbr.dims()
    }

    /// `P(object exists)`.
    #[inline]
    pub fn existence(&self) -> f64 {
        self.existence
    }

    /// Whether the object has a degenerate (point) uncertainty region.
    pub fn is_certain(&self) -> bool {
        self.mbr.is_point()
    }

    /// Samples a position (conditioned on existence).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        self.pdf.sample(rng)
    }

    /// Expected position.
    pub fn mean(&self) -> Point {
        self.pdf.mean()
    }

    /// Appends the binary encoding: the existence probability, then the
    /// density (the region is recomputed on decoding).
    pub fn encode(&self, out: &mut Vec<u8>) {
        codec::put_f64(out, self.existence);
        self.pdf.encode(out);
    }

    /// Reads an object written by [`UncertainObject::encode`], through
    /// [`UncertainObject::try_with_existence`].
    ///
    /// # Errors
    /// On truncation or a violated invariant of the object or density.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let existence = r.f64()?;
        UncertainObject::try_with_existence(Pdf::decode(r)?, existence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udb_geometry::Interval;

    #[test]
    fn new_caches_mbr() {
        let r = Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)]);
        let o = UncertainObject::new(Pdf::uniform(r.clone()));
        assert_eq!(o.mbr(), &r);
        assert_eq!(o.dims(), 2);
        assert_eq!(o.existence(), 1.0);
        assert!(!o.is_certain());
    }

    #[test]
    fn certain_object_is_point() {
        let o = UncertainObject::certain(Point::from([1.0, 2.0]));
        assert!(o.is_certain());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(o.sample(&mut rng), Point::from([1.0, 2.0]));
        assert_eq!(o.mean(), Point::from([1.0, 2.0]));
    }

    #[test]
    fn existence_probability_stored() {
        let o = UncertainObject::with_existence(
            Pdf::uniform(Rect::from_point(&Point::from([0.0]))),
            0.4,
        );
        assert_eq!(o.existence(), 0.4);
    }

    #[test]
    #[should_panic(expected = "existence probability")]
    fn zero_existence_rejected() {
        let _ = UncertainObject::with_existence(
            Pdf::uniform(Rect::from_point(&Point::from([0.0]))),
            0.0,
        );
    }

    #[test]
    fn object_id_display_and_index() {
        let id = ObjectId(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "o42");
    }
}
