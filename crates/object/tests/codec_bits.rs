//! Pins the binary encoding of databases, the checkpoint payload.
//!
//! A database must read back with the same bits for every density
//! family, derived fields included, and a fixed database must encode to
//! the same bytes (an FNV-1a digest, hand-rolled as in `level_bits.rs`
//! because `DefaultHasher` is not stable across toolchains): a change
//! in any byte is a change of the on-disk format. Truncated, corrupted
//! and hostile buffers must be an `Err`, never a panic.

use udb_geometry::codec::{self, Reader};
use udb_geometry::{Interval, Point, Rect};
use udb_object::{Database, ObjectId, UncertainObject};
use udb_pdf::{DiscretePdf, GaussianPdf, HistogramPdf, MixturePdf, Pdf, MAX_MIXTURE_NESTING};

/// 64-bit FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rect(bounds: &[(f64, f64)]) -> Rect {
    Rect::new(
        bounds
            .iter()
            .map(|&(lo, hi)| Interval::new(lo, hi))
            .collect::<Vec<_>>(),
    )
}

/// One object of every density family, nested mixtures included, with
/// signed zeros, tiny values and existence below 1.
fn every_family() -> Vec<UncertainObject> {
    let support = rect(&[(-0.0, 0.5), (1e-300, 0.25)]);
    let center = Point::from([0.2, 0.1]);
    let gaussian: Pdf = GaussianPdf::new(center.clone(), vec![0.125, 1e-3], support.clone()).into();
    let histogram: Pdf =
        HistogramPdf::from_correlated_gaussian(center, [0.1, 0.05], -0.4, support.clone(), 5)
            .into();
    let discrete: Pdf = DiscretePdf::new(
        vec![
            Point::from([-0.0, 1e-300]),
            Point::from([0.3, 0.1]),
            Point::from([0.3, 0.1]),
        ],
        vec![1.0, 3.0, 0.1],
    )
    .into();
    let inner: Pdf = MixturePdf::new(vec![(0.3, gaussian.clone()), (0.7, discrete.clone())]).into();
    let nested: Pdf = MixturePdf::new(vec![
        (2.0, inner),
        (1.0, Pdf::uniform(support.clone())),
        (0.5, histogram.clone()),
    ])
    .into();
    vec![
        UncertainObject::new(Pdf::uniform(support)),
        UncertainObject::with_existence(gaussian, 0.75),
        UncertainObject::new(histogram),
        UncertainObject::with_existence(discrete, 1e-300),
        UncertainObject::new(nested),
        UncertainObject::certain(Point::from([-0.0, 0.0])),
    ]
}

/// Every family, with a compacted leading tombstone (`base` 2) and an
/// interior one.
fn fixed_db() -> Database {
    let mut objects = every_family();
    objects.extend(every_family());
    let mut db = Database::from_objects(objects);
    db.remove(ObjectId(0));
    db.remove(ObjectId(1));
    db.compact();
    db.remove(ObjectId(7));
    db
}

fn encode(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    db.encode(&mut out);
    out
}

fn decode(bytes: &[u8]) -> Result<Database, String> {
    let mut r = Reader::new(bytes);
    let db = Database::decode(&mut r)?;
    r.finish()?;
    Ok(db)
}

#[test]
fn every_family_round_trips_bit_for_bit() {
    let db = fixed_db();
    assert_eq!(db.base_id(), 2);
    let back = decode(&encode(&db)).expect("decodes");
    // float Debug output round-trips, so equal text is equal bits,
    // derived fields (normalizations, running sums, regions) included
    assert_eq!(format!("{db:?}"), format!("{back:?}"));
    assert_eq!(back.base_id(), 2);
    assert_eq!(back.next_id(), db.next_id());
    assert_eq!((back.len(), back.dims()), (db.len(), db.dims()));
    assert!(!back.contains(ObjectId(7)));
    for ((a, x), (b, y)) in db.iter().zip(back.iter()) {
        assert_eq!(a, b);
        assert_eq!(x.existence().to_bits(), y.existence().to_bits());
        let (mx, my) = (x.mean(), y.mean());
        for (p, q) in mx.coords().iter().zip(my.coords()) {
            assert_eq!(p.to_bits(), q.to_bits(), "{a}");
        }
        let probe = rect(&[(0.05, 0.3), (0.0, 0.12)]);
        assert_eq!(
            x.pdf().mass_in(&probe).to_bits(),
            y.pdf().mass_in(&probe).to_bits(),
            "{a}"
        );
    }
    let lo = back.get(ObjectId(2)).mbr().dim(0).lo();
    assert_eq!(lo.to_bits(), (-0.0f64).to_bits());
    assert_eq!(back.get(ObjectId(3)).existence(), 1e-300);
    assert_eq!(encode(&back), encode(&db), "re-encoding is stable");
}

#[test]
fn empty_and_all_tombstone_databases_round_trip() {
    let empty = Database::new();
    assert_eq!(
        format!("{:?}", decode(&encode(&empty)).unwrap()),
        format!("{empty:?}")
    );
    let mut gone = Database::from_objects(every_family());
    for id in 0..6 {
        gone.remove(ObjectId(id));
    }
    let back = decode(&encode(&gone)).unwrap();
    assert_eq!((back.len(), back.next_id()), (0, 6));
}

/// The encoded bytes of [`fixed_db`]. A change here changes the
/// checkpoint format: old checkpoints would no longer read. Re-record
/// only with a new checkpoint magic, and say why.
const FIXED_DB_DIGEST: u64 = 0x82ae_ad0b_825c_35d6;
const FIXED_DB_LEN: usize = 2137;

#[test]
fn fixed_database_bytes_are_pinned() {
    let bytes = encode(&fixed_db());
    assert_eq!(
        (bytes.len(), fnv(&bytes)),
        (FIXED_DB_LEN, FIXED_DB_DIGEST),
        "got len {} digest {:#018x}",
        bytes.len(),
        fnv(&bytes)
    );
}

#[test]
fn every_truncation_is_refused() {
    let bytes = encode(&fixed_db());
    for cut in 0..bytes.len() {
        assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn byte_flips_never_panic() {
    // any flip must decode to `Err` or to some valid database; flips in
    // tags and counts must not be misread as another structure
    let bytes = encode(&fixed_db());
    let mut refused = 0;
    for i in 0..bytes.len() {
        for bit in [0x01, 0x08, 0x40, 0x80] {
            let mut mutant = bytes.clone();
            mutant[i] ^= bit;
            if decode(&mutant).is_err() {
                refused += 1;
            }
        }
    }
    assert!(refused > 0);
    // the slot count and the first slot tag are structure
    for i in 4..13 {
        let mut mutant = bytes.clone();
        mutant[i] ^= 0x01;
        assert!(decode(&mutant).is_err(), "byte {i}");
    }
}

fn put_rect(out: &mut Vec<u8>, bounds: &[(f64, f64)]) {
    codec::put_len(out, bounds.len());
    for &(lo, hi) in bounds {
        codec::put_f64(out, lo);
        codec::put_f64(out, hi);
    }
}

/// A one-slot database holding `pdf_bytes` at existence `existence`.
fn one_object(existence: f64, pdf_bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32(&mut out, 0);
    codec::put_len(&mut out, 1);
    out.push(1);
    codec::put_f64(&mut out, existence);
    out.extend_from_slice(pdf_bytes);
    out
}

fn uniform(bounds: &[(f64, f64)]) -> Vec<u8> {
    let mut out = vec![0];
    put_rect(&mut out, bounds);
    out
}

fn histogram(resolution: &[u64], weights: &[f64]) -> Vec<u8> {
    let mut out = vec![2];
    put_rect(&mut out, &[(0.0, 1.0), (0.0, 1.0)]);
    codec::put_len(&mut out, resolution.len());
    for &r in resolution {
        codec::put_u64(&mut out, r);
    }
    codec::put_f64s(&mut out, weights);
    out
}

fn discrete(weights: &[f64]) -> Vec<u8> {
    let mut out = vec![3];
    codec::put_len(&mut out, weights.len());
    for i in 0..weights.len() {
        codec::put_f64s(&mut out, &[i as f64, 0.5]);
    }
    codec::put_f64s(&mut out, weights);
    out
}

fn nested_mixtures(levels: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..levels {
        out.push(4);
        codec::put_len(&mut out, 1);
        codec::put_f64(&mut out, 1.0);
    }
    out.extend_from_slice(&uniform(&[(0.0, 1.0)]));
    out
}

#[test]
fn hand_built_payloads_decode_through_the_checked_constructors() {
    let ok = [
        one_object(1.0, &uniform(&[(0.0, 1.0), (2.0, 2.0)])),
        one_object(0.5, &histogram(&[2, 1], &[1.0, 3.0])),
        one_object(1.0, &discrete(&[0.0, 2.0])),
        one_object(1.0, &nested_mixtures(MAX_MIXTURE_NESTING)),
    ];
    for (i, bytes) in ok.iter().enumerate() {
        assert!(decode(bytes).is_ok(), "case {i}: {:?}", decode(bytes).err());
    }
    let refused = [
        ("NaN bound", one_object(1.0, &uniform(&[(f64::NAN, 1.0)]))),
        (
            "inverted interval",
            one_object(1.0, &uniform(&[(1.0, 0.0)])),
        ),
        (
            "infinite bound",
            one_object(1.0, &uniform(&[(0.0, f64::INFINITY)])),
        ),
        ("no dimensions", one_object(1.0, &uniform(&[]))),
        ("zero existence", one_object(0.0, &uniform(&[(0.0, 1.0)]))),
        (
            "NaN existence",
            one_object(f64::NAN, &uniform(&[(0.0, 1.0)])),
        ),
        (
            "existence above 1",
            one_object(1.5, &uniform(&[(0.0, 1.0)])),
        ),
        ("negative weight", one_object(1.0, &discrete(&[1.0, -0.5]))),
        ("NaN weight", one_object(1.0, &discrete(&[f64::NAN, 1.0]))),
        ("all-zero weights", one_object(1.0, &discrete(&[0.0, 0.0]))),
        ("no alternatives", one_object(1.0, &discrete(&[]))),
        ("zero resolution", one_object(1.0, &histogram(&[0, 2], &[]))),
        (
            "resolution/weights mismatch",
            one_object(1.0, &histogram(&[2, 2], &[1.0; 3])),
        ),
        (
            "resolution overflow",
            one_object(1.0, &histogram(&[u64::MAX, 2], &[1.0])),
        ),
        (
            "resolution dims mismatch",
            one_object(1.0, &histogram(&[4], &[1.0; 4])),
        ),
        ("unknown density tag", one_object(1.0, &[9])),
        (
            "too deep",
            one_object(1.0, &nested_mixtures(MAX_MIXTURE_NESTING + 1)),
        ),
    ];
    for (what, bytes) in &refused {
        assert!(decode(bytes).is_err(), "{what} was accepted");
    }
}

#[test]
fn hostile_counts_and_tags_are_refused() {
    let mut huge = Vec::new();
    codec::put_u32(&mut huge, 0);
    codec::put_u64(&mut huge, u64::MAX);
    assert!(decode(&huge).is_err(), "slot count beyond the buffer");

    let mut overflow = Vec::new();
    codec::put_u32(&mut overflow, u32::MAX);
    codec::put_len(&mut overflow, 1);
    overflow.push(0);
    assert!(decode(&overflow).is_err(), "ids past u32::MAX");

    let mut tag = Vec::new();
    codec::put_u32(&mut tag, 0);
    codec::put_len(&mut tag, 1);
    tag.push(2);
    assert!(decode(&tag).is_err(), "unknown slot tag");

    let mut mixed = one_object(1.0, &uniform(&[(0.0, 1.0)]));
    mixed[4] = 2;
    mixed.push(1);
    codec::put_f64(&mut mixed, 1.0);
    mixed.extend_from_slice(&uniform(&[(0.0, 1.0), (0.0, 1.0)]));
    assert!(
        decode(&mixed).is_err(),
        "live objects of two dimensionalities"
    );

    // a count whose elements would not fit allocates nothing
    let mut floats = uniform(&[(0.0, 1.0)]);
    floats[1..9].copy_from_slice(&(1u64 << 60).to_le_bytes());
    assert!(decode(&one_object(1.0, &floats)).is_err());
}
