//! Pins the bits of every decomposition level.
//!
//! For each case of a fixed corpus, an FNV-1a hash is folded over every
//! level up to depth 8: each partition's interval bounds and mass as
//! `f64::to_bits`, and the lineage map to the previous level. Refiners
//! replay levels across queries and build answers from them, so a change
//! in any bit here is a change in answers. The hash is hand-rolled
//! because `DefaultHasher` is not stable across toolchains.

use udb_geometry::{Interval, Point, Rect};
use udb_object::SplitStrategy::{LongestExtent, RoundRobin};
use udb_object::{DecompLevel, Decomposition, SplitStrategy};
use udb_pdf::{DiscretePdf, GaussianPdf, HistogramPdf, Pdf};

const MAX_DEPTH: usize = 8;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn rect(bounds: &[(f64, f64)]) -> Rect {
    Rect::new(
        bounds
            .iter()
            .map(|&(lo, hi)| Interval::new(lo, hi))
            .collect::<Vec<_>>(),
    )
}

/// The corpus: every synthetic density kind, the discrete edge cases,
/// a certain point and a 3-D object.
fn corpus() -> Vec<(&'static str, Pdf)> {
    let support = rect(&[(0.1, 0.6), (0.2, 0.45)]);
    let center = Point::from([0.35, 0.325]);
    vec![
        ("uniform", Pdf::uniform(support.clone())),
        (
            "gaussian",
            GaussianPdf::new(center.clone(), vec![0.125, 0.0625], support.clone()).into(),
        ),
        (
            "correlated_histogram",
            HistogramPdf::from_correlated_gaussian(center, [0.125, 0.0625], 0.6, support, 8).into(),
        ),
        (
            "discrete_three_points",
            DiscretePdf::equally_weighted(vec![
                Point::from([0.0, 0.0]),
                Point::from([1.0, 0.0]),
                Point::from([2.0, 0.0]),
            ])
            .into(),
        ),
        (
            "discrete_duplicates",
            DiscretePdf::equally_weighted(vec![
                Point::from([1.0, 1.0]),
                Point::from([1.0, 1.0]),
                Point::from([2.0, 2.0]),
            ])
            .into(),
        ),
        (
            "certain_point",
            Pdf::uniform(Rect::from_point(&Point::from([0.3, 0.4]))),
        ),
        (
            "uniform_3d",
            Pdf::uniform(rect(&[(0.0, 1.0), (0.0, 0.5), (0.25, 2.0)])),
        ),
    ]
}

fn hash_level(h: &mut Fnv, level: &DecompLevel) {
    // level 0 has no lineage
    let map = level.lineage();
    if !map.is_empty() {
        h.word(map.len() as u64);
        for &m in map {
            h.word(u64::from(m));
        }
    }
    let parts = level.partitions();
    h.word(parts.len() as u64);
    for p in parts {
        for iv in p.mbr.intervals() {
            h.word(iv.lo().to_bits());
            h.word(iv.hi().to_bits());
        }
        h.word(p.mass.to_bits());
    }
}

/// The digest of one case: every level up to [`MAX_DEPTH`] that exists,
/// then the number of levels.
fn level_digest(pdf: &Pdf, strategy: SplitStrategy) -> u64 {
    let mut h = Fnv::new();
    let mut dec = Decomposition::with_strategy(pdf, strategy);
    let mut levels = 0u64;
    for depth in 0..=MAX_DEPTH {
        let Some(level) = dec.expand_to(pdf, depth) else {
            break;
        };
        hash_level(&mut h, level);
        levels += 1;
    }
    h.word(levels);
    h.0
}

/// Recorded digests, per case and strategy.
const EXPECTED: &[(&str, SplitStrategy, u64)] = &[
    ("uniform", LongestExtent, 0xd1796e44f62c421d),
    ("uniform", RoundRobin, 0xe26b81f87cd9d7f1),
    ("gaussian", LongestExtent, 0xe18a9fa07187e691),
    ("gaussian", RoundRobin, 0x1576acd99a91257c),
    ("correlated_histogram", LongestExtent, 0x4d43f7b20e01eddd),
    ("correlated_histogram", RoundRobin, 0xe7723d21944c6640),
    ("discrete_three_points", LongestExtent, 0x1758e4ef802d8fe8),
    ("discrete_three_points", RoundRobin, 0x1758e4ef802d8fe8),
    ("discrete_duplicates", LongestExtent, 0x62969214286f3d14),
    ("discrete_duplicates", RoundRobin, 0x62969214286f3d14),
    ("certain_point", LongestExtent, 0x1e5e1007e64dc39c),
    ("certain_point", RoundRobin, 0x1e5e1007e64dc39c),
    ("uniform_3d", LongestExtent, 0x822bcc0500ada558),
    ("uniform_3d", RoundRobin, 0xc85db68511d88fca),
];

#[test]
fn decomposition_level_bits_are_pinned() {
    let mut got = Vec::new();
    for (name, pdf) in corpus() {
        for strategy in [LongestExtent, RoundRobin] {
            got.push((name, strategy, level_digest(&pdf, strategy)));
        }
    }
    assert_eq!(
        got.len(),
        EXPECTED.len(),
        "corpus and recorded digests differ"
    );
    for ((name, strategy, digest), (want_name, want_strategy, want)) in got.iter().zip(EXPECTED) {
        assert_eq!((name, strategy), (want_name, want_strategy));
        assert_eq!(
            digest, want,
            "{name} ({strategy:?}): level bits changed, digest {digest:#018x}"
        );
    }
}
