//! Progressive kd-tree decomposition of object PDFs (§V of the paper).
//!
//! "We can iteratively split each object X by means of a median-split-based
//! bisection method and use a kd-tree to hierarchically organize the
//! resulting partitions." IDCA deepens the tree by one level per
//! iteration and only ever reads a level's leaves and where each leaf
//! came from, so a [`Decomposition`] stores exactly that: a list of
//! immutable [`DecompLevel`]s. Level `ℓ + 1` splits every splittable leaf
//! of level `ℓ` once at the (conditional) median of its distribution along
//! a chosen axis, so a leaf of level `ℓ` carries (close to) `0.5^ℓ`
//! probability mass; the exact mass is stored per leaf because discrete
//! models cannot always be halved exactly. The paper's kd-tree is the
//! levels' lineage: each leaf records the index of its parent leaf one
//! level up.
//!
//! A leaf that cannot make progress in any axis (degenerate region,
//! single discrete alternative) is carried into the next level unchanged
//! and never tested again. Levels are shared by [`Arc`]: a level is
//! published only once it is complete, and a consumer that replays it
//! holds the same allocation as the one that split it.

use std::sync::Arc;

use udb_geometry::{Interval, Rect};
use udb_pdf::{Pdf, MASS_EPSILON};

/// How the split axis of a leaf is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Cycle through the axes by depth (classic kd-tree).
    RoundRobin,
    /// Split the longest extent of the leaf's tightened MBR (default; gives
    /// better-shaped partitions for elongated regions).
    #[default]
    LongestExtent,
}

/// One disjoint subregion of an object's uncertainty region together with
/// the probability that the object lies inside it — the `X' ∈ X` with
/// `P(x ∈ X')` of Lemma 1.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Tight bounding box of the partition's probability mass.
    pub mbr: Rect,
    /// `P(object ∈ mbr)`.
    pub mass: f64,
}

/// One level of a decomposition: its leaf partitions in kd-tree
/// depth-first order, their lineage to the level before, and a flat
/// view of their boxes and masses for hot loops. Immutable once built.
#[derive(Debug)]
pub struct DecompLevel {
    parts: Vec<Partition>,
    lineage: Vec<u32>,
    intervals: Vec<Interval>,
    masses: Vec<f64>,
}

impl DecompLevel {
    /// Level 0 of the object with density `pdf`: its tightened support
    /// with mass one.
    pub fn root(pdf: &Pdf) -> Self {
        let support = pdf.support();
        let mbr = pdf.tighten(support).unwrap_or_else(|| support.clone());
        DecompLevel::new(vec![Partition { mbr, mass: 1.0 }], Vec::new())
    }

    fn new(parts: Vec<Partition>, lineage: Vec<u32>) -> Self {
        let dims = parts[0].mbr.dims();
        let mut intervals = Vec::with_capacity(parts.len() * dims);
        for p in &parts {
            intervals.extend_from_slice(p.mbr.intervals());
        }
        let masses = parts.iter().map(|p| p.mass).collect();
        DecompLevel {
            parts,
            lineage,
            intervals,
            masses,
        }
    }

    /// The leaf partitions. Each carries positive mass, and the masses
    /// sum to (approximately) one.
    pub fn partitions(&self) -> &[Partition] {
        &self.parts
    }

    /// For each partition, the index of the partition of the previous
    /// level it descends from: a split leaf's two children are
    /// consecutive and share their parent's index, and a leaf that did
    /// not split maps to itself. Empty at level 0.
    pub fn lineage(&self) -> &[u32] {
        &self.lineage
    }

    /// Every partition's box, flattened: partition `p`'s intervals are
    /// `intervals()[p·dims .. (p+1)·dims]`.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Every partition's mass, in partition order.
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }
}

/// The progressive decomposition of one object's PDF: every level split
/// so far, and which leaves of the newest level cannot split.
#[derive(Debug, Clone)]
pub struct Decomposition {
    levels: Vec<Arc<DecompLevel>>,
    /// Per leaf of the newest level: no axis makes splitting progress.
    unsplittable: Vec<bool>,
    strategy: SplitStrategy,
}

impl Decomposition {
    /// Starts a decomposition at depth 0 (the whole uncertainty region, one
    /// partition of mass 1).
    pub fn new(pdf: &Pdf) -> Self {
        Decomposition::with_strategy(pdf, SplitStrategy::default())
    }

    /// Starts a decomposition with an explicit split strategy.
    pub fn with_strategy(pdf: &Pdf, strategy: SplitStrategy) -> Self {
        Decomposition::from_root(Arc::new(DecompLevel::root(pdf)), strategy)
    }

    /// Starts a decomposition at `root`, the [`DecompLevel::root`] of its
    /// object, so that a caller already holding level 0 shares it.
    pub fn from_root(root: Arc<DecompLevel>, strategy: SplitStrategy) -> Self {
        debug_assert!(
            root.parts.len() == 1 && root.lineage.is_empty(),
            "a level 0"
        );
        Decomposition {
            levels: vec![root],
            unsplittable: vec![false],
            strategy,
        }
    }

    /// Current depth: the number of levels split so far.
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// The newest level's partitions.
    pub fn partitions(&self) -> &[Partition] {
        self.levels[self.depth()].partitions()
    }

    /// The level at `depth`. A level split before is returned as it is,
    /// so every consumer of a level shares one allocation; otherwise the
    /// newest level splits, one level at a time, until `depth` exists.
    /// `None` when no leaf can split any further before `depth`.
    pub fn expand_to(&mut self, pdf: &Pdf, depth: usize) -> Option<&Arc<DecompLevel>> {
        while self.depth() < depth {
            let newest = &self.levels[self.depth()];
            match split(newest, &self.unsplittable, self.depth(), pdf, self.strategy) {
                Some((level, unsplittable)) => {
                    self.levels.push(Arc::new(level));
                    self.unsplittable = unsplittable;
                }
                None => {
                    self.unsplittable.fill(true);
                    return None;
                }
            }
        }
        self.levels.get(depth)
    }
}

/// Splits every splittable leaf of `level`, which is at `depth`, once:
/// the next level and its leaves' `unsplittable` flags, or `None` when
/// no leaf splits.
fn split(
    level: &DecompLevel,
    unsplittable: &[bool],
    depth: usize,
    pdf: &Pdf,
    strategy: SplitStrategy,
) -> Option<(DecompLevel, Vec<bool>)> {
    let n = level.parts.len();
    let mut parts = Vec::with_capacity(2 * n);
    let mut lineage = Vec::with_capacity(2 * n);
    let mut next_unsplittable = Vec::with_capacity(2 * n);
    let mut progressed = false;
    for (idx, (leaf, &stuck)) in level.parts.iter().zip(unsplittable).enumerate() {
        debug_assert!(leaf.mass > MASS_EPSILON, "every leaf carries mass");
        let children = if stuck {
            None
        } else {
            split_leaf(leaf, depth, pdf, strategy)
        };
        match children {
            Some(children) => {
                parts.extend(children);
                lineage.extend([idx as u32; 2]);
                next_unsplittable.extend([false; 2]);
                progressed = true;
            }
            None => {
                parts.push(leaf.clone());
                lineage.push(idx as u32);
                next_unsplittable.push(true);
            }
        }
    }
    progressed.then(|| (DecompLevel::new(parts, lineage), next_unsplittable))
}

/// Tries to split a leaf at `depth` at the conditional median; returns
/// the children or `None` when no axis makes progress. Every leaf that
/// can still split sits at the depth of its level: its parent split one
/// level up, all the way from the root.
fn split_leaf(
    node: &Partition,
    depth: usize,
    pdf: &Pdf,
    strategy: SplitStrategy,
) -> Option<[Partition; 2]> {
    let d = node.mbr.dims();
    // axis preference order per strategy
    let first_axis = match strategy {
        SplitStrategy::RoundRobin => depth % d,
        SplitStrategy::LongestExtent => node.mbr.longest_extent().0,
    };
    for off in 0..d {
        let axis = (first_axis + off) % d;
        let iv = node.mbr.dim(axis);
        if iv.is_degenerate() {
            continue;
        }
        let x = pdf.split_coordinate(&node.mbr, axis);
        if x <= iv.lo() || x >= iv.hi() {
            // median collapses onto the boundary: a single cut cannot
            // separate mass along this axis — for discrete models a cut AT
            // the boundary may still be useful (all mass strictly below the
            // upper bound), so retry with the exact boundary handled below
            if !(x > iv.lo() && x <= iv.hi()) {
                continue;
            }
        }
        let below = pdf.mass_below(&node.mbr, axis, x);
        let above = node.mass - below;
        if below <= MASS_EPSILON || above <= MASS_EPSILON {
            continue; // no mass separation — try another axis
        }
        // lower child's region is half-open in `axis` (realized by nudging
        // the closed bound just below the cut) so that discrete mass
        // sitting exactly on the cut belongs to the upper child only
        let (lo_region, hi_region) = half_open_split(&node.mbr, axis, x);
        let lo_mbr = pdf.tighten(&lo_region).unwrap_or(lo_region);
        let hi_mbr = pdf.tighten(&hi_region).unwrap_or(hi_region);
        return Some([
            Partition {
                mbr: lo_mbr,
                mass: below,
            },
            Partition {
                mbr: hi_mbr,
                mass: above,
            },
        ]);
    }
    None
}

/// Splits `region` at `x` along `axis` into a lower part whose upper bound
/// is nudged strictly below `x` and an upper part `[x, hi]`.
fn half_open_split(region: &Rect, axis: usize, x: f64) -> (Rect, Rect) {
    let iv = region.dim(axis);
    let lo_hi = next_down(x).max(iv.lo());
    let mut lo_dims = region.intervals().to_vec();
    let mut hi_dims = region.intervals().to_vec();
    lo_dims[axis] = udb_geometry::Interval::new(iv.lo(), lo_hi);
    hi_dims[axis] = udb_geometry::Interval::new(x.min(iv.hi()), iv.hi());
    (Rect::new(lo_dims), Rect::new(hi_dims))
}

/// Largest float strictly below `x` (stable replacement for the unstable
/// `f64::next_down` of older toolchains; `f64::next_down` is stable on the
/// workspace toolchain but this keeps the intent explicit).
#[inline]
fn next_down(x: f64) -> f64 {
    f64::next_down(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use udb_geometry::{Interval, Point};
    use udb_pdf::{DiscretePdf, GaussianPdf};

    fn unit_square() -> Rect {
        Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)])
    }

    fn mass_sum(parts: &[Partition]) -> f64 {
        parts.iter().map(|p| p.mass).sum()
    }

    /// Splits the newest level once; whether any leaf split.
    fn deepen(dec: &mut Decomposition, pdf: &Pdf) -> bool {
        let depth = dec.depth() + 1;
        dec.expand_to(pdf, depth).is_some()
    }

    #[test]
    fn depth_zero_is_single_partition() {
        let pdf = Pdf::uniform(unit_square());
        let dec = Decomposition::new(&pdf);
        let parts = dec.partitions();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].mass, 1.0);
        assert_eq!(parts[0].mbr, unit_square());
    }

    #[test]
    fn uniform_masses_halve_per_level() {
        let pdf = Pdf::uniform(unit_square());
        let mut dec = Decomposition::new(&pdf);
        for level in 1..=4 {
            assert!(deepen(&mut dec, &pdf));
            let parts = dec.partitions();
            assert_eq!(parts.len(), 1 << level);
            for p in parts {
                assert!(
                    (p.mass - 0.5f64.powi(level)).abs() < 1e-9,
                    "level {level} mass {}",
                    p.mass
                );
            }
            assert!((mass_sum(parts) - 1.0).abs() < 1e-9);
        }
        assert_eq!(dec.depth(), 4);
    }

    #[test]
    fn partitions_are_disjoint_and_cover() {
        let pdf = Pdf::uniform(unit_square());
        let mut dec = Decomposition::new(&pdf);
        dec.expand_to(&pdf, 3);
        let parts = dec.partitions();
        // pairwise interiors are disjoint: intersection volume must be 0
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                if let Some(ov) = parts[i].mbr.intersection(&parts[j].mbr) {
                    assert!(ov.volume() < 1e-9, "overlap between {i} and {j}");
                }
            }
        }
        // total volume equals the support volume (uniform pdf: tight mbrs)
        let vol: f64 = parts.iter().map(|p| p.mbr.volume()).sum();
        assert!((vol - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gaussian_masses_approximately_halve() {
        let pdf: Pdf = GaussianPdf::isotropic(Point::from([0.5, 0.5]), 0.2, unit_square()).into();
        let mut dec = Decomposition::new(&pdf);
        dec.expand_to(&pdf, 2);
        let parts = dec.partitions();
        assert_eq!(parts.len(), 4);
        for p in parts {
            assert!((p.mass - 0.25).abs() < 1e-4, "mass {}", p.mass);
        }
        assert!((mass_sum(parts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn point_object_is_unsplittable() {
        let pdf = Pdf::uniform(Rect::from_point(&Point::from([0.3, 0.4])));
        let mut dec = Decomposition::new(&pdf);
        assert!(!deepen(&mut dec, &pdf));
        assert_eq!(dec.depth(), 0);
        assert_eq!(dec.partitions().len(), 1);
    }

    #[test]
    fn discrete_pdf_splits_exactly() {
        let pdf: Pdf = DiscretePdf::equally_weighted(vec![
            Point::from([0.0, 0.0]),
            Point::from([1.0, 0.0]),
            Point::from([0.0, 1.0]),
            Point::from([1.0, 1.0]),
        ])
        .into();
        let mut dec = Decomposition::new(&pdf);
        assert!(deepen(&mut dec, &pdf));
        let parts = dec.partitions();
        assert_eq!(parts.len(), 2);
        for p in parts {
            assert!((p.mass - 0.5).abs() < 1e-12);
        }
        assert!((mass_sum(parts) - 1.0).abs() < 1e-12);
        // second expansion separates the remaining axis
        assert!(deepen(&mut dec, &pdf));
        let parts = dec.partitions();
        assert_eq!(parts.len(), 4);
        for p in parts {
            assert!((p.mass - 0.25).abs() < 1e-12);
            assert!(p.mbr.is_point(), "leaf should be a single alternative");
        }
    }

    #[test]
    fn discrete_decomposition_terminates() {
        let pdf: Pdf = DiscretePdf::equally_weighted(vec![
            Point::from([0.0, 0.0]),
            Point::from([1.0, 1.0]),
            Point::from([2.0, 0.5]),
        ])
        .into();
        let mut dec = Decomposition::new(&pdf);
        // after enough expansions every leaf is a single alternative and
        // expand() must return false
        for _ in 0..10 {
            if !deepen(&mut dec, &pdf) {
                break;
            }
        }
        assert!(!deepen(&mut dec, &pdf));
        let parts = dec.partitions();
        assert_eq!(parts.len(), 3);
        assert!((mass_sum(parts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_alternatives_do_not_loop_forever() {
        // two alternatives at the same location cannot be separated
        let pdf: Pdf = DiscretePdf::equally_weighted(vec![
            Point::from([1.0, 1.0]),
            Point::from([1.0, 1.0]),
            Point::from([2.0, 2.0]),
        ])
        .into();
        let mut dec = Decomposition::new(&pdf);
        for _ in 0..10 {
            if !deepen(&mut dec, &pdf) {
                break;
            }
        }
        let parts = dec.partitions();
        // the duplicated location stays one partition with mass 2/3
        assert_eq!(parts.len(), 2);
        let mut masses: Vec<f64> = parts.iter().map(|p| p.mass).collect();
        masses.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((masses[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((masses[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn round_robin_strategy_cycles_axes() {
        let wide = Rect::new(vec![Interval::new(0.0, 10.0), Interval::new(0.0, 1.0)]);
        let pdf = Pdf::uniform(wide);
        let mut dec = Decomposition::with_strategy(&pdf, SplitStrategy::RoundRobin);
        deepen(&mut dec, &pdf); // splits axis 0
        deepen(&mut dec, &pdf); // splits axis 1
        let parts = dec.partitions();
        assert_eq!(parts.len(), 4);
        for p in parts {
            assert!((p.mbr.extent(0) - 5.0).abs() < 1e-9);
            assert!((p.mbr.extent(1) - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn longest_extent_strategy_prefers_wide_axis() {
        let wide = Rect::new(vec![Interval::new(0.0, 10.0), Interval::new(0.0, 1.0)]);
        let pdf = Pdf::uniform(wide);
        let mut dec = Decomposition::with_strategy(&pdf, SplitStrategy::LongestExtent);
        deepen(&mut dec, &pdf);
        deepen(&mut dec, &pdf); // still axis 0 (extent 5 > 1)
        let parts = dec.partitions();
        for p in parts {
            assert!((p.mbr.extent(0) - 2.5).abs() < 1e-9);
            assert!((p.mbr.extent(1) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lineage_tracks_splits() {
        let pdf = Pdf::uniform(unit_square());
        let mut dec = Decomposition::new(&pdf);
        // depth 0 -> 1: one leaf splits in two
        let level = dec.expand_to(&pdf, 1).expect("progress");
        assert_eq!(level.lineage(), [0, 0]);
        // depth 1 -> 2: both leaves split
        let level = dec.expand_to(&pdf, 2).expect("progress");
        assert_eq!(level.lineage(), [0, 0, 1, 1]);
        assert_eq!(dec.partitions().len(), 4);
    }

    #[test]
    fn lineage_mixes_split_and_exhausted_leaves() {
        // three discrete alternatives: after one split one leaf is a point
        // (unsplittable) and the other splits again
        let pdf: Pdf = DiscretePdf::equally_weighted(vec![
            Point::from([0.0, 0.0]),
            Point::from([1.0, 0.0]),
            Point::from([2.0, 0.0]),
        ])
        .into();
        let mut dec = Decomposition::new(&pdf);
        let before = Arc::clone(dec.expand_to(&pdf, 1).expect("progress"));
        assert_eq!(before.lineage(), [0, 0]);
        let after = dec.expand_to(&pdf, 2).expect("progress");
        let map = after.lineage();
        let (parts_before, parts_after) = (before.partitions(), after.partitions());
        assert_eq!(map.len(), parts_after.len());
        // masses must be conserved along the lineage
        let mut regrouped = vec![0.0; parts_before.len()];
        for (child, &parent) in parts_after.iter().zip(map.iter()) {
            regrouped[parent as usize] += child.mass;
            // children stay inside their parent region
            assert!(parts_before[parent as usize].mbr.contains_rect(&child.mbr));
        }
        for (got, want) in regrouped.iter().zip(parts_before.iter()) {
            assert!((got - want.mass).abs() < 1e-12);
        }
        // the flat view mirrors the partitions
        for (p, part) in parts_after.iter().enumerate() {
            assert_eq!(after.intervals()[p * 2..(p + 1) * 2], *part.mbr.intervals());
            assert_eq!(after.masses()[p].to_bits(), part.mass.to_bits());
        }
        // exhausted decomposition reports no progress
        while deepen(&mut dec, &pdf) {}
        assert!(!deepen(&mut dec, &pdf));
    }

    #[test]
    fn expand_to_replays_split_levels() {
        let pdf: Pdf = GaussianPdf::isotropic(Point::from([0.5, 0.5]), 0.2, unit_square()).into();
        let mut dec = Decomposition::new(&pdf);
        let deep = Arc::clone(dec.expand_to(&pdf, 3).expect("progress"));
        assert_eq!(dec.depth(), 3);
        // an earlier level is shared as it is, without splitting further
        let shallow = Arc::clone(dec.expand_to(&pdf, 1).expect("split before"));
        assert_eq!(shallow.partitions().len(), 2);
        assert_eq!(dec.depth(), 3);
        assert!(Arc::ptr_eq(dec.expand_to(&pdf, 3).unwrap(), &deep));
    }

    #[test]
    fn expand_to_stops_at_depth() {
        let pdf = Pdf::uniform(unit_square());
        let mut dec = Decomposition::new(&pdf);
        dec.expand_to(&pdf, 5);
        assert_eq!(dec.depth(), 5);
        assert_eq!(dec.partitions().len(), 32);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use udb_pdf::GaussianPdf;

        fn arb_pdf() -> impl Strategy<Value = Pdf> {
            (
                -5.0..5.0f64,
                -5.0..5.0f64,
                0.05..2.0f64,
                0.05..2.0f64,
                0..3u8,
            )
                .prop_map(|(cx, cy, hx, hy, kind)| {
                    let center = Point::from([cx, cy]);
                    let support = Rect::centered(&center, &[hx, hy]);
                    match kind {
                        0 => Pdf::uniform(support),
                        1 => GaussianPdf::new(center, vec![hx / 2.0, hy / 2.0], support).into(),
                        _ => udb_pdf::DiscretePdf::equally_weighted(vec![
                            Point::from([cx - hx / 2.0, cy]),
                            Point::from([cx + hx / 2.0, cy - hy / 2.0]),
                            Point::from([cx, cy + hy / 2.0]),
                        ])
                        .into(),
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// At every depth: masses sum to one, every partition carries
            /// positive mass, and partitions nest inside the support.
            #[test]
            fn prop_masses_partition_unity(pdf in arb_pdf(), depth in 0usize..5) {
                let mut dec = Decomposition::new(&pdf);
                dec.expand_to(&pdf, depth);
                let parts = dec.partitions();
                let total: f64 = parts.iter().map(|p| p.mass).sum();
                prop_assert!((total - 1.0).abs() < 1e-6, "total {total}");
                for p in parts {
                    prop_assert!(p.mass > 0.0);
                    prop_assert!(pdf.support().contains_rect(&p.mbr));
                }
            }

            /// Partition interiors never overlap (pairwise intersection
            /// volume zero).
            #[test]
            fn prop_partitions_disjoint(pdf in arb_pdf(), depth in 1usize..4) {
                let mut dec = Decomposition::new(&pdf);
                dec.expand_to(&pdf, depth);
                let parts = dec.partitions();
                for i in 0..parts.len() {
                    for j in (i + 1)..parts.len() {
                        if let Some(ov) = parts[i].mbr.intersection(&parts[j].mbr) {
                            prop_assert!(ov.volume() < 1e-9, "partitions {i},{j} overlap");
                        }
                    }
                }
            }

            /// The partition masses agree with the density's own
            /// mass_in for continuous models (tight MBRs).
            #[test]
            fn prop_masses_match_density(
                cx in -2.0..2.0f64, cy in -2.0..2.0f64,
                hx in 0.1..1.0f64, hy in 0.1..1.0f64,
                depth in 1usize..4,
            ) {
                let support = Rect::centered(&Point::from([cx, cy]), &[hx, hy]);
                let pdf = Pdf::uniform(support);
                let mut dec = Decomposition::new(&pdf);
                dec.expand_to(&pdf, depth);
                for p in dec.partitions() {
                    prop_assert!((pdf.mass_in(&p.mbr) - p.mass).abs() < 1e-9);
                }
            }
        }
    }
}
