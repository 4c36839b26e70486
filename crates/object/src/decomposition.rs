//! Progressive kd-tree decomposition of object PDFs (§V of the paper).
//!
//! "We can iteratively split each object X by means of a median-split-based
//! bisection method and use a kd-tree to hierarchically organize the
//! resulting partitions." Every node splits at the (conditional) median of
//! the node's distribution along a chosen axis, so a node at level `l`
//! carries (close to) `0.5^l` probability mass; the exact mass is stored
//! per node because discrete models cannot always be halved exactly.
//!
//! The tree height is bounded by the caller (the IDCA loop deepens one
//! level per iteration); a leaf that cannot make progress in any axis
//! (degenerate region, single discrete alternative) stays a leaf.

use udb_geometry::Rect;
use udb_pdf::{Pdf, MASS_EPSILON};

/// How the split axis of a node is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Cycle through the axes by depth (classic kd-tree).
    RoundRobin,
    /// Split the longest extent of the node's tightened MBR (default; gives
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

impl Partition {
    /// The level-0 partition of the object with density `pdf`: its
    /// tightened support with mass one, the one partition of a fresh
    /// [`Decomposition`].
    pub fn root(pdf: &Pdf) -> Self {
        let support = pdf.support().clone();
        Partition {
            mbr: pdf.tighten(&support).unwrap_or(support),
            mass: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Tight bounding box of the mass assigned to this node.
    mbr: Rect,
    /// Absolute probability mass.
    mass: f64,
    /// Depth of this node (root = 0).
    depth: usize,
    /// Child nodes (empty for leaves; at most 2).
    children: Vec<Node>,
    /// Marked when no axis can make splitting progress.
    unsplittable: bool,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The progressive decomposition of one object's PDF.
#[derive(Debug, Clone)]
pub struct Decomposition {
    root: Node,
    depth: usize,
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
        let Partition { mbr, mass } = Partition::root(pdf);
        Decomposition {
            root: Node {
                mbr,
                mass,
                depth: 0,
                children: Vec::new(),
                unsplittable: false,
            },
            depth: 0,
            strategy,
        }
    }

    /// Current depth (number of completed [`Decomposition::expand`] calls
    /// that made progress).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Splits every splittable leaf once. Returns `true` if at least one
    /// leaf was split (i.e. the decomposition got strictly finer).
    pub fn expand(&mut self, pdf: &Pdf) -> bool {
        let strategy = self.strategy;
        let progressed = Self::expand_node(&mut self.root, pdf, strategy);
        if progressed {
            self.depth += 1;
        }
        progressed
    }

    /// Like [`Decomposition::expand`], but additionally reports lineage:
    /// on progress, returns for each partition of the *new*
    /// [`Decomposition::partitions`] order the index of the partition it
    /// descended from in the *previous* order (split leaves contribute two
    /// consecutive entries with the same parent index, surviving leaves
    /// map through unchanged). `None` when nothing could be split.
    ///
    /// Incremental consumers (the IDCA snapshot cache) use the map to
    /// carry per-partition results across an expansion instead of
    /// invalidating everything keyed on partition indices.
    pub fn expand_with_map(&mut self, pdf: &Pdf) -> Option<Vec<u32>> {
        let strategy = self.strategy;
        let mut map = Vec::with_capacity(count_leaves(&self.root) * 2);
        let mut old_idx = 0u32;
        let progressed =
            Self::expand_node_tracked(&mut self.root, pdf, strategy, &mut old_idx, &mut map);
        if progressed {
            self.depth += 1;
            Some(map)
        } else {
            None
        }
    }

    /// Expands until `depth` (or until no further progress is possible).
    pub fn expand_to(&mut self, pdf: &Pdf, depth: usize) {
        while self.depth < depth && self.expand(pdf) {}
    }

    fn expand_node(node: &mut Node, pdf: &Pdf, strategy: SplitStrategy) -> bool {
        if !node.is_leaf() {
            let mut any = false;
            for c in &mut node.children {
                any |= Self::expand_node(c, pdf, strategy);
            }
            return any;
        }
        if node.unsplittable || node.mass <= MASS_EPSILON {
            return false;
        }
        match split_leaf(node, pdf, strategy) {
            Some(children) => {
                node.children = children;
                true
            }
            None => {
                node.unsplittable = true;
                false
            }
        }
    }

    /// [`Decomposition::expand_node`] plus lineage tracking. Visits leaves
    /// in the same DFS order as [`collect_leaves`] (skipping the same
    /// zero-mass leaves) so `old_idx` counts previous partition indices
    /// and `map` fills in new partition order.
    fn expand_node_tracked(
        node: &mut Node,
        pdf: &Pdf,
        strategy: SplitStrategy,
        old_idx: &mut u32,
        map: &mut Vec<u32>,
    ) -> bool {
        if !node.is_leaf() {
            let mut any = false;
            for c in &mut node.children {
                any |= Self::expand_node_tracked(c, pdf, strategy, old_idx, map);
            }
            return any;
        }
        if node.mass <= MASS_EPSILON {
            // not part of the partitions() order, before or after
            return false;
        }
        let my_idx = *old_idx;
        *old_idx += 1;
        if node.unsplittable {
            map.push(my_idx);
            return false;
        }
        match split_leaf(node, pdf, strategy) {
            Some(children) => {
                node.children = children;
                map.push(my_idx);
                map.push(my_idx);
                true
            }
            None => {
                node.unsplittable = true;
                map.push(my_idx);
                false
            }
        }
    }

    /// The current partitions (leaves with positive mass). Masses sum to
    /// (approximately) one.
    pub fn partitions(&self) -> Vec<Partition> {
        let mut out = Vec::with_capacity(1 << self.depth.min(20));
        collect_leaves(&self.root, &mut out);
        out
    }

    /// Number of current leaves with positive mass.
    pub fn leaf_count(&self) -> usize {
        count_leaves(&self.root)
    }
}

/// Counts leaves with positive mass without materializing [`Partition`]s
/// (the same nodes [`collect_leaves`] would emit).
fn count_leaves(node: &Node) -> usize {
    if node.is_leaf() {
        return usize::from(node.mass > MASS_EPSILON);
    }
    node.children.iter().map(count_leaves).sum()
}

fn collect_leaves(node: &Node, out: &mut Vec<Partition>) {
    if node.is_leaf() {
        if node.mass > MASS_EPSILON {
            out.push(Partition {
                mbr: node.mbr.clone(),
                mass: node.mass,
            });
        }
        return;
    }
    for c in &node.children {
        collect_leaves(c, out);
    }
}

/// Tries to split a leaf at the conditional median; returns the children
/// or `None` when no axis makes progress.
fn split_leaf(node: &Node, pdf: &Pdf, strategy: SplitStrategy) -> Option<Vec<Node>> {
    let d = node.mbr.dims();
    // axis preference order per strategy
    let first_axis = match strategy {
        SplitStrategy::RoundRobin => node.depth % d,
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
        return Some(vec![
            Node {
                mbr: lo_mbr,
                mass: below,
                depth: node.depth + 1,
                children: Vec::new(),
                unsplittable: false,
            },
            Node {
                mbr: hi_mbr,
                mass: above,
                depth: node.depth + 1,
                children: Vec::new(),
                unsplittable: false,
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
    use udb_geometry::{Interval, Point};
    use udb_pdf::{DiscretePdf, GaussianPdf};

    fn unit_square() -> Rect {
        Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)])
    }

    fn mass_sum(parts: &[Partition]) -> f64 {
        parts.iter().map(|p| p.mass).sum()
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
            assert!(dec.expand(&pdf));
            let parts = dec.partitions();
            assert_eq!(parts.len(), 1 << level);
            for p in &parts {
                assert!(
                    (p.mass - 0.5f64.powi(level)).abs() < 1e-9,
                    "level {level} mass {}",
                    p.mass
                );
            }
            assert!((mass_sum(&parts) - 1.0).abs() < 1e-9);
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
        for p in &parts {
            assert!((p.mass - 0.25).abs() < 1e-4, "mass {}", p.mass);
        }
        assert!((mass_sum(&parts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn point_object_is_unsplittable() {
        let pdf = Pdf::uniform(Rect::from_point(&Point::from([0.3, 0.4])));
        let mut dec = Decomposition::new(&pdf);
        assert!(!dec.expand(&pdf));
        assert_eq!(dec.depth(), 0);
        assert_eq!(dec.leaf_count(), 1);
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
        assert!(dec.expand(&pdf));
        let parts = dec.partitions();
        assert_eq!(parts.len(), 2);
        for p in &parts {
            assert!((p.mass - 0.5).abs() < 1e-12);
        }
        assert!((mass_sum(&parts) - 1.0).abs() < 1e-12);
        // second expansion separates the remaining axis
        assert!(dec.expand(&pdf));
        let parts = dec.partitions();
        assert_eq!(parts.len(), 4);
        for p in &parts {
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
            if !dec.expand(&pdf) {
                break;
            }
        }
        assert!(!dec.expand(&pdf));
        let parts = dec.partitions();
        assert_eq!(parts.len(), 3);
        assert!((mass_sum(&parts) - 1.0).abs() < 1e-12);
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
            if !dec.expand(&pdf) {
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
        dec.expand(&pdf); // splits axis 0
        dec.expand(&pdf); // splits axis 1
        let parts = dec.partitions();
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert!((p.mbr.extent(0) - 5.0).abs() < 1e-9);
            assert!((p.mbr.extent(1) - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn longest_extent_strategy_prefers_wide_axis() {
        let wide = Rect::new(vec![Interval::new(0.0, 10.0), Interval::new(0.0, 1.0)]);
        let pdf = Pdf::uniform(wide);
        let mut dec = Decomposition::with_strategy(&pdf, SplitStrategy::LongestExtent);
        dec.expand(&pdf);
        dec.expand(&pdf); // still axis 0 (extent 5 > 1)
        let parts = dec.partitions();
        for p in &parts {
            assert!((p.mbr.extent(0) - 2.5).abs() < 1e-9);
            assert!((p.mbr.extent(1) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn expand_with_map_tracks_lineage() {
        let pdf = Pdf::uniform(unit_square());
        let mut dec = Decomposition::new(&pdf);
        // depth 0 -> 1: one leaf splits in two
        let map = dec.expand_with_map(&pdf).expect("progress");
        assert_eq!(map, vec![0, 0]);
        // depth 1 -> 2: both leaves split
        let map = dec.expand_with_map(&pdf).expect("progress");
        assert_eq!(map, vec![0, 0, 1, 1]);
        assert_eq!(dec.leaf_count(), 4);
    }

    #[test]
    fn expand_with_map_mixes_split_and_exhausted_leaves() {
        // three discrete alternatives: after one split one leaf is a point
        // (unsplittable) and the other splits again
        let pdf: Pdf = DiscretePdf::equally_weighted(vec![
            Point::from([0.0, 0.0]),
            Point::from([1.0, 0.0]),
            Point::from([2.0, 0.0]),
        ])
        .into();
        let mut dec = Decomposition::new(&pdf);
        let map = dec.expand_with_map(&pdf).expect("progress");
        assert_eq!(map, vec![0, 0]);
        let parts_before = dec.partitions();
        let map = dec.expand_with_map(&pdf).expect("progress");
        let parts_after = dec.partitions();
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
        // exhausted decomposition reports no progress
        while dec.expand_with_map(&pdf).is_some() {}
        assert!(dec.expand_with_map(&pdf).is_none());
    }

    #[test]
    fn expand_and_expand_with_map_agree() {
        let pdf: Pdf = GaussianPdf::isotropic(Point::from([0.5, 0.5]), 0.2, unit_square()).into();
        let mut a = Decomposition::new(&pdf);
        let mut b = Decomposition::new(&pdf);
        for _ in 0..4 {
            let pa = a.expand(&pdf);
            let pb = b.expand_with_map(&pdf).is_some();
            assert_eq!(pa, pb);
            let (qa, qb) = (a.partitions(), b.partitions());
            assert_eq!(qa.len(), qb.len());
            for (x, y) in qa.iter().zip(qb.iter()) {
                assert_eq!(x.mbr, y.mbr);
                assert_eq!(x.mass, y.mass);
            }
        }
    }

    #[test]
    fn expand_to_stops_at_depth() {
        let pdf = Pdf::uniform(unit_square());
        let mut dec = Decomposition::new(&pdf);
        dec.expand_to(&pdf, 5);
        assert_eq!(dec.depth(), 5);
        assert_eq!(dec.leaf_count(), 32);
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
                for p in &parts {
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
