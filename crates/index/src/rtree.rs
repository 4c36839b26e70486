//! The R-tree proper: bulk loading, insertion, queries.

use udb_geometry::{LpNorm, Rect};

use crate::knn::{KnnIter, Neighbor};
use crate::node::{split_entries, Node, DEFAULT_MAX_ENTRIES};

/// An R-tree mapping MBRs to payloads.
///
/// `T` is the payload type (typically an object id); it must be `Clone`
/// because queries hand out copies.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    pub(crate) root: Option<Node<T>>,
    max_entries: usize,
    min_entries: usize,
    size: usize,
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        RTree::new(DEFAULT_MAX_ENTRIES)
    }
}

impl<T: Clone> RTree<T> {
    /// An empty tree with the given maximal fan-out (`>= 4`).
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "fan-out must be at least 4");
        RTree {
            root: None,
            max_entries,
            min_entries: (max_entries * 2) / 5, // R* recommendation: 40 %
            size: 0,
        }
    }

    /// Bulk-loads with Sort-Tile-Recursive packing (Leutenegger et al.).
    /// Produces a balanced tree with near-full leaves in `O(n log n)`.
    pub fn bulk_load(items: Vec<(Rect, T)>, max_entries: usize) -> Self {
        assert!(max_entries >= 4, "fan-out must be at least 4");
        let mut tree = RTree::new(max_entries);
        tree.size = items.len();
        if items.is_empty() {
            return tree;
        }
        let leaves: Vec<Node<T>> = str_pack(items, max_entries)
            .into_iter()
            .map(Node::Leaf)
            .collect();
        tree.root = Some(build_upper_levels(leaves, max_entries));
        tree
    }

    /// The root node (crate-internal traversal hook).
    pub(crate) fn root(&self) -> Option<&Node<T>> {
        self.root.as_ref()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Height of the tree (0 when empty; leaves have height 1).
    pub fn height(&self) -> usize {
        self.root.as_ref().map_or(0, Node::height)
    }

    /// Inserts an entry (R*-flavoured: least-overlap/least-enlargement
    /// subtree choice, margin-driven split on overflow).
    pub fn insert(&mut self, mbr: Rect, payload: T) {
        self.size += 1;
        let max = self.max_entries;
        let min = self.min_entries;
        match self.root.take() {
            None => {
                self.root = Some(Node::Leaf(vec![(mbr, payload)]));
            }
            Some(mut root) => {
                if let Some((split_a, split_b)) = insert_rec(&mut root, mbr, payload, max, min) {
                    // root split: grow the tree by one level
                    let a_mbr = split_a.mbr();
                    let b_mbr = split_b.mbr();
                    self.root = Some(Node::inner(vec![(a_mbr, split_a), (b_mbr, split_b)]));
                } else {
                    self.root = Some(root);
                }
            }
        }
    }

    /// Removes the entry with exactly this `(mbr, payload)` pair,
    /// returning whether it was found. Deletion condenses the tree the
    /// classic way (Guttman): the search descends only into subtrees
    /// whose box covers `mbr`; removing the entry re-tightens the MBRs
    /// along the path, and any node underflowing below the 40 % minimum
    /// is dissolved — its remaining data entries re-enter through the
    /// normal insertion path. Cached subtree entry counts stay exact
    /// along the whole path ([`RTree::check_invariants`] verifies them),
    /// and a root left with a single child collapses, so the tree
    /// shrinks back as entries leave.
    pub fn remove(&mut self, mbr: &Rect, payload: &T) -> bool
    where
        T: PartialEq,
    {
        let Some(mut root) = self.root.take() else {
            return false;
        };
        let mut orphans: Vec<(Rect, T)> = Vec::new();
        if remove_rec(&mut root, mbr, payload, self.min_entries, &mut orphans).is_none() {
            self.root = Some(root);
            return false;
        }
        // orphans re-enter via insert below
        self.size -= 1 + orphans.len();
        // root fix-ups: an empty root disappears, a single-child inner
        // root collapses one level (repeatedly, after deep condensing)
        self.root = loop {
            match root {
                Node::Leaf(ref entries) if entries.is_empty() => break None,
                Node::Inner { ref children, .. } if children.is_empty() => break None,
                Node::Inner {
                    ref mut children, ..
                } if children.len() == 1 => {
                    root = children.pop().expect("single child").1;
                }
                _ => break Some(root),
            }
        };
        for (mbr, payload) in orphans {
            self.insert(mbr, payload);
        }
        true
    }

    /// The `k` nearest entries to `query` by box-to-box MinDist, sorted
    /// ascending (ties in arbitrary order).
    pub fn knn(&self, query: &Rect, k: usize, norm: LpNorm) -> Vec<Neighbor<T>> {
        self.knn_iter(query, norm).take(k).collect()
    }

    /// Incremental best-first nearest-neighbour iterator (distance-ordered
    /// stream of all entries).
    pub fn knn_iter(&self, query: &Rect, norm: LpNorm) -> KnnIter<'_, T> {
        KnnIter::new(self.root.as_ref(), query.clone(), norm)
    }

    /// Visits every payload whose MBR lies within MinDist `radius` of
    /// `query`, in arbitrary order, stopping the whole traversal early
    /// once `visit` returns `false`. Recursive and allocation-free — the
    /// cheapest form of a bounded probe for hot loops that only count or
    /// test a predicate (the distance-*ordered* [`RTree::knn_iter`]
    /// pays for a traversal heap).
    pub fn for_each_within_distance(
        &self,
        query: &Rect,
        radius: f64,
        norm: LpNorm,
        visit: &mut impl FnMut(&T) -> bool,
    ) {
        fn rec<T>(
            node: &Node<T>,
            query: &Rect,
            radius: f64,
            norm: LpNorm,
            visit: &mut impl FnMut(&T) -> bool,
        ) -> bool {
            match node {
                Node::Leaf(entries) => {
                    for (mbr, p) in entries {
                        if mbr.min_dist_rect(query, norm) <= radius && !visit(p) {
                            return false;
                        }
                    }
                }
                Node::Inner { children, .. } => {
                    for (mbr, child) in children {
                        if mbr.min_dist_rect(query, norm) <= radius
                            && !rec(child, query, radius, norm, visit)
                        {
                            return false;
                        }
                    }
                }
            }
            true
        }
        if radius < 0.0 {
            return;
        }
        if let Some(root) = &self.root {
            rec(root, query, radius, norm, visit);
        }
    }

    /// Visits every payload outside the pruned subtrees, depth-first in
    /// entry order: `prune` is asked about the box of every inner entry
    /// and its subtree is skipped when it answers `true`; every leaf
    /// entry below an unpruned path reaches `visit`. Recursive and
    /// allocation-free, like [`RTree::for_each_within_distance`] — the
    /// shape of a candidate enumeration with a sound subtree veto.
    pub fn for_each_unpruned(
        &self,
        prune: &mut impl FnMut(&Rect) -> bool,
        visit: &mut impl FnMut(&T),
    ) {
        fn rec<T>(
            node: &Node<T>,
            prune: &mut impl FnMut(&Rect) -> bool,
            visit: &mut impl FnMut(&T),
        ) {
            match node {
                Node::Leaf(entries) => entries.iter().for_each(|(_, p)| visit(p)),
                Node::Inner { children, .. } => {
                    for (mbr, child) in children {
                        if !prune(mbr) {
                            rec(child, prune, visit);
                        }
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            rec(root, prune, visit);
        }
    }

    /// Validates structural invariants (test/debug helper): MBR coverage,
    /// balanced depth, fan-out limits. Returns the tree height.
    pub fn check_invariants(&self) -> usize {
        fn rec<T>(node: &Node<T>, max: usize, is_root: bool) -> usize {
            assert!(node.len() <= max, "node overflow: {} > {max}", node.len());
            if !is_root {
                assert!(node.len() >= 1, "empty non-root node");
            }
            match node {
                Node::Leaf(_) => 1,
                Node::Inner { count, children } => {
                    assert_eq!(
                        *count,
                        children.iter().map(|(_, c)| c.count()).sum::<usize>(),
                        "stale cached subtree entry count"
                    );
                    let mut depth = None;
                    for (mbr, child) in children {
                        assert!(
                            mbr.contains_rect(&child.mbr()),
                            "child MBR not covered by parent entry"
                        );
                        let d = rec(child, max, false);
                        match depth {
                            None => depth = Some(d),
                            Some(prev) => assert_eq!(prev, d, "unbalanced tree"),
                        }
                    }
                    depth.expect("inner node without children") + 1
                }
            }
        }
        match &self.root {
            None => 0,
            Some(root) => rec(root, self.max_entries, true),
        }
    }
}

/// Recursive deletion: descends every child whose box covers `mbr` until
/// the entry is found, removes it, and condenses on the way back up —
/// a child dropping below `min` entries is dissolved into `orphans`
/// (all its data entries), a surviving child's box is re-tightened.
/// Cached counts are adjusted exactly along the search path.
fn remove_rec<T: Clone + PartialEq>(
    node: &mut Node<T>,
    mbr: &Rect,
    payload: &T,
    min: usize,
    orphans: &mut Vec<(Rect, T)>,
) -> Option<usize> {
    match node {
        Node::Leaf(entries) => {
            let pos = entries.iter().position(|(m, p)| p == payload && m == mbr)?;
            entries.remove(pos);
            Some(1)
        }
        Node::Inner { count, children } => {
            for i in 0..children.len() {
                if !children[i].0.contains_rect(mbr) {
                    continue;
                }
                if let Some(mut removed) =
                    remove_rec(&mut children[i].1, mbr, payload, min, orphans)
                {
                    if children[i].1.len() < min {
                        // condense: dissolve the underflowed child; its
                        // entries leave this subtree and re-enter through
                        // the normal insertion path — every ancestor's
                        // cached count drops by them too
                        let (_, child) = children.swap_remove(i);
                        removed += child.count();
                        collect_entries(child, orphans);
                    } else {
                        children[i].0 = children[i].1.mbr();
                    }
                    *count -= removed;
                    return Some(removed);
                }
            }
            None
        }
    }
}

/// Drains every data entry below `node` into `out` (condense helper).
fn collect_entries<T>(node: Node<T>, out: &mut Vec<(Rect, T)>) {
    match node {
        Node::Leaf(entries) => out.extend(entries),
        Node::Inner { children, .. } => {
            for (_, child) in children {
                collect_entries(child, out);
            }
        }
    }
}

/// Recursive insertion; returns `Some((a, b))` when the node split.
fn insert_rec<T>(
    node: &mut Node<T>,
    mbr: Rect,
    payload: T,
    max: usize,
    min: usize,
) -> Option<(Node<T>, Node<T>)> {
    match node {
        Node::Leaf(entries) => {
            entries.push((mbr, payload));
            if entries.len() <= max {
                return None;
            }
            let (a, b) = split_entries(std::mem::take(entries), min);
            Some((Node::Leaf(a), Node::Leaf(b)))
        }
        Node::Inner { count, children } => {
            // the new entry lands somewhere below: keep the cached count
            // correct along the whole insertion path
            *count += 1;
            let idx = choose_subtree(children, &mbr);
            children[idx].0 = children[idx].0.union(&mbr);
            if let Some((a, b)) = insert_rec(&mut children[idx].1, mbr, payload, max, min) {
                let a_mbr = a.mbr();
                let b_mbr = b.mbr();
                children[idx] = (a_mbr, a);
                children.push((b_mbr, b));
                if children.len() > max {
                    let (ga, gb) = split_entries(std::mem::take(children), min);
                    return Some((Node::inner(ga), Node::inner(gb)));
                }
            }
            None
        }
    }
}

/// R* subtree choice: minimal volume enlargement, ties by minimal volume.
fn choose_subtree<T>(children: &[(Rect, Node<T>)], mbr: &Rect) -> usize {
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (i, (child_mbr, _)) in children.iter().enumerate() {
        let vol = child_mbr.volume();
        let enlargement = child_mbr.union(mbr).volume() - vol;
        let key = (enlargement, vol);
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// Sort-Tile-Recursive leaf packing: returns groups of at most
/// `max_entries` items, tiled along x then y (generalized to `d`
/// dimensions by recursive slicing).
fn str_pack<T>(mut items: Vec<(Rect, T)>, max_entries: usize) -> Vec<Vec<(Rect, T)>> {
    fn pack_dim<T>(
        mut items: Vec<(Rect, T)>,
        axis: usize,
        dims: usize,
        max_entries: usize,
        out: &mut Vec<Vec<(Rect, T)>>,
    ) {
        if items.len() <= max_entries {
            if !items.is_empty() {
                out.push(items);
            }
            return;
        }
        if axis + 1 == dims {
            // final axis: emit runs of max_entries
            items.sort_by(|a, b| {
                a.0.dim(axis)
                    .center()
                    .partial_cmp(&b.0.dim(axis).center())
                    .expect("NaN in MBR")
            });
            while !items.is_empty() {
                let take = items.len().min(max_entries);
                let rest = items.split_off(take);
                out.push(std::mem::replace(&mut items, rest));
            }
            return;
        }
        // number of leaves and slices per STR
        let leaves = items.len().div_ceil(max_entries);
        let remaining_dims = (dims - axis) as f64;
        let slices = (leaves as f64).powf(1.0 / remaining_dims).ceil() as usize;
        let per_slice = items.len().div_ceil(slices.max(1));
        items.sort_by(|a, b| {
            a.0.dim(axis)
                .center()
                .partial_cmp(&b.0.dim(axis).center())
                .expect("NaN in MBR")
        });
        while !items.is_empty() {
            let take = items.len().min(per_slice);
            let rest = items.split_off(take);
            let slice = std::mem::replace(&mut items, rest);
            pack_dim(slice, axis + 1, dims, max_entries, out);
        }
    }

    let mut out = Vec::new();
    if items.is_empty() {
        return out;
    }
    let dims = items[0].0.dims();
    // sort is done inside pack_dim
    pack_dim(std::mem::take(&mut items), 0, dims, max_entries, &mut out);
    out
}

/// Builds inner levels over packed leaves until a single root remains.
fn build_upper_levels<T>(mut level: Vec<Node<T>>, max_entries: usize) -> Node<T> {
    while level.len() > 1 {
        let entries: Vec<(Rect, Node<T>)> = level.into_iter().map(|n| (n.mbr(), n)).collect();
        let groups = str_pack(entries, max_entries);
        level = groups.into_iter().map(Node::inner).collect();
    }
    level.pop().expect("non-empty level")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use udb_geometry::{Interval, Point};

    fn pt_rect(x: f64, y: f64) -> Rect {
        Rect::from_point(&Point::from([x, y]))
    }

    fn random_rects(n: usize, seed: u64) -> Vec<(Rect, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                let w: f64 = rng.gen_range(0.0..2.0);
                let h: f64 = rng.gen_range(0.0..2.0);
                (
                    Rect::new(vec![Interval::new(x, x + w), Interval::new(y, y + h)]),
                    i,
                )
            })
            .collect()
    }

    /// The range query: payloads whose MBR intersects `q`, sorted — the
    /// entries at MinDist 0, through the bounded traversal.
    fn intersecting(t: &RTree<usize>, q: &Rect) -> Vec<usize> {
        let mut got = Vec::new();
        t.for_each_within_distance(q, 0.0, LpNorm::L2, &mut |&i| {
            got.push(i);
            true
        });
        got.sort_unstable();
        got
    }

    #[test]
    fn empty_tree() {
        let t: RTree<usize> = RTree::default();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(intersecting(&t, &pt_rect(0.0, 0.0)).is_empty());
        assert!(t.knn(&pt_rect(0.0, 0.0), 3, LpNorm::L2).is_empty());
    }

    #[test]
    fn bulk_load_invariants() {
        for n in [1, 4, 16, 17, 100, 1000] {
            let t = RTree::bulk_load(random_rects(n, 7), 16);
            assert_eq!(t.len(), n);
            let h = t.check_invariants();
            assert_eq!(h, t.height());
        }
    }

    #[test]
    fn insert_invariants() {
        let mut t = RTree::new(8);
        for (r, i) in random_rects(500, 3) {
            t.insert(r, i);
        }
        assert_eq!(t.len(), 500);
        t.check_invariants();
    }

    #[test]
    fn remove_maintains_invariants_and_queries() {
        // interleave removals with intersection checks against a scan oracle,
        // validating structural invariants (incl. cached counts) after
        // every deletion
        let items = random_rects(300, 21);
        let mut t = RTree::bulk_load(items.clone(), 8);
        let mut live = items.clone();
        let mut rng = StdRng::seed_from_u64(99);
        let q = Rect::new(vec![Interval::new(10.0, 60.0), Interval::new(10.0, 60.0)]);
        while !live.is_empty() {
            let idx = rng.gen_range(0..live.len());
            let (mbr, payload) = live.swap_remove(idx);
            assert!(t.remove(&mbr, &payload), "entry {payload} not found");
            assert_eq!(t.len(), live.len());
            t.check_invariants();
            if live.len().is_multiple_of(37) {
                let got = intersecting(&t, &q);
                let mut want: Vec<usize> = live
                    .iter()
                    .filter(|(r, _)| r.intersects(&q))
                    .map(|(_, i)| *i)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want);
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn remove_missing_entry_is_noop() {
        let items = random_rects(40, 23);
        let mut t = RTree::bulk_load(items.clone(), 8);
        assert!(!t.remove(&pt_rect(1000.0, 1000.0), &0));
        // right box, wrong payload
        assert!(!t.remove(&items[0].0, &usize::MAX));
        assert_eq!(t.len(), 40);
        t.check_invariants();
    }

    #[test]
    fn remove_then_insert_round_trips() {
        let items = random_rects(120, 29);
        let mut t = RTree::bulk_load(items.clone(), 8);
        for (mbr, payload) in items.iter().take(60) {
            assert!(t.remove(mbr, payload));
        }
        for (mbr, payload) in items.iter().take(60) {
            t.insert(mbr.clone(), *payload);
        }
        assert_eq!(t.len(), 120);
        t.check_invariants();
        let q = Rect::new(vec![Interval::new(0.0, 100.0), Interval::new(0.0, 100.0)]);
        let got = intersecting(&t, &q);
        let mut want: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, i)| *i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn range_matches_scan_bulk() {
        let items = random_rects(400, 11);
        let t = RTree::bulk_load(items.clone(), 16);
        let q = Rect::new(vec![Interval::new(20.0, 40.0), Interval::new(20.0, 40.0)]);
        let got = intersecting(&t, &q);
        let mut want: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, i)| *i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty(), "query should match something");
    }

    #[test]
    fn knn_matches_scan() {
        let items = random_rects(300, 13);
        let t = RTree::bulk_load(items.clone(), 16);
        let q = pt_rect(50.0, 50.0);
        let got = t.knn(&q, 10, LpNorm::L2);
        assert_eq!(got.len(), 10);
        // sorted ascending
        for w in got.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
        // matches brute force distances
        let mut dists: Vec<f64> = items
            .iter()
            .map(|(r, _)| r.min_dist_rect(&q, LpNorm::L2))
            .collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (n, d) in got.iter().zip(dists.iter()) {
            assert!((n.dist - d).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_iter_streams_everything_in_order() {
        let items = random_rects(64, 17);
        let t = RTree::bulk_load(items, 8);
        let q = pt_rect(0.0, 0.0);
        let all: Vec<Neighbor<usize>> = t.knn_iter(&q, LpNorm::L2).collect();
        assert_eq!(all.len(), 64);
        for w in all.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
    }

    #[test]
    fn within_distance_filters() {
        let items = vec![
            (pt_rect(0.0, 0.0), 0usize),
            (pt_rect(3.0, 0.0), 1),
            (pt_rect(10.0, 0.0), 2),
        ];
        let t = RTree::bulk_load(items, 4);
        let mut got = Vec::new();
        t.for_each_within_distance(&pt_rect(0.0, 0.0), 5.0, LpNorm::L2, &mut |&i| {
            got.push(i);
            true
        });
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn for_each_within_distance_visits_all_and_stops_early() {
        let items = random_rects(200, 29);
        let t = RTree::bulk_load(items.clone(), 8);
        let q = pt_rect(40.0, 60.0);
        let radius = 20.0;
        let mut seen: Vec<usize> = Vec::new();
        t.for_each_within_distance(&q, radius, LpNorm::L2, &mut |&i| {
            seen.push(i);
            true
        });
        seen.sort_unstable();
        let want: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.min_dist_rect(&q, LpNorm::L2) <= radius)
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(seen, want);
        assert!(!want.is_empty());
        // early stop: the traversal ends after the first `false`
        let mut visits = 0;
        t.for_each_within_distance(&q, radius, LpNorm::L2, &mut |_| {
            visits += 1;
            visits < 3
        });
        assert_eq!(visits, 3);
        // negative radius visits nothing
        t.for_each_within_distance(&q, -1.0, LpNorm::L2, &mut |_| {
            panic!("negative radius must visit nothing")
        });
    }

    #[test]
    fn for_each_unpruned_skips_exactly_the_pruned_subtrees() {
        let items = random_rects(300, 31);
        let t = RTree::bulk_load(items.clone(), 4);
        assert!(t.height() >= 3);
        let all = |t: &RTree<usize>, prune: &mut dyn FnMut(&Rect) -> bool| {
            let mut seen: Vec<usize> = Vec::new();
            t.for_each_unpruned(&mut |r| prune(r), &mut |&i| seen.push(i));
            seen.sort_unstable();
            seen
        };
        // pruning nothing visits everything, once
        let want: Vec<usize> = (0..items.len()).collect();
        assert_eq!(all(&t, &mut |_| false), want);
        // pruning every box wholly left of x = 50 still reaches every
        // entry right of it (their boxes are never pruned), and skips
        // some entries left of it
        let got = all(&t, &mut |r| r.dim(0).hi() < 50.0);
        let right: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.dim(0).lo() >= 50.0)
            .map(|(_, i)| *i)
            .collect();
        assert!(right.iter().all(|i| got.binary_search(i).is_ok()));
        assert!(got.len() < items.len(), "nothing was pruned");
        // pruning everything visits nothing below the root
        assert!(all(&t, &mut |_| true).is_empty());
        // a leaf root has no inner boxes to prune
        let small = RTree::bulk_load(random_rects(3, 1), 4);
        assert_eq!(all(&small, &mut |_| true), vec![0, 1, 2]);
    }

    #[test]
    fn incremental_insert_then_query() {
        let mut t = RTree::new(4);
        for i in 0..50usize {
            t.insert(pt_rect(i as f64, 0.0), i);
        }
        t.check_invariants();
        let got = t.knn(&pt_rect(25.2, 0.0), 3, LpNorm::L2);
        let ids: Vec<usize> = got.iter().map(|n| n.payload).collect();
        assert_eq!(ids[0], 25);
        assert!(ids.contains(&26) && ids.contains(&24));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_knn_equals_linear_scan(seed in 0u64..500, k in 1usize..20) {
            let items = random_rects(120, seed);
            let bulk = RTree::bulk_load(items.clone(), 8);
            let mut incr = RTree::new(8);
            for (r, i) in items.clone() {
                incr.insert(r, i);
            }
            let q = pt_rect(50.0, 50.0);
            for t in [&bulk, &incr] {
                let got = t.knn(&q, k, LpNorm::L2);
                let mut dists: Vec<f64> = items
                    .iter()
                    .map(|(r, _)| r.min_dist_rect(&q, LpNorm::L2))
                    .collect();
                dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
                prop_assert_eq!(got.len(), k.min(items.len()));
                for (n, d) in got.iter().zip(dists.iter()) {
                    prop_assert!((n.dist - d).abs() < 1e-9);
                }
            }
        }

        #[test]
        fn prop_range_equals_linear_scan(seed in 0u64..500) {
            let items = random_rects(150, seed);
            let t = RTree::bulk_load(items.clone(), 8);
            let q = Rect::new(vec![Interval::new(10.0, 60.0), Interval::new(30.0, 80.0)]);
            let mut want: Vec<usize> = items
                .iter()
                .filter(|(r, _)| r.intersects(&q))
                .map(|(_, i)| *i)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(intersecting(&t, &q), want);
        }
    }
}
