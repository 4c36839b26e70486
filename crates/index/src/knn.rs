//! Best-first incremental nearest-neighbour search (Hjaltason & Samet).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use udb_geometry::{LpNorm, Rect};

use crate::node::Node;

/// One nearest-neighbour result: payload plus its MinDist to the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor<T> {
    /// The stored payload.
    pub payload: T,
    /// Box-to-box MinDist between the entry's MBR and the query.
    pub dist: f64,
}

/// Min-heap item: either a node to expand or a data entry to emit.
enum HeapItem<'a, T> {
    Node(&'a Node<T>),
    Entry(&'a T),
}

struct Prioritized<'a, T> {
    dist: f64,
    item: HeapItem<'a, T>,
}

impl<T> PartialEq for Prioritized<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl<T> Eq for Prioritized<'_, T> {}
impl<T> PartialOrd for Prioritized<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Prioritized<'_, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we need the smallest distance
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("NaN distance in kNN heap")
            // entries before nodes at equal distance so results surface
            // as early as possible
            .then_with(|| match (&self.item, &other.item) {
                (HeapItem::Entry(_), HeapItem::Node(_)) => Ordering::Greater,
                (HeapItem::Node(_), HeapItem::Entry(_)) => Ordering::Less,
                _ => Ordering::Equal,
            })
    }
}

/// Distance-ordered iterator over all entries of an R-tree.
pub struct KnnIter<'a, T> {
    heap: BinaryHeap<Prioritized<'a, T>>,
    query: Rect,
    norm: LpNorm,
}

impl<'a, T: Clone> KnnIter<'a, T> {
    pub(crate) fn new(root: Option<&'a Node<T>>, query: Rect, norm: LpNorm) -> Self {
        let mut heap = BinaryHeap::new();
        if let Some(root) = root {
            heap.push(Prioritized {
                dist: 0.0,
                item: HeapItem::Node(root),
            });
        }
        KnnIter { heap, query, norm }
    }
}

impl<T: Clone> Iterator for KnnIter<'_, T> {
    type Item = Neighbor<T>;

    fn next(&mut self) -> Option<Neighbor<T>> {
        while let Some(Prioritized { dist, item }) = self.heap.pop() {
            match item {
                HeapItem::Entry(payload) => {
                    return Some(Neighbor {
                        payload: payload.clone(),
                        dist,
                    });
                }
                HeapItem::Node(Node::Leaf(entries)) => {
                    for (mbr, p) in entries {
                        self.heap.push(Prioritized {
                            dist: mbr.min_dist_rect(&self.query, self.norm),
                            item: HeapItem::Entry(p),
                        });
                    }
                }
                HeapItem::Node(Node::Inner { children, .. }) => {
                    for (mbr, child) in children {
                        self.heap.push(Prioritized {
                            dist: mbr.min_dist_rect(&self.query, self.norm),
                            item: HeapItem::Node(child),
                        });
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtree::RTree;
    use udb_geometry::Point;

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(&Point::from([x, y]))
    }

    #[test]
    fn emits_in_distance_order() {
        let t = RTree::bulk_load(
            vec![
                (pt(5.0, 0.0), 'b'),
                (pt(1.0, 0.0), 'a'),
                (pt(9.0, 0.0), 'c'),
            ],
            4,
        );
        let got: Vec<char> = t
            .knn_iter(&pt(0.0, 0.0), LpNorm::L2)
            .map(|n| n.payload)
            .collect();
        assert_eq!(got, vec!['a', 'b', 'c']);
    }

    #[test]
    fn distances_are_min_dist() {
        let t = RTree::bulk_load(vec![(pt(3.0, 4.0), ())], 4);
        let n = t.knn(&pt(0.0, 0.0), 1, LpNorm::L2);
        assert!((n[0].dist - 5.0).abs() < 1e-12);
    }

    #[test]
    fn uncertain_query_rect_uses_box_distance() {
        // query is itself a box; MinDist to an overlapping entry is 0
        let t = RTree::bulk_load(vec![(pt(1.0, 1.0), 0u8), (pt(9.0, 9.0), 1)], 4);
        let q = Rect::from_corners(&Point::from([0.0, 0.0]), &Point::from([2.0, 2.0]));
        let n = t.knn(&q, 2, LpNorm::L2);
        assert_eq!(n[0].payload, 0);
        assert_eq!(n[0].dist, 0.0);
        assert!(n[1].dist > 0.0);
    }
}
