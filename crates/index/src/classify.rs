//! Subtree classification: applying a spatial predicate to whole R-tree
//! nodes.
//!
//! Many pruning rules are *monotone under MBR containment* — if they hold
//! for a node's MBR they hold for every entry below it (e.g. the optimal
//! domination criterion of the `udb-domination` crate: enlarging an
//! object's rectangle only increases its MaxDist terms). For such rules a
//! single test can accept or reject an entire subtree, turning the `O(N)`
//! filter step of domination-count queries into an output-sensitive
//! traversal.
//!
//! # Traversal scratch and the entry-count cutoff
//!
//! Query drivers classify the same tree once *per candidate* (the
//! per-candidate subtree filter of index-integrated refinement), so the
//! traversal state is reusable: [`ClassifyScratch`] owns the explicit
//! node stack and both outcome buffers, and
//! [`RTree::classify_entries_with`] runs the whole classification without
//! allocating once the scratch is warm.
//!
//! The same entry point takes a `small_subtree_cutoff`: descending into a
//! subtree holding at most that many entries switches to the *scan
//! filter* — every leaf entry is classified directly, and no further
//! node-level tests are made below. For a monotone predicate this returns
//! exactly the same outcome (a node-level `TakeAll`/`DropAll` verdict
//! implies the same verdict for each entry below), but it skips interior
//! MBR tests that rarely pay off near the decision boundary, where small
//! subtrees overwhelmingly answer `Descend` anyway.

use udb_geometry::Rect;

use crate::node::Node;
use crate::rtree::RTree;

/// Decision of a spatial classifier for a node or entry MBR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeDecision {
    /// Every entry below this MBR satisfies the predicate.
    TakeAll,
    /// No entry below this MBR satisfies the predicate (nor is undecided).
    DropAll,
    /// Recurse; for leaf entries: classify as undecided.
    Descend,
}

/// Reusable traversal state for [`RTree::classify_entries_with`]: the
/// explicit node stack plus the two outcome buffers. A warm scratch makes
/// repeated classifications of the same tree allocation-free — the
/// per-candidate subtree filter of index-integrated query processing
/// reuses one scratch across every candidate of a query.
///
/// The scratch is tied to no particular tree or lifetime; it may be
/// reused across trees and calls. Outcome buffers hold the result of the
/// most recent call until the next one clears them.
#[derive(Debug)]
pub struct ClassifyScratch<T> {
    /// Pending `(node, visit-mode)` frames. Type-erased to raw pointers
    /// so the buffer outlives any single tree borrow; entries are only
    /// dereferenced during the call that pushed them (see the safety
    /// notes in `classify_entries_with`).
    stack: Vec<(*const Node<T>, Visit)>,
    /// Payloads in `TakeAll` subtrees / entries (most recent call).
    pub taken: Vec<T>,
    /// Payloads the classifier could not decide (most recent call).
    pub undecided: Vec<T>,
}

// SAFETY: the raw node pointers are an implementation detail of the
// traversal — they are pushed and dereferenced only inside
// `classify_entries_with`, which borrows the tree for the whole call and
// clears the stack on entry. Between calls the stack holds no pointers
// that will ever be dereferenced, so moving the scratch across threads is
// safe whenever the payload buffers are.
unsafe impl<T: Send> Send for ClassifyScratch<T> {}

impl<T> Default for ClassifyScratch<T> {
    fn default() -> Self {
        ClassifyScratch {
            stack: Vec::new(),
            taken: Vec::new(),
            undecided: Vec::new(),
        }
    }
}

impl<T> ClassifyScratch<T> {
    /// An empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        ClassifyScratch::default()
    }
}

/// How a stacked subtree is visited. Keeping `TakeAll` subtrees on the
/// stack (instead of collecting them inline) makes the outcome buffers
/// fill in strict DFS order for every cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    /// Run the classifier on child MBRs (normal traversal).
    Test,
    /// Small-subtree scan mode: no node-level tests, classify leaf
    /// entries directly.
    Scan,
    /// Below a `TakeAll` verdict: emit every entry, no tests at all.
    Take,
}

impl<T: Clone> RTree<T> {
    /// Classifies every entry with a *containment-monotone* spatial
    /// predicate: `f` is called on node MBRs (deciding whole subtrees) and
    /// on entry MBRs. The caller must guarantee monotonicity — a
    /// `TakeAll`/`DropAll` answer for a covering rectangle must be valid
    /// for every rectangle inside it; otherwise results are meaningless.
    /// Results are left in `scratch.taken` / `scratch.undecided`
    /// (cleared on entry), so a warm [`ClassifyScratch`] makes repeated
    /// classifications allocation-free.
    ///
    /// `small_subtree_cutoff` switches to the scan filter for small
    /// subtrees: a `Descend` verdict on a subtree holding at most that
    /// many entries stops node-level testing below it and classifies its
    /// leaf entries directly. For a monotone `f` (the documented
    /// contract) the outcome is identical for every cutoff — node-level
    /// verdicts only shortcut per-entry verdicts, never change them —
    /// so the cutoff is purely a cost knob. `0` disables it.
    pub fn classify_entries_with(
        &self,
        scratch: &mut ClassifyScratch<T>,
        small_subtree_cutoff: usize,
        mut f: impl FnMut(&Rect) -> NodeDecision,
    ) {
        // a panic in a previous call's `f` may have left frames behind;
        // the pointers are never dereferenced, just dropped here
        scratch.stack.clear();
        scratch.taken.clear();
        scratch.undecided.clear();
        let Some(root) = self.root() else {
            return;
        };
        scratch.stack.push((root as *const Node<T>, Visit::Test));
        while let Some((node, visit)) = scratch.stack.pop() {
            // SAFETY: every pointer on the stack was pushed during *this*
            // call (the stack is cleared on entry) and points into `self`,
            // which is borrowed for the whole call — the node is alive.
            let node = unsafe { &*node };
            match node {
                Node::Leaf(entries) => match visit {
                    // an accepted subtree emits its entries untested
                    Visit::Take => scratch.taken.extend(entries.iter().map(|(_, p)| p.clone())),
                    // entry-level classification: identical in scan and
                    // node-test mode — entries always face `f` directly
                    Visit::Test | Visit::Scan => {
                        for (mbr, p) in entries {
                            match f(mbr) {
                                NodeDecision::TakeAll => scratch.taken.push(p.clone()),
                                NodeDecision::DropAll => {}
                                NodeDecision::Descend => scratch.undecided.push(p.clone()),
                            }
                        }
                    }
                },
                Node::Inner { children, .. } => {
                    // children push in forward order, then the tail is
                    // reversed so pop order is strict DFS: the outcome
                    // buffers fill identically for every cutoff
                    let base = scratch.stack.len();
                    for (mbr, child) in children {
                        match visit {
                            Visit::Take | Visit::Scan => {
                                scratch.stack.push((child as *const Node<T>, visit));
                            }
                            Visit::Test => match f(mbr) {
                                NodeDecision::TakeAll => {
                                    scratch.stack.push((child as *const Node<T>, Visit::Take));
                                }
                                NodeDecision::DropAll => {}
                                NodeDecision::Descend => {
                                    let mode = if child.count() <= small_subtree_cutoff {
                                        Visit::Scan
                                    } else {
                                        Visit::Test
                                    };
                                    scratch.stack.push((child as *const Node<T>, mode));
                                }
                            },
                        }
                    }
                    scratch.stack[base..].reverse();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udb_geometry::{Interval, Point};

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(&Point::from([x, y]))
    }

    /// One classification through a fresh scratch, no cutoff:
    /// `(taken, undecided)`.
    fn classify(
        tree: &RTree<usize>,
        f: impl FnMut(&Rect) -> NodeDecision,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut scratch = ClassifyScratch::new();
        tree.classify_entries_with(&mut scratch, 0, f);
        (scratch.taken, scratch.undecided)
    }

    fn classifier(cut: f64) -> impl FnMut(&Rect) -> NodeDecision {
        // monotone rule: take MBRs entirely left of `cut`, drop entirely
        // right, descend otherwise
        move |mbr: &Rect| {
            if mbr.dim(0).hi() < cut {
                NodeDecision::TakeAll
            } else if mbr.dim(0).lo() > cut {
                NodeDecision::DropAll
            } else {
                NodeDecision::Descend
            }
        }
    }

    #[test]
    fn classify_partitions_by_rule() {
        let items: Vec<(Rect, usize)> = (0..100).map(|i| (pt(i as f64, 0.0), i)).collect();
        let tree = RTree::bulk_load(items, 8);
        let (mut taken, undecided) = classify(&tree, classifier(49.5));
        taken.sort_unstable();
        assert_eq!(taken, (0..50).collect::<Vec<_>>());
        assert!(undecided.is_empty());
    }

    #[test]
    fn straddling_entries_are_undecided() {
        let items = vec![
            (
                Rect::new(vec![Interval::new(0.0, 2.0), Interval::point(0.0)]),
                0usize,
            ),
            (pt(5.0, 0.0), 1),
            (pt(-5.0, 0.0), 2),
        ];
        let tree = RTree::bulk_load(items, 4);
        let (taken, undecided) = classify(&tree, classifier(1.0));
        assert_eq!(undecided, vec![0]);
        assert_eq!(taken, vec![2]);
    }

    #[test]
    fn empty_tree_classifies_empty() {
        let tree: RTree<usize> = RTree::new(4);
        let (taken, undecided) = classify(&tree, |_| NodeDecision::TakeAll);
        assert!(taken.is_empty());
        assert!(undecided.is_empty());
    }

    #[test]
    fn scratch_is_reusable_and_cutoff_preserves_results() {
        let items: Vec<(Rect, usize)> = (0..300).map(|i| (pt(i as f64, 0.0), i)).collect();
        let tree = RTree::bulk_load(items, 8);
        let mut scratch = ClassifyScratch::new();
        let (taken, undecided) = classify(&tree, classifier(123.4));
        for cutoff in [0usize, 4, 8, 16, 64, 1000] {
            // repeated reuse of one scratch, across cutoffs
            tree.classify_entries_with(&mut scratch, cutoff, classifier(123.4));
            assert_eq!(scratch.taken, taken, "cutoff={cutoff}");
            assert_eq!(scratch.undecided, undecided, "cutoff={cutoff}");
        }
    }

    #[test]
    fn scratch_survives_a_panicking_classifier() {
        let items: Vec<(Rect, usize)> = (0..64).map(|i| (pt(i as f64, 0.0), i)).collect();
        let tree = RTree::bulk_load(items, 8);
        let mut scratch = ClassifyScratch::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut calls = 0;
            tree.classify_entries_with(&mut scratch, 0, |_| {
                calls += 1;
                if calls > 2 {
                    panic!("classifier bailed");
                }
                NodeDecision::Descend
            });
        }));
        assert!(panicked.is_err());
        // the scratch is fully usable afterwards (stale frames dropped)
        tree.classify_entries_with(&mut scratch, 0, classifier(31.5));
        assert_eq!(scratch.taken.len(), 32);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Subtree classification with a monotone rule matches
            /// per-entry brute force, for both bulk-loaded and
            /// incrementally built trees — at every cutoff.
            #[test]
            fn prop_classify_matches_bruteforce(seed in 0u64..500, cut in 0.0..100.0f64) {
                let mut rng = StdRng::seed_from_u64(seed);
                let items: Vec<(Rect, usize)> = (0..150)
                    .map(|i| {
                        let x: f64 = rng.gen_range(0.0..100.0);
                        let w: f64 = rng.gen_range(0.0..3.0);
                        (
                            Rect::new(vec![
                                Interval::new(x, x + w),
                                Interval::new(0.0, 1.0),
                            ]),
                            i,
                        )
                    })
                    .collect();
                let bulk = RTree::bulk_load(items.clone(), 8);
                let mut incr = RTree::new(8);
                for (r, p) in items.clone() {
                    incr.insert(r, p);
                }
                let mut scratch = ClassifyScratch::new();
                for tree in [&bulk, &incr] {
                    let out = classify(tree, classifier(cut));
                    let (mut taken, mut undecided) = out.clone();
                    taken.sort_unstable();
                    undecided.sort_unstable();
                    let mut want_taken: Vec<usize> = items
                        .iter()
                        .filter(|(r, _)| r.dim(0).hi() < cut)
                        .map(|(_, i)| *i)
                        .collect();
                    let mut want_undecided: Vec<usize> = items
                        .iter()
                        .filter(|(r, _)| r.dim(0).contains(cut))
                        .map(|(_, i)| *i)
                        .collect();
                    want_taken.sort_unstable();
                    want_undecided.sort_unstable();
                    prop_assert_eq!(&taken, &want_taken);
                    prop_assert_eq!(&undecided, &want_undecided);
                    // every cutoff is outcome-identical
                    for cutoff in [3usize, 20, 150] {
                        tree.classify_entries_with(&mut scratch, cutoff, classifier(cut));
                        prop_assert_eq!(&scratch.taken, &out.0);
                        prop_assert_eq!(&scratch.undecided, &out.1);
                    }
                }
            }
        }
    }
}
