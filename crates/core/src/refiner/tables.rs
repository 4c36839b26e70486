//! Criterion tables: memoized partition tests of the pair walk.
//!
//! Every partition test of a snapshot decides the optimal criterion of
//! Corollary 1 for one open partition `A'` against one pair `(B', R')`.
//! The criterion is a sum over dimensions of shares that each depend
//! only on the intervals `(A'_i, B'_i, R'_i)`, and the §V median-split
//! kd-decomposition makes partitions share those intervals: at depth 6
//! a uniform object's 64 partitions have 9.5 distinct intervals per
//! dimension on average, a Gaussian's 14.4. So the walk memoizes the
//! shares in **criterion tables**:
//!
//! * **Interval ids** — each partition's interval in each dimension
//!   gets an id, equal for bit-equal intervals (a linear scan per
//!   interval). `B'`'s and `R'`'s are assigned in the first walk after
//!   either expands ([`TableKeys::assign`]); an influence object's once
//!   per partition list, in the first walk whose pair side passes the
//!   fallback rule below ([`Influence::assess_tables`]), so refiners that
//!   stay shallow, and every 1-D refiner, never pay for them.
//! * **Tables** — a walk keeps one table per (influence, dimension),
//!   keyed by the pair's `(B'_d id, R'_d id)`. A row holds
//!   [`PairClassifier::dim_terms`] for each distinct `A'_d` interval of
//!   the influence object and is filled the first time a slot of a pair
//!   with that key needs it. A partition test is then `D` row lookups,
//!   the shares added in dimension order from zero, and
//!   [`PairClassifier::decide_sums`]: the kernel's own operation
//!   sequence, so every decision is bit-identical (a NaN sum re-runs the
//!   kernel). Debug builds cross-check every table decision against
//!   [`PairClassifier::classify_dims`]. Each pair lane builds its own
//!   tables, and they are dropped with the snapshot: the rows hold for
//!   one snapshot only, and with elongated objects (many distinct
//!   intervals along the long axis) they reached about 0.7x the factor
//!   cache's bytes, which refiners kept alive between snapshots (top-`m`
//!   rounds) would otherwise all hold.
//! * **Fallback rule** (fixed, no knob) — an influence object uses the
//!   tables only when each dimension has at most `1 / TABLE_MIN_SHARE`
//!   (one half) as many distinct intervals as the object has partitions:
//!   at depth 6 the uniform object's 64 partitions share each interval
//!   6.7 times, the Gaussian's 4.4 times, and the correlated histogram's
//!   (44.9 distinct intervals) only 1.4 times, so it keeps calling the
//!   kernel. A walk builds tables only when in each dimension the
//!   distinct `(B'_d, R'_d)` keys number at most `1 / TABLE_MIN_SHARE`
//!   of the pairs, so a row serves two pairs on average and the key
//!   index never outgrows the factor cache. 1-D decompositions (disjoint
//!   intervals, nothing shared) fail both halves, and the MinMax
//!   criterion, which has no per-dimension sums, never builds tables.
//!
//! [`Refiner::partition_tests`](super::Refiner::partition_tests) counts
//! the tests each way.

use udb_domination::{OptimalSums, PairClassifier};
use udb_geometry::Interval;
use udb_object::Partition;

use super::Influence;

/// The fallback rule's sharing factor (see the module docs): criterion
/// tables are kept where each distinct interval serves at least this
/// many partitions, and each table key this many pairs, on average.
const TABLE_MIN_SHARE: usize = 2;

impl Influence {
    /// Whether this object uses criterion tables, assigning its
    /// interval ids once per partition list.
    pub(super) fn assess_tables(&mut self) -> bool {
        *self.tabled.get_or_insert_with(|| {
            let dims = self.mbr.dims();
            let level = self.dec.level();
            let limit = level.partitions().len() / TABLE_MIN_SHARE;
            limit > 0
                && self
                    .ids
                    .assign(dims, level.intervals().chunks_exact(dims), limit)
        })
    }
}

/// Interval ids of a list of boxes: box `p`'s interval in dimension `d`
/// has id `ids[p·dims + d]`, equal ids for bit-equal intervals.
#[derive(Debug, Default)]
pub(super) struct IntervalIds {
    pub(super) ids: Vec<u32>,
    /// The distinct intervals of each dimension, indexed by id.
    distinct: Vec<Vec<Interval>>,
}

impl IntervalIds {
    /// Assigns ids to `boxes` (linear scan per interval). Gives up,
    /// returning `false` and leaving the ids unusable, once a dimension
    /// has more than `limit` distinct intervals.
    fn assign<'b>(
        &mut self,
        dims: usize,
        boxes: impl Iterator<Item = &'b [Interval]>,
        limit: usize,
    ) -> bool {
        self.ids.clear();
        self.distinct.resize_with(dims, Vec::new);
        for known in &mut self.distinct {
            known.clear();
        }
        let same = |x: &Interval, y: &Interval| {
            x.lo().to_bits() == y.lo().to_bits() && x.hi().to_bits() == y.hi().to_bits()
        };
        for intervals in boxes {
            for (known, iv) in self.distinct.iter_mut().zip(intervals) {
                let id = match known.iter().position(|k| same(k, iv)) {
                    Some(id) => id,
                    None if known.len() == limit => return false,
                    None => {
                        known.push(*iv);
                        known.len() - 1
                    }
                };
                self.ids.push(id as u32);
            }
        }
        true
    }
}

/// The key layout of a walk's criterion tables: the interval ids of
/// `B'` and `R'`, and where each dimension's `(B'_d id, R'_d id)` keys
/// start within an influence object's block of keys.
#[derive(Debug, Default)]
pub(super) struct TableKeys {
    b: IntervalIds,
    r: IntervalIds,
    base: Vec<usize>,
    /// Keys per influence object: `Σ_d |B'_d ids| · |R'_d ids|`.
    pub(super) stride: usize,
}

impl TableKeys {
    /// Re-keys for new `B'`/`R'` partition lists. Returns whether tables
    /// pay: whether in every dimension the keys number at most
    /// `1 / TABLE_MIN_SHARE` of the pairs (the pair half of the fallback
    /// rule).
    pub(super) fn assign(&mut self, b_parts: &[Partition], r_parts: &[Partition]) -> bool {
        let dims = b_parts[0].mbr.dims();
        let b_boxes = b_parts.iter().map(|p| p.mbr.intervals());
        let r_boxes = r_parts.iter().map(|p| p.mbr.intervals());
        self.b.assign(dims, b_boxes, usize::MAX);
        self.r.assign(dims, r_boxes, usize::MAX);
        let n_pairs = b_parts.len() * r_parts.len();
        self.base.clear();
        self.stride = 0;
        let mut pays = true;
        for d in 0..dims {
            let keys = self.b.distinct[d].len() * self.r.distinct[d].len();
            pays &= keys * TABLE_MIN_SHARE <= n_pairs;
            self.base.push(self.stride);
            self.stride += keys;
        }
        pays
    }

    /// The key of influence object `inf_idx`'s dimension-`d` table for
    /// the pair `(bp, rp)` (partition indices).
    #[inline]
    fn key(&self, inf_idx: usize, d: usize, bp: usize, rp: usize) -> usize {
        let dims = self.base.len();
        let b_id = self.b.ids[bp * dims + d] as usize;
        let r_id = self.r.ids[rp * dims + d] as usize;
        inf_idx * self.stride + self.base[d] + b_id * self.r.distinct[d].len() + r_id
    }
}

/// One lane's criterion tables for one walk: `row_at[key]` is where the
/// key's row starts in `rows`, or [`UNFILLED`]; a row holds one
/// [`PairClassifier::dim_terms`] per distinct interval of the influence
/// object's dimension.
#[derive(Debug, Default)]
pub(super) struct CriterionTables {
    row_at: Vec<u32>,
    pub(super) rows: Vec<OptimalSums>,
    /// The row starts of the slot being classified, one per dimension.
    pub(super) slot_rows: Vec<u32>,
    /// The lane's partition tests, `(from the tables, by the kernel)`.
    pub(super) tests: (u64, u64),
}

/// A table key whose row is not filled in this walk.
const UNFILLED: u32 = u32::MAX;

impl CriterionTables {
    /// Empty tables over `n_keys` keys.
    pub(super) fn new(n_keys: usize) -> Self {
        CriterionTables {
            row_at: vec![UNFILLED; n_keys],
            ..CriterionTables::default()
        }
    }

    /// Points `slot_rows` at influence object `inf_idx`'s rows for the
    /// pair `(bp, rp)`, filling the rows no slot has needed yet from
    /// `pc` (retargeted to that pair).
    #[inline]
    pub(super) fn open_rows(
        &mut self,
        keys: &TableKeys,
        inf_idx: usize,
        inf: &Influence,
        (bp, rp): (usize, usize),
        pc: &PairClassifier,
    ) {
        self.slot_rows.clear();
        for (d, distinct) in inf.ids.distinct.iter().enumerate() {
            let key = keys.key(inf_idx, d, bp, rp);
            if self.row_at[key] == UNFILLED {
                self.row_at[key] = u32::try_from(self.rows.len())
                    .ok()
                    .filter(|&start| start != UNFILLED)
                    .expect("criterion table overflow");
                self.rows
                    .extend(distinct.iter().map(|&a_d| pc.dim_terms(d, a_d)));
            }
            self.slot_rows.push(self.row_at[key]);
        }
    }
}
