//! The snapshot pair walk: refreshes the factor cache of the current
//! level pair by pair and folds each pair's factors into the §IV-E
//! aggregation.
//!
//! The walk builds one [`PairClassifier`] per pair range and
//! [`retargets`](PairClassifier::retarget) it to each pair (no
//! allocation per pair). A partition test either reads the criterion
//! tables (`tables.rs`) — one const-generic body, like the kernel's: at
//! `D = 2` it reads a partition's two ids and the slot's two row starts
//! as fixed-length slices (no loop, no per-dimension bounds check), other
//! counts run over slices — or, where the fallback rule says so, streams
//! the partition's intervals from the flat partition arena into
//! [`PairClassifier::classify_dims`], the kernel copy unrolled for two
//! dimensions (the slice body for others). Either way a test yields one
//! [`DecisionClass`](udb_domination::DecisionClass) (robust or open domination, robust or open
//! never-domination, undecided), which `FactorCache::classify_into`
//! matches once per partition: robust classes settle mass, the others
//! join the slot's open list.
//!
//! Aggregation reuses a single flat-arena [`Ugf`] (plus scratch) across
//! all pairs via [`Ugf::reset`], so the steady-state snapshot performs no
//! heap allocation in the pair loop.
//!
//! # Parallel snapshots
//!
//! With [`IdcaConfig::snapshot_threads`] > 1 the pair loop fans out over
//! the engine's persistent [`crate::parallel::WorkerPool`] (engines
//! inject their pool via [`Refiner::with_pool`]; a stand-alone refiner
//! lazily creates its own): pairs are split into contiguous chunks, each
//! job owns its chunk's cache slots (`split_at_mut`), records every
//! pair's weighted bound and CDF increments in a chunk-local buffer and
//! writes its chunk's open lists into a private arena segment. The
//! calling thread then adds the buffers in chunk order and pair order —
//! exactly the sequential loop's sums — and concatenates the segments
//! (slot ranges rebased), so results are bit-identical at every lane
//! count. At the final level each job owns one reused row of slots
//! instead, and nothing is concatenated. Recording costs `O(pairs · k)`
//! extra work and memory, next to the `O(pairs · influence · k)` UGF
//! multiplies.

use udb_domination::{DecisionClass, DominationCriterion, OptimalSums, PairClassifier};
use udb_genfunc::{CountDistributionBounds, Ugf};
use udb_object::Partition;

use super::level::{FactorCache, RefreshMode};
use super::tables::{CriterionTables, TableKeys};
use super::{Influence, Lineage, Refiner};
use crate::config::IdcaConfig;

impl Refiner<'_> {
    /// The pair loop of [`Refiner::snapshot`]: refreshes the factor cache
    /// for the current refinement state and streams each positive-weight
    /// pair's factor bounds into `sink`. The parallel path records each
    /// chunk's per-pair increments ([`ExactSink::recording`]) and adds
    /// them to `sink` in chunk order, so the sums are the sequential
    /// ones, bit for bit, at every lane count.
    pub(super) fn snapshot_pairs(&mut self, sink: &mut ExactSink) {
        let n_inf = self.influence.len();
        let (b_parts, r_parts) = (self.b.level().partitions(), self.r.level().partitions());
        let dims = (b_parts.len(), r_parts.len());
        let n_pairs = dims.0 * dims.1;
        let b_map = self.b_map.map(self.b.level());
        let r_map = self.r_map.map(self.r.level());
        let pairs_moved = b_map.is_some() || r_map.is_some();
        let mode = self.level.mode(pairs_moved);
        // every driver stops at this level (`Refiner::converged`), so its
        // slots are streamed through one reused row per lane instead of
        // building the next cache
        let final_level = self.iteration >= self.cfg.max_iterations;
        let threads = self.cfg.snapshot_threads.max(1).min(n_pairs.max(1));
        let chunk = n_pairs.div_ceil(threads).max(1);
        let n_chunks = n_pairs.div_ceil(chunk).max(1);
        let rows = if final_level { n_chunks } else { n_pairs };
        // the previous level (when the walk carries slots in from it)
        // stays alive through the walk, which streams open lists from the
        // ancestor slots without cloning
        let (old, old_r_len) = self.level.begin(mode, final_level, dims, rows, n_inf);
        let ancestors: Vec<u32> = if mode == RefreshMode::Remapped {
            let lineage =
                |map: Option<&[u32]>, idx: usize| map.map_or(idx, |map| map[idx] as usize);
            (0..n_pairs)
                .map(|new_pair| {
                    let ob = lineage(b_map, new_pair / dims.1);
                    let or = lineage(r_map, new_pair % dims.1);
                    (ob * old_r_len + or) as u32
                })
                .collect()
        } else {
            Vec::new()
        };
        if mode != RefreshMode::InPlace {
            // B' or R' changed: re-key the criterion tables
            self.tables_pay = self.cfg.criterion == DominationCriterion::Optimal
                && self.table_keys.assign(b_parts, r_parts);
        }
        // interval ids only where tables pay; no table without an
        // influence object that uses it
        let tables = self.tables_pay && {
            let mut any = false;
            for inf in &mut self.influence {
                any |= inf.assess_tables();
            }
            any
        };
        self.b_map = Lineage::Unchanged;
        self.r_map = Lineage::Unchanged;

        // lineage prefix offsets per influence object (children of old
        // partition `p` occupy new indices `offsets[p]..offsets[p+1]`);
        // irrelevant after a full rebuild
        let inf_offsets: Vec<Option<Vec<u32>>> = self
            .influence
            .iter()
            .map(|inf| {
                let map = inf
                    .lineage
                    .map(inf.level())
                    .filter(|_| mode != RefreshMode::Full)?;
                let mut offsets = vec![0u32; 1];
                for (new_idx, &old_idx) in map.iter().enumerate() {
                    while offsets.len() <= old_idx as usize {
                        offsets.push(new_idx as u32);
                    }
                    debug_assert!(offsets.len() == old_idx as usize + 1);
                }
                offsets.push(map.len() as u32);
                Some(offsets)
            })
            .collect();
        let (cache, arena, old_arena) = self.level.buffers();
        let walk = PairWalk {
            b_parts,
            r_parts,
            influence: &self.influence,
            inf_offsets: &inf_offsets,
            old: &old,
            ancestors: &ancestors,
            old_arena,
            mode,
            final_level,
            cfg: &self.cfg,
            keys: tables.then_some(&self.table_keys),
        };

        // one set of tables per lane, dropped with the snapshot: rows are
        // valid for one snapshot only, and a refiner kept alive between
        // snapshots (top-m rounds) should not hold them
        let n_keys = walk.keys.map_or(0, |keys| n_inf * keys.stride);
        let mut lane_tables: Vec<CriterionTables> = (0..n_chunks)
            .map(|_| CriterionTables::new(n_keys))
            .collect();
        // (open partition references, slots with any) over every lane
        let mut open = (0, 0);
        if threads <= 1 {
            open = process_pair_range(&walk, 0, n_pairs, cache, arena, &mut lane_tables[0], sink);
        } else {
            let pool = self
                .pool
                .get(threads)
                .expect("threads > 1 always yields a pool");
            let lane_pairs = |t: usize| t * chunk..((t + 1) * chunk).min(n_pairs);
            // per lane: its recording sink, its private arena segment
            // (rebased into the shared generation below) and its counts
            let mut lanes: Vec<_> = (0..n_chunks)
                .map(|_| {
                    (
                        ExactSink::recording(sink.agg.len(), sink.k_eff),
                        Vec::new(),
                        (0, 0),
                    )
                })
                .collect();
            let (walk, mut cache_rest) = (&walk, cache);
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n_chunks);
            for (t, (lane, tables)) in lanes.iter_mut().zip(&mut lane_tables).enumerate() {
                let (lane_sink, lane_arena, lane_open) = lane;
                let pairs = lane_pairs(t);
                // a chunk's slots, or at the final level its lane's row
                let rows = if final_level { 1 } else { pairs.len() };
                let (mine, rest) = cache_rest.split_at_mut(rows * n_inf);
                cache_rest = rest;
                jobs.push(Box::new(move || {
                    let (start, end) = (pairs.start, pairs.end);
                    *lane_open =
                        process_pair_range(walk, start, end, mine, lane_arena, tables, lane_sink);
                }));
            }
            pool.scope(jobs);
            for (t, (lane_sink, lane_arena, lane_open)) in lanes.into_iter().enumerate() {
                sink.add_terms(lane_sink.terms.as_deref().expect("lane sinks record"));
                open = (open.0 + lane_open.0, open.1 + lane_open.1);
                if !final_level {
                    let pairs = lane_pairs(t);
                    let slots = pairs.start * n_inf..pairs.end * n_inf;
                    self.level.append_lane(slots, &lane_arena);
                }
            }
        }
        for tables in &lane_tables {
            self.partition_tests.0 += tables.tests.0;
            self.partition_tests.1 += tables.tests.1;
        }
        self.level
            .finish(final_level, (open.0, open.1, n_pairs * n_inf));
        for inf in &mut self.influence {
            inf.lineage = Lineage::Unchanged;
        }
    }
}

/// The aggregation half of a snapshot pass (the paper's §IV-E): one UGF
/// per pair, folded into weighted count bounds plus the predicate CDF.
/// [`process_pair_range`] streams every positive-weight pair's factor
/// bounds into one of these. A pair lane's sink records each pair's
/// weighted increments instead of summing them ([`ExactSink::recording`]);
/// the calling thread then adds the records in pair order
/// ([`ExactSink::add_terms`]), so every lane count performs the
/// sequential sum's exact operation sequence.
pub(super) struct ExactSink {
    pub(super) ugf: Ugf,
    pub(super) agg: CountDistributionBounds,
    /// The predicate's `k` net of certain dominators, which is also the
    /// UGF truncation point (`None`: full PDF, no truncation).
    k_eff: Option<usize>,
    pub(super) cdf_acc: Option<(f64, f64)>,
    /// A pair lane's record, one entry per positive-weight pair: its
    /// `len` lower and `len` upper increments, then (with a predicate)
    /// its two CDF increments. `None` sums straight into `agg`.
    terms: Option<Vec<f64>>,
}

impl ExactSink {
    /// A sink summing straight into zeroed bounds of length `len`.
    pub(super) fn new(ugf: Ugf, len: usize, k_eff: Option<usize>) -> Self {
        ExactSink {
            ugf,
            agg: CountDistributionBounds::zero(len),
            k_eff,
            cdf_acc: k_eff.map(|_| (0.0, 0.0)),
            terms: None,
        }
    }

    /// A pair lane's sink: `agg` becomes per-pair scratch and each
    /// pair's increments are recorded for [`ExactSink::add_terms`].
    fn recording(len: usize, k_eff: Option<usize>) -> Self {
        ExactSink {
            terms: Some(Vec::new()),
            ..ExactSink::new(Ugf::new(k_eff), len, k_eff)
        }
    }

    /// Ends the pair, folding its aggregate in with weight `w` (or
    /// recording the increments that fold would add).
    pub(super) fn finish_pair(&mut self, w: f64, n_inf: usize) {
        if self.terms.is_some() {
            // zeroed scratch: `0 + w·x` is exactly the increment `w·x`,
            // and a slot the UGF leaves alone records `0`, whose later
            // addition is exact too
            let (lower, upper) = self.agg.bounds_mut();
            lower.fill(0.0);
            upper.fill(0.0);
        }
        self.ugf.add_bounds_weighted(&mut self.agg, w);
        let cdf = self.k_eff.map(|k| {
            let (lo, hi) = self.ugf.cdf_bounds(k.min(n_inf + 1));
            // counts can never reach k when k > n_inf: cdf = 1
            let (lo, hi) = if k > n_inf { (1.0, 1.0) } else { (lo, hi) };
            (w * lo, w * hi)
        });
        match &mut self.terms {
            Some(terms) => {
                terms.extend_from_slice(self.agg.lower_slice());
                terms.extend_from_slice(self.agg.upper_slice());
                if let Some((lo, hi)) = cdf {
                    terms.extend_from_slice(&[lo, hi]);
                }
            }
            None => {
                if let (Some(acc), Some((lo, hi))) = (self.cdf_acc.as_mut(), cdf) {
                    acc.0 += lo;
                    acc.1 += hi;
                }
            }
        }
    }

    /// Adds a pair lane's recorded increments, pair by pair, in the
    /// order the lane recorded them.
    fn add_terms(&mut self, terms: &[f64]) {
        let len = self.agg.len();
        let stride = 2 * len + if self.cdf_acc.is_some() { 2 } else { 0 };
        for pair in terms.chunks_exact(stride) {
            let (lower, upper) = self.agg.bounds_mut();
            for (acc, &x) in lower.iter_mut().zip(&pair[..len]) {
                *acc += x;
            }
            for (acc, &x) in upper.iter_mut().zip(&pair[len..2 * len]) {
                *acc += x;
            }
            if let Some(acc) = self.cdf_acc.as_mut() {
                acc.0 += pair[2 * len];
                acc.1 += pair[2 * len + 1];
            }
        }
    }
}

/// The read-only context of one snapshot's pair walk, shared by every
/// pair lane.
struct PairWalk<'w> {
    b_parts: &'w [Partition],
    r_parts: &'w [Partition],
    influence: &'w [Influence],
    /// Per influence object: its lineage prefix offsets, when it
    /// expanded since the last snapshot.
    inf_offsets: &'w [Option<Vec<u32>>],
    /// The previous level's cache (`Remapped`, and `InPlace` at the
    /// final level), and each new pair's ancestor pair index in it
    /// (`Remapped`).
    old: &'w [FactorCache],
    ancestors: &'w [u32],
    /// The previous arena generation all incoming open ranges point into.
    old_arena: &'w [u32],
    mode: RefreshMode,
    /// Whether this is the final level: each lane's slots are one reused
    /// row, and its arena is scratch.
    final_level: bool,
    cfg: &'w IdcaConfig,
    /// The criterion-table keys, when this snapshot keeps tables.
    keys: Option<&'w TableKeys>,
}

impl PairWalk<'_> {
    /// Writes pair `pair_idx`'s incoming slot states into `slots`: empty
    /// for a `Full` rebuild, each ancestor slot's settled state for a
    /// remap (settled mass is final by monotonicity; the walk
    /// re-evaluates the ancestor's open list), and at the final level
    /// the previous level's slots verbatim. A cached `InPlace` walk's
    /// slots are current already.
    fn carry_in(&self, pair_idx: usize, slots: &mut [FactorCache]) {
        let n_inf = slots.len();
        match self.mode {
            RefreshMode::Full => slots.fill(FactorCache::EMPTY),
            RefreshMode::Remapped => {
                let anc = self.ancestors[pair_idx] as usize * n_inf;
                for (slot, anc) in slots.iter_mut().zip(&self.old[anc..anc + n_inf]) {
                    *slot = FactorCache::carried_from(anc);
                }
            }
            RefreshMode::InPlace if self.final_level => {
                slots.copy_from_slice(&self.old[pair_idx * n_inf..(pair_idx + 1) * n_inf]);
            }
            RefreshMode::InPlace => {}
        }
    }
}

/// Processes the pairs `start..end` (global pair indices): refreshes their
/// cache slots, writes their new-generation open lists into `arena` and
/// streams the §IV-E aggregation into `sink`. `cache` holds exactly the
/// slots of this range, row-major by pair, or at the final level one row
/// that every pair reuses (the arena is then scratch, cleared per pair);
/// `tables` are the lane's criterion tables (sized for `walk.keys`).
/// Shared by the sequential and pool-parallel snapshot paths so both
/// produce the same per-pair operation sequence. Returns the open
/// partition references and the slots with any.
fn process_pair_range(
    walk: &PairWalk<'_>,
    start: usize,
    end: usize,
    cache: &mut [FactorCache],
    arena: &mut Vec<u32>,
    tables: &mut CriterionTables,
    sink: &mut ExactSink,
) -> (usize, usize) {
    let PairWalk {
        b_parts,
        r_parts,
        influence,
        inf_offsets,
        old,
        ancestors,
        old_arena,
        mode,
        final_level,
        cfg,
        keys,
    } = *walk;
    let n_inf = influence.len();
    let r_len = r_parts.len();
    // one classifier for the whole range, retargeted to each pair: the
    // pair walk allocates nothing
    let (bp, rp) = (&b_parts[start / r_len], &r_parts[start % r_len]);
    let mut pc = PairClassifier::new(&bp.mbr, &rp.mbr, cfg.criterion, cfg.norm);
    let mut open = (0, 0);
    for pair_idx in start..end {
        let pair = (pair_idx / r_len, pair_idx % r_len);
        let (bp, rp) = (&b_parts[pair.0], &r_parts[pair.1]);
        let row = if final_level { 0 } else { pair_idx - start };
        let slots = &mut cache[row * n_inf..(row + 1) * n_inf];
        walk.carry_in(pair_idx, slots);
        let w = bp.mass * rp.mass;
        if w <= 0.0 {
            continue;
        }
        if final_level {
            arena.clear();
        }
        // the pair's precomputed criterion half: every classification of
        // this pair — object pre-tests and partition streams alike —
        // shares it, so only partition-side terms run in the hot loop
        pc.retarget(&bp.mbr, &rp.mbr);
        let tests = PairTests {
            pc: &pc,
            keys,
            pair,
        };
        sink.ugf.reset(sink.k_eff);
        for ((inf_idx, (inf, offsets)), slot) in influence
            .iter()
            .zip(inf_offsets)
            .enumerate()
            .zip(slots.iter_mut())
        {
            match mode {
                // seed from the full partition list
                RefreshMode::Full => {
                    let all = 0..inf.level().partitions().len() as u32;
                    tests.classify(slot, all, inf_idx, inf, tables, arena);
                }
                // stream the ancestor slot's open list (expanded through
                // the influence lineage when that also changed); a slot
                // with nothing open can never change — its bounds are
                // settled mass only, stable under any refinement
                RefreshMode::Remapped => {
                    let anc = &old[ancestors[pair_idx] as usize * n_inf + inf_idx];
                    if anc.open_len > 0 {
                        // object-level pre-test: if the whole object
                        // robustly decides against the shrunken pair,
                        // every open partition decides identically
                        let anc_open = anc.open_in(old_arena);
                        match (pc.classify(&inf.mbr), offsets) {
                            (DecisionClass::RobustDominate, _) => {
                                slot.settle_open(true, inf.existence)
                            }
                            (DecisionClass::RobustNever, _) => {
                                slot.settle_open(false, inf.existence)
                            }
                            (_, Some(offsets)) => {
                                let children = children(anc_open, offsets);
                                tests.classify(slot, children, inf_idx, inf, tables, arena)
                            }
                            (_, None) => {
                                let same = anc_open.iter().copied();
                                tests.classify(slot, same, inf_idx, inf, tables, arena)
                            }
                        }
                    }
                }
                // pairs unchanged: slots of expanded influence objects
                // reclassify their open children; the rest carry their
                // open list into the new generation verbatim
                RefreshMode::InPlace if slot.open_len > 0 => match offsets {
                    Some(offsets) => {
                        let children = children(slot.open_in(old_arena), offsets);
                        tests.classify(slot, children, inf_idx, inf, tables, arena)
                    }
                    None => slot.carry_open(old_arena, arena),
                },
                RefreshMode::InPlace => {}
            }
            sink.ugf.multiply(slot.bounds.lower, slot.bounds.upper);
            open.0 += slot.open_len as usize;
            open.1 += usize::from(slot.open_len > 0);
        }
        sink.finish_pair(w, n_inf);
    }
    open
}

/// The children of the partitions `open` under the lineage prefix
/// `offsets` (children of old partition `p` are `offsets[p]..offsets[p+1]`).
fn children<'o>(open: &'o [u32], offsets: &'o [u32]) -> impl Iterator<Item = u32> + 'o {
    open.iter()
        .flat_map(|&p| offsets[p as usize]..offsets[p as usize + 1])
}

/// The partition tests of one pair `(B', R')`: the kernel retargeted to
/// it, and the criterion-table keys when the walk keeps tables.
struct PairTests<'p> {
    pc: &'p PairClassifier,
    keys: Option<&'p TableKeys>,
    /// `(B', R')` partition indices.
    pair: (usize, usize),
}

impl PairTests<'_> {
    /// Classifies influence object `inf_idx`'s `candidates` into `slot`
    /// (`FactorCache::classify_into`): from the lane's criterion tables
    /// when the walk keeps them and the object qualifies, else by the
    /// kernel.
    fn classify(
        &self,
        slot: &mut FactorCache,
        candidates: impl Iterator<Item = u32>,
        inf_idx: usize,
        inf: &Influence,
        tables: &mut CriterionTables,
        arena: &mut Vec<u32>,
    ) {
        match self.keys.filter(|_| inf.tabled == Some(true)) {
            Some(keys) => {
                tables.open_rows(keys, inf_idx, inf, self.pair, self.pc);
                let tested = if inf.mbr.dims() == 2 {
                    self.classify_tabled::<2>(slot, candidates, inf, tables, arena)
                } else {
                    self.classify_tabled::<0>(slot, candidates, inf, tables, arena)
                };
                tables.tests.0 += tested;
            }
            None => {
                let dims = inf.mbr.dims();
                let intervals = inf.level().intervals();
                let tested = slot.classify_into(candidates, inf, arena, |p| {
                    self.pc.classify_dims(&intervals[p * dims..(p + 1) * dims])
                });
                tables.tests.1 += tested;
            }
        }
    }

    /// The tabled partition test over the slot's rows
    /// ([`CriterionTables::open_rows`]): `D` dimensions, or with `D = 0`
    /// the influence object's count over slices, like the kernel's own
    /// `D = 2` / slice copies. The rows and each partition's ids are
    /// sliced once, to constant length `D` when it is not 0, so the
    /// 2-D lookup is two loads without a loop.
    #[inline(always)]
    fn classify_tabled<const D: usize>(
        &self,
        slot: &mut FactorCache,
        candidates: impl Iterator<Item = u32>,
        inf: &Influence,
        tables: &CriterionTables,
        arena: &mut Vec<u32>,
    ) -> u64 {
        let dims = if D == 0 { inf.mbr.dims() } else { D };
        let (rows, starts) = (&tables.rows[..], &tables.slot_rows[..dims]);
        let (ids, intervals) = (&inf.ids.ids[..], inf.level().intervals());
        slot.classify_into(candidates, inf, arena, |p| {
            let ids = &ids[p * dims..][..dims];
            let mbr = &intervals[p * dims..][..dims];
            // the kernel's sums: the same shares, added in dimension
            // order from zero
            let mut sums = OptimalSums::ZERO;
            for (&start, &id) in starts.iter().zip(ids) {
                sums.add(rows[(start + id) as usize]);
            }
            let class = self.pc.decide_sums(sums, mbr);
            debug_assert_eq!(
                class,
                self.pc.classify_dims(mbr),
                "criterion table disagrees with the kernel"
            );
            class
        })
    }
}
