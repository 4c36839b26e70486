//! The three named workloads: their engine configuration, traffic shape
//! and the seeded generator of every input they send.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udb_core::IdcaConfig;
use udb_domination::DominationCriterion;
use udb_geometry::LpNorm;
use udb_object::{SplitStrategy, UncertainObject};
use udb_workload::{PdfKind, SyntheticConfig};

/// `k` of every kNN / RkNN query and subscription.
pub const K: usize = 5;
/// Threshold `τ` of every threshold query and subscription.
pub const TAU: f64 = 0.3;
/// `m` of every top-`m` query.
pub const M: usize = 3;
/// Refinement cap (`IdcaConfig::max_iterations`); see README.md for why
/// it is 6 and not the shipped 8.
pub const MAX_ITERATIONS: usize = 6;
/// Query-run fusion cap of the server (the `serve` binary's default).
pub const BATCH_CAP: usize = 16;
/// Nominal length of a closed-loop pass, seconds: `--seconds` buys that
/// many seconds' worth of whole passes (at least one), so a run measures
/// the same work however fast the host runs. A time-bounded run measured
/// more passes on a faster host, and the churned database made later
/// passes slower.
pub const PASS_S: f64 = 10.0;
/// Share of generated objects drawn near a hot spot (the
/// `QueryStreamConfig` default).
const HOTSPOT_FRACTION: f64 = 0.75;
/// Half-extent of the offset around a hot-spot center (the
/// `QueryStreamConfig` default).
const HOTSPOT_SPREAD: f64 = 0.02;

/// Input size: `Full` is what the benchmark measures, `Tiny` keeps the
/// same shapes at a few hundred objects for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 10,000 objects, the paper's §VII default.
    Full,
    /// A few hundred objects.
    Tiny,
}

impl Scale {
    /// Parses `full` / `tiny`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// The lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// One protocol verb the generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `KNN k tau json`.
    Knn,
    /// `RKNN k tau json`.
    Rknn,
    /// `TOPM m json`.
    TopM,
    /// `INSERT json`.
    Insert,
    /// `DELNEAR json`.
    DelNear,
    /// `UPDATE gid json` of a live id.
    Update,
}

impl Kind {
    /// Whether the verb mutates the database.
    pub fn is_mutation(self) -> bool {
        matches!(self, Kind::Insert | Kind::DelNear | Kind::Update)
    }
}

/// Relative weights of the verbs in a workload's measured mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// `KNN`.
    pub knn: f64,
    /// `RKNN`.
    pub rknn: f64,
    /// `TOPM`.
    pub topm: f64,
    /// `INSERT`.
    pub insert: f64,
    /// `DELNEAR`.
    pub delnear: f64,
    /// `UPDATE`.
    pub update: f64,
}

impl Mix {
    fn table(&self) -> [(f64, Kind); 6] {
        [
            (self.knn, Kind::Knn),
            (self.rknn, Kind::Rknn),
            (self.topm, Kind::TopM),
            (self.insert, Kind::Insert),
            (self.delnear, Kind::DelNear),
            (self.update, Kind::Update),
        ]
    }

    fn total(&self) -> f64 {
        self.table().iter().map(|(w, _)| w).sum()
    }

    fn pick(&self, u: f64) -> Kind {
        let mut x = u * self.total();
        for (w, kind) in self.table() {
            if x < w {
                return kind;
            }
            x -= w;
        }
        Kind::Knn
    }
}

/// A Fisher–Yates shuffle of a copy of `pool`.
fn shuffled(pool: &[OpSpec], rng: &mut StdRng) -> Vec<OpSpec> {
    let mut v = pool.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

const READ_MIX: Mix = Mix {
    knn: 0.5,
    rknn: 0.25,
    topm: 0.25,
    insert: 0.0,
    delnear: 0.0,
    update: 0.0,
};

const CHURN_MIX: Mix = Mix {
    knn: 0.2,
    rknn: 0.1,
    topm: 0.1,
    insert: 0.2,
    delnear: 0.2,
    update: 0.2,
};

/// The closed-loop mutation probe that follows the measured phase of the
/// read-only workloads: equal parts `INSERT`, `DELNEAR`, `UPDATE`.
const PROBE_MIX: Mix = Mix {
    knn: 0.0,
    rknn: 0.0,
    topm: 0.0,
    insert: 1.0,
    delnear: 1.0,
    update: 1.0,
};

/// How ops are offered to the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// One connection; the next op is sent when the previous reply lands.
    Closed,
    /// One sender thread on a fixed schedule of this many ops per second,
    /// one reader thread; latency counts from the scheduled send time.
    Open(f64),
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Seed objects loaded through `INSERT` during set-up.
    pub objects: usize,
    /// Server shard count.
    pub shards: usize,
    /// Durable server (per-shard WAL + checkpoints) or in-memory.
    pub durable: bool,
    /// Closed or open loop.
    pub arrival: Arrival,
    /// Hot-spot centers (0: every object follows the data distribution).
    pub hotspots: usize,
    /// The measured mix.
    pub mix: Mix,
    /// Share of mutation objects drawn near a hot spot (queries use the
    /// `QueryStreamConfig` default, 0.75).
    pub mutation_hotspot_fraction: f64,
    /// `SUB KNN` subscriptions registered on the hot spots after set-up.
    pub subs: usize,
    /// Ops in one pass of the measured stream. Every pass sends the same
    /// fixed pool of ops in a seed-drawn order (see [`Workload::inputs`]).
    /// The first pass warms the server up and is not timed; a closed loop
    /// then measures whole passes.
    pub pool: usize,
    /// Ops every run serves whatever its speed: the prefix of the
    /// warm-up pass the reply digest covers, and the length of the
    /// prefix of the first measured pass the traced run times.
    pub fixed_ops: usize,
    /// Closed-loop mutations after the measured phase (read-only
    /// workloads), so every workload reports mutation latency.
    pub probe_mutations: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Tail percentiles reported for `KNN`, `RKNN`, `TOPM` and the
    /// mutations: per verb, the highest with at least ten samples beyond
    /// it when a run measures three passes (`--seconds 30`).
    pub tail_pct: Tails,
}

/// Tail percentile of each verb class.
#[derive(Debug, Clone, Copy)]
pub struct Tails {
    /// `KNN`.
    pub knn: f64,
    /// `RKNN`.
    pub rknn: f64,
    /// `TOPM`.
    pub topm: f64,
    /// `INSERT` / `DELNEAR` / `UPDATE`.
    pub mutation: f64,
}

const TINY_TAILS: Tails = Tails {
    knn: 50.0,
    rknn: 50.0,
    topm: 50.0,
    mutation: 50.0,
};

impl Workload {
    /// Every workload name, in `BENCHMARK.json` order.
    pub const NAMES: [&'static str; 3] = ["paper_mix", "spread_open", "churn_durable"];

    /// The workload called `name` at `scale`.
    pub fn named(name: &str, scale: Scale) -> Option<Workload> {
        let tiny = scale == Scale::Tiny;
        let objects = if tiny { 300 } else { 10_000 };
        let w = match name {
            "paper_mix" => Workload {
                name: "paper_mix",
                objects,
                shards: 1,
                durable: false,
                arrival: Arrival::Closed,
                hotspots: 2,
                mix: READ_MIX,
                mutation_hotspot_fraction: HOTSPOT_FRACTION,
                subs: 0,
                pool: if tiny { 20 } else { 300 },
                fixed_ops: if tiny { 20 } else { 200 },
                probe_mutations: if tiny { 12 } else { 1000 },
                setups: if tiny { 2 } else { 9 },
                tail_pct: if tiny {
                    TINY_TAILS
                } else {
                    Tails {
                        knn: 97.0,
                        rknn: 95.0,
                        topm: 95.0,
                        mutation: 99.0,
                    }
                },
            },
            "spread_open" => Workload {
                name: "spread_open",
                objects,
                shards: 2,
                durable: false,
                arrival: Arrival::Open(if tiny { 40.0 } else { 7.0 }),
                hotspots: 0,
                mix: READ_MIX,
                mutation_hotspot_fraction: HOTSPOT_FRACTION,
                subs: 0,
                pool: if tiny { 20 } else { 60 },
                fixed_ops: if tiny { 20 } else { 60 },
                probe_mutations: if tiny { 12 } else { 1000 },
                setups: if tiny { 2 } else { 9 },
                tail_pct: if tiny {
                    TINY_TAILS
                } else {
                    Tails {
                        knn: 85.0,
                        rknn: 75.0,
                        topm: 75.0,
                        mutation: 99.0,
                    }
                },
            },
            "churn_durable" => Workload {
                name: "churn_durable",
                objects,
                shards: 1,
                durable: true,
                arrival: Arrival::Closed,
                hotspots: 2,
                mix: CHURN_MIX,
                mutation_hotspot_fraction: 0.1,
                subs: if tiny { 2 } else { 8 },
                pool: if tiny { 30 } else { 400 },
                fixed_ops: if tiny { 30 } else { 200 },
                probe_mutations: 0,
                setups: if tiny { 2 } else { 3 },
                tail_pct: if tiny {
                    TINY_TAILS
                } else {
                    Tails {
                        knn: 95.0,
                        rknn: 91.0,
                        topm: 91.0,
                        mutation: 98.0,
                    }
                },
            },
            _ => return None,
        };
        Some(w)
    }

    /// The engine configuration, every field set explicitly so no
    /// `UDB_*` default can leak in.
    pub fn config(&self) -> IdcaConfig {
        IdcaConfig {
            norm: LpNorm::L2,
            criterion: DominationCriterion::Optimal,
            split_strategy: SplitStrategy::LongestExtent,
            max_iterations: MAX_ITERATIONS,
            uncertainty_target: 1e-3,
            snapshot_threads: 1,
            candidate_threads: 1,
            batch_threads: 1,
            shard_threads: 1,
            shard_materialize_min: 0,
            decomp_cache_entries: 1024,
            prefilter: false,
            wal_sync_every: 1,
            checkpoint_every: 1024,
        }
    }

    /// The data distribution: the paper's synthetic rectangles, with the
    /// `SyntheticConfig` default seed.
    fn synthetic(&self) -> SyntheticConfig {
        SyntheticConfig {
            n: self.objects,
            dims: 2,
            max_extent: 0.004,
            pdf: PdfKind::Uniform,
            seed: 0x1CDE_2011,
        }
    }

    /// Every input of one run. The database, the hot-spot centers, the
    /// subscriptions and the pool of measured ops are fixed (one data set
    /// and one query set, as in the paper's evaluation); `seed` draws the
    /// order of every pass over the pool, the probe and the top-up. A
    /// query's cost spans two orders of magnitude with where it falls, so
    /// a seed-drawn query set moved the per-verb medians by a fifth
    /// between seeds; a fixed pool measured in whole passes takes that
    /// sampling out of the difference between runs. `passes` is how many
    /// passes to generate, the warm-up included (a run may use fewer).
    pub fn inputs(&self, seed: u64, passes: usize) -> Inputs {
        let data = self.synthetic();
        let seed_objects: Vec<UncertainObject> =
            data.generate().iter().map(|(_, o)| o.clone()).collect();
        let mut fixed = StdRng::seed_from_u64(0x57EA);
        let centers: Vec<[f64; 2]> = (0..self.hotspots)
            .map(|_| [fixed.gen_range(0.0..1.0), fixed.gen_range(0.0..1.0)])
            .collect();
        let near = |rng: &mut StdRng, center: &[f64; 2]| {
            let c: Vec<f64> = center
                .iter()
                .map(|x| x + rng.gen_range(-HOTSPOT_SPREAD..HOTSPOT_SPREAD))
                .collect();
            data.generate_object_at(c, rng)
        };
        let subs: Vec<UncertainObject> = (0..self.subs)
            .map(|i| near(&mut fixed, &centers[i % centers.len()]))
            .collect();
        // the pool: each verb's exact share of it, and of each verb's ops
        // the exact hot-spot share
        let mut pool = Vec::with_capacity(self.pool);
        for (weight, kind) in self.mix.table() {
            let n = (weight / self.mix.total() * self.pool as f64).round() as usize;
            // an UPDATE moves a live object, drawn uniformly, to a place
            // the data distribution draws, so the data stays uniform
            // however many passes a run makes
            let hot_frac = match kind {
                Kind::Update => 0.0,
                _ if kind.is_mutation() => self.mutation_hotspot_fraction,
                _ => HOTSPOT_FRACTION,
            };
            let hot = if centers.is_empty() {
                0
            } else {
                (hot_frac * n as f64).round() as usize
            };
            for j in 0..n {
                let object = if j < hot {
                    near(&mut fixed, &centers[j % centers.len()])
                } else {
                    data.generate_object(&mut fixed)
                };
                pool.push(OpSpec {
                    kind,
                    object,
                    pick: fixed.gen::<u64>(),
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
        let ops = (0..passes)
            .flat_map(|_| shuffled(&pool, &mut rng))
            .collect();
        let draw = |rng: &mut StdRng, hot: f64| {
            if !centers.is_empty() && rng.gen_range(0.0..1.0) < hot {
                let i = rng.gen_range(0..centers.len());
                near(rng, &centers[i])
            } else {
                data.generate_object(rng)
            }
        };
        let spec = |rng: &mut StdRng, mix: &Mix| {
            let kind = mix.pick(rng.gen_range(0.0..1.0));
            let object = draw(rng, self.mutation_hotspot_fraction);
            OpSpec {
                kind,
                object,
                pick: rng.gen::<u64>(),
            }
        };
        let probe = (0..self.probe_mutations)
            .map(|_| spec(&mut rng, &PROBE_MIX))
            .collect();
        // churn tops up with uniform arrivals before the crash-style drop
        let topup = if self.durable {
            (0..1024).map(|_| data.generate_object(&mut rng)).collect()
        } else {
            Vec::new()
        };
        Inputs {
            seed_objects,
            subs,
            ops,
            probe,
            topup,
        }
    }
}

/// One generated operation: the verb, its object, and a random draw that
/// picks the live id an `UPDATE` targets at send time.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// The verb.
    pub kind: Kind,
    /// Query object, arrival, deletion probe or replacement object.
    pub object: UncertainObject,
    /// Picks the `UPDATE` target among the live ids.
    pub pick: u64,
}

impl OpSpec {
    /// The protocol line; `update_id` resolves an `UPDATE` target.
    pub fn line(&self, update_id: impl FnOnce(u64) -> u32) -> String {
        let json = serde_json::to_string(&self.object).expect("objects serialize");
        match self.kind {
            Kind::Knn => format!("KNN {K} {TAU} {json}"),
            Kind::Rknn => format!("RKNN {K} {TAU} {json}"),
            Kind::TopM => format!("TOPM {M} {json}"),
            Kind::Insert => format!("INSERT {json}"),
            Kind::DelNear => format!("DELNEAR {json}"),
            Kind::Update => format!("UPDATE {} {json}", update_id(self.pick)),
        }
    }
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Set-up arrivals, in `INSERT` order.
    pub seed_objects: Vec<UncertainObject>,
    /// `SUB KNN` query objects.
    pub subs: Vec<UncertainObject>,
    /// The measured stream.
    pub ops: Vec<OpSpec>,
    /// The mutation probe after the measured phase.
    pub probe: Vec<OpSpec>,
    /// Arrivals that bring the WAL tail to a fixed length before the
    /// crash-style drop (durable workloads).
    pub topup: Vec<UncertainObject>,
}

/// The `INSERT` line of a set-up or top-up arrival.
pub fn insert_line(object: &UncertainObject) -> String {
    format!(
        "INSERT {}",
        serde_json::to_string(object).expect("objects serialize")
    )
}

/// The `SUB KNN` line of a subscription.
pub fn sub_line(object: &UncertainObject) -> String {
    format!(
        "SUB KNN {K} {TAU} {}",
        serde_json::to_string(object).expect("objects serialize")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: &Workload, seed: u64) -> Vec<String> {
        let inputs = w.inputs(seed, 2);
        let mut out: Vec<String> = inputs.seed_objects.iter().map(insert_line).collect();
        out.extend(inputs.subs.iter().map(sub_line));
        out.extend(inputs.ops.iter().map(|op| op.line(|p| p as u32)));
        out.extend(inputs.probe.iter().map(|op| op.line(|p| p as u32)));
        out
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in Workload::NAMES {
            let w = Workload::named(name, Scale::Tiny).expect("known workload");
            assert_eq!(lines(&w, 1), lines(&w, 1), "{name}");
            assert_ne!(lines(&w, 1), lines(&w, 2), "{name}");
        }
    }

    #[test]
    fn passes_hold_each_verb_at_its_exact_share() {
        let w = Workload::named("churn_durable", Scale::Full).expect("known workload");
        let ops = w.inputs(3, 1).ops;
        let pass = &ops[..];
        assert_eq!(pass.len(), w.pool);
        let mutations = pass.iter().filter(|o| o.kind.is_mutation()).count();
        assert_eq!(mutations, w.pool * 6 / 10);
        let read = Workload::named("paper_mix", Scale::Full).expect("known workload");
        let ops = read.inputs(3, 2).ops;
        let (first, second) = ops.split_at(read.pool);
        for pass in [first, second] {
            let knn = pass.iter().filter(|o| o.kind == Kind::Knn).count();
            assert_eq!(knn, read.pool / 2);
        }
        assert!(ops.iter().all(|o| !o.kind.is_mutation()));
    }
}
