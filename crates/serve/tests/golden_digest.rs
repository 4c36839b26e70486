//! Pins the served answers across commits, not only across shard
//! counts: the deterministic `serve --gen --mutating` script (60 seed
//! objects, the generator's defaults) runs in process under three
//! criterion/norm configurations, and an FNV-1a digest of the replies
//! must equal a recorded constant. Any bit drift in a reply — a changed
//! decision, probability bound or formatting — changes the digest.
//!
//! If a change is *meant* to alter answers, re-record the constants and
//! say why in the change description.

use udb_core::IdcaConfig;
use udb_domination::DominationCriterion;
use udb_geometry::LpNorm;
use udb_serve::{empty_server, generate_script};
use udb_workload::{QueryStreamConfig, SyntheticConfig};

/// The script `serve --gen --mutating` prints with its default flags.
fn script() -> Vec<String> {
    let objects = SyntheticConfig {
        n: 60,
        max_extent: 0.02,
        ..Default::default()
    };
    let stream = QueryStreamConfig {
        batches: 3,
        batch_size: 8,
        k: 3,
        seed: 0x57EA,
        insert_weight: 0.2,
        delete_weight: 0.15,
        subscribe_weight: 0.0,
        ..Default::default()
    };
    generate_script(&objects, &stream)
        .lines()
        .map(str::to_owned)
        .collect()
}

/// 64-bit FNV-1a over the replies, each terminated by a newline (the
/// bytes `serve --shards 1` writes to stdout).
fn fnv1a(replies: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in replies.iter().flat_map(|r| r.bytes().chain([b'\n'])) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Replies of a one-shard server (the `serve` default) with `norm` and
/// `criterion` in an otherwise default configuration.
fn replies(norm: LpNorm, criterion: DominationCriterion) -> Vec<String> {
    let cfg = IdcaConfig {
        norm,
        criterion,
        ..Default::default()
    };
    let mut server = empty_server(cfg, 1, 16);
    let (replies, quit) = server.execute_batch(&script());
    assert!(quit, "the script ends with QUIT");
    replies
}

#[test]
fn replies_match_the_recorded_digests() {
    let cases = [
        (
            LpNorm::L2,
            DominationCriterion::Optimal,
            0xb91a_e434_a48e_a6a0,
        ),
        (
            LpNorm::L1,
            DominationCriterion::Optimal,
            0xf3e0_8a41_25bb_59e1,
        ),
        (
            LpNorm::L2,
            DominationCriterion::MinMax,
            0x031a_0018_95ee_637f,
        ),
    ];
    for (norm, criterion, expected) in cases {
        let replies = replies(norm, criterion);
        assert!(
            replies.iter().any(|r| r.starts_with("RES ")),
            "{norm:?}/{criterion:?}: the script must answer queries"
        );
        assert_eq!(
            fnv1a(&replies),
            expected,
            "{norm:?}/{criterion:?}: replies drifted from the recorded digest"
        );
    }
}
