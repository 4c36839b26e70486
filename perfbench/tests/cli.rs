//! The benchmark's own tests: every metric is printed with its unit, a
//! tampered reply fails the check, the seed alone fixes the op stream,
//! and a `UDB_*` variable stops the run.

use std::process::{Command, Output};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric listed in one section of
/// `BENCHMARK.json` (one metric object per line there).
fn listed(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_owned())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn tiny(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--scale",
            "tiny",
        ])
        .args(extra)
        .output()
        .expect("perfbench runs")
}

fn result_line(out: &Output) -> String {
    assert!(
        out.status.success(),
        "perfbench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

fn digest(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.contains(" digest "))
        .expect("digest printed");
    line.rsplit(' ').next().expect("digest value").to_owned()
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(per_layer.len() > 30);
    for workload in ["paper_mix", "spread_open", "churn_durable"] {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = result_line(&tiny(workload, "3", trace, &[]));
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in metrics.iter() {
                let at = line
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload}: {name} missing in {line}"));
                let rest = &line[at..];
                let unit_at = rest.find("\"unit\": \"").expect("unit follows") + 9;
                assert_eq!(
                    &rest[unit_at..unit_at + unit.len() + 1],
                    format!("{unit}\"")
                );
            }
        }
    }
}

#[test]
fn a_flipped_reply_byte_fails_the_check() {
    // seed 1 has a recorded digest at tiny scale, so even a flip that
    // keeps every invariant (a digit for a digit) is caught
    let clean = result_line(&tiny("paper_mix", "1", "0", &[]));
    assert!(clean.starts_with("{\"correct\": true"), "{clean}");
    for op in ["5", "9"] {
        let tampered = result_line(&tiny("paper_mix", "1", "0", &["--tamper-reply", op]));
        assert!(tampered.starts_with("{\"correct\": false"), "{tampered}");
    }
    let tampered = result_line(&tiny("churn_durable", "1", "0", &["--tamper-reply", "7"]));
    assert!(tampered.starts_with("{\"correct\": false"), "{tampered}");
}

#[test]
fn the_seed_fixes_the_op_stream_and_digest() {
    let a = tiny("churn_durable", "4", "0", &[]);
    let b = tiny("churn_durable", "4", "0", &[]);
    let c = tiny("churn_durable", "5", "0", &[]);
    assert_eq!(digest(&a), digest(&b));
    assert_ne!(digest(&a), digest(&c));
}

#[test]
fn udb_variables_stop_the_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "paper_mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("UDB_WAL", "1")
        .output()
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
