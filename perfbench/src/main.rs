//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Diagnostics go to standard error. `--scale tiny` shrinks the inputs
//! (the benchmark's own tests use it).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::client::serve_child;
use perfbench::run::{run, Options};
use perfbench::workload::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <paper_mix|spread_open|churn_durable> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]";

fn main() -> ExitCode {
    // the UDB_* shims silently change engine defaults and code paths
    let pinned: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("UDB_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset every UDB_* variable",
            pinned.join(", ")
        );
        return ExitCode::from(2);
    }
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn main_inner() -> Result<(), String> {
    let mut workload: Option<String> = None;
    let mut child: Option<String> = None;
    let mut seed: u64 = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut dir: Option<PathBuf> = None;
    let mut tamper: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |what: &str| format!("bad {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("--seconds"))?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--scale" => scale = Scale::parse(&value()?).ok_or_else(|| bad("--scale"))?,
            "--tamper-reply" => tamper = Some(value()?.parse().map_err(|_| bad("--tamper-reply"))?),
            "--serve-child" => child = Some(value()?),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if let Some(name) = child {
        let w =
            Workload::named(&name, scale).ok_or_else(|| format!("unknown workload {name:?}"))?;
        return serve_child(&w, dir.as_deref());
    }
    let name = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let w = Workload::named(&name, scale).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; known: {}",
            Workload::NAMES.join(", ")
        )
    })?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    let work = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let o = Options {
        workload: w,
        scale,
        seed,
        seconds,
        trace,
        tamper,
        exe,
        work: work.clone(),
    };
    let result = run(&o);
    let _ = std::fs::remove_dir_all(&work);
    let report = result?;
    println!("{}", report.to_json());
    Ok(())
}
