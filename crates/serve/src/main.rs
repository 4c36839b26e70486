//! `serve` — the line-protocol serving binary (see `docs/SERVING.md`).
//!
//! Four modes:
//!
//! * **stdin** (default): read protocol lines from stdin, reply on
//!   stdout, exit on `QUIT`/EOF. `serve --gen ... | serve --shards 4`
//!   is the whole serve-smoke pipeline.
//! * **TCP** (`--tcp ADDR`): accept connections concurrently — one
//!   reader thread per connection feeding the single execution pump
//!   ([`udb_serve::front`]) — with per-connection reply ordering;
//!   engine state persists across connections; `QUIT` closes its own
//!   connection, not the server.
//! * **client** (`--client ADDR`): connect to a TCP server, forward
//!   stdin as raw bytes and echo reply lines to stdout until the server
//!   closes the connection — the scripting client behind the CI
//!   concurrent-connection smoke.
//! * **generator** (`--gen`): emit a deterministic protocol script on
//!   stdout (seed inserts + mixed query/mutation stream + shutdown) for
//!   smoke tests and oracle diffs.
//!
//! Ingestion is queue-fed: reader threads push tagged lines into a
//! channel while the execution pump drains up to `--batch-cap` queued
//! lines at a time and hands each drained slice to
//! [`udb_serve::Server::execute_tagged`], which fuses consecutive
//! queries — across connections — into shared [`udb_core::QueryBatch`]
//! passes over the engine's worker pool. Queueing never reorders: each
//! connection's replies always come back in its own op order.

use udb_core::{env_shards, IdcaConfig, ShardedEngine};
use udb_serve::{front, generate_script, Server};
use udb_workload::{QueryStreamConfig, SyntheticConfig};

const USAGE: &str = "\
serve — line-protocol front for the sharded uncertain-db engine

USAGE:
  serve [--shards N] [--batch-cap N] [--dir PATH] [--tcp ADDR]
  serve --client ADDR
  serve --gen [--objects N] [--batches N] [--batch-size N] [--seed N] [--mutating] [--subs]

OPTIONS:
  --shards N      shard count (default: $UDB_SHARDS, else 1)
  --batch-cap N   max consecutive queries fused into one batch
                  (default 16)
  --dir PATH      durable mode: per-shard WAL + checkpoints under PATH
  --tcp ADDR      listen on ADDR (e.g. 127.0.0.1:7878) instead of stdin;
                  connections are served concurrently
  --client ADDR   connect to a serving --tcp instance: forward stdin,
                  echo replies until the server closes the connection
  --gen           emit a deterministic protocol script on stdout
  --objects N     [gen] seed object count (default 60)
  --batches N     [gen] stream arrival batches (default 3)
  --batch-size N  [gen] operations per arrival batch (default 8)
  --seed N        [gen] stream RNG seed (default 0x57EA)
  --mutating      [gen] mix inserts/deletes into the stream
  --subs          [gen] mix standing-query subscriptions (SUB KNN) into
                  the stream, so mutations push NOTIFY lines
  -h, --help      this text
";

struct Args {
    shards: usize,
    batch_cap: usize,
    dir: Option<String>,
    tcp: Option<String>,
    client: Option<String>,
    gen: bool,
    objects: usize,
    batches: usize,
    batch_size: usize,
    seed: u64,
    mutating: bool,
    subs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        shards: env_shards().unwrap_or(1),
        batch_cap: 16,
        dir: None,
        tcp: None,
        client: None,
        gen: false,
        objects: 60,
        batches: 3,
        batch_size: 8,
        seed: 0x57EA,
        mutating: false,
        subs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--batch-cap" => {
                args.batch_cap = value("--batch-cap")?
                    .parse()
                    .map_err(|e| format!("--batch-cap: {e}"))?;
            }
            "--dir" => args.dir = Some(value("--dir")?),
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--client" => args.client = Some(value("--client")?),
            "--gen" => args.gen = true,
            "--objects" => {
                args.objects = value("--objects")?
                    .parse()
                    .map_err(|e| format!("--objects: {e}"))?
            }
            "--batches" => {
                args.batches = value("--batches")?
                    .parse()
                    .map_err(|e| format!("--batches: {e}"))?
            }
            "--batch-size" => {
                args.batch_size = value("--batch-size")?
                    .parse()
                    .map_err(|e| format!("--batch-size: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--mutating" => args.mutating = true,
            "--subs" => args.subs = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.shards == 0 {
        return Err("--shards must be at least 1".to_owned());
    }
    if args.batch_cap == 0 {
        return Err("--batch-cap must be at least 1".to_owned());
    }
    Ok(args)
}

fn build_server(args: &Args) -> Result<Server, String> {
    let cfg = IdcaConfig::default();
    let engine = match &args.dir {
        Some(dir) => ShardedEngine::open(dir, cfg, args.shards)
            .map_err(|e| format!("cannot open durable engine at {dir}: {e}"))?,
        None => ShardedEngine::with_config(
            udb_object::Database::from_objects(Vec::new()),
            cfg,
            args.shards,
        ),
    };
    Ok(Server::new(engine, args.batch_cap))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };
    if args.gen {
        let objects = SyntheticConfig {
            n: args.objects,
            max_extent: 0.02,
            ..Default::default()
        };
        let stream = QueryStreamConfig {
            batches: args.batches,
            batch_size: args.batch_size,
            k: 3,
            seed: args.seed,
            insert_weight: if args.mutating { 0.2 } else { 0.0 },
            delete_weight: if args.mutating { 0.15 } else { 0.0 },
            subscribe_weight: if args.subs { 0.2 } else { 0.0 },
            ..Default::default()
        };
        print!("{}", generate_script(&objects, &stream));
        return;
    }
    if let Some(addr) = &args.client {
        if let Err(e) = front::run_client(addr) {
            eprintln!("serve: client error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let server = match build_server(&args) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };
    match &args.tcp {
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(addr) {
                Ok(listener) => listener,
                Err(e) => {
                    eprintln!("serve: cannot bind {addr}: {e}");
                    std::process::exit(1);
                }
            };
            match listener.local_addr() {
                Ok(local) => eprintln!("serve: listening on {local}"),
                Err(e) => eprintln!("serve: listening ({e})"),
            }
            if let Err(e) = front::serve_listener(server, listener, None) {
                eprintln!("serve: io error: {e}");
                std::process::exit(1);
            }
        }
        None => {
            front::serve_stdin(server);
        }
    }
}
