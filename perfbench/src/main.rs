//! End-to-end and per-layer benchmark of the sharded containment-query
//! service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <point_cold|batch_warm|ingest_mixed> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates its inputs from the
//! seed (200,000 records, |I| = 2,000, Zipf 0.8, lengths 2-20, and a pool
//! of 6,144 queries: 512 subset, equality and superset queries at each
//! |qs| in {2, 4, 6, 8}), serves them from `Service::build_dir` (2 shards,
//! one thread each, the cost planner, all three structures) over
//! `FileStorage` with a WAL, and drives the service from one closed-loop
//! client thread for `--seconds`. `setup_s` is the median of five
//! `build_dir` + first `persist` runs. Every answer is checked against
//! `datagen::brute` over the base records plus every record inserted
//! before the request; the checks, like input generation, run outside the
//! timed calls, and `query_qps` divides the queries by the time spent
//! inside timed calls.
//!
//! * `point_cold`: single-query requests, 32 KiB pool per shard, the pool
//!   dropped at the start of every pass over the queries.
//! * `batch_warm`: 64-query requests of one predicate each, 64 MiB pool
//!   per shard, warmed by one untimed pass.
//! * `ingest_mixed`: cycles of one 16-record `try_insert` and three
//!   single-query requests, 32 KiB pool, `Service::persist` every 64
//!   cycles. Every 128 cycles the run restarts from a copy of the
//!   persisted set-up, so each such round does the same work.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer metrics (see `trace.rs`). The working files live in a fresh
//! directory under `.perfbench/`, removed on exit; a traced run leaves its
//! spans in `.perfbench/spans-<workload>-<seed>.tsv`. The last line of
//! standard output is one JSON object; the exit code is 0 only when every
//! answer was correct.

mod inputs;
mod probes;
mod report;
mod trace;
mod workload;

use inputs::{derive, Inputs};
use report::{peak_rss_mb, Metrics};
use service::{IndexKind, PlannerMode, Service, ServiceConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Replica, Tracer};
use workload::{Client, Snapshot, Traced, Workload};

const SHARDS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A directory removed when dropped, also when the run fails.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, fs)| fs)
}

fn print_header(args: &Args, dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# host: nproc={nproc} commit={} rustc=\"{}\" tmp_fs={}",
        commit.as_deref().unwrap_or("unknown"),
        command_output("rustc", &["--version"])
            .as_deref()
            .unwrap_or("unknown"),
        fs_type(dir)
    );
    println!(
        "# service: {SHARDS} shards, 1 thread per shard, cost planner, oif+invfile+ubtree, \
         {} KiB pool per shard, one closed-loop client",
        args.workload.cache_bytes() / 1024
    );
    println!(
        "# flush policy: one WAL fsync per touched shard per insert batch; \
         Service::persist checkpoint every {} insert cycles",
        workload::CYCLES_PER_CHECKPOINT
    );
    println!(
        "# latencies are wall-clock on this host; pool misses are FileStorage preads \
         served from the OS page cache, not a cold disk"
    );
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    readable: Metrics,
    reported: Metrics,
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let err = |what: &str| {
        let what = what.to_string();
        move |e: pagestore::StorageError| format!("{what}: {e}")
    };
    let w = args.workload;
    let t = Instant::now();
    let fresh = if w == Workload::IngestMixed {
        workload::ROUND_RECORDS
    } else {
        0
    };
    let inputs = Inputs::generate(args.seed, fresh);
    eprintln!(
        "perfbench: inputs and oracle in {:.2} s",
        t.elapsed().as_secs_f64()
    );

    let config = ServiceConfig::new()
        .shards(SHARDS)
        .threads_per_shard(1)
        .planner(PlannerMode::Cost)
        .kinds(IndexKind::ALL.to_vec())
        .cache_bytes(w.cache_bytes());
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut svc = None;
    for r in 0..reps {
        let sub = dir.join(format!("service-{r}"));
        let t0 = Instant::now();
        let s =
            Service::build_dir(&inputs.dataset, config.clone(), &sub).map_err(err("build_dir"))?;
        s.persist().map_err(err("first persist"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(old) = svc.replace(s) {
            drop(old);
            let _ = std::fs::remove_dir_all(dir.join(format!("service-{}", r - 1)));
        }
    }
    let svc = svc.expect("at least one set-up");

    let replica_dir = dir.join("replicas");
    let trace = if args.trace {
        std::fs::create_dir_all(&replica_dir)
            .map_err(|e| format!("creating {}: {e}", replica_dir.display()))?;
        let replicas = Replica::build_all(&inputs.dataset, SHARDS, w.cache_bytes(), &replica_dir)
            .map_err(err("replica build"))?;
        Some(Traced {
            tracer: Tracer::new(Instant::now()),
            replicas,
            check_misses: w != Workload::IngestMixed,
        })
    } else {
        None
    };
    let mut client = Client::new(svc, &inputs, trace);
    if w == Workload::IngestMixed {
        client.snapshot = Some(Snapshot {
            service_dir: dir.join(format!("service-{}", reps - 1)),
            replica_dir: args.trace.then_some(replica_dir),
            config,
            work_dir: dir.to_path_buf(),
        });
    }
    if let Some(t) = &client.trace {
        if w != Workload::IngestMixed {
            let queries: Vec<_> = inputs.pool.iter().map(|pq| &pq.query).collect();
            client.regret_pages = Some(
                trace::planner_regret(&client.svc, &t.replicas, &queries)
                    .map_err(|e| format!("planner regret: {e}"))?,
            );
        }
        client.pool_probe_ns =
            Some(probes::pagestore_ns(dir, derive(args.seed, 5)).map_err(err("pool probe"))?);
        client.decode_ns = Some(probes::codec_decode_ns(&inputs));
    }

    client.run(w, args.seconds, args.seed);

    let base_raw = inputs.dataset.raw_bytes();
    let c = &client.counts;
    let mut readable = Metrics::default();
    let mut reported = Metrics::default();
    if args.trace {
        let t = client.trace.as_ref().expect("traced run has a tracer");
        report::layer_metrics(&mut reported, &client, &t.tracer.spans);
        let path = Path::new(WORK_DIR).join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        t.tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
        if let Some(d) = &client.divergence {
            println!("# replica lockstep FAILED: {d}");
        } else {
            println!("# replica lockstep: every replayed request matched the service");
        }
    } else {
        let mut m = Metrics::default();
        m.push("setup_s", "s", report::median(&mut setup_s));
        report::query_metrics(&mut m, &client.plain);
        m.push("space_amp", "ratio", report::space_amp(c, base_raw));
        m.push("peak_rss_mb", "MiB", peak_rss_mb());
        reported = m;
        readable.push("query_p99_us", "us", report::query_p99_us(&client.plain));
        readable.push("pages_per_query", "pages", report::pages_per_query(c));
        readable.push(
            "error_rate",
            "ratio",
            client.failed as f64 / client.attempted.max(1) as f64,
        );
        if w == Workload::IngestMixed {
            report::insert_metrics(&mut readable, &client.plain, c);
        }
        println!(
            "# samples: {} query requests ({} queries), {} inserts, {} persists; setup x{}",
            client.plain.query_us.len(),
            client.plain.queries,
            client.plain.insert_us.len(),
            client.plain.persist_ms.len(),
            reps
        );
    }
    for f in &client.failures {
        println!("# failure: {f}");
    }
    Ok(Outcome {
        correct: client.failed == 0 && client.divergence.is_none(),
        attempted: client.attempted,
        failed: client.failed,
        readable,
        reported,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = TempDir(Path::new(WORK_DIR).join(format!(
        "run-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&dir.0) {
        eprintln!("perfbench: cannot create {}: {e}", dir.0.display());
        return ExitCode::FAILURE;
    }
    print_header(&args, &dir.0);
    match run(&args, &dir.0) {
        Ok(o) => {
            report::print_readable(&o.reported);
            report::print_readable(&o.readable);
            println!(
                "{}",
                report::json_line(o.correct, o.attempted, o.failed, &o.reported)
            );
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
