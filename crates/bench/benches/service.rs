//! Serving-layer throughput: mixed-kind query batches through the sharded
//! service, swept over the shard count.
//!
//! Each point builds the service with `S` shards (each with its own
//! 32 KiB pool and — durably — its own storage file, i.e. its own
//! device), replays the same mixed-kind batch through
//! `Service::query_batch` with every shard's cache dropped first, and
//! reports batch throughput under the workspace's standard measurement
//! protocol (simulated I/O from the deterministic
//! [`pagestore::IoCostModel`] plus measured CPU). Shards are independent
//! devices operating concurrently, so the batch's I/O term is the *maximum*
//! per-shard I/O time, not the sum — that is exactly where sharding pays:
//! each shard scans roughly `1/S` of every posting list, so modeled batch
//! latency falls (and throughput climbs) as `S` grows, until per-shard
//! constant costs (tree descents replicated on every shard) flatten the
//! curve. A second series pins the planner to each structure at the widest
//! point, comparing the default planner with every single structure.
//!
//! Prints one table row per point and, when the `BENCH_JSON` environment
//! variable names a file, writes the same rows as a JSON array (the CI
//! workflow emits `BENCH_service.json` this way). Exits non-zero unless
//! the default planner's row at the widest point reads exactly the pages
//! per query of the pinned-OIF row: page counts are deterministic, so the
//! default is never worse than the best fixed structure.

use datagen::{QueryKind, SyntheticSpec, WorkloadSpec};
use service::{IndexKind, PlannerMode, Query, Service, ServiceConfig};
use std::time::{Duration, Instant};

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const ROUNDS: usize = 3;

struct Row {
    name: String,
    shards: usize,
    qps: f64,
    ms_per_batch: f64,
    io_ms: f64,
    cpu_ms: f64,
    pages_per_query: f64,
}

/// A mixed-kind batch: every predicate at several query sizes.
fn mixed_batch(d: &datagen::Dataset) -> Vec<Query> {
    let mut batch = Vec::new();
    for (i, kind) in QueryKind::ALL.into_iter().enumerate() {
        for size in [2usize, 4, 8] {
            let ws = WorkloadSpec {
                kind,
                qs_size: size,
                count: 10,
                seed: (i * 17 + size) as u64,
            }
            .generate(d);
            batch.extend(ws.queries.into_iter().map(|q| Query::new(kind, q)));
        }
    }
    batch
}

/// Replay the batch `ROUNDS` times from cold shard caches, returning the
/// per-point row. Batch latency per round = max per-shard simulated I/O
/// (independent devices, concurrent) + measured CPU. Answers are asserted
/// non-degraded every round: a bench that silently served errors would
/// measure the wrong thing.
fn run_point(name: &str, svc: &Service, batch: &[Query]) -> Row {
    let mut cpu = 0.0f64;
    let mut io = 0.0f64;
    let mut pages = 0u64;
    for _ in 0..ROUNDS {
        for s in 0..svc.num_shards() {
            svc.shard_pager(s).clear_cache();
            svc.shard_pager(s).reset_stats();
        }
        let t0 = Instant::now();
        let responses = svc.query_batch(batch);
        cpu += t0.elapsed().as_secs_f64();
        assert!(
            responses.iter().all(|r| r.complete),
            "{name}: faulted bench"
        );
        let mut round_io = Duration::ZERO;
        for s in 0..svc.num_shards() {
            let stats = svc.shard_pager(s).stats();
            pages += stats.misses();
            round_io = round_io.max(stats.io_time);
        }
        io += round_io.as_secs_f64();
    }
    let queries = (batch.len() * ROUNDS) as f64;
    Row {
        name: name.to_string(),
        shards: svc.num_shards(),
        qps: queries / (io + cpu),
        ms_per_batch: (io + cpu) / ROUNDS as f64 * 1e3,
        io_ms: io / ROUNDS as f64 * 1e3,
        cpu_ms: cpu / ROUNDS as f64 * 1e3,
        pages_per_query: pages as f64 / queries,
    }
}

fn main() {
    let s = bench::scale();
    bench::header(
        "Serving layer — batch throughput vs shard count",
        &format!(
            "|D| = 10M/{s}, |I| = 2000, zipf 0.8; mixed-kind batches through \
             the default planner, then each structure pinned at S = {max}",
            max = SHARD_SWEEP[SHARD_SWEEP.len() - 1],
        ),
    );
    let d = SyntheticSpec::paper_default(s).generate();
    let batch = mixed_batch(&d);

    let mut rows = Vec::new();
    for shards in SHARD_SWEEP {
        let svc = Service::build(&d, ServiceConfig::new().shards(shards).threads_per_shard(1));
        rows.push(run_point(&format!("default_s{shards}"), &svc, &batch));
    }
    for kind in IndexKind::ALL {
        let shards = SHARD_SWEEP[SHARD_SWEEP.len() - 1];
        let svc = Service::build(
            &d,
            ServiceConfig::new()
                .shards(shards)
                .threads_per_shard(1)
                .planner(PlannerMode::Fixed(kind)),
        );
        rows.push(run_point(
            &format!("{}_s{shards}", kind.name()),
            &svc,
            &batch,
        ));
    }

    for r in &rows {
        println!(
            "{name:>12} | S={s:>2} | {qps:>9.0} q/s | {ms:>8.2} ms/batch (io {io:>8.2} cpu {cpu:>6.2}) | {pages:>7.1} pages/query",
            name = r.name,
            s = r.shards,
            qps = r.qps,
            ms = r.ms_per_batch,
            io = r.io_ms,
            cpu = r.cpu_ms,
            pages = r.pages_per_query,
        );
    }

    if let Some(path) = std::env::var_os("BENCH_JSON") {
        let mut json = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "  {{\"name\": \"service/{name}\", \"shards\": {s}, \"qps\": {qps:.1}, \
                 \"ms_per_batch\": {ms:.4}, \"io_ms\": {io:.4}, \"cpu_ms\": {cpu:.4}, \
                 \"pages_per_query\": {pages:.3}}}{comma}\n",
                name = r.name,
                s = r.shards,
                qps = r.qps,
                ms = r.ms_per_batch,
                io = r.io_ms,
                cpu = r.cpu_ms,
                pages = r.pages_per_query,
                comma = if i + 1 == rows.len() { "" } else { "," },
            ));
        }
        json.push_str("]\n");
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("cannot write BENCH_JSON {path:?}: {e}"));
    }

    let widest = SHARD_SWEEP[SHARD_SWEEP.len() - 1];
    let pages = |name: String| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.pages_per_query)
            .unwrap_or_else(|| panic!("no {name} row"))
    };
    let default = pages(format!("default_s{widest}"));
    let oif = pages(format!("{}_s{widest}", IndexKind::Oif.name()));
    if default != oif {
        eprintln!(
            "gate: default_s{widest} reads {default:.3} pages/query, \
             the pinned OIF {oif:.3}"
        );
        std::process::exit(1);
    }
}
