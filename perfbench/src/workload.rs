//! The three workloads and the closed loop that drives them: one client
//! thread, each request sent when the previous one has answered.

use crate::inputs::{derive, Inputs};
use crate::trace::{self, Replica, Tracer};
use datagen::{Dataset, Record};
use pagestore::IoStats;
use service::{Query, Service, ServiceConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointCold,
    BatchWarm,
    IngestMixed,
}

/// Queries per `batch_warm` request.
pub const BATCH: usize = 64;
/// Fresh records per `ingest_mixed` insert.
pub const INSERT_RECORDS: usize = 16;
/// Single-query requests after each `ingest_mixed` insert.
pub const QUERIES_PER_CYCLE: usize = 3;
/// `ingest_mixed` cycles between two `Service::persist` checkpoints.
pub const CYCLES_PER_CHECKPOINT: usize = 64;
/// Checkpoint epochs in one `ingest_mixed` round. Every round restarts
/// from the persisted set-up and replays the same inserts, so rounds are
/// alike however many fit in the run; pages and bytes are counted over
/// the first.
pub const EPOCHS_PER_ROUND: usize = 2;
/// Fresh records one `ingest_mixed` round inserts.
pub const ROUND_RECORDS: usize = EPOCHS_PER_ROUND * CYCLES_PER_CHECKPOINT * INSERT_RECORDS;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointCold,
        Workload::BatchWarm,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointCold => "point_cold",
            Workload::BatchWarm => "batch_warm",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Buffer-pool budget per shard.
    pub fn cache_bytes(self) -> usize {
        match self {
            Workload::PointCold | Workload::IngestMixed => 32 * 1024,
            Workload::BatchWarm => 64 << 20,
        }
    }
}

/// Timings of one side (traced or untraced) of a run.
#[derive(Default)]
pub struct Tally {
    /// Per-request `query_batch` latency, µs.
    pub query_us: Vec<f64>,
    /// The same, split by the request's predicate (subset, equality,
    /// superset).
    pub pred_us: [Vec<f64>; 3],
    pub queries: u64,
    /// `try_insert` latency, µs.
    pub insert_us: Vec<f64>,
    pub records: u64,
    /// `persist` latency, ms.
    pub persist_ms: Vec<f64>,
    /// Sum of every timed call: the timed phase, without the checks and
    /// cache drops between calls.
    pub busy: Duration,
}

/// Deterministic counts over the counted part of the run.
#[derive(Default)]
pub struct Counts {
    pub queries: u64,
    pub query_io: IoStats,
    pub inserts: u64,
    pub records: u64,
    pub record_bytes: u64,
    pub insert_io: IoStats,
    pub persists: u64,
    pub persist_io: IoStats,
    /// Σ `Pager::disk_bytes` when counting stopped.
    pub disk_bytes: u64,
}

/// The persisted set-up each `ingest_mixed` round restarts from.
pub struct Snapshot {
    pub service_dir: PathBuf,
    /// Persisted replicas of a traced run.
    pub replica_dir: Option<PathBuf>,
    pub config: ServiceConfig,
    /// Where the rounds' copies go.
    pub work_dir: PathBuf,
}

/// Copy every file of `from` into `to` and sync the copies, so no
/// write-back of the copy runs behind the timed calls.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        std::fs::copy(entry.path(), &dest)?;
        std::fs::File::open(&dest)?.sync_all()?;
    }
    Ok(())
}

/// Replicas plus span store of a traced run.
pub struct Traced {
    pub tracer: Tracer,
    pub replicas: Vec<Replica>,
    /// Check replica misses against the service (read-only workloads).
    pub check_misses: bool,
}

pub struct Client<'a> {
    pub svc: Service,
    inputs: &'a Inputs,
    /// Records inserted so far: the oracle's view beyond the base data.
    inserted: Dataset,
    next_fresh: usize,
    pub plain: Tally,
    pub traced_tally: Tally,
    pub counts: Counts,
    counting: bool,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    pub trace: Option<Traced>,
    /// First replica divergence; fails a traced run.
    pub divergence: Option<String>,
    /// Layer probes of a traced run.
    pub regret_pages: Option<f64>,
    pub pool_probe_ns: Option<(f64, f64)>,
    pub decode_ns: Option<f64>,
    pub snapshot: Option<Snapshot>,
}

fn shard_stats(svc: &Service) -> Vec<IoStats> {
    (0..svc.num_shards())
        .map(|s| svc.shard_pager(s).stats())
        .collect()
}

fn deltas(before: &[IoStats], after: &[IoStats]) -> Vec<IoStats> {
    before.iter().zip(after).map(|(b, a)| a.since(b)).collect()
}

fn total(ios: &[IoStats]) -> IoStats {
    ios.iter().cloned().fold(IoStats::default(), |a, b| a + b)
}

fn accumulate(acc: &mut IoStats, delta: &IoStats) {
    *acc = std::mem::take(acc) + delta.clone();
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

impl<'a> Client<'a> {
    pub fn new(svc: Service, inputs: &'a Inputs, trace: Option<Traced>) -> Client<'a> {
        Client {
            svc,
            inputs,
            inserted: Dataset {
                records: Vec::new(),
                vocab_size: inputs.dataset.vocab_size,
            },
            next_fresh: 0,
            plain: Tally::default(),
            traced_tally: Tally::default(),
            counts: Counts::default(),
            counting: true,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            trace,
            divergence: None,
            regret_pages: None,
            pool_probe_ns: None,
            decode_ns: None,
            snapshot: None,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn clear_caches(&self) {
        for s in 0..self.svc.num_shards() {
            self.svc.shard_pager(s).clear_cache();
        }
        if let Some(t) = &self.trace {
            for r in &t.replicas {
                r.pager.clear_cache();
            }
        }
    }

    /// One `query_batch` request over pool entries `idx`, prepared as
    /// `batch`. Timed alone; checked against the oracle afterwards.
    fn query(&mut self, idx: &[usize], batch: &[Query], traced: bool) {
        let before = shard_stats(&self.svc);
        let t0 = Instant::now();
        let responses = self.svc.query_batch(batch);
        let t1 = Instant::now();
        let shard_io = deltas(&before, &shard_stats(&self.svc));
        let io = total(&shard_io);

        let tally = if traced {
            &mut self.traced_tally
        } else {
            &mut self.plain
        };
        let lat = us(t1 - t0);
        tally.query_us.push(lat);
        tally.pred_us[trace::pred_slot(batch[0].kind)].push(lat);
        tally.queries += batch.len() as u64;
        tally.busy += t1 - t0;
        if self.counting {
            self.counts.queries += batch.len() as u64;
            accumulate(&mut self.counts.query_io, &io);
        }

        let inputs = self.inputs;
        for (j, &i) in idx.iter().enumerate() {
            self.attempted += 1;
            let pq = &inputs.pool[i];
            let r = &responses[j];
            let mut want = pq.base_answer.clone();
            if !self.inserted.records.is_empty() {
                want.extend(crate::inputs::oracle(
                    &self.inserted,
                    pq.query.kind,
                    &pq.query.qs,
                ));
            }
            if !r.complete || r.over_budget {
                self.fail(format!(
                    "pool query {i}: incomplete response {:?}",
                    r.errors
                ));
            } else if r.ids != want {
                self.fail(format!(
                    "pool query {i}: {} ids, oracle {}",
                    r.ids.len(),
                    want.len()
                ));
            }
        }

        if traced {
            let t = self.trace.as_mut().expect("traced request needs replicas");
            let req = t.tracer.request();
            let root = t.tracer.reserve();
            t.tracer
                .record(req, root, 0, trace::QUERY_BATCH, t0, t1, io);
            let div = trace::mirror_query(
                &mut t.tracer,
                req,
                root,
                &self.svc,
                &t.replicas,
                batch,
                &responses,
                &shard_io,
                t.check_misses,
            );
            if self.divergence.is_none() {
                self.divergence = div;
            }
        }
    }

    /// Replay a request's work on the replicas without recording spans,
    /// to warm their pools alongside the service's.
    fn warm_replicas(&mut self, batch: &[Query]) {
        let Some(t) = &self.trace else { return };
        for q in batch {
            for (s, r) in t.replicas.iter().enumerate() {
                let kind = self
                    .svc
                    .planned_kind(s, q.kind, &q.qs)
                    .expect("a non-empty shard hosts a structure");
                // Answers are checked on the timed passes.
                let _ = r.eval(kind, q);
            }
        }
    }

    /// One `try_insert` of the next fresh records. Returns false when the
    /// stream is spent or the insert failed.
    fn insert(&mut self, traced: bool) -> bool {
        let end = self.next_fresh + INSERT_RECORDS;
        if end > self.inputs.fresh.len() {
            return false;
        }
        let inputs = self.inputs;
        let records: &[Record] = &inputs.fresh[self.next_fresh..end];
        self.next_fresh = end;
        let before = shard_stats(&self.svc);
        let t0 = Instant::now();
        let result = self.svc.try_insert(records);
        let t1 = Instant::now();
        let io = total(&deltas(&before, &shard_stats(&self.svc)));
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("try_insert: {e}"));
            return false;
        }
        self.inserted.records.extend_from_slice(records);
        let tally = if traced {
            &mut self.traced_tally
        } else {
            &mut self.plain
        };
        tally.insert_us.push(us(t1 - t0));
        tally.records += records.len() as u64;
        tally.busy += t1 - t0;
        if self.counting {
            self.counts.inserts += 1;
            self.counts.records += records.len() as u64;
            self.counts.record_bytes += Dataset {
                records: records.to_vec(),
                vocab_size: 0,
            }
            .raw_bytes();
            accumulate(&mut self.counts.insert_io, &io);
        }
        if let Some(t) = self.trace.as_mut() {
            let span = if traced {
                let req = t.tracer.request();
                let root = t.tracer.reserve();
                t.tracer.record(req, root, 0, trace::TRY_INSERT, t0, t1, io);
                Some((&mut t.tracer, req, root))
            } else {
                None
            };
            if let Err(e) = trace::mirror_insert(span, &mut t.replicas, records) {
                self.divergence
                    .get_or_insert(format!("replica insert failed: {e}"));
            }
        }
        true
    }

    fn persist(&mut self, traced: bool) -> bool {
        let before = shard_stats(&self.svc);
        let t0 = Instant::now();
        let result = self.svc.persist();
        let t1 = Instant::now();
        let io = total(&deltas(&before, &shard_stats(&self.svc)));
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("persist: {e}"));
            return false;
        }
        let tally = if traced {
            &mut self.traced_tally
        } else {
            &mut self.plain
        };
        tally.persist_ms.push(us(t1 - t0) / 1e3);
        tally.busy += t1 - t0;
        if self.counting {
            self.counts.persists += 1;
            accumulate(&mut self.counts.persist_io, &io);
        }
        if traced {
            let t = self.trace.as_mut().expect("traced request needs replicas");
            let req = t.tracer.request();
            let id = t.tracer.reserve();
            t.tracer.record(req, id, 0, trace::PERSIST, t0, t1, io);
        }
        true
    }

    /// Start `ingest_mixed` round `round` on a fresh copy of the
    /// persisted set-up (and of the replicas, when traced).
    fn restore(&mut self, round: usize) -> Result<(), String> {
        let snap = self
            .snapshot
            .as_ref()
            .expect("ingest_mixed restarts from a snapshot");
        let dest = snap.work_dir.join(format!("round-{round}"));
        let copy = |from: &Path| {
            copy_dir(from, &dest).map_err(|e| format!("copying {}: {e}", from.display()))
        };
        copy(&snap.service_dir)?;
        let svc = Service::open_dir(&dest, snap.config.clone())
            .ok_or("reopening the persisted service failed")?;
        if let Some(replica_dir) = &snap.replica_dir {
            copy(replica_dir)?;
            let replicas = Replica::open_all(&dest, svc.num_shards(), snap.config.cache_bytes)?;
            self.trace
                .as_mut()
                .expect("replicas belong to a traced run")
                .replicas = replicas;
        }
        // Dropping the previous round's service closes its files.
        self.svc = svc;
        if round > 0 {
            let _ = std::fs::remove_dir_all(snap.work_dir.join(format!("round-{}", round - 1)));
        }
        self.inserted.records.clear();
        self.next_fresh = 0;
        Ok(())
    }

    fn disk_bytes(&self) -> u64 {
        (0..self.svc.num_shards())
            .map(|s| self.svc.shard_pager(s).disk_bytes())
            .sum()
    }

    /// Run `workload` until `seconds` have passed, stopping only at the
    /// end of a pass over the pool (an `ingest_mixed` round) so the counts
    /// cover whole passes. In a traced run, passes alternate untraced and
    /// traced, starting untraced; at least one of each runs.
    pub fn run(&mut self, workload: Workload, seconds: u64, seed: u64) {
        let traced_run = self.trace.is_some();
        let inputs = self.inputs;
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let done = |pass: usize| start.elapsed() >= budget && (!traced_run || pass >= 2);
        let pool = &inputs.pool;
        match workload {
            Workload::PointCold => {
                let requests: Vec<(Vec<usize>, Vec<Query>)> = inputs
                    .order
                    .iter()
                    .map(|&i| (vec![i], vec![pool[i].query.clone()]))
                    .collect();
                let mut pass = 0;
                while !done(pass) {
                    let traced = traced_run && pass % 2 == 1;
                    // Every pass starts cold, so every pass misses alike.
                    self.clear_caches();
                    for (idx, batch) in &requests {
                        self.query(idx, batch, traced);
                    }
                    pass += 1;
                }
            }
            Workload::BatchWarm => {
                let requests = |pass: u64| -> Vec<(Vec<usize>, Vec<Query>)> {
                    inputs
                        .batches(BATCH, derive(seed, 1000 + pass))
                        .into_iter()
                        .map(|idx| {
                            let batch = idx.iter().map(|&i| pool[i].query.clone()).collect();
                            (idx, batch)
                        })
                        .collect()
                };
                // Untimed warm-up: every page the pool's queries touch
                // becomes resident, on the service and on the replicas.
                for (_, batch) in &requests(0) {
                    self.svc.query_batch(batch);
                    self.warm_replicas(batch);
                }
                let mut pass = 0;
                while !done(pass) {
                    let traced = traced_run && pass % 2 == 1;
                    for (idx, batch) in &requests(pass as u64 + 1) {
                        self.query(idx, batch, traced);
                    }
                    pass += 1;
                }
            }
            Workload::IngestMixed => {
                let order = inputs.mixed_order(derive(seed, 6));
                let mut next_query = 0;
                let mut round = 0;
                'rounds: while !done(round) {
                    let traced = traced_run && round % 2 == 1;
                    if let Err(e) = self.restore(round) {
                        self.attempted += 1;
                        self.fail(e);
                        break;
                    }
                    for _ in 0..EPOCHS_PER_ROUND {
                        for _ in 0..CYCLES_PER_CHECKPOINT {
                            if !self.insert(traced) {
                                break 'rounds;
                            }
                            for _ in 0..QUERIES_PER_CYCLE {
                                let i = order[next_query % order.len()];
                                next_query += 1;
                                self.query(&[i], &[pool[i].query.clone()], traced);
                            }
                        }
                        if !self.persist(traced) {
                            break 'rounds;
                        }
                    }
                    if round == 0 {
                        self.counts.disk_bytes = self.disk_bytes();
                        self.counting = false;
                    }
                    round += 1;
                }
            }
        }
        if self.counting {
            self.counts.disk_bytes = self.disk_bytes();
            self.counting = false;
        }
    }
}
