//! The traced run: spans recorded from outside the program, around the
//! public calls into each layer, and the per-layer figures derived from
//! them.
//!
//! The service evaluates each shard inside `query_batch`, where no public
//! hook reaches. So the traced run keeps one *replica* per shard: the
//! same slice of records (`service::shard_of`), the same three structures
//! built in the same order into one `FileStorage` pool of the same size.
//! After each service call the replica replays that call's work: for each
//! shard, `Service::planned_kind` per query, then
//! `ContainmentIndex::try_eval` on the chosen replica structure. Starting
//! from the same cache state, the replica touches the same pages as the
//! shard did, which the lockstep check verifies per request (answers, and
//! pool misses on the read-only workloads). Replica spans are children of
//! the service span they mirror, although they run after it.

use datagen::{QueryKind, Record};
use invfile::InvertedFile;
use oif::{ContainmentIndex, Oif};
use pagestore::{FileStorage, IoStats, PageError, Pager, StorageError};
use service::{shard_of, IndexKind, Query, QueryResponse, Service};
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use ubtree::UnorderedBTree;

/// One recorded span. `parent` 0 marks a root; ids start at 1.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Pool counters over the span (a `Pager::stats` delta).
    pub io: IoStats,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const QUERY_BATCH: &str = "service.query_batch";
pub const SHARD: &str = "service.shard";
pub const PLAN: &str = "service.plan";
pub const TRY_INSERT: &str = "service.try_insert";
pub const PERSIST: &str = "service.persist";
pub const IF_INSERT: &str = "invfile.try_batch_insert";

/// `<structure>.<predicate>.eval`, indexed by `IndexKind` slot then
/// predicate.
const EVAL: [[&str; 3]; 3] = [
    ["oif.subset.eval", "oif.equality.eval", "oif.superset.eval"],
    [
        "invfile.subset.eval",
        "invfile.equality.eval",
        "invfile.superset.eval",
    ],
    [
        "ubtree.subset.eval",
        "ubtree.equality.eval",
        "ubtree.superset.eval",
    ],
];

pub fn kind_slot(kind: IndexKind) -> usize {
    match kind {
        IndexKind::Oif => 0,
        IndexKind::InvertedFile => 1,
        IndexKind::UnorderedBTree => 2,
    }
}

pub fn pred_slot(kind: QueryKind) -> usize {
    match kind {
        QueryKind::Subset => 0,
        QueryKind::Equality => 1,
        QueryKind::Superset => 2,
    }
}

pub fn eval_name(kind: IndexKind, pred: QueryKind) -> &'static str {
    EVAL[kind_slot(kind)][pred_slot(pred)]
}

/// In-memory span store; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    next_id: u32,
    next_req: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            next_id: 1,
            next_req: 1,
        }
    }

    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req - 1
    }

    /// Reserve a span id, for a parent whose end is not known yet.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        req: u64,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        io: IoStats,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            io,
        });
    }

    /// Write every span as tab-separated rows.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "req\tid\tparent\tname\tstart_ns\tend_ns\thits\tmisses\twrites\tfsyncs"
        )?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.io.hits,
                s.io.misses(),
                s.io.writes,
                s.io.fsyncs
            )?;
        }
        out.flush()
    }
}

/// One shard's replica: the shard's three structures in one pool.
pub struct Replica {
    pub pager: Pager,
    oif: Oif,
    pub inv: InvertedFile,
    ub: UnorderedBTree,
}

impl Replica {
    /// Build the replicas of every shard of a `shards`-way service over
    /// `dataset`, each in its own `FileStorage` file under `dir`.
    pub fn build_all(
        dataset: &datagen::Dataset,
        shards: usize,
        cache_bytes: usize,
        dir: &Path,
    ) -> Result<Vec<Replica>, StorageError> {
        (0..shards)
            .map(|s| {
                let sub = datagen::Dataset {
                    records: dataset
                        .records
                        .iter()
                        .filter(|r| shard_of(r.id, shards) == s)
                        .cloned()
                        .collect(),
                    vocab_size: dataset.vocab_size,
                };
                let storage = FileStorage::create(dir.join(format!("replica-{s}.db")))?;
                let pager = Pager::with_storage(storage, cache_bytes);
                let oif = Oif::builder(&sub).pager(pager.clone()).build();
                let inv = InvertedFile::builder(&sub).pager(pager.clone()).build();
                let ub = UnorderedBTree::builder(&sub).pager(pager.clone()).build();
                oif.persist()?;
                inv.persist()?;
                ub.persist()?;
                pager.sync()?;
                Ok(Replica {
                    pager,
                    oif,
                    inv,
                    ub,
                })
            })
            .collect()
    }

    /// Reopen the replicas `build_all` persisted under `dir`.
    pub fn open_all(dir: &Path, shards: usize, cache_bytes: usize) -> Result<Vec<Replica>, String> {
        (0..shards)
            .map(|s| {
                let path = dir.join(format!("replica-{s}.db"));
                let storage = FileStorage::open(&path)
                    .map_err(|e| format!("opening {}: {e}", path.display()))?;
                let pager = Pager::with_storage(storage, cache_bytes);
                let missing = || format!("{} lacks a persisted structure", path.display());
                Ok(Replica {
                    oif: Oif::open(pager.clone()).ok_or_else(missing)?,
                    inv: InvertedFile::open(pager.clone()).ok_or_else(missing)?,
                    ub: UnorderedBTree::open(pager.clone()).ok_or_else(missing)?,
                    pager,
                })
            })
            .collect()
    }

    pub fn eval(&self, kind: IndexKind, q: &Query) -> Result<Vec<u64>, PageError> {
        match kind {
            IndexKind::Oif => self.oif.try_eval(q.kind, &q.qs),
            IndexKind::InvertedFile => self.inv.try_eval(q.kind, &q.qs),
            IndexKind::UnorderedBTree => self.ub.try_eval(q.kind, &q.qs),
        }
    }
}

/// Replay one service `query_batch` on the replicas, recording the plan
/// and evaluation spans under `parent`. Returns a description of the
/// first divergence from the service, if any: answers always, and pool
/// misses per shard when `check_misses` holds.
#[allow(clippy::too_many_arguments)]
pub fn mirror_query(
    tracer: &mut Tracer,
    req: u64,
    parent: u32,
    svc: &Service,
    replicas: &[Replica],
    batch: &[Query],
    responses: &[QueryResponse],
    shard_io: &[IoStats],
    check_misses: bool,
) -> Option<String> {
    let shards = replicas.len();
    let mut divergence = None;
    for (s, replica) in replicas.iter().enumerate() {
        let shard_span = tracer.reserve();
        let t_shard = Instant::now();
        let mut plan = Vec::with_capacity(batch.len());
        for q in batch {
            let t0 = Instant::now();
            let kind = svc.planned_kind(s, q.kind, &q.qs);
            let t1 = Instant::now();
            let id = tracer.reserve();
            tracer.record(req, id, shard_span, PLAN, t0, t1, IoStats::default());
            plan.push(kind.expect("a non-empty shard hosts a structure"));
        }
        // The shard evaluates its batch grouped by structure, then by
        // predicate; replay it in that order so the pool sees the same
        // access sequence.
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by_key(|&j| (kind_slot(plan[j]), pred_slot(batch[j].kind)));
        let mut misses = 0;
        for j in order {
            let q = &batch[j];
            let before = replica.pager.stats();
            let t0 = Instant::now();
            let answer = replica.eval(plan[j], q);
            let t1 = Instant::now();
            let io = replica.pager.stats().since(&before);
            misses += io.misses();
            let id = tracer.reserve();
            tracer.record(req, id, shard_span, eval_name(plan[j], q.kind), t0, t1, io);
            let want: Vec<u64> = responses[j]
                .ids
                .iter()
                .copied()
                .filter(|&id| shard_of(id, shards) == s)
                .collect();
            if divergence.is_none() && answer.as_ref().ok() != Some(&want) {
                divergence = Some(format!(
                    "request {req}: shard {s} replica {} answered {:?} ids, service {} ids",
                    plan[j].name(),
                    answer.map(|a| a.len()),
                    want.len()
                ));
            }
        }
        let t_end = Instant::now();
        tracer.record(
            req,
            shard_span,
            parent,
            SHARD,
            t_shard,
            t_end,
            IoStats::default(),
        );
        if check_misses && divergence.is_none() && misses != shard_io[s].misses() {
            divergence = Some(format!(
                "request {req}: shard {s} replica missed {misses} pages, service {}",
                shard_io[s].misses()
            ));
        }
    }
    divergence
}

/// Replay an insert batch on the replicas' inverted files, one span per
/// touched shard under `parent` when traced.
pub fn mirror_insert(
    tracer: Option<(&mut Tracer, u64, u32)>,
    replicas: &mut [Replica],
    records: &[Record],
) -> Result<(), PageError> {
    let shards = replicas.len();
    let mut tracer = tracer;
    for (s, replica) in replicas.iter_mut().enumerate() {
        // The shard's slice in id order, as the service applies it; only
        // the inverted file takes writes (the service drops the others).
        let mut slice: Vec<Record> = records
            .iter()
            .filter(|r| shard_of(r.id, shards) == s)
            .cloned()
            .collect();
        if slice.is_empty() {
            continue;
        }
        slice.sort_by_key(|r| r.id);
        let t0 = Instant::now();
        replica.inv.try_batch_insert(&slice, 1)?;
        let t1 = Instant::now();
        if let Some((tracer, req, parent)) = tracer.as_mut() {
            let id = tracer.reserve();
            tracer.record(*req, id, *parent, IF_INSERT, t0, t1, IoStats::default());
        }
    }
    Ok(())
}

/// Planner regret in pages: for each query and shard, the cold-cache
/// misses of the structure the planner picks minus those of the cheapest
/// structure the shard hosts, summed over shards and averaged over
/// queries. Clears the replicas' caches before every evaluation.
pub fn planner_regret(
    svc: &Service,
    replicas: &[Replica],
    queries: &[&Query],
) -> Result<f64, PageError> {
    let mut regret = 0u64;
    for q in queries {
        for (s, replica) in replicas.iter().enumerate() {
            let chosen = svc
                .planned_kind(s, q.kind, &q.qs)
                .expect("a non-empty shard hosts a structure");
            let mut best = u64::MAX;
            let mut chosen_pages = 0;
            for kind in svc.shard_kinds(s) {
                replica.pager.clear_cache();
                let before = replica.pager.stats();
                replica.eval(kind, q)?;
                let pages = replica.pager.stats().since(&before).misses();
                best = best.min(pages);
                if kind == chosen {
                    chosen_pages = pages;
                }
            }
            regret += chosen_pages - best;
        }
    }
    for r in replicas {
        r.pager.clear_cache();
    }
    Ok(regret as f64 / queries.len().max(1) as f64)
}
