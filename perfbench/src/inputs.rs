//! Everything the benchmark feeds the service, derived from the workload
//! seed alone: the base dataset, the query pool with its oracle answers,
//! the request order, and the stream of fresh records for ingest.

use datagen::{brute, Dataset, ItemId, QueryKind, Record, SyntheticSpec, WorkloadSpec};
use rand::prelude::*;
use service::Query;

/// Query-set sizes drawn per predicate.
pub const QS_SIZES: [usize; 4] = [2, 4, 6, 8];
/// Queries drawn per (predicate, size) cell; a multiple of the
/// `batch_warm` batch size so every batch holds one predicate.
pub const PER_CELL: usize = 512;

/// Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

/// Derive an independent sub-seed for stream `tag` of workload seed `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// One pool query and its exact answer over the base records.
pub struct PoolQuery {
    pub query: Query,
    pub base_answer: Vec<u64>,
}

pub struct Inputs {
    pub dataset: Dataset,
    pub pool: Vec<PoolQuery>,
    /// Pool indices in the seed's shuffled request order.
    pub order: Vec<usize>,
    /// Fresh records (ids above every base id) for `ingest_mixed`.
    pub fresh: Vec<Record>,
}

impl Inputs {
    /// Generate the dataset, the query pool, its oracle answers and
    /// `fresh` records to insert.
    pub fn generate(seed: u64, fresh: usize) -> Inputs {
        let dataset = SyntheticSpec {
            seed: derive(seed, 1),
            ..SyntheticSpec::paper_default(50)
        }
        .generate();
        let mut queries = Vec::new();
        for (k, kind) in QueryKind::ALL.into_iter().enumerate() {
            for (s, &qs_size) in QS_SIZES.iter().enumerate() {
                let set = WorkloadSpec {
                    kind,
                    qs_size,
                    count: PER_CELL,
                    seed: derive(seed, 100 + (k * QS_SIZES.len() + s) as u64),
                }
                .generate(&dataset);
                assert_eq!(set.queries.len(), PER_CELL, "every pool cell fills");
                queries.extend(set.queries.into_iter().map(|qs| Query::new(kind, qs)));
            }
        }
        // The oracle scans every record per query: split it over two
        // threads (the benchmark's processor budget).
        let half = queries.len() / 2;
        let (a, b) = queries.split_at(half);
        let answers = |qs: &[Query]| -> Vec<Vec<u64>> {
            qs.iter().map(|q| oracle(&dataset, q.kind, &q.qs)).collect()
        };
        let (a_answers, b_answers) = std::thread::scope(|s| {
            let h = s.spawn(|| answers(b));
            (answers(a), h.join().expect("oracle thread panicked"))
        });
        let pool: Vec<PoolQuery> = queries
            .into_iter()
            .zip(a_answers.into_iter().chain(b_answers))
            .map(|(query, base_answer)| PoolQuery { query, base_answer })
            .collect();
        let mut order: Vec<usize> = (0..pool.len()).collect();
        shuffle(&mut order, &mut StdRng::seed_from_u64(derive(seed, 3)));
        let base = dataset.records.len() as u64;
        let fresh = SyntheticSpec {
            num_records: fresh,
            seed: derive(seed, 2),
            ..SyntheticSpec::paper_default(50)
        }
        .generate()
        .records
        .into_iter()
        .map(|r| Record::new(base + r.id, r.items))
        .collect();
        Inputs {
            dataset,
            pool,
            order,
            fresh,
        }
    }

    /// `batch_warm` requests: each predicate's queries shuffled by
    /// `shuffle_seed` and split into batches of `size`, then the batches
    /// shuffled together. A new `shuffle_seed` per pass gives every pass
    /// new batches of the same queries.
    pub fn batches(&self, size: usize, shuffle_seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let mut out = Vec::new();
        for kind in QueryKind::ALL {
            let mut of_kind: Vec<usize> = (0..self.pool.len())
                .filter(|&i| self.pool[i].query.kind == kind)
                .collect();
            shuffle(&mut of_kind, &mut rng);
            out.extend(of_kind.chunks(size).map(|c| c.to_vec()));
        }
        shuffle(&mut out, &mut rng);
        out
    }
}

/// Cost strata of the `ingest_mixed` query order.
const STRATA: usize = 16;

impl Inputs {
    /// `ingest_mixed` query order: subset, equality and superset in turn.
    /// Within a predicate the queries are ranked by Σ of their items'
    /// supports (the posting volume an inverted file reads) and cut into
    /// equal strata; the order visits the strata in rotation, each in
    /// seeded shuffled order. A run uses only a prefix of the pool, and
    /// every prefix then covers the whole cost range alike.
    pub fn mixed_order(&self, seed: u64) -> Vec<usize> {
        let supports = self.dataset.supports();
        let cost = |i: usize| -> u64 {
            self.pool[i]
                .query
                .qs
                .iter()
                .map(|&item| supports[item as usize])
                .sum()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let per_kind: Vec<Vec<usize>> = QueryKind::ALL
            .iter()
            .map(|&kind| {
                let mut ranked: Vec<usize> = (0..self.pool.len())
                    .filter(|&i| self.pool[i].query.kind == kind)
                    .collect();
                ranked.sort_by_key(|&i| (cost(i), i));
                let mut strata: Vec<Vec<usize>> = ranked
                    .chunks(ranked.len().div_ceil(STRATA))
                    .map(|c| c.to_vec())
                    .collect();
                for s in &mut strata {
                    shuffle(s, &mut rng);
                }
                let depth = strata.iter().map(Vec::len).max().unwrap_or(0);
                (0..depth)
                    .flat_map(|k| strata.iter().filter_map(move |s| s.get(k).copied()))
                    .collect()
            })
            .collect();
        let len = per_kind.iter().map(Vec::len).min().unwrap_or(0);
        (0..len)
            .flat_map(|j| per_kind.iter().map(move |v| v[j]))
            .collect()
    }
}

/// The reference answer (`datagen::brute`) of one query over `d`.
pub fn oracle(d: &Dataset, kind: QueryKind, qs: &[ItemId]) -> Vec<u64> {
    match kind {
        QueryKind::Subset => brute::subset(d, qs),
        QueryKind::Equality => brute::equality(d, qs),
        QueryKind::Superset => brute::superset(d, qs),
    }
}
