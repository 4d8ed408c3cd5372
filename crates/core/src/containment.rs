//! The unified index API: [`ContainmentIndex`] + [`Persist`].
//!
//! The workspace grows three disk-resident answers to the same three
//! questions — the OIF ([`Oif`]), the classic inverted file
//! (`invfile::InvertedFile`) and the unordered block B-tree
//! (`ubtree::UnorderedBTree`) — and every layer above them (the bench
//! harness, the workspace test suites, the sharded serving layer) used to
//! be written three times against three parallel inherent APIs. These
//! traits capture the shared surface once:
//!
//! * [`ContainmentIndex`] — evaluate one query (`try_eval_with`, with a
//!   per-worker [`Scratch`](ContainmentIndex::Scratch)), a parallel batch
//!   (`try_par_eval`), the pruned superset twin, plus the pager, scrub and
//!   size accessors the measurement and serving layers need.
//! * [`Persist`] — the `persist()`/`open(pager)` pair with the storage
//!   catalog key each structure keeps its non-paged state under.
//!
//! The *existing inherent methods are the implementation*: each index's
//! trait impl delegates to the same code paths the inherent API runs, so
//! generic callers perform bit-for-bit the same page accesses as direct
//! callers — which is what keeps the golden page-access gates
//! (`ci/golden_pages*.txt`) unchanged by this abstraction.
//!
//! [`DynContainmentIndex`] is the object-safe erasure (the associated
//! scratch type makes `ContainmentIndex` itself not object safe): any
//! `ContainmentIndex` coerces to `Box<dyn DynContainmentIndex>` via the
//! blanket impl, which is how heterogeneous index collections (the fault
//! sweep, operator tooling) hold all three structures in one vec.

use crate::index::Oif;
use crate::query::QueryScratch;
use datagen::{ItemId, QueryKind};
use pagestore::{PageError, Pager, ScrubReport, StorageError};

/// One disk-resident set-containment index: the unified query surface of
/// the OIF, the classic inverted file and the unordered B-tree.
///
/// Only `try_eval_with` (and, for structures with a length-aware superset
/// path, `try_eval_pruned_with`) carries per-structure logic; everything
/// else has a default built on it. Implementations delegate to the same
/// inherent entry points direct callers use, so generic and direct calls
/// are indistinguishable at the page-access level.
pub trait ContainmentIndex: Send + Sync {
    /// Per-worker scratch space, amortised across a batch. `Default`
    /// yields a fresh one; structures without scratch use `()`.
    type Scratch: Default + Send;

    /// Short stable name ("oif", "invfile", "ubtree") for diagnostics.
    fn kind_name(&self) -> &'static str;

    /// The buffer pool all of this index's I/O flows through (statistics,
    /// cache control, degraded-mode and scrub access).
    fn pager(&self) -> &Pager;

    /// Number of indexed records.
    fn num_records(&self) -> u64;

    /// Vocabulary size the index was built over.
    fn vocab_size(&self) -> usize;

    /// Total on-disk footprint in bytes.
    fn bytes_on_disk(&self) -> u64;

    /// Evaluate one query of `kind`, surfacing page faults as typed
    /// [`PageError`]s.
    fn try_eval_with(
        &self,
        kind: QueryKind,
        qs: &[ItemId],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<u64>, PageError>;

    /// Like [`try_eval_with`](ContainmentIndex::try_eval_with), but
    /// superset queries take the length-aware pruned path where the
    /// structure has one. Defaults to the unpruned evaluation; answers are
    /// identical either way (the pruning contract), only page accesses
    /// differ.
    fn try_eval_pruned_with(
        &self,
        kind: QueryKind,
        qs: &[ItemId],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<u64>, PageError> {
        self.try_eval_with(kind, qs, scratch)
    }

    /// Panicking twin of [`try_eval_with`](ContainmentIndex::try_eval_with).
    fn eval_with(&self, kind: QueryKind, qs: &[ItemId], scratch: &mut Self::Scratch) -> Vec<u64> {
        self.try_eval_with(kind, qs, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking twin of
    /// [`try_eval_pruned_with`](ContainmentIndex::try_eval_pruned_with).
    fn eval_pruned_with(
        &self,
        kind: QueryKind,
        qs: &[ItemId],
        scratch: &mut Self::Scratch,
    ) -> Vec<u64> {
        self.try_eval_pruned_with(kind, qs, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Evaluate one query with a fresh scratch.
    fn try_eval(&self, kind: QueryKind, qs: &[ItemId]) -> Result<Vec<u64>, PageError> {
        self.try_eval_with(kind, qs, &mut Self::Scratch::default())
    }

    /// Panicking twin of [`try_eval`](ContainmentIndex::try_eval).
    fn eval(&self, kind: QueryKind, qs: &[ItemId]) -> Vec<u64> {
        self.try_eval(kind, qs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Evaluate a batch of queries of one kind across `threads` workers
    /// sharing this index (and its buffer pool). Each query's outcome is
    /// its own `Result`, in input order: one faulted page fails that query
    /// alone while the rest of the batch still answers.
    fn try_par_eval(
        &self,
        kind: QueryKind,
        queries: &[Vec<ItemId>],
        threads: usize,
    ) -> Vec<Result<Vec<u64>, PageError>>
    where
        Self: Sized,
    {
        pagestore::par_map_with(queries.len(), threads, Self::Scratch::default, |s, i| {
            self.try_eval_with(kind, &queries[i], s)
        })
    }

    /// Walk every page reachable through this index's pager and verify its
    /// checksum, quarantining corrupt pages — the serving layer's health
    /// probe. Bypasses the cache: counters and the golden page-access
    /// gates are unaffected.
    fn scrub(&self) -> ScrubReport {
        self.pager().scrub()
    }
}

/// Object-safe erasure of [`ContainmentIndex`] (the associated scratch
/// type keeps the full trait from being a `dyn` target). Every
/// `ContainmentIndex` implements it via the blanket impl; batch calls
/// create worker scratches internally.
pub trait DynContainmentIndex: Send + Sync {
    fn kind_name(&self) -> &'static str;
    fn pager(&self) -> &Pager;
    fn num_records(&self) -> u64;
    fn vocab_size(&self) -> usize;
    fn try_eval(&self, kind: QueryKind, qs: &[ItemId]) -> Result<Vec<u64>, PageError>;
    fn try_eval_pruned(&self, kind: QueryKind, qs: &[ItemId]) -> Result<Vec<u64>, PageError>;
    fn try_par_eval(
        &self,
        kind: QueryKind,
        queries: &[Vec<ItemId>],
        threads: usize,
    ) -> Vec<Result<Vec<u64>, PageError>>;
    fn scrub(&self) -> ScrubReport;
}

impl<I: ContainmentIndex> DynContainmentIndex for I {
    fn kind_name(&self) -> &'static str {
        ContainmentIndex::kind_name(self)
    }
    fn pager(&self) -> &Pager {
        ContainmentIndex::pager(self)
    }
    fn num_records(&self) -> u64 {
        ContainmentIndex::num_records(self)
    }
    fn vocab_size(&self) -> usize {
        ContainmentIndex::vocab_size(self)
    }
    fn try_eval(&self, kind: QueryKind, qs: &[ItemId]) -> Result<Vec<u64>, PageError> {
        ContainmentIndex::try_eval(self, kind, qs)
    }
    fn try_eval_pruned(&self, kind: QueryKind, qs: &[ItemId]) -> Result<Vec<u64>, PageError> {
        self.try_eval_pruned_with(kind, qs, &mut I::Scratch::default())
    }
    fn try_par_eval(
        &self,
        kind: QueryKind,
        queries: &[Vec<ItemId>],
        threads: usize,
    ) -> Vec<Result<Vec<u64>, PageError>> {
        ContainmentIndex::try_par_eval(self, kind, queries, threads)
    }
    fn scrub(&self) -> ScrubReport {
        ContainmentIndex::scrub(self)
    }
}

/// Persisting and reopening one index structure through the storage
/// catalog: the non-paged state goes under [`CATALOG_KEY`](Persist::CATALOG_KEY),
/// and `open` restores it from a pager whose storage holds a persisted
/// image. Distinct keys mean one storage file can host all three
/// structures side by side — which is exactly how a service shard keeps
/// its index kinds in one `FileStorage`.
pub trait Persist: Sized {
    /// The storage-catalog key this structure's state lives under.
    const CATALOG_KEY: &'static str;

    /// Serialize the non-paged state into the catalog and sync the pager.
    fn persist(&self) -> Result<(), StorageError>;

    /// Reopen a persisted index from `pager`'s storage; `None` when the
    /// catalog has no (parsable, version-compatible) entry.
    fn open(pager: Pager) -> Option<Self>;
}

impl ContainmentIndex for Oif {
    type Scratch = QueryScratch;

    fn kind_name(&self) -> &'static str {
        "oif"
    }
    fn pager(&self) -> &Pager {
        Oif::pager(self)
    }
    fn num_records(&self) -> u64 {
        Oif::num_records(self)
    }
    fn vocab_size(&self) -> usize {
        Oif::vocab_size(self)
    }
    fn bytes_on_disk(&self) -> u64 {
        self.tree_pages() * pagestore::PAGE_SIZE as u64
    }

    fn try_eval_with(
        &self,
        kind: QueryKind,
        qs: &[ItemId],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<u64>, PageError> {
        match kind {
            QueryKind::Subset => self.try_subset(qs),
            QueryKind::Equality => self.try_equality(qs),
            QueryKind::Superset => self.try_superset_with(qs, scratch),
        }
    }

    fn try_eval_pruned_with(
        &self,
        kind: QueryKind,
        qs: &[ItemId],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<u64>, PageError> {
        match kind {
            QueryKind::Superset => self.try_superset_pruned_with(qs, scratch),
            _ => self.try_eval_with(kind, qs, scratch),
        }
    }
}

impl Persist for Oif {
    const CATALOG_KEY: &'static str = crate::persist::CATALOG_KEY;

    fn persist(&self) -> Result<(), StorageError> {
        Oif::persist(self)
    }
    fn open(pager: Pager) -> Option<Self> {
        Oif::open(pager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{Dataset, SyntheticSpec, WorkloadSpec};

    fn dataset() -> Dataset {
        SyntheticSpec {
            num_records: 2000,
            vocab_size: 80,
            zipf: 0.8,
            len_min: 1,
            len_max: 10,
            seed: 19,
        }
        .generate()
    }

    /// Generic driver: the code every consumer of the trait writes once.
    fn answers<I: ContainmentIndex>(
        idx: &I,
        kind: QueryKind,
        queries: &[Vec<u32>],
    ) -> Vec<Vec<u64>> {
        let mut scratch = I::Scratch::default();
        queries
            .iter()
            .map(|q| idx.eval_with(kind, q, &mut scratch))
            .collect()
    }

    #[test]
    fn trait_calls_match_inherent_calls() {
        let d = dataset();
        let idx = Oif::build(&d);
        for kind in QueryKind::ALL {
            let qs = WorkloadSpec {
                kind,
                qs_size: 3,
                count: 8,
                seed: 5,
            }
            .generate(&d)
            .queries;
            let direct: Vec<Vec<u64>> = qs
                .iter()
                .map(|q| match kind {
                    QueryKind::Subset => idx.subset(q),
                    QueryKind::Equality => idx.equality(q),
                    QueryKind::Superset => idx.superset(q),
                })
                .collect();
            assert_eq!(answers(&idx, kind, &qs), direct, "{kind:?}");
            let par = ContainmentIndex::try_par_eval(&idx, kind, &qs, 4);
            let par: Vec<Vec<u64>> = par.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(par, direct, "{kind:?} parallel");
        }
    }

    #[test]
    fn pruned_eval_matches_unpruned_answers() {
        let d = dataset();
        let idx = Oif::build(&d);
        let qs = WorkloadSpec {
            kind: QueryKind::Superset,
            qs_size: 3,
            count: 6,
            seed: 7,
        }
        .generate(&d)
        .queries;
        let mut scratch = QueryScratch::new();
        for q in &qs {
            assert_eq!(
                idx.eval_pruned_with(QueryKind::Superset, q, &mut scratch),
                idx.superset(q),
                "{q:?}"
            );
        }
    }

    #[test]
    fn dyn_erasure_serves_all_entry_points() {
        let d = dataset();
        let oif = Oif::build(&d);
        let want = oif.subset(&[0, 2]);
        let boxed: Box<dyn DynContainmentIndex> = Box::new(oif);
        assert_eq!(boxed.kind_name(), "oif");
        assert_eq!(boxed.try_eval(QueryKind::Subset, &[0, 2]).unwrap(), want);
        assert_eq!(
            boxed.try_eval_pruned(QueryKind::Subset, &[0, 2]).unwrap(),
            want
        );
        let batch = boxed.try_par_eval(QueryKind::Subset, &[vec![0, 2]], 2);
        assert_eq!(batch[0].as_ref().unwrap(), &want);
        assert!(boxed.scrub().is_clean());
    }

    #[test]
    fn stats_reflect_metadata_savings() {
        let d = dataset();
        let idx = Oif::build(&d);
        // The metadata table drops suffixes: stored postings stay below
        // the dataset's raw posting count, item by item and in total.
        let raw = d.supports();
        let per_item: Vec<u64> = (0..idx.vocab_size() as u32)
            .map(|item| idx.stored_postings_of(item))
            .collect();
        assert!(per_item.iter().zip(&raw).all(|(s, r)| s <= r));
        let stored = idx.stored_postings();
        assert_eq!(stored, per_item.iter().sum::<u64>());
        let raw: u64 = raw.iter().sum();
        assert!(stored < raw, "stored {stored} vs raw {raw}");
        assert!(idx.space().list_bytes > 0);
        assert!(idx.tree_blocks() > 0);
        assert!(ContainmentIndex::bytes_on_disk(&idx) > 0);
    }
}
