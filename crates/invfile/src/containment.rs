//! [`ContainmentIndex`] + [`Persist`] for the classic inverted file.
//!
//! Pure delegation to the inherent entry points (`try_subset`,
//! `try_equality`, `try_superset_with`, `try_superset_pruned_with`,
//! `persist`/`open`): a generic caller performs bit-for-bit the same page
//! accesses as a direct caller, so the golden page-access gates are
//! untouched by the abstraction.

use crate::index::InvertedFile;
use crate::query::EvalScratch;
use datagen::{ItemId, QueryKind};
use oif::{ContainmentIndex, Persist};
use pagestore::{PageError, Pager, StorageError};

impl ContainmentIndex for InvertedFile {
    type Scratch = EvalScratch;

    fn kind_name(&self) -> &'static str {
        "invfile"
    }
    fn pager(&self) -> &Pager {
        InvertedFile::pager(self)
    }
    fn num_records(&self) -> u64 {
        InvertedFile::num_records(self)
    }
    fn vocab_size(&self) -> usize {
        InvertedFile::vocab_size(self)
    }
    fn bytes_on_disk(&self) -> u64 {
        InvertedFile::bytes_on_disk(self)
    }
    fn try_eval_with(
        &self,
        kind: QueryKind,
        qs: &[ItemId],
        scratch: &mut EvalScratch,
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
        scratch: &mut EvalScratch,
    ) -> Result<Vec<u64>, PageError> {
        match kind {
            QueryKind::Superset => self.try_superset_pruned_with(qs, scratch),
            _ => self.try_eval_with(kind, qs, scratch),
        }
    }
}

impl Persist for InvertedFile {
    const CATALOG_KEY: &'static str = crate::persist::CATALOG_KEY;

    fn persist(&self) -> Result<(), StorageError> {
        InvertedFile::persist(self)
    }
    fn open(pager: Pager) -> Option<Self> {
        InvertedFile::open(pager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{SyntheticSpec, WorkloadSpec};

    #[test]
    fn trait_calls_match_inherent_calls() {
        let d = SyntheticSpec {
            num_records: 1500,
            vocab_size: 70,
            zipf: 0.8,
            len_min: 1,
            len_max: 9,
            seed: 23,
        }
        .generate();
        let idx = InvertedFile::build(&d);
        let mut scratch = EvalScratch::new();
        for kind in QueryKind::ALL {
            let qs = WorkloadSpec {
                kind,
                qs_size: 3,
                count: 8,
                seed: 4,
            }
            .generate(&d)
            .queries;
            for q in &qs {
                let direct = match kind {
                    QueryKind::Subset => idx.subset(q),
                    QueryKind::Equality => idx.equality(q),
                    QueryKind::Superset => idx.superset(q),
                };
                assert_eq!(idx.eval_with(kind, q, &mut scratch), direct, "{kind:?}");
                assert_eq!(
                    idx.eval_pruned_with(kind, q, &mut scratch),
                    direct,
                    "{kind:?} pruned"
                );
            }
        }
    }

    #[test]
    fn stats_count_every_raw_posting() {
        let d = datagen::Dataset::paper_fig1();
        let idx = InvertedFile::build(&d);
        // The IF stores every posting — no metadata-table suffix dropping.
        let stored: Vec<u64> = (0..d.vocab_size as u32).map(|i| idx.support(i)).collect();
        assert_eq!(stored, d.supports());
        assert!(idx.list_bytes() > 0);
        assert!(ContainmentIndex::bytes_on_disk(&idx) >= idx.list_bytes());
    }
}
