//! [`ContainmentIndex`] + [`Persist`] for the unordered B-tree ablation.
//!
//! Pure delegation to the inherent entry points (`try_subset`,
//! `try_equality`, `try_superset`, `persist`/`open`): a generic caller
//! performs bit-for-bit the same page accesses as a direct caller, so the
//! golden page-access gates are untouched by the abstraction. The
//! structure keeps no per-query scratch, so `Scratch = ()`.

use crate::UnorderedBTree;
use datagen::{ItemId, QueryKind};
use oif::{ContainmentIndex, Persist};
use pagestore::{PageError, Pager, StorageError};

impl ContainmentIndex for UnorderedBTree {
    type Scratch = ();

    fn kind_name(&self) -> &'static str {
        "ubtree"
    }
    fn pager(&self) -> &Pager {
        UnorderedBTree::pager(self)
    }
    fn num_records(&self) -> u64 {
        UnorderedBTree::num_records(self)
    }
    fn vocab_size(&self) -> usize {
        UnorderedBTree::vocab_size(self)
    }
    fn bytes_on_disk(&self) -> u64 {
        UnorderedBTree::bytes_on_disk(self)
    }
    fn try_eval_with(
        &self,
        kind: QueryKind,
        qs: &[ItemId],
        _scratch: &mut (),
    ) -> Result<Vec<u64>, PageError> {
        match kind {
            QueryKind::Subset => self.try_subset(qs),
            QueryKind::Equality => self.try_equality(qs),
            QueryKind::Superset => self.try_superset(qs),
        }
    }
}

impl Persist for UnorderedBTree {
    const CATALOG_KEY: &'static str = crate::CATALOG_KEY;

    fn persist(&self) -> Result<(), StorageError> {
        UnorderedBTree::persist(self)
    }
    fn open(pager: Pager) -> Option<Self> {
        UnorderedBTree::open(pager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::Dataset;

    #[test]
    fn trait_calls_match_inherent_calls() {
        let d = Dataset::paper_fig1();
        let idx = UnorderedBTree::build(&d);
        assert_eq!(
            ContainmentIndex::eval(&idx, QueryKind::Subset, &[0, 3]),
            idx.subset(&[0, 3])
        );
        assert_eq!(
            ContainmentIndex::eval(&idx, QueryKind::Superset, &[0, 2]),
            idx.superset(&[0, 2])
        );
        assert_eq!(
            ContainmentIndex::eval(&idx, QueryKind::Equality, &[0, 3]),
            idx.equality(&[0, 3])
        );
        let stored: Vec<u64> = (0..d.vocab_size as u32).map(|i| idx.support(i)).collect();
        assert_eq!(stored, d.supports());
        assert!(ContainmentIndex::bytes_on_disk(&idx) > 0);
    }

    #[test]
    fn persist_trait_round_trips() {
        let d = Dataset::paper_fig1();
        let built = UnorderedBTree::build(&d);
        Persist::persist(&built).unwrap();
        let reopened = <UnorderedBTree as Persist>::open(built.pager().clone()).unwrap();
        assert_eq!(reopened.subset(&[0, 3]), vec![101, 104, 114]);
    }
}
