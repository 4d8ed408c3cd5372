//! The measured structure ranking.
//!
//! Every hosted structure answers every query exactly, so the choice moves
//! only cost. The paper's §5 experiments and the service benchmark agree on
//! the order: the OIF restricts each merge to the region of interest (the
//! stretch of each list, in its record order, where answers can occur) and
//! drops the list suffixes its metadata table replaces, while the inverted
//! file must read whole lists and the unordered B-tree has neither. On the
//! service benchmark's skewed inputs the OIF beat the inverted file on
//! every superset and, on average, on subsets and equalities too, and a
//! per-query oracle picking the fastest structure gained little over
//! OIF-only (figures in `CHANGES.md`). So a shard serves a whole batch
//! from the first structure of [`IndexKind::ALL`] it hosts — the OIF, else
//! the inverted file, else the ablation — unless [`PlannerMode::Fixed`]
//! pins one.

/// Which index structure serves a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The ordered inverted file (the paper's contribution).
    Oif,
    /// The classic whole-list inverted file (§2 baseline).
    InvertedFile,
    /// The unordered block B-tree (§5 ablation).
    UnorderedBTree,
}

impl IndexKind {
    /// All kinds, fastest first: the order [`PlannerMode::Cost`] ranks by.
    pub const ALL: [IndexKind; 3] = [
        IndexKind::Oif,
        IndexKind::InvertedFile,
        IndexKind::UnorderedBTree,
    ];

    /// Stable short name, matching `ContainmentIndex::kind_name`.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Oif => "oif",
            IndexKind::InvertedFile => "invfile",
            IndexKind::UnorderedBTree => "ubtree",
        }
    }
}

/// How a shard picks the structure that serves a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// The measured ranking: the first hosted kind of [`IndexKind::ALL`].
    /// The ranking is measured once, not estimated per query.
    Cost,
    /// Always the given kind (falls back to the measured ranking on shards
    /// not hosting it — e.g. after an insert dropped a stale structure).
    Fixed(IndexKind),
}

/// The kind serving a batch on a shard that hosts exactly the kinds
/// `hosts` accepts; `None` when it hosts none.
pub(crate) fn plan(mode: PlannerMode, hosts: impl Fn(IndexKind) -> bool) -> Option<IndexKind> {
    if let PlannerMode::Fixed(k) = mode {
        if hosts(k) {
            return Some(k);
        }
    }
    IndexKind::ALL.into_iter().find(|&k| hosts(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_mode_obeys_and_falls_back() {
        let all = |_| true;
        for k in IndexKind::ALL {
            assert_eq!(plan(PlannerMode::Fixed(k), all), Some(k));
        }
        // Not hosted: fall back in `IndexKind::ALL` order.
        let no_ub = |k| k != IndexKind::UnorderedBTree;
        assert_eq!(
            plan(PlannerMode::Fixed(IndexKind::UnorderedBTree), no_ub),
            Some(IndexKind::Oif)
        );
        let if_only = |k| k == IndexKind::InvertedFile;
        assert_eq!(
            plan(PlannerMode::Fixed(IndexKind::Oif), if_only),
            Some(IndexKind::InvertedFile)
        );
    }

    #[test]
    fn empty_shard_plans_nothing_and_ties_prefer_oif() {
        assert_eq!(plan(PlannerMode::Cost, |_| false), None);
        assert_eq!(plan(PlannerMode::Cost, |_| true), Some(IndexKind::Oif));
        assert_eq!(
            plan(PlannerMode::Cost, |k| k != IndexKind::Oif),
            Some(IndexKind::InvertedFile)
        );
        assert_eq!(
            plan(PlannerMode::Cost, |k| k == IndexKind::UnorderedBTree),
            Some(IndexKind::UnorderedBTree)
        );
    }
}
