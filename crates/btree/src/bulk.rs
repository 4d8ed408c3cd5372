//! Bottom-up bulk loading.
//!
//! The OIF is built offline over the sorted database (§4.4: updates are
//! batch, offline procedures), so the tree is constructed by packing sorted
//! entries into leaves left-to-right and then stacking internal levels.
//! Leaves come out physically contiguous on disk, giving the sequential-read
//! behaviour the paper assumes for inverted lists.

use crate::node::{InternalEntry, LeafEntry, Node, MAX_ENTRY_BYTES};
use crate::tree::{BTree, BTreeError};
use pagestore::{FileId, PageError, PageId, Pager, PAGE_SIZE};

/// Builds a [`BTree`] from entries supplied in strictly increasing key
/// order.
pub struct BulkLoader {
    pager: Pager,
    file: FileId,
    /// Fill fraction of a page before starting a new leaf (≤ 1.0).
    fill: f64,
    current: Vec<LeafEntry>,
    current_bytes: usize,
    /// (max key, page) of each completed leaf, in order.
    finished: Vec<(Vec<u8>, PageId)>,
    prev_leaf_page: Option<PageId>,
    last_key: Option<Vec<u8>>,
    len: u64,
}

impl BulkLoader {
    /// Start a loader with the default 90 % fill factor.
    pub fn new(pager: Pager) -> Self {
        Self::with_fill(pager, 0.9)
    }

    /// Start a loader with a custom fill factor in `(0, 1]`.
    pub fn with_fill(pager: Pager, fill: f64) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor must be in (0, 1]");
        let file = pager.create_file();
        BulkLoader {
            pager,
            file,
            fill,
            current: Vec::new(),
            current_bytes: crate::node::NODE_HEADER,
            finished: Vec::new(),
            prev_leaf_page: None,
            last_key: None,
            len: 0,
        }
    }

    /// Append the next entry; keys must be strictly increasing. Panics on
    /// a page fault; [`BulkLoader::try_push`] is the fallible twin.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> Result<(), BTreeError> {
        match self.try_push(key, value) {
            Err(BTreeError::Page(e)) => panic!("{e}"),
            other => other,
        }
    }

    /// Fallible twin of [`BulkLoader::push`]: a degraded pool surfaces as
    /// [`BTreeError::Page`] instead of a panic.
    pub fn try_push(&mut self, key: &[u8], value: &[u8]) -> Result<(), BTreeError> {
        if key.len() + value.len() > MAX_ENTRY_BYTES {
            return Err(BTreeError::EntryTooLarge {
                key_len: key.len(),
                value_len: value.len(),
            });
        }
        if let Some(last) = &self.last_key {
            assert!(
                key > last.as_slice(),
                "bulk load requires strictly increasing keys"
            );
        }
        let entry_bytes = crate::node::LEAF_ENTRY_HEADER + key.len() + value.len();
        let budget = (PAGE_SIZE as f64 * self.fill) as usize;
        if !self.current.is_empty()
            && (self.current_bytes + entry_bytes > budget
                || self.current_bytes + entry_bytes > PAGE_SIZE)
        {
            self.try_flush_leaf()?;
        }
        self.current.push(LeafEntry {
            key: key.to_vec(),
            value: value.to_vec(),
        });
        self.current_bytes += entry_bytes;
        self.last_key = Some(key.to_vec());
        self.len += 1;
        Ok(())
    }

    fn try_flush_leaf(&mut self) -> Result<(), PageError> {
        debug_assert!(!self.current.is_empty());
        let page = self.pager.try_allocate_page(self.file)?;
        let entries = std::mem::take(&mut self.current);
        let max_key = entries.last().unwrap().key.clone();
        let node = Node::Leaf {
            entries,
            next: None,
        };
        self.pager.try_write_page(self.file, page, &node.encode())?;
        // Link the previous leaf to this one.
        if let Some(prev) = self.prev_leaf_page {
            let mut prev_node = self.pager.try_with_page(self.file, prev, Node::decode)?;
            if let Node::Leaf { next, .. } = &mut prev_node {
                *next = Some(page);
            }
            self.pager
                .try_write_page(self.file, prev, &prev_node.encode())?;
        }
        self.prev_leaf_page = Some(page);
        self.finished.push((max_key, page));
        self.current_bytes = crate::node::NODE_HEADER;
        Ok(())
    }

    /// Finish loading and return the tree. Panics on a page fault;
    /// [`BulkLoader::try_finish`] is the fallible twin.
    pub fn finish(self) -> BTree {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`BulkLoader::finish`].
    pub fn try_finish(mut self) -> Result<BTree, PageError> {
        if !self.current.is_empty() {
            self.try_flush_leaf()?;
        }
        if self.finished.is_empty() {
            // Empty input: a single empty leaf root.
            let page = self.pager.try_allocate_page(self.file)?;
            self.pager
                .try_write_page(self.file, page, &Node::empty_leaf().encode())?;
            return Ok(BTree::open(self.pager, self.file, page, 1, 0));
        }
        // Stack internal levels until a single root remains.
        let mut level: Vec<(Vec<u8>, PageId)> = std::mem::take(&mut self.finished);
        let mut height = 1;
        while level.len() > 1 {
            let mut next_level = Vec::new();
            let mut entries: Vec<InternalEntry> = Vec::new();
            let mut bytes = crate::node::NODE_HEADER;
            let budget = (PAGE_SIZE as f64 * self.fill) as usize;
            for (max_key, child) in level {
                let cost = crate::node::INTERNAL_ENTRY_HEADER + max_key.len();
                if !entries.is_empty() && (bytes + cost > budget || bytes + cost > PAGE_SIZE) {
                    next_level.push(self.try_flush_internal(std::mem::take(&mut entries))?);
                    bytes = crate::node::NODE_HEADER;
                }
                entries.push(InternalEntry {
                    separator: max_key,
                    child,
                });
                bytes += cost;
            }
            if !entries.is_empty() {
                next_level.push(self.try_flush_internal(entries)?);
            }
            level = next_level;
            height += 1;
        }
        let root = level[0].1;
        Ok(BTree::open(self.pager, self.file, root, height, self.len))
    }

    fn try_flush_internal(
        &mut self,
        entries: Vec<InternalEntry>,
    ) -> Result<(Vec<u8>, PageId), PageError> {
        let page = self.pager.try_allocate_page(self.file)?;
        let max_key = entries.last().unwrap().separator.clone();
        let node = Node::Internal { entries };
        self.pager.try_write_page(self.file, page, &node.encode())?;
        Ok((max_key, page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(n: u32) -> BTree {
        let pager = Pager::with_cache_bytes(1 << 20);
        let mut loader = BulkLoader::new(pager);
        for i in 0..n {
            loader
                .push(&i.to_be_bytes(), &(i * 3).to_be_bytes())
                .unwrap();
        }
        loader.finish()
    }

    #[test]
    fn bulk_load_empty() {
        let t = BulkLoader::new(Pager::new()).finish();
        assert!(t.is_empty());
        assert_eq!(t.scan().count(), 0);
    }

    #[test]
    fn bulk_load_matches_point_lookups() {
        let t = load(10_000);
        assert_eq!(t.len(), 10_000);
        t.check_invariants();
        for probe in [0u32, 1, 4999, 9999] {
            assert_eq!(
                t.get(&probe.to_be_bytes()),
                Some((probe * 3).to_be_bytes().to_vec())
            );
        }
        assert_eq!(t.get(&10_000u32.to_be_bytes()), None);
    }

    #[test]
    fn bulk_load_scan_order() {
        let t = load(5_000);
        let mut prev = None;
        let mut count = 0;
        for (k, _) in t.scan() {
            if let Some(p) = &prev {
                assert!(&k > p);
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 5_000);
    }

    #[test]
    fn leaves_are_physically_sequential() {
        // A seek + scan over a bulk-loaded tree should be dominated by
        // sequential misses.
        let pager = Pager::with_cache_bytes(PAGE_SIZE); // 1-page cache
        let mut loader = BulkLoader::new(pager.clone());
        for i in 0..20_000u32 {
            loader.push(&i.to_be_bytes(), &[0u8; 16]).unwrap();
        }
        let t = loader.finish();
        pager.clear_cache();
        pager.reset_stats();
        let n = t.scan().count();
        assert_eq!(n, 20_000);
        let s = pager.stats();
        assert!(
            s.seq_misses > s.random_misses * 5,
            "scan should be sequential: {s}"
        );
    }

    #[test]
    fn inserts_after_bulk_load() {
        let mut t = load(1000);
        t.insert(&5000u32.to_be_bytes(), b"new").unwrap();
        // 5000 > all bulk keys (0..1000 big-endian), lands at the end.
        assert_eq!(t.get(&5000u32.to_be_bytes()), Some(b"new".to_vec()));
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_push_panics() {
        let mut loader = BulkLoader::new(Pager::new());
        loader.push(b"b", b"1").unwrap();
        loader.push(b"a", b"2").unwrap();
    }

    #[test]
    fn low_fill_factor_uses_more_pages() {
        let full = {
            let mut l = BulkLoader::with_fill(Pager::new(), 1.0);
            for i in 0..2000u32 {
                l.push(&i.to_be_bytes(), &[0u8; 32]).unwrap();
            }
            l.finish().pages()
        };
        let half = {
            let mut l = BulkLoader::with_fill(Pager::new(), 0.5);
            for i in 0..2000u32 {
                l.push(&i.to_be_bytes(), &[0u8; 32]).unwrap();
            }
            l.finish().pages()
        };
        assert!(half > full, "half-fill {half} pages vs full {full}");
    }
}
