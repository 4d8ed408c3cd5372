//! The B⁺-tree proper: lookups, inserts with split propagation, deletes.
//!
//! # One writer, zero-copy readers
//!
//! Reads ([`BTree::try_get`], the cursors) take `&self` and descend over
//! pinned pages, borrowing node bytes straight out of the buffer pool. Any
//! number of threads may read one tree at once.
//!
//! Writes take `&mut self`, so the borrow checker proves that no cursor or
//! [`PageGuard`] of this tree is alive while a page changes — the guarantee
//! the pinned read path rests on. Callers that want shared writers put the
//! tree behind an `RwLock`.
//!
//! An insert first descends with pins, then edits the leaf **in place**
//! ([`Pager::try_with_page_mut`]) when the key sorts strictly below the
//! leaf's max key (or replaces an existing key) and the entry fits: no
//! separator or sibling can change then. Every other insert takes the
//! recursive split path, which writes fresh pages (split siblings, a new
//! root) before any existing node and the existing nodes top-down, so a
//! failed write never hides a key (see [`BTree::try_insert_split_path`]).
//! Removes are merge-free in-place leaf edits.
//!
//! Every mutating operation has a fallible `try_` twin returning
//! [`BTreeError::Page`] / [`PageError`] when the pool degrades read-only;
//! the panicking forms are thin wrappers.

use crate::node::{
    self, InternalEntry, LeafEntry, Node, NodeRef, OffsetTable, LEAF_ENTRY_HEADER, MAX_ENTRY_BYTES,
};
use pagestore::{FileId, PageError, PageGuard, PageId, Pager, PAGE_SIZE};

/// Errors returned by tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTreeError {
    /// `key.len() + value.len()` exceeds [`MAX_ENTRY_BYTES`].
    EntryTooLarge { key_len: usize, value_len: usize },
    /// A page fault on the write path — typically the pool degraded to
    /// read-only mode mid-operation.
    Page(PageError),
}

impl std::fmt::Display for BTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BTreeError::EntryTooLarge { key_len, value_len } => write!(
                f,
                "entry too large: key {key_len} B + value {value_len} B > {MAX_ENTRY_BYTES} B"
            ),
            BTreeError::Page(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BTreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BTreeError::Page(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PageError> for BTreeError {
    fn from(e: PageError) -> BTreeError {
        BTreeError::Page(e)
    }
}

/// The page writes one structural insert decided on, in the order the
/// recursion planned them (see [`BTree::try_insert_split_path`]).
#[derive(Default)]
struct SplitPlan {
    /// Freshly allocated pages: split siblings and a new root.
    fresh: Vec<(PageId, Node)>,
    /// Rewrites of existing nodes, bottom-up.
    existing: Vec<(PageId, Node)>,
}

/// A disk-resident B⁺-tree. See the crate docs for the design.
pub struct BTree {
    pager: Pager,
    file: FileId,
    root: PageId,
    height: usize,
    len: u64,
}

impl BTree {
    /// Create an empty tree in a fresh file of `pager`'s disk.
    pub fn create(pager: Pager) -> Self {
        let file = pager.create_file();
        let root = pager.allocate_page(file);
        pager.write_page(file, root, &Node::empty_leaf().encode());
        BTree::open(pager, file, root, 1, 0)
    }

    /// Number of key/value entries stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of levels (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pages allocated to the tree's file (nodes, including freed slack).
    pub fn pages(&self) -> u64 {
        self.pager.file_len(self.file)
    }

    /// Total on-disk bytes of the tree.
    pub fn bytes_on_disk(&self) -> u64 {
        self.pages() * pagestore::PAGE_SIZE as u64
    }

    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// The logical file on `pager`'s disk holding the tree's nodes.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Page id of the root node (within [`BTree::file`]).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Reopen a tree from persisted parts (see [`BTree::file`],
    /// [`BTree::root_page`], [`BTree::height`], [`BTree::len`]).
    ///
    /// The caller asserts the parts describe a tree previously built on
    /// this pager's storage — typically read back from the storage catalog
    /// after a [`Pager::sync`](pagestore::Pager::sync). Nothing is read
    /// eagerly; a bogus root surfaces on first access (decoding a
    /// non-node page fails its named assertions).
    pub fn open(pager: Pager, file: FileId, root: PageId, height: usize, len: u64) -> Self {
        BTree {
            pager,
            file,
            root,
            height,
            len,
        }
    }

    /// Owned decode of one node — the split path's view.
    fn try_read_node(&self, page: PageId) -> Result<Node, PageError> {
        self.pager.try_with_page(self.file, page, Node::decode)
    }

    fn try_write_node(&self, page: PageId, node: &Node) -> Result<(), PageError> {
        self.pager.try_write_page(self.file, page, &node.encode())
    }

    /// Pin one node's page for zero-copy reading (the read path's view);
    /// a page fault surfaces as a typed error instead of a panic.
    pub(crate) fn try_pin_node(&self, page: PageId) -> Result<PageGuard, PageError> {
        self.pager.try_pin_page(self.file, page)
    }

    /// Re-touch a cached node page (a counted cache hit). Used to replay
    /// the historical read path's access pattern exactly — see
    /// [`crate::Cursor`].
    pub(crate) fn try_touch_node(&self, page: PageId) -> Result<(), PageError> {
        self.pager.try_with_page(self.file, page, |_| ())
    }

    /// Pinned descent to the leaf covering the monotone seek predicate
    /// `before` (see [`crate::Cursor::seek_by`]): its page id and a guard
    /// pinning it. Each level's pin is released before its child is
    /// fetched; `table` is scratch space the caller may reuse for the leaf.
    pub(crate) fn try_descend(
        &self,
        before: impl Fn(&[u8]) -> bool,
        table: &mut OffsetTable,
    ) -> Result<(PageId, PageGuard), PageError> {
        let mut page = self.root;
        loop {
            let guard = self.try_pin_node(page)?;
            let node = NodeRef::new(guard.bytes());
            if node.is_leaf() {
                return Ok((page, guard));
            }
            node.fill_offsets(table);
            let idx = node.partition_point(table, &before).min(node.count() - 1);
            page = node.child(table, idx);
        }
    }

    /// Exact-match lookup.
    ///
    /// The descent reads borrowed [`NodeRef`] views straight out of pinned
    /// pages; only the returned value is copied. The leaf is read twice
    /// (descend + lookup) exactly like the historical owned-decode path, so
    /// buffer-pool state and page-access counts are unchanged.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.try_get(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`BTree::get`]: a page fault anywhere along the
    /// descent surfaces as its typed [`PageError`] instead of a panic. The
    /// access pattern — and hence page-access counts — is identical to the
    /// historical [`BTree::get`].
    pub fn try_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, PageError> {
        let mut table = OffsetTable::new();
        let (leaf_page, guard) = self.try_descend(|sep| sep < key, &mut table)?;
        drop(guard);
        let guard = self.try_pin_node(leaf_page)?;
        let node = NodeRef::new(guard.bytes());
        node.fill_offsets(&mut table);
        let idx = node.partition_point(&table, |k| k < key);
        if idx < node.count() {
            let (k, v) = node.leaf_entry(&table, idx);
            if k == key {
                return Ok(Some(v.to_vec()));
            }
        }
        Ok(None)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Insert or replace `key`. Returns the previous value if any.
    ///
    /// Panics on a page fault (degraded pool); [`BTree::try_insert`] is the
    /// fallible twin and the actual implementation.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, BTreeError> {
        match self.try_insert(key, value) {
            Err(BTreeError::Page(e)) => panic!("{e}"),
            other => other,
        }
    }

    /// Fallible insert: an in-place leaf edit when no separator or sibling
    /// can change, the recursive split path otherwise (see the module
    /// docs).
    pub fn try_insert(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, BTreeError> {
        if key.len() + value.len() > MAX_ENTRY_BYTES {
            return Err(BTreeError::EntryTooLarge {
                key_len: key.len(),
                value_len: value.len(),
            });
        }
        let (leaf, guard) = self.try_descend(|sep| sep < key, &mut OffsetTable::new())?;
        drop(guard);
        let edited = self.pager.try_with_page_mut(self.file, leaf, |bytes| {
            Self::leaf_insert_in_place(bytes, key, value)
        })?;
        let old = match edited {
            Some(old) => old,
            None => self.try_insert_split_path(key, value)?,
        };
        if old.is_none() {
            self.len += 1;
        }
        Ok(old)
    }

    /// Apply an insert to a leaf page in place when that cannot change
    /// anything above it: the key replaces an existing entry, or sorts
    /// strictly below the leaf's max key — and the result fits the page.
    /// `Some(previous value)` when applied, `None` (page untouched) when
    /// the split path must run.
    fn leaf_insert_in_place(
        bytes: &mut [u8; PAGE_SIZE],
        key: &[u8],
        value: &[u8],
    ) -> Option<Option<Vec<u8>>> {
        let mut table = OffsetTable::new();
        let view = NodeRef::new(&bytes[..]);
        view.fill_offsets(&mut table);
        let pos = view.partition_point(&table, |k| k < key);
        if pos == table.len() {
            // The key would become the leaf's new max: separators move.
            return None;
        }
        let used = node::leaf_used_bytes(&bytes[..], &table);
        let (k, v) = view.leaf_entry(&table, pos);
        if k == key {
            let old = v.to_vec();
            if used - old.len() + value.len() > PAGE_SIZE {
                return None;
            }
            node::leaf_replace_at(bytes, &table, pos, value);
            return Some(Some(old));
        }
        if used + LEAF_ENTRY_HEADER + key.len() + value.len() > PAGE_SIZE {
            return None;
        }
        node::leaf_insert_at(bytes, &table, pos, key, value);
        Some(None)
    }

    /// The structural insert: the recursive split path from the root, plus
    /// root growth when the root itself splits.
    ///
    /// The recursion only *plans* its page writes; they are applied here in
    /// an order where every prefix leaves every key reachable by a seek and
    /// a leaf-chain scan: first the fresh pages (split siblings and a new
    /// root — unreferenced until a parent names them), then the root swing,
    /// then the existing nodes top-down. A parent therefore always names a
    /// new right sibling before its child is halved, and a halved leaf's
    /// `next` never points at an unwritten page. A failed write stops the
    /// sequence in one of those consistent states.
    fn try_insert_split_path(
        &mut self,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, PageError> {
        let mut plan = SplitPlan::default();
        let (old, split) = self.try_insert_rec(self.root, key, value, &mut plan)?;
        let mut new_root = None;
        if let Some((sep_left, right_page, sep_right)) = split {
            // Root split: grow the tree by one level.
            let page = self.pager.try_allocate_page(self.file)?;
            let node = Node::Internal {
                entries: vec![
                    InternalEntry {
                        separator: sep_left,
                        child: self.root,
                    },
                    InternalEntry {
                        separator: sep_right,
                        child: right_page,
                    },
                ],
            };
            plan.fresh.push((page, node));
            new_root = Some(page);
        }
        for (page, node) in &plan.fresh {
            self.try_write_node(*page, node)?;
        }
        if let Some(page) = new_root {
            self.root = page;
            self.height += 1;
        }
        // Planned bottom-up by the recursion; applied top-down.
        for (page, node) in plan.existing.iter().rev() {
            self.try_write_node(*page, node)?;
        }
        Ok(old)
    }

    /// Recursive insert. Returns `(previous value, split info)` where split
    /// info is `(left max key, new right page, right max key)` when `page`
    /// was split. Every node write is recorded in `plan`, not applied.
    #[allow(clippy::type_complexity)]
    fn try_insert_rec(
        &self,
        page: PageId,
        key: &[u8],
        value: &[u8],
        plan: &mut SplitPlan,
    ) -> Result<(Option<Vec<u8>>, Option<(Vec<u8>, PageId, Vec<u8>)>), PageError> {
        let mut node = self.try_read_node(page)?;
        let old = match &mut node {
            Node::Leaf { entries, .. } => {
                match entries.binary_search_by(|e| e.key.as_slice().cmp(key)) {
                    Ok(i) => {
                        let old = std::mem::replace(&mut entries[i].value, value.to_vec());
                        Some(old)
                    }
                    Err(i) => {
                        entries.insert(
                            i,
                            LeafEntry {
                                key: key.to_vec(),
                                value: value.to_vec(),
                            },
                        );
                        None
                    }
                }
            }
            Node::Internal { entries } => {
                let idx = entries.partition_point(|e| e.separator.as_slice() < key);
                let idx = idx.min(entries.len() - 1);
                let child = entries[idx].child;
                let (old, split) = self.try_insert_rec(child, key, value, plan)?;
                // The child's max key may have grown (insert beyond the last
                // separator).
                if let Some((left_max, right_page, right_max)) = split {
                    entries[idx].separator = left_max;
                    entries.insert(
                        idx + 1,
                        InternalEntry {
                            separator: right_max,
                            child: right_page,
                        },
                    );
                } else if entries[idx].separator.as_slice() < key {
                    entries[idx].separator = key.to_vec();
                }
                old
            }
        };
        if node.fits_in_page() {
            plan.existing.push((page, node));
            return Ok((old, None));
        }
        // Overflow: split and hand the new sibling up to the parent.
        let right = node.split();
        let right_page = self.pager.try_allocate_page(self.file)?;
        if let Node::Leaf { next, .. } = &mut node {
            *next = Some(right_page);
        }
        let left_max = node.max_key().expect("split leaves entries").to_vec();
        let right_max = right.max_key().expect("split leaves entries").to_vec();
        debug_assert!(node.fits_in_page() && right.fits_in_page());
        plan.fresh.push((right_page, right));
        plan.existing.push((page, node));
        Ok((old, Some((left_max, right_page, right_max))))
    }

    /// Remove `key`, returning its value if present. Merge-free: nodes may
    /// underflow but the tree stays ordered and searchable. Panics on a
    /// page fault; [`BTree::try_remove`] is the fallible twin.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.try_remove(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible remove: an in-place edit of the leaf. Deletes never need a
    /// structure modification — separators stay loose upper bounds, which
    /// clamped routing keeps correct — and a missing key writes nothing.
    pub fn try_remove(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, PageError> {
        let mut table = OffsetTable::new();
        let (leaf, guard) = self.try_descend(|sep| sep < key, &mut table)?;
        let node = NodeRef::new(guard.bytes());
        node.fill_offsets(&mut table);
        let pos = node.partition_point(&table, |k| k < key);
        if pos == node.count() || node.leaf_entry(&table, pos).0 != key {
            return Ok(None);
        }
        let old = node.leaf_entry(&table, pos).1.to_vec();
        // The tree is borrowed exclusively, so the page cannot change
        // between releasing the pin and the edit: `table` stays valid.
        drop(guard);
        self.pager.try_with_page_mut(self.file, leaf, |bytes| {
            node::leaf_remove_at(bytes, &table, pos)
        })?;
        self.len -= 1;
        Ok(Some(old))
    }

    /// Insert a batch of entries in order. Returns the number of *fresh*
    /// keys inserted. On a page fault the batch stops with the typed
    /// error; already-applied entries remain (inserts are independent and
    /// idempotent to re-apply).
    pub fn try_batch_insert(&mut self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<u64, BTreeError> {
        let mut fresh = 0u64;
        for (k, v) in entries {
            if self.try_insert(k, v)?.is_none() {
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// Panicking twin of [`BTree::try_batch_insert`].
    pub fn batch_insert(&mut self, entries: &[(Vec<u8>, Vec<u8>)]) -> u64 {
        match self.try_batch_insert(entries) {
            Ok(fresh) => fresh,
            Err(e) => panic!("{e}"),
        }
    }

    /// Ordered cursor positioned at the first entry with key ≥ `key`.
    pub fn seek(&self, key: &[u8]) -> crate::Cursor<'_> {
        crate::Cursor::seek(self, key)
    }

    /// Fallible twin of [`BTree::seek`].
    pub fn try_seek(&self, key: &[u8]) -> Result<crate::Cursor<'_>, PageError> {
        crate::Cursor::try_seek(self, key)
    }

    /// Cursor positioned at the first entry whose key does not satisfy the
    /// monotone predicate `before` (see [`crate::Cursor::seek_by`] for the
    /// contract).
    pub fn seek_by(&self, before: impl Fn(&[u8]) -> bool) -> crate::Cursor<'_> {
        crate::Cursor::seek_by(self, before)
    }

    /// Fallible twin of [`BTree::seek_by`].
    pub fn try_seek_by(
        &self,
        before: impl Fn(&[u8]) -> bool,
    ) -> Result<crate::Cursor<'_>, PageError> {
        crate::Cursor::try_seek_by(self, before)
    }

    /// Cursor over the whole tree from the first entry.
    pub fn scan(&self) -> crate::Cursor<'_> {
        crate::Cursor::seek(self, &[])
    }

    /// Fallible twin of [`BTree::scan`].
    pub fn try_scan(&self) -> Result<crate::Cursor<'_>, PageError> {
        crate::Cursor::try_seek(self, &[])
    }

    /// Structural invariant check used by tests and debug assertions: key
    /// order within/between nodes and separator correctness. Call from a
    /// quiescent tree (no concurrent writers).
    pub fn check_invariants(&self) {
        let mut leaf_keys = Vec::new();
        self.check_rec(self.root, None, &mut leaf_keys);
        for w in leaf_keys.windows(2) {
            assert!(w[0] < w[1], "leaf keys must be strictly increasing");
        }
        assert_eq!(leaf_keys.len() as u64, self.len(), "len bookkeeping");
    }

    fn check_rec(&self, page: PageId, upper: Option<&[u8]>, out: &mut Vec<Vec<u8>>) {
        let node = self.try_read_node(page).unwrap_or_else(|e| panic!("{e}"));
        match node {
            Node::Leaf { entries, .. } => {
                for e in &entries {
                    if let Some(u) = upper {
                        assert!(e.key.as_slice() <= u, "leaf key exceeds separator");
                    }
                    out.push(e.key.clone());
                }
            }
            Node::Internal { entries } => {
                assert!(!entries.is_empty(), "internal node may not be empty");
                for e in &entries {
                    if let Some(u) = upper {
                        assert!(
                            e.separator.as_slice() <= u,
                            "separator exceeds parent bound"
                        );
                    }
                    self.check_rec(e.child, Some(&e.separator), out);
                }
            }
        }
    }
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("len", &self.len())
            .field("height", &self.height())
            .field("pages", &self.pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> BTree {
        BTree::create(Pager::with_cache_bytes(1 << 20))
    }

    /// Retry backoff that spends no wall-clock time.
    struct NoSleep;
    impl pagestore::Clock for NoSleep {
        fn sleep(&self, _d: std::time::Duration) {}
    }

    #[test]
    fn empty_tree_lookups() {
        let t = tree();
        assert!(t.is_empty());
        assert_eq!(t.get(b"nope"), None);
        assert!(!t.contains_key(b"nope"));
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = tree();
        assert_eq!(t.insert(b"alpha", b"1").unwrap(), None);
        assert_eq!(t.insert(b"beta", b"2").unwrap(), None);
        assert_eq!(t.get(b"alpha"), Some(b"1".to_vec()));
        assert_eq!(t.insert(b"alpha", b"one").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"alpha"), Some(b"one".to_vec()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn thousands_of_inserts_split_and_stay_ordered() {
        let mut t = tree();
        let n = 5000u32;
        // Insert in a shuffled-ish order (stride walk).
        let mut k = 0u32;
        for _ in 0..n {
            k = (k + 2654435761u32.wrapping_mul(7)) % n;
            while t
                .insert(format!("key{k:08}").as_bytes(), &k.to_le_bytes())
                .unwrap()
                .is_some()
            {
                k = (k + 1) % n;
            }
        }
        assert_eq!(t.len(), n as u64);
        assert!(t.height() > 1, "tree must have split");
        t.check_invariants();
        for probe in [0u32, 1, n / 2, n - 1] {
            assert_eq!(
                t.get(format!("key{probe:08}").as_bytes()),
                Some(probe.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn sequential_inserts() {
        let mut t = tree();
        for i in 0..2000u32 {
            t.insert(&i.to_be_bytes(), &[0u8; 32]).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.get(&1999u32.to_be_bytes()), Some(vec![0u8; 32]));
    }

    #[test]
    fn remove_then_get() {
        let mut t = tree();
        for i in 0..100u32 {
            t.insert(&i.to_be_bytes(), b"v").unwrap();
        }
        assert_eq!(t.remove(&50u32.to_be_bytes()), Some(b"v".to_vec()));
        assert_eq!(t.remove(&50u32.to_be_bytes()), None);
        assert_eq!(t.get(&50u32.to_be_bytes()), None);
        assert_eq!(t.len(), 99);
        t.check_invariants();
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree();
        let err = t.insert(&[1u8; 100], &vec![0u8; 4096]).unwrap_err();
        assert!(matches!(err, BTreeError::EntryTooLarge { .. }));
    }

    #[test]
    fn large_values_near_limit() {
        let mut t = tree();
        for i in 0..50u32 {
            let v = vec![i as u8; MAX_ENTRY_BYTES - 4];
            t.insert(&i.to_be_bytes(), &v).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.get(&7u32.to_be_bytes()).unwrap()[0], 7);
    }

    /// Pseudo-random inserts, overwrites and removes against a `BTreeMap`
    /// oracle: every return value and the final contents must agree. The
    /// key space is small enough that most inserts land strictly inside a
    /// leaf (in-place edits) while the tree still splits several times.
    fn agrees_with_btreemap_oracle(mut t: BTree) {
        let mut oracle = std::collections::BTreeMap::new();
        let mut k = 7u32;
        for step in 0..4000u32 {
            k = k.wrapping_mul(2654435761).wrapping_add(step) % 1500;
            let key = format!("key{k:06}").into_bytes();
            if step % 5 == 4 {
                let got = t.try_remove(&key).unwrap();
                assert_eq!(got, oracle.remove(&key), "remove {k} at step {step}");
            } else {
                // Values vary in length so overwrites shift leaf tails.
                let val = vec![step as u8; 4 + (step % 13) as usize];
                let got = t.try_insert(&key, &val).unwrap();
                assert_eq!(got, oracle.insert(key, val), "insert {k} at step {step}");
            }
        }
        assert!(t.height() > 1, "tree must have split");
        assert_eq!(t.len(), oracle.len() as u64);
        t.check_invariants();
        let got: Vec<_> = t.scan().collect();
        let want: Vec<_> = oracle.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn in_place_and_split_inserts_agree_with_btreemap_oracle() {
        agrees_with_btreemap_oracle(tree());
    }

    #[test]
    fn in_place_edits_survive_eviction_between_descent_and_edit() {
        // One frame: the descent's leaf is evicted by the time the edit
        // fetches it again whenever anything else was touched in between.
        agrees_with_btreemap_oracle(BTree::create(Pager::with_cache_bytes(PAGE_SIZE)));
    }

    #[test]
    fn in_place_inserts_grow_height_and_stay_searchable() {
        // Even keys ascending (each a new max: split path), then the odd
        // keys, which all sort inside an existing leaf (in place until the
        // leaf overflows).
        let mut t = tree();
        for i in (0..5000u32).step_by(2).chain((1..5000).step_by(2)) {
            t.try_insert(&i.to_be_bytes(), &[0u8; 32]).unwrap();
        }
        assert_eq!(t.len(), 5000);
        assert!(t.height() > 1, "tree must have split");
        t.check_invariants();
        for probe in [0u32, 1, 2500, 4999] {
            assert_eq!(
                t.try_get(&probe.to_be_bytes()).unwrap(),
                Some(vec![0u8; 32])
            );
        }
        assert_eq!(t.try_get(&5000u32.to_be_bytes()).unwrap(), None);
    }

    #[test]
    fn degraded_pool_insert_returns_typed_error() {
        use pagestore::{FaultConfig, FaultStorage};
        let (storage, handle) = FaultStorage::create(FaultConfig::default()).unwrap();
        // Tiny cache: growth forces eviction write-backs.
        let pager = Pager::with_storage(storage, 8 * PAGE_SIZE);
        pager.set_retry_clock(std::sync::Arc::new(NoSleep));
        let mut t = BTree::create(pager);
        for i in 0..64u32 {
            t.try_insert(&i.to_be_bytes(), &[3u8; 64]).unwrap();
        }
        // Every write from here on fails even through retries: the next
        // eviction write-back exhausts them and degrades the pool.
        let ops = handle.ops();
        handle.set_fault_config(FaultConfig {
            transient_writes: (ops..ops + 1_000_000).collect(),
            ..FaultConfig::default()
        });
        let mut failure = None;
        for i in 64..4096u32 {
            if let Err(e) = t.try_insert(&i.to_be_bytes(), &[3u8; 64]) {
                failure = Some(e);
                break;
            }
        }
        let err = failure.expect("a failing medium must surface on insert");
        assert!(
            matches!(err, BTreeError::Page(PageError::ReadOnly { .. })),
            "want ReadOnly, got {err:?}"
        );
        assert!(t.pager().degraded().is_some());
        // Degraded-pool mutations are typed refusals, never panics…
        let err = t.try_remove(&7u32.to_be_bytes()).unwrap_err();
        assert!(matches!(err, PageError::ReadOnly { .. }), "got {err:?}");
        // …and reads still serve from the (unevictable dirty) cache.
        assert_eq!(t.try_get(&7u32.to_be_bytes()).unwrap(), Some(vec![3u8; 64]));
    }

    #[test]
    fn split_write_faults_at_every_op_keep_every_key_reachable() {
        // Fail every write from op `k` on, for each `k` a fault-free run of
        // the batch issues, and check what the split path's write order
        // promises: every key present before the batch is still found by a
        // seek, and a full scan is ascending and lies between the pre- and
        // post-batch key sets. 400-byte keys keep the fan-out near 10, so
        // the batch splits leaves and the (internal) root and grows the
        // tree; the one-page cache turns every access into a write-back,
        // so failures land between a split's page writes.
        use pagestore::{FaultConfig, FaultStorage};
        use std::collections::BTreeSet;
        let key = |i: u32| {
            let mut k = vec![0u8; 400];
            k[..4].copy_from_slice(&i.to_be_bytes());
            k
        };
        // Seed: even keys ascending (half-full nodes); batch: odd keys.
        const N: u32 = 45;
        let seed: Vec<Vec<u8>> = (0..N).map(|i| key(2 * i)).collect();
        let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..N)
            .map(|i| (key(2 * ((i * 37) % N) + 1), vec![1u8; 8]))
            .collect();
        let before: BTreeSet<Vec<u8>> = seed.iter().cloned().collect();
        let mut after = before.clone();
        after.extend(batch.iter().map(|(k, _)| k.clone()));
        // Seed once, then restart every run from the synced image.
        let (storage, h) = FaultStorage::create(FaultConfig::default()).unwrap();
        let mut t = BTree::create(Pager::with_storage(storage, PAGE_SIZE));
        for k in &seed {
            t.try_insert(k, &[0u8; 8]).unwrap();
        }
        t.pager().sync().unwrap();
        let image = h.disk_image();
        let (file, root, height, len) = (t.file(), t.root_page(), t.height(), t.len());
        let reopen = || {
            let (storage, h) =
                FaultStorage::open_image(image.clone(), FaultConfig::default()).unwrap();
            let pager = Pager::with_storage(storage, PAGE_SIZE);
            pager.set_retry_clock(std::sync::Arc::new(NoSleep));
            (BTree::open(pager, file, root, height, len), h)
        };

        let (mut t, h) = reopen();
        let start = h.ops();
        t.try_batch_insert(&batch).unwrap();
        let batch_ops = h.ops() - start;
        assert!(t.height() > height, "the batch must split the root");
        t.check_invariants();

        for k in 0..batch_ops {
            let (mut t, h) = reopen();
            let ops = h.ops();
            // Every write from op `k` on fails (a degraded pool issues no
            // more write-backs, so twice the fault-free count is plenty).
            h.set_fault_config(FaultConfig {
                transient_writes: (ops + k..ops + 2 * batch_ops).collect(),
                ..FaultConfig::default()
            });
            // The failed write-back may be the batch's last access, which
            // itself completes in cache; the pool degrades either way.
            if let Err(e) = t.try_batch_insert(&batch) {
                assert!(matches!(e, BTreeError::Page(_)), "op {k}: {e}");
            }
            assert!(t.pager().degraded().is_some(), "op {k}: pool must degrade");
            for key in &seed {
                let c = t.try_seek(key).unwrap();
                assert_eq!(c.peek().map(|(k, _)| k), Some(&key[..]), "op {k}: seek");
            }
            let scanned: Vec<Vec<u8>> = t.scan().map(|(key, _)| key).collect();
            assert!(scanned.windows(2).all(|w| w[0] < w[1]), "op {k}: order");
            let scanned: BTreeSet<Vec<u8>> = scanned.into_iter().collect();
            assert!(before.is_subset(&scanned), "op {k}: scan lost a key");
            assert!(scanned.is_subset(&after), "op {k}: phantom key");
        }
    }
}
