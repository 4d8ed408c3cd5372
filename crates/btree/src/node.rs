//! On-page node representation.
//!
//! A node is (de)serialised to exactly one page. Layout:
//!
//! ```text
//! byte 0          : node kind (0 = leaf, 1 = internal)
//! bytes 1..3      : entry count (u16 LE)
//! bytes 3..11     : leaf: next-leaf page id + 1 (0 = none); internal: unused
//! then per entry  :
//!   leaf          : key_len u16 | val_len u16 | key | value
//!   internal      : key_len u16 | child page id u64 | key
//! ```
//!
//! Two views share this layout, plus a set of in-place leaf editors:
//!
//! * [`Node`] — owned decode, used by the **structural write path** (the
//!   recursive split path and the bulk loader): those rewrite whole pages
//!   anyway, so the simple owned form costs nothing extra there.
//! * [`leaf_insert_at`] / [`leaf_replace_at`] / [`leaf_remove_at`] — edit a
//!   leaf page's bytes in place for inserts, overwrites and removes that
//!   change nothing above the leaf, touching only the shifted tail.
//! * [`NodeRef`] — a lazy **read-path** view over the raw page bytes (as
//!   borrowed from a pinned buffer-pool frame). It materialises nothing:
//!   an [`OffsetTable`] of entry positions is built in one header-hopping
//!   pass into a stack buffer, keys and values are sliced straight out of
//!   the page, and searches binary-search over the offsets. A block scan
//!   therefore performs no per-entry allocation at all, while the on-disk
//!   layout — and hence the page-access counts the paper measures — is
//!   unchanged.

use pagestore::{PageId, PAGE_SIZE};

/// Header bytes per node.
pub(crate) const NODE_HEADER: usize = 11;
/// Per-entry overhead for a leaf entry (key_len + val_len).
pub(crate) const LEAF_ENTRY_HEADER: usize = 4;
/// Per-entry overhead for an internal entry (key_len + child id).
pub(crate) const INTERNAL_ENTRY_HEADER: usize = 10;

/// Maximum `key.len() + value.len()` accepted for a single entry. Two
/// maximal entries must fit a page so splits always succeed.
pub const MAX_ENTRY_BYTES: usize = (PAGE_SIZE - NODE_HEADER) / 2 - LEAF_ENTRY_HEADER;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LeafEntry {
    pub key: Vec<u8>,
    pub value: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InternalEntry {
    /// Inclusive upper bound of every key under `child`.
    pub separator: Vec<u8>,
    pub child: PageId,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Node {
    Leaf {
        entries: Vec<LeafEntry>,
        next: Option<PageId>,
    },
    Internal {
        entries: Vec<InternalEntry>,
    },
}

impl Node {
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
            next: None,
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                NODE_HEADER
                    + entries
                        .iter()
                        .map(|e| LEAF_ENTRY_HEADER + e.key.len() + e.value.len())
                        .sum::<usize>()
            }
            Node::Internal { entries } => {
                NODE_HEADER
                    + entries
                        .iter()
                        .map(|e| INTERNAL_ENTRY_HEADER + e.separator.len())
                        .sum::<usize>()
            }
        }
    }

    pub fn fits_in_page(&self) -> bool {
        self.encoded_len() <= PAGE_SIZE
    }

    /// Serialise into a full page buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        match self {
            Node::Leaf { entries, next } => {
                buf[0] = 0;
                buf[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                let next_plus1 = next.map_or(0, |p| p + 1);
                buf[3..11].copy_from_slice(&next_plus1.to_le_bytes());
                let mut pos = NODE_HEADER;
                for e in entries {
                    buf[pos..pos + 2].copy_from_slice(&(e.key.len() as u16).to_le_bytes());
                    buf[pos + 2..pos + 4].copy_from_slice(&(e.value.len() as u16).to_le_bytes());
                    pos += 4;
                    buf[pos..pos + e.key.len()].copy_from_slice(&e.key);
                    pos += e.key.len();
                    buf[pos..pos + e.value.len()].copy_from_slice(&e.value);
                    pos += e.value.len();
                }
            }
            Node::Internal { entries } => {
                buf[0] = 1;
                buf[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                let mut pos = NODE_HEADER;
                for e in entries {
                    buf[pos..pos + 2].copy_from_slice(&(e.separator.len() as u16).to_le_bytes());
                    buf[pos + 2..pos + 10].copy_from_slice(&e.child.to_le_bytes());
                    pos += 10;
                    buf[pos..pos + e.separator.len()].copy_from_slice(&e.separator);
                    pos += e.separator.len();
                }
            }
        }
        buf
    }

    /// Deserialise from a page buffer.
    pub fn decode(buf: &[u8]) -> Node {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let kind = buf[0];
        let count = u16::from_le_bytes(buf[1..3].try_into().unwrap()) as usize;
        let mut pos = NODE_HEADER;
        if kind == 0 {
            let next_plus1 = u64::from_le_bytes(buf[3..11].try_into().unwrap());
            let next = if next_plus1 == 0 {
                None
            } else {
                Some(next_plus1 - 1)
            };
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let klen = u16::from_le_bytes(buf[pos..pos + 2].try_into().unwrap()) as usize;
                let vlen = u16::from_le_bytes(buf[pos + 2..pos + 4].try_into().unwrap()) as usize;
                pos += 4;
                let key = buf[pos..pos + klen].to_vec();
                pos += klen;
                let value = buf[pos..pos + vlen].to_vec();
                pos += vlen;
                entries.push(LeafEntry { key, value });
            }
            Node::Leaf { entries, next }
        } else {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let klen = u16::from_le_bytes(buf[pos..pos + 2].try_into().unwrap()) as usize;
                let child = u64::from_le_bytes(buf[pos + 2..pos + 10].try_into().unwrap());
                pos += 10;
                let separator = buf[pos..pos + klen].to_vec();
                pos += klen;
                entries.push(InternalEntry { separator, child });
            }
            Node::Internal { entries }
        }
    }

    /// Largest key in this node (separator of the last child for internal
    /// nodes). `None` for empty nodes.
    pub fn max_key(&self) -> Option<&[u8]> {
        match self {
            Node::Leaf { entries, .. } => entries.last().map(|e| e.key.as_slice()),
            Node::Internal { entries } => entries.last().map(|e| e.separator.as_slice()),
        }
    }

    /// Split the node in two halves by encoded size; returns the new right
    /// sibling. `self` keeps the left half.
    pub fn split(&mut self) -> Node {
        match self {
            Node::Leaf { entries, next } => {
                let cut = split_point(entries.len());
                let right_entries = entries.split_off(cut);
                let right = Node::Leaf {
                    entries: right_entries,
                    next: *next,
                };
                // Caller re-links `next` to the new right sibling's page.
                right
            }
            Node::Internal { entries } => {
                let cut = split_point(entries.len());
                let right_entries = entries.split_off(cut);
                Node::Internal {
                    entries: right_entries,
                }
            }
        }
    }
}

fn split_point(len: usize) -> usize {
    debug_assert!(len >= 2, "cannot split a node with < 2 entries");
    len / 2
}

/// Upper bound on entries in one page (minimal leaf entry: header only).
pub(crate) const MAX_PAGE_ENTRIES: usize = (PAGE_SIZE - NODE_HEADER) / LEAF_ENTRY_HEADER;

/// Entry start offsets of one node, built by [`NodeRef::fill_offsets`].
///
/// Lives on the stack (or inline in a [`Cursor`](crate::Cursor)) so the
/// read path can random-access variable-length entries without heap
/// allocation; `u16` suffices because offsets are within one page.
pub(crate) struct OffsetTable {
    offs: [u16; MAX_PAGE_ENTRIES],
    len: usize,
}

impl OffsetTable {
    pub fn new() -> OffsetTable {
        OffsetTable {
            offs: [0; MAX_PAGE_ENTRIES],
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        self.offs[i] as usize
    }
}

/// Bytes used by a leaf page's encoding: header plus every entry up to the
/// end of the last one. `table` must be freshly filled from `data`.
pub(crate) fn leaf_used_bytes(data: &[u8], table: &OffsetTable) -> usize {
    if table.len == 0 {
        return NODE_HEADER;
    }
    let pos = table.get(table.len - 1);
    let klen = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
    let vlen = u16::from_le_bytes(data[pos + 2..pos + 4].try_into().unwrap()) as usize;
    pos + LEAF_ENTRY_HEADER + klen + vlen
}

/// In-place leaf edit: insert `key`/`value` as entry `i`, shifting the tail
/// right. The caller has checked the fit ([`leaf_used_bytes`] plus the new
/// entry ≤ [`PAGE_SIZE`]) and that `i` is the key's sorted position. These
/// editors are the alternative to decoding the page into an owned [`Node`]
/// and re-encoding it whole: the edit touches only the shifted suffix.
pub(crate) fn leaf_insert_at(
    data: &mut [u8; PAGE_SIZE],
    table: &OffsetTable,
    i: usize,
    key: &[u8],
    value: &[u8],
) {
    debug_assert_eq!(data[0], 0, "leaf_insert_at on a non-leaf page");
    debug_assert!(i <= table.len);
    let used = leaf_used_bytes(data, table);
    let entry = LEAF_ENTRY_HEADER + key.len() + value.len();
    debug_assert!(used + entry <= PAGE_SIZE, "caller must check the fit");
    let at = if i == table.len { used } else { table.get(i) };
    data.copy_within(at..used, at + entry);
    data[at..at + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    data[at + 2..at + 4].copy_from_slice(&(value.len() as u16).to_le_bytes());
    data[at + 4..at + 4 + key.len()].copy_from_slice(key);
    data[at + 4 + key.len()..at + entry].copy_from_slice(value);
    data[1..3].copy_from_slice(&((table.len + 1) as u16).to_le_bytes());
}

/// In-place leaf edit: replace entry `i`'s value, shifting the tail by the
/// length delta. The caller has checked the fit.
pub(crate) fn leaf_replace_at(
    data: &mut [u8; PAGE_SIZE],
    table: &OffsetTable,
    i: usize,
    value: &[u8],
) {
    debug_assert_eq!(data[0], 0, "leaf_replace_at on a non-leaf page");
    let pos = table.get(i);
    let klen = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
    let old_vlen = u16::from_le_bytes(data[pos + 2..pos + 4].try_into().unwrap()) as usize;
    let used = leaf_used_bytes(data, table);
    debug_assert!(
        used - old_vlen + value.len() <= PAGE_SIZE,
        "caller must check the fit"
    );
    let val_start = pos + LEAF_ENTRY_HEADER + klen;
    data.copy_within(val_start + old_vlen..used, val_start + value.len());
    data[pos + 2..pos + 4].copy_from_slice(&(value.len() as u16).to_le_bytes());
    data[val_start..val_start + value.len()].copy_from_slice(value);
}

/// In-place leaf edit: remove entry `i`, shifting the tail left.
pub(crate) fn leaf_remove_at(data: &mut [u8; PAGE_SIZE], table: &OffsetTable, i: usize) {
    debug_assert_eq!(data[0], 0, "leaf_remove_at on a non-leaf page");
    let pos = table.get(i);
    let klen = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
    let vlen = u16::from_le_bytes(data[pos + 2..pos + 4].try_into().unwrap()) as usize;
    let end = pos + LEAF_ENTRY_HEADER + klen + vlen;
    let used = leaf_used_bytes(data, table);
    data.copy_within(end..used, pos);
    data[1..3].copy_from_slice(&((table.len - 1) as u16).to_le_bytes());
}

/// Zero-copy view of an encoded node (see the module docs).
#[derive(Clone, Copy)]
pub(crate) struct NodeRef<'a> {
    data: &'a [u8],
}

impl<'a> NodeRef<'a> {
    pub fn new(data: &'a [u8]) -> NodeRef<'a> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        NodeRef { data }
    }

    pub fn is_leaf(&self) -> bool {
        self.data[0] == 0
    }

    pub fn count(&self) -> usize {
        u16::from_le_bytes(self.data[1..3].try_into().unwrap()) as usize
    }

    /// Next-leaf link of a leaf node.
    pub fn next_leaf(&self) -> Option<PageId> {
        debug_assert!(self.is_leaf());
        let next_plus1 = u64::from_le_bytes(self.data[3..11].try_into().unwrap());
        next_plus1.checked_sub(1)
    }

    /// One pass over the entry headers, recording each entry's offset.
    pub fn fill_offsets(&self, table: &mut OffsetTable) {
        let count = self.count();
        debug_assert!(count <= MAX_PAGE_ENTRIES);
        let leaf = self.is_leaf();
        let mut pos = NODE_HEADER;
        for slot in table.offs.iter_mut().take(count) {
            *slot = pos as u16;
            let klen = u16::from_le_bytes(self.data[pos..pos + 2].try_into().unwrap()) as usize;
            if leaf {
                let vlen =
                    u16::from_le_bytes(self.data[pos + 2..pos + 4].try_into().unwrap()) as usize;
                pos += LEAF_ENTRY_HEADER + klen + vlen;
            } else {
                pos += INTERNAL_ENTRY_HEADER + klen;
            }
        }
        table.len = count;
    }

    /// Key and value of leaf entry `i`, sliced straight out of the page.
    pub fn leaf_entry(&self, table: &OffsetTable, i: usize) -> (&'a [u8], &'a [u8]) {
        debug_assert!(self.is_leaf());
        let pos = table.get(i);
        let klen = u16::from_le_bytes(self.data[pos..pos + 2].try_into().unwrap()) as usize;
        let vlen = u16::from_le_bytes(self.data[pos + 2..pos + 4].try_into().unwrap()) as usize;
        let key_start = pos + LEAF_ENTRY_HEADER;
        (
            &self.data[key_start..key_start + klen],
            &self.data[key_start + klen..key_start + klen + vlen],
        )
    }

    /// Separator key of internal entry `i`.
    pub fn separator(&self, table: &OffsetTable, i: usize) -> &'a [u8] {
        debug_assert!(!self.is_leaf());
        let pos = table.get(i);
        let klen = u16::from_le_bytes(self.data[pos..pos + 2].try_into().unwrap()) as usize;
        &self.data[pos + INTERNAL_ENTRY_HEADER..pos + INTERNAL_ENTRY_HEADER + klen]
    }

    /// Child page id of internal entry `i`.
    pub fn child(&self, table: &OffsetTable, i: usize) -> PageId {
        debug_assert!(!self.is_leaf());
        let pos = table.get(i);
        u64::from_le_bytes(self.data[pos + 2..pos + 10].try_into().unwrap())
    }

    /// First entry index whose key does **not** satisfy `before` (monotone
    /// predicate), binary-searching over the offset table. Keys are leaf
    /// keys or internal separators depending on the node kind.
    pub fn partition_point(&self, table: &OffsetTable, before: impl Fn(&[u8]) -> bool) -> usize {
        let leaf = self.is_leaf();
        let key_at = |i: usize| -> &[u8] {
            if leaf {
                self.leaf_entry(table, i).0
            } else {
                self.separator(table, i)
            }
        };
        let (mut lo, mut hi) = (0usize, table.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(key_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(n: usize) -> Node {
        Node::Leaf {
            entries: (0..n)
                .map(|i| LeafEntry {
                    key: format!("key{i:04}").into_bytes(),
                    value: vec![i as u8; 16],
                })
                .collect(),
            next: Some(7),
        }
    }

    #[test]
    fn leaf_round_trips() {
        let n = leaf(20);
        assert_eq!(Node::decode(&n.encode()), n);
    }

    #[test]
    fn leaf_without_next_round_trips() {
        let n = Node::Leaf {
            entries: vec![LeafEntry {
                key: b"a".to_vec(),
                value: vec![],
            }],
            next: None,
        };
        assert_eq!(Node::decode(&n.encode()), n);
    }

    #[test]
    fn internal_round_trips() {
        let n = Node::Internal {
            entries: (0..50)
                .map(|i| InternalEntry {
                    separator: format!("sep{i:06}").into_bytes(),
                    child: i * 3 + 1,
                })
                .collect(),
        };
        assert_eq!(Node::decode(&n.encode()), n);
    }

    #[test]
    fn encoded_len_matches_layout() {
        let n = leaf(5);
        // 11 header + 5 * (4 + 7 + 16)
        assert_eq!(n.encoded_len(), 11 + 5 * 27);
        assert!(n.fits_in_page());
    }

    #[test]
    fn split_halves_entries() {
        let mut n = leaf(10);
        let right = n.split();
        match (&n, &right) {
            (Node::Leaf { entries: l, .. }, Node::Leaf { entries: r, next }) => {
                assert_eq!(l.len(), 5);
                assert_eq!(r.len(), 5);
                assert_eq!(*next, Some(7)); // right inherits old next
                assert!(l.last().unwrap().key < r.first().unwrap().key);
            }
            _ => panic!("expected leaves"),
        }
    }

    #[test]
    fn max_entry_allows_two_per_page() {
        let e = LeafEntry {
            key: vec![1; MAX_ENTRY_BYTES / 2],
            value: vec![2; MAX_ENTRY_BYTES - MAX_ENTRY_BYTES / 2],
        };
        let n = Node::Leaf {
            entries: vec![e.clone(), e],
            next: None,
        };
        assert!(n.fits_in_page());
    }

    #[test]
    fn noderef_leaf_matches_owned_decode() {
        let n = leaf(20);
        let page = n.encode();
        let view = NodeRef::new(&page);
        let mut table = OffsetTable::new();
        view.fill_offsets(&mut table);
        assert!(view.is_leaf());
        assert_eq!(view.next_leaf(), Some(7));
        match Node::decode(&page) {
            Node::Leaf { entries, .. } => {
                assert_eq!(view.count(), entries.len());
                for (i, e) in entries.iter().enumerate() {
                    let (k, v) = view.leaf_entry(&table, i);
                    assert_eq!((k, v), (e.key.as_slice(), e.value.as_slice()));
                }
                // partition_point agrees with the owned binary search.
                for probe in ["key0000", "key0007", "key0019", "key9999", ""] {
                    assert_eq!(
                        view.partition_point(&table, |k| k < probe.as_bytes()),
                        entries.partition_point(|e| e.key.as_slice() < probe.as_bytes()),
                        "probe {probe}"
                    );
                }
            }
            _ => panic!("expected a leaf"),
        }
    }

    #[test]
    fn noderef_internal_matches_owned_decode() {
        let n = Node::Internal {
            entries: (0..50)
                .map(|i| InternalEntry {
                    separator: format!("sep{i:06}").into_bytes(),
                    child: i * 3 + 1,
                })
                .collect(),
        };
        let page = n.encode();
        let view = NodeRef::new(&page);
        let mut table = OffsetTable::new();
        view.fill_offsets(&mut table);
        assert!(!view.is_leaf());
        match Node::decode(&page) {
            Node::Internal { entries } => {
                assert_eq!(view.count(), entries.len());
                for (i, e) in entries.iter().enumerate() {
                    assert_eq!(view.separator(&table, i), e.separator.as_slice());
                    assert_eq!(view.child(&table, i), e.child);
                }
            }
            _ => panic!("expected an internal node"),
        }
    }

    #[test]
    fn noderef_empty_leaf() {
        let page = Node::empty_leaf().encode();
        let view = NodeRef::new(&page);
        let mut table = OffsetTable::new();
        view.fill_offsets(&mut table);
        assert_eq!(view.count(), 0);
        assert_eq!(view.next_leaf(), None);
        assert_eq!(view.partition_point(&table, |_| true), 0);
    }

    /// Cross-check an in-place edit against the equivalent owned rewrite.
    fn page_of(n: &Node) -> Box<[u8; PAGE_SIZE]> {
        n.encode().into_boxed_slice().try_into().unwrap()
    }

    fn filled_table(page: &[u8]) -> OffsetTable {
        let mut t = OffsetTable::new();
        NodeRef::new(page).fill_offsets(&mut t);
        t
    }

    #[test]
    fn in_place_insert_matches_owned_rewrite() {
        for at in [0usize, 3, 10, 20] {
            let n = leaf(20);
            let mut page = page_of(&n);
            let table = filled_table(&page[..]);
            let key = format!("key{:04}x", at.saturating_sub(1)).into_bytes();
            leaf_insert_at(&mut page, &table, at, &key, b"fresh");
            let Node::Leaf { mut entries, next } = n else {
                unreachable!()
            };
            entries.insert(
                at,
                LeafEntry {
                    key,
                    value: b"fresh".to_vec(),
                },
            );
            assert_eq!(
                Node::decode(&page[..]),
                Node::Leaf { entries, next },
                "at {at}"
            );
        }
    }

    #[test]
    fn in_place_insert_into_empty_leaf() {
        let mut page = page_of(&Node::empty_leaf());
        let table = filled_table(&page[..]);
        leaf_insert_at(&mut page, &table, 0, b"k", b"v");
        assert_eq!(
            Node::decode(&page[..]),
            Node::Leaf {
                entries: vec![LeafEntry {
                    key: b"k".to_vec(),
                    value: b"v".to_vec()
                }],
                next: None,
            }
        );
    }

    #[test]
    fn in_place_replace_matches_owned_rewrite() {
        // Shorter, equal and longer replacement values all shift the tail
        // correctly.
        for (at, val) in [
            (0usize, &b"s"[..]),
            (7, &[9u8; 16][..]),
            (19, &[1u8; 40][..]),
        ] {
            let n = leaf(20);
            let mut page = page_of(&n);
            let table = filled_table(&page[..]);
            leaf_replace_at(&mut page, &table, at, val);
            let Node::Leaf { mut entries, next } = n else {
                unreachable!()
            };
            entries[at].value = val.to_vec();
            assert_eq!(
                Node::decode(&page[..]),
                Node::Leaf { entries, next },
                "at {at}"
            );
        }
    }

    #[test]
    fn in_place_remove_matches_owned_rewrite() {
        for at in [0usize, 10, 19] {
            let n = leaf(20);
            let mut page = page_of(&n);
            let table = filled_table(&page[..]);
            leaf_remove_at(&mut page, &table, at);
            let Node::Leaf { mut entries, next } = n else {
                unreachable!()
            };
            entries.remove(at);
            assert_eq!(
                Node::decode(&page[..]),
                Node::Leaf { entries, next },
                "at {at}"
            );
        }
    }

    #[test]
    fn leaf_used_bytes_matches_encoded_len() {
        for n in [leaf(0), leaf(1), leaf(20)] {
            let page = page_of(&n);
            let table = filled_table(&page[..]);
            assert_eq!(leaf_used_bytes(&page[..], &table), n.encoded_len());
        }
    }

    #[test]
    fn zero_length_page_id_sentinel_is_unambiguous() {
        // next = Some(0) must round-trip distinctly from None.
        let n = Node::Leaf {
            entries: vec![],
            next: Some(0),
        };
        assert_eq!(Node::decode(&n.encode()), n);
    }
}
