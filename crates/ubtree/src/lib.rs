//! The *unordered* B-tree index — the ablation of §5, "Impact of the OIF
//! ordering".
//!
//! "We created a B-tree for the inverted lists exactly in the same way we
//! created the OIF (same block size) but without any ordering for the
//! records. Moreover, we used only the record id as a key for the B-tree
//! instead of the whole records, thus we ended up with a more compact
//! structure compared to the OIF."
//!
//! Structure: every inverted list is chopped into blocks of the same byte
//! budget as the OIF's, keyed by `(item, last record id)` in one B⁺-tree.
//! Records keep their **original** ids — there is no frequency ordering, no
//! tags and no metadata table. What remains is the ability to *skip* into a
//! list by record id, which benefits intersection-style queries once the
//! candidate set is small, but cannot restrict which part of a list is
//! relevant to a query (that is exactly the OIF ordering's contribution).

use btree::{BTree, BulkLoader};
use codec::postings::{Compression, Posting, PostingsDecoder, PostingsEncoder};
use datagen::{Dataset, ItemId, QueryKind, Record};
use pagestore::{PageError, Pager};
use std::collections::HashMap;

/// Catalog key the unordered B-tree state is stored under.
pub const CATALOG_KEY: &str = "ubtree";

/// Format version of the serialized state. v2 added the append cursor
/// (`max_id`) and the block byte budget; v1 states are not reopenable.
const STATE_VERSION: u32 = 2;

mod containment;

/// Block-tree index over unordered inverted lists.
pub struct UnorderedBTree {
    tree: BTree,
    postings_per_item: Vec<u64>,
    num_records: u64,
    vocab_size: usize,
    compression: Compression,
    /// Byte budget per list block, kept so batch appends chop new blocks
    /// the same way the build did.
    block_bytes: usize,
    /// Highest record id seen, for append-style updates.
    max_id: u64,
}

/// Builder-style [`UnorderedBTree`] construction: start from
/// [`UnorderedBTree::builder`], override what the experiment needs, finish
/// with [`build`](UnorderedBTreeBuilder::build).
pub struct UnorderedBTreeBuilder<'a> {
    dataset: &'a Dataset,
    block_bytes: usize,
    pager: Option<Pager>,
    cache_bytes: usize,
    compression: Compression,
}

impl UnorderedBTreeBuilder<'_> {
    /// Byte budget per list block (default 512, the OIF's block size — the
    /// §5 ablation requires "the same block size").
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Buffer-pool budget in bytes (default: the paper's 32 KiB). Ignored
    /// when an explicit [`pager`](UnorderedBTreeBuilder::pager) is supplied.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Posting compression (default: v-byte over d-gaps).
    pub fn compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Build onto an existing pager (durable storage, shared pools, fault
    /// injection) instead of a fresh in-memory pool.
    pub fn pager(mut self, pager: Pager) -> Self {
        self.pager = Some(pager);
        self
    }

    /// Build the unordered B-tree index.
    pub fn build(self) -> UnorderedBTree {
        let pager = self
            .pager
            .unwrap_or_else(|| Pager::with_cache_bytes(self.cache_bytes));
        UnorderedBTree::build_impl(self.dataset, self.block_bytes, pager, self.compression)
    }
}

fn encode_key(item: ItemId, last_id: u64) -> [u8; 12] {
    let mut key = [0u8; 12];
    key[..4].copy_from_slice(&item.to_be_bytes());
    key[4..].copy_from_slice(&last_id.to_be_bytes());
    key
}

fn key_item(key: &[u8]) -> ItemId {
    u32::from_be_bytes(key[..4].try_into().unwrap())
}

impl UnorderedBTree {
    /// Build with the default 512 B block budget on a fresh 32 KiB-cache
    /// pager.
    pub fn build(dataset: &Dataset) -> Self {
        Self::builder(dataset).build()
    }

    /// Start a builder-style construction over `dataset` with default
    /// settings.
    pub fn builder(dataset: &Dataset) -> UnorderedBTreeBuilder<'_> {
        UnorderedBTreeBuilder {
            dataset,
            block_bytes: 512,
            pager: None,
            cache_bytes: 32 * 1024,
            compression: Compression::VByteDGap,
        }
    }

    fn build_impl(
        dataset: &Dataset,
        block_bytes: usize,
        pager: Pager,
        compression: Compression,
    ) -> Self {
        // Gather (item, id, len) and sort by (item, id): lists in original
        // id order, exactly like a classic inverted file.
        let mut triples: Vec<(ItemId, u64, u32)> = Vec::new();
        for r in &dataset.records {
            for &item in &r.items {
                triples.push((item, r.id, r.items.len() as u32));
            }
        }
        triples.sort_unstable();

        let mut loader = BulkLoader::new(pager);
        let mut postings_per_item = vec![0u64; dataset.vocab_size];
        let mut i = 0usize;
        while i < triples.len() {
            let item = triples[i].0;
            let mut end = i;
            while end < triples.len() && triples[end].0 == item {
                end += 1;
            }
            postings_per_item[item as usize] = (end - i) as u64;
            let mut enc = PostingsEncoder::with_mode(compression);
            let mut last = 0u64;
            for &(_, id, len) in &triples[i..end] {
                let p = Posting::new(id, len);
                if !enc.is_empty() && enc.len_bytes() + enc.cost_of(p) > block_bytes {
                    let full = std::mem::replace(&mut enc, PostingsEncoder::with_mode(compression));
                    loader
                        .push(&encode_key(item, last), &full.finish())
                        .expect("block within entry limit");
                }
                enc.push(p);
                last = id;
            }
            if !enc.is_empty() {
                loader
                    .push(&encode_key(item, last), &enc.finish())
                    .expect("block within entry limit");
            }
            i = end;
        }

        UnorderedBTree {
            tree: loader.finish(),
            postings_per_item,
            num_records: dataset.records.len() as u64,
            vocab_size: dataset.vocab_size,
            compression,
            block_bytes,
            max_id: dataset.records.iter().map(|r| r.id).max().unwrap_or(0),
        }
    }

    pub fn pager(&self) -> &Pager {
        self.tree.pager()
    }

    /// Walk every page reachable through this index's pager and verify its
    /// checksum, quarantining corrupt pages. Bypasses the cache: counters
    /// are unaffected.
    pub fn scrub(&self) -> pagestore::ScrubReport {
        self.pager().scrub()
    }

    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    pub fn support(&self, item: ItemId) -> u64 {
        self.postings_per_item
            .get(item as usize)
            .copied()
            .unwrap_or(0)
    }

    /// On-disk footprint.
    pub fn bytes_on_disk(&self) -> u64 {
        self.tree.bytes_on_disk()
    }

    /// Serialize the non-paged state (vocabulary statistics + tree
    /// location) into the storage catalog (key [`CATALOG_KEY`]) and sync
    /// the pager, making the index reopenable via
    /// [`UnorderedBTree::open`].
    pub fn persist(&self) -> Result<(), pagestore::StorageError> {
        let mut w = pagestore::ser::Writer::new();
        w.u32(STATE_VERSION);
        w.u64(self.num_records);
        w.u64(self.vocab_size as u64);
        w.u8(self.compression.to_tag());
        w.u64s(&self.postings_per_item);
        w.u32(self.tree.file().0);
        w.u64(self.tree.root_page());
        w.u64(self.tree.height() as u64);
        w.u64(self.tree.len());
        w.u64(self.block_bytes as u64);
        w.u64(self.max_id);
        self.pager().put_catalog(CATALOG_KEY, &w.into_bytes());
        self.pager().sync()
    }

    /// Reopen a persisted index from `pager`'s storage. Returns `None`
    /// when the catalog has no (parsable, version-compatible) entry.
    pub fn open(pager: Pager) -> Option<Self> {
        let state = pager.catalog(CATALOG_KEY)?;
        let mut r = pagestore::ser::Reader::new(&state);
        if r.u32()? != STATE_VERSION {
            return None;
        }
        let num_records = r.u64()?;
        let vocab_size = usize::try_from(r.u64()?).ok()?;
        let compression = codec::postings::Compression::from_tag(r.u8()?)?;
        let postings_per_item = r.u64s()?;
        if postings_per_item.len() != vocab_size {
            return None;
        }
        let tree_file = pagestore::FileId(r.u32()?);
        let tree_root = r.u64()?;
        let tree_height = usize::try_from(r.u64()?).ok()?;
        let tree_len = r.u64()?;
        let block_bytes = usize::try_from(r.u64()?).ok()?;
        let max_id = r.u64()?;
        if !r.is_exhausted() {
            return None;
        }
        Some(UnorderedBTree {
            tree: BTree::open(pager, tree_file, tree_root, tree_height, tree_len),
            postings_per_item,
            num_records,
            vocab_size,
            compression,
            block_bytes,
            max_id,
        })
    }

    /// Append a batch of new records (§4.4-style maintenance). New
    /// postings are encoded into fresh blocks: ids are fresh and
    /// increasing, so every appended block's `(item, last id)` key sorts
    /// after all of that item's existing blocks and list order is
    /// preserved. Panics on a page fault;
    /// [`UnorderedBTree::try_batch_insert`] is the fallible twin.
    ///
    /// Record ids must be fresh and larger than every indexed id.
    pub fn batch_insert(&mut self, records: &[Record]) {
        self.try_batch_insert(records)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`UnorderedBTree::batch_insert`]. The index
    /// statistics flip only after every block has landed, so a failed batch leaves the counters untouched
    /// (a degraded pool may retain a prefix of the new blocks; the
    /// service layer fences the shard unhealthy either way).
    ///
    /// Contract violations (stale ids, out-of-vocabulary items) are
    /// caller bugs and still panic.
    pub fn try_batch_insert(&mut self, records: &[Record]) -> Result<(), btree::BTreeError> {
        let mut additions: HashMap<ItemId, Vec<Posting>> = HashMap::new();
        let mut max_id = self.max_id;
        for r in records {
            assert!(r.id > max_id, "batch ids must be fresh and increasing");
            max_id = r.id;
            for &item in &r.items {
                assert!((item as usize) < self.vocab_size, "item out of vocabulary");
                additions
                    .entry(item)
                    .or_default()
                    .push(Posting::new(r.id, r.items.len() as u32));
            }
        }
        let mut items: Vec<ItemId> = additions.keys().copied().collect();
        items.sort_unstable();
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for &item in &items {
            let mut enc = PostingsEncoder::with_mode(self.compression);
            let mut last = 0u64;
            for &p in &additions[&item] {
                if !enc.is_empty() && enc.len_bytes() + enc.cost_of(p) > self.block_bytes {
                    let full =
                        std::mem::replace(&mut enc, PostingsEncoder::with_mode(self.compression));
                    entries.push((encode_key(item, last).to_vec(), full.finish()));
                }
                enc.push(p);
                last = p.id;
            }
            if !enc.is_empty() {
                entries.push((encode_key(item, last).to_vec(), enc.finish()));
            }
        }
        self.tree.try_batch_insert(&entries)?;
        for r in records {
            self.max_id = r.id;
            self.num_records += 1;
        }
        for (item, added) in &additions {
            self.postings_per_item[*item as usize] += added.len() as u64;
        }
        Ok(())
    }

    /// Scan the whole list of `item`, calling `f` on each posting; `f`
    /// returning `false` stops early. Production paths use the fallible
    /// twin; this panicking form remains for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    fn scan_list(&self, item: ItemId, f: impl FnMut(Posting) -> bool) {
        self.try_scan_list(item, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`UnorderedBTree::scan_list`].
    fn try_scan_list(
        &self,
        item: ItemId,
        mut f: impl FnMut(Posting) -> bool,
    ) -> Result<(), PageError> {
        let mut cursor = self.tree.try_seek(&encode_key(item, 0))?;
        while let Some((key, value)) = cursor.try_next()? {
            if key_item(&key) != item {
                break;
            }
            let mut dec = PostingsDecoder::with_mode(&value, self.compression);
            while let Some(p) = dec.next_posting().expect("block must decode") {
                if !f(p) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Intersect sorted `candidates` with `item`'s list using id-keyed
    /// skip-seeks — the one capability this structure adds over the plain
    /// IF.
    fn skip_intersect(&self, candidates: &[u64], item: ItemId) -> Result<Vec<u64>, PageError> {
        let mut kept = Vec::with_capacity(candidates.len());
        let mut ci = 0usize;
        while ci < candidates.len() {
            // Seek the block that could contain the current candidate.
            let mut cursor = self.tree.try_seek(&encode_key(item, candidates[ci]))?;
            let Some((key, value)) = cursor.try_next()? else {
                break;
            };
            if key_item(&key) != item {
                break;
            }
            let block_last = u64::from_be_bytes(key[4..12].try_into().unwrap());
            let mut dec = PostingsDecoder::with_mode(&value, self.compression);
            while let Some(p) = dec.next_posting().expect("block must decode") {
                while ci < candidates.len() && candidates[ci] < p.id {
                    ci += 1;
                }
                if ci < candidates.len() && candidates[ci] == p.id {
                    kept.push(p.id);
                    ci += 1;
                }
            }
            // Candidates at or below the block's last id that were not found
            // are not in the list at all.
            while ci < candidates.len() && candidates[ci] <= block_last {
                ci += 1;
            }
        }
        Ok(kept)
    }

    /// Subset query (candidates from the shortest list, then skip-seek
    /// intersections).
    pub fn subset(&self, qs: &[ItemId]) -> Vec<u64> {
        self.try_subset(qs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`UnorderedBTree::subset`]: a page fault surfaces
    /// as its typed [`PageError`] instead of a panic.
    pub fn try_subset(&self, qs: &[ItemId]) -> Result<Vec<u64>, PageError> {
        debug_assert!(qs.windows(2).all(|w| w[0] < w[1]));
        if qs.is_empty() {
            return Ok(Vec::new());
        }
        let mut items = qs.to_vec();
        items.sort_unstable_by_key(|&i| self.support(i));
        let mut candidates = Vec::new();
        self.try_scan_list(items[0], |p| {
            candidates.push(p.id);
            true
        })?;
        for &item in &items[1..] {
            if candidates.is_empty() {
                return Ok(Vec::new());
            }
            candidates = self.skip_intersect(&candidates, item)?;
        }
        Ok(candidates)
    }

    /// Equality query (subset plan + length filter).
    pub fn equality(&self, qs: &[ItemId]) -> Vec<u64> {
        self.try_equality(qs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`UnorderedBTree::equality`].
    pub fn try_equality(&self, qs: &[ItemId]) -> Result<Vec<u64>, PageError> {
        debug_assert!(qs.windows(2).all(|w| w[0] < w[1]));
        if qs.is_empty() {
            return Ok(Vec::new());
        }
        let want = qs.len() as u32;
        let mut items = qs.to_vec();
        items.sort_unstable_by_key(|&i| self.support(i));
        let mut candidates = Vec::new();
        self.try_scan_list(items[0], |p| {
            if p.len == want {
                candidates.push(p.id);
            }
            true
        })?;
        for &item in &items[1..] {
            if candidates.is_empty() {
                return Ok(Vec::new());
            }
            candidates = self.skip_intersect(&candidates, item)?;
        }
        Ok(candidates)
    }

    /// Superset query — whole lists must be scanned ("the scanning of the
    /// whole lists cannot be avoided", §5).
    pub fn superset(&self, qs: &[ItemId]) -> Vec<u64> {
        self.try_superset(qs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`UnorderedBTree::superset`].
    pub fn try_superset(&self, qs: &[ItemId]) -> Result<Vec<u64>, PageError> {
        debug_assert!(qs.windows(2).all(|w| w[0] < w[1]));
        let mut counts: HashMap<u64, (u32, u32)> = HashMap::new();
        for &item in qs {
            self.try_scan_list(item, |p| {
                counts.entry(p.id).or_insert((p.len, 0)).1 += 1;
                true
            })?;
        }
        let mut out: Vec<u64> = counts
            .into_iter()
            .filter(|&(_, (len, found))| len == found)
            .map(|(id, _)| id)
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Evaluate one query of the given kind.
    pub fn eval(&self, kind: QueryKind, qs: &[ItemId]) -> Vec<u64> {
        self.try_eval(kind, qs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`UnorderedBTree::eval`]. Thin wrapper over the
    /// [`oif::ContainmentIndex`] impl, which owns the kind dispatch.
    pub fn try_eval(&self, kind: QueryKind, qs: &[ItemId]) -> Result<Vec<u64>, PageError> {
        oif::ContainmentIndex::try_eval(self, kind, qs)
    }

    /// Evaluate a batch of queries of one kind across `threads` workers
    /// sharing this index (and its buffer pool). Returns the per-query
    /// answers in input order — identical to the serial evaluation.
    pub fn par_eval(
        &self,
        kind: QueryKind,
        queries: &[Vec<ItemId>],
        threads: usize,
    ) -> Vec<Vec<u64>> {
        pagestore::par_map_with(
            queries.len(),
            threads,
            || (),
            |_, i| self.eval(kind, &queries[i]),
        )
    }

    /// Fallible twin of [`UnorderedBTree::par_eval`]: each query's outcome
    /// is its own `Result`, so one faulted page fails that query alone
    /// while the rest of the batch still returns answers.
    pub fn try_par_eval(
        &self,
        kind: QueryKind,
        queries: &[Vec<ItemId>],
        threads: usize,
    ) -> Vec<Result<Vec<u64>, PageError>> {
        oif::ContainmentIndex::try_par_eval(self, kind, queries, threads)
    }
}

impl std::fmt::Debug for UnorderedBTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnorderedBTree")
            .field("records", &self.num_records)
            .field("blocks", &self.tree.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{brute, Dataset, QueryKind, SyntheticSpec, WorkloadSpec};

    #[test]
    fn paper_worked_examples() {
        let d = Dataset::paper_fig1();
        let idx = UnorderedBTree::build(&d);
        assert_eq!(idx.subset(&[0, 3]), vec![101, 104, 114]);
        assert_eq!(idx.superset(&[0, 2]), vec![106, 113]);
        assert_eq!(idx.equality(&[0, 3]), vec![114]);
    }

    #[test]
    fn matches_brute_force() {
        let d = SyntheticSpec {
            num_records: 3000,
            vocab_size: 120,
            zipf: 0.8,
            len_min: 1,
            len_max: 14,
            seed: 17,
        }
        .generate();
        let idx = UnorderedBTree::build(&d);
        for kind in QueryKind::ALL {
            for size in [1usize, 2, 4, 7] {
                let ws = WorkloadSpec {
                    kind,
                    qs_size: size,
                    count: 4,
                    seed: size as u64 + 100,
                }
                .generate(&d);
                for qs in &ws.queries {
                    let (got, want) = match kind {
                        QueryKind::Subset => (idx.subset(qs), brute::subset(&d, qs)),
                        QueryKind::Equality => (idx.equality(qs), brute::equality(&d, qs)),
                        QueryKind::Superset => (idx.superset(qs), brute::superset(&d, qs)),
                    };
                    assert_eq!(got, want, "{kind:?} {qs:?}");
                }
            }
        }
    }

    #[test]
    fn batch_insert_extends_lists() {
        let d = Dataset::paper_fig1();
        let mut idx = UnorderedBTree::build(&d);
        // Record {a, d} joins both worked examples' answer sets.
        idx.batch_insert(&[Record::new(200, vec![0, 3])]);
        assert_eq!(idx.subset(&[0, 3]), vec![101, 104, 114, 200]);
        assert_eq!(idx.equality(&[0, 3]), vec![114, 200]);
        assert_eq!(idx.num_records(), 19);
        assert_eq!(idx.support(3), 7);
    }

    #[test]
    fn batch_insert_matches_brute_force_after_append() {
        let base = SyntheticSpec {
            num_records: 1500,
            vocab_size: 80,
            zipf: 0.8,
            len_min: 1,
            len_max: 10,
            seed: 23,
        }
        .generate();
        let extra = SyntheticSpec {
            num_records: 300,
            vocab_size: 80,
            zipf: 0.8,
            len_min: 1,
            len_max: 10,
            seed: 24,
        }
        .generate();
        let batch: Vec<Record> = extra
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| Record::new(10_000 + i as u64, r.items.clone()))
            .collect();
        let mut combined = base.clone();
        combined.records.extend(batch.iter().cloned());
        let mut idx = UnorderedBTree::build(&base);
        idx.batch_insert(&batch);
        for kind in QueryKind::ALL {
            let ws = WorkloadSpec {
                kind,
                qs_size: 3,
                count: 6,
                seed: 77,
            }
            .generate(&combined);
            for qs in &ws.queries {
                let got = idx.eval(kind, qs);
                let want = match kind {
                    QueryKind::Subset => brute::subset(&combined, qs),
                    QueryKind::Equality => brute::equality(&combined, qs),
                    QueryKind::Superset => brute::superset(&combined, qs),
                };
                assert_eq!(got, want, "{kind:?} {qs:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fresh and increasing")]
    fn stale_batch_id_panics() {
        let d = Dataset::paper_fig1();
        let mut idx = UnorderedBTree::build(&d);
        idx.batch_insert(&[Record::new(5, vec![0])]);
    }

    #[test]
    fn persist_open_round_trips_on_mem_storage() {
        let d = Dataset::paper_fig1();
        let built = UnorderedBTree::build(&d);
        built.persist().unwrap();
        let reopened = UnorderedBTree::open(built.pager().clone()).expect("catalog entry");
        assert_eq!(reopened.num_records(), built.num_records());
        assert_eq!(reopened.support(3), built.support(3));
        assert_eq!(reopened.subset(&[0, 3]), vec![101, 104, 114]);
        assert_eq!(reopened.superset(&[0, 2]), vec![106, 113]);
        assert_eq!(reopened.equality(&[0, 3]), vec![114]);
        assert!(UnorderedBTree::open(Pager::new()).is_none());
    }

    #[test]
    fn empty_query() {
        let d = Dataset::paper_fig1();
        let idx = UnorderedBTree::build(&d);
        assert!(idx.subset(&[]).is_empty());
        assert!(idx.superset(&[]).is_empty());
    }

    #[test]
    fn footprint_stays_modest() {
        // §5 notes the id-only keys make this structure more compact than
        // the OIF (the direct OIF comparison lives in the workspace-level
        // integration tests); sanity-check the absolute footprint here.
        let d = SyntheticSpec {
            num_records: 5000,
            vocab_size: 200,
            zipf: 0.8,
            len_min: 2,
            len_max: 12,
            seed: 9,
        }
        .generate();
        let ub = UnorderedBTree::build(&d);
        assert!(
            ub.bytes_on_disk() < d.raw_bytes(),
            "ubtree {} vs raw {}",
            ub.bytes_on_disk(),
            d.raw_bytes()
        );
    }

    #[test]
    fn skip_intersect_saves_io_on_sparse_candidates() {
        let d = SyntheticSpec {
            num_records: 40_000,
            vocab_size: 300,
            zipf: 1.0,
            len_min: 2,
            len_max: 10,
            seed: 4,
        }
        .generate();
        let idx = UnorderedBTree::build(&d);
        let pager = idx.pager().clone();

        // Rare item (short candidate list) intersected with the most
        // frequent item's long list: skip-seeks should touch fewer pages
        // than scanning both lists in full (what the plain IF does).
        pager.clear_cache();
        pager.reset_stats();
        let _ = idx.subset(&[0, 290]);
        let skipped = pager.stats().misses();

        pager.clear_cache();
        pager.reset_stats();
        for item in [0u32, 290] {
            let mut n = 0u64;
            idx.scan_list(item, |_| {
                n += 1;
                true
            });
        }
        let full_scan = pager.stats().misses();

        assert!(
            skipped < full_scan,
            "skip-seek ({skipped}) should beat scanning both lists ({full_scan})"
        );
    }
}
