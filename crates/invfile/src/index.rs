//! The inverted-file structure and its bookkeeping.

use codec::postings::{Compression, Posting, PostingsDecoder};
use datagen::{Dataset, ItemId, Record};
use heapfile::HeapFile;
use pagestore::{PageError, Pager};

/// A disk-resident classic inverted file over a set-valued database.
pub struct InvertedFile {
    pub(crate) store: HeapFile,
    /// Number of postings per item (memory-resident vocabulary statistics).
    pub(crate) postings_per_item: Vec<u64>,
    /// Minimum record length per item's list (`u32::MAX` for empty lists)
    /// — the IF-grade length summary: a whole list whose shortest record
    /// exceeds `|qs|` is skipped by the pruned superset path without
    /// fetching a single page. Empty when reopened from pre-summary (v1)
    /// state, which disables pruning.
    pub(crate) min_len_per_item: Vec<u32>,
    pub(crate) num_records: u64,
    pub(crate) vocab_size: usize,
    pub(crate) compression: Compression,
    /// Highest record id seen, for append-style updates.
    pub(crate) max_id: u64,
}

/// Builder-style [`InvertedFile`] construction: start from
/// [`InvertedFile::builder`], override what the experiment needs, finish
/// with [`build`](InvertedFileBuilder::build).
pub struct InvertedFileBuilder<'a> {
    dataset: &'a Dataset,
    pager: Option<Pager>,
    cache_bytes: usize,
    compression: Compression,
}

impl InvertedFileBuilder<'_> {
    /// Buffer-pool budget in bytes (default: the paper's 32 KiB). Ignored
    /// when an explicit [`pager`](InvertedFileBuilder::pager) is supplied.
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

    /// Build the inverted file.
    pub fn build(self) -> InvertedFile {
        let pager = self
            .pager
            .unwrap_or_else(|| Pager::with_cache_bytes(self.cache_bytes));
        crate::build::build(self.dataset, pager, self.compression)
    }
}

impl InvertedFile {
    /// Build from a dataset with default settings (32 KiB cache, v-byte
    /// d-gap compression).
    pub fn build(dataset: &Dataset) -> Self {
        Self::builder(dataset).build()
    }

    /// Start a builder-style construction over `dataset` with default
    /// settings.
    pub fn builder(dataset: &Dataset) -> InvertedFileBuilder<'_> {
        InvertedFileBuilder {
            dataset,
            pager: None,
            cache_bytes: 32 * 1024,
            compression: Compression::VByteDGap,
        }
    }

    /// The buffer pool (for I/O statistics).
    pub fn pager(&self) -> &Pager {
        self.store.pager()
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

    /// Support of `item` (length of its inverted list).
    pub fn support(&self, item: ItemId) -> u64 {
        self.postings_per_item
            .get(item as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Whether this index carries per-list length summaries (always true
    /// for fresh builds; false after reopening pre-summary v1 state, which
    /// disables superset pruning).
    pub fn has_length_summaries(&self) -> bool {
        !self.min_len_per_item.is_empty()
    }

    /// Bytes of live posting-list data (excluding page padding).
    pub fn list_bytes(&self) -> u64 {
        self.store.live_bytes()
    }

    /// Total on-disk footprint of the index.
    pub fn bytes_on_disk(&self) -> u64 {
        self.store.bytes_on_disk()
    }

    /// Fetch and decode the whole inverted list of `item`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn fetch_list(&self, item: ItemId) -> Vec<Posting> {
        let mut bytes = Vec::new();
        let mut out = Vec::new();
        self.fetch_list_into(item, &mut bytes, &mut out);
        out
    }

    /// Fetch `item`'s list into `out` (cleared first), reusing both the
    /// byte scratch buffer and the postings buffer. The query paths call
    /// this with per-query scratch space so a multi-list merge performs no
    /// per-list allocation.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn fetch_list_into(
        &self,
        item: ItemId,
        bytes: &mut Vec<u8>,
        out: &mut Vec<Posting>,
    ) {
        self.try_fetch_list_into(item, bytes, out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`InvertedFile::fetch_list_into`]: a page fault
    /// surfaces as its typed [`PageError`]. On error `out` is cleared or
    /// holds a garbage prefix — callers must discard it.
    pub(crate) fn try_fetch_list_into(
        &self,
        item: ItemId,
        bytes: &mut Vec<u8>,
        out: &mut Vec<Posting>,
    ) -> Result<(), PageError> {
        out.clear();
        if !self.store.try_read_into(item, bytes)? {
            return Ok(());
        }
        let mut dec = PostingsDecoder::with_mode(bytes, self.compression);
        while let Some(p) = dec.next_posting().expect("index-owned list must decode") {
            out.push(p);
        }
        Ok(())
    }

    /// Fetch `item`'s raw encoded list into `bytes` (cleared first);
    /// returns false when the item has no list. Lets callers stream-decode
    /// without materialising a postings vector at all.
    pub(crate) fn try_fetch_bytes_into(
        &self,
        item: ItemId,
        bytes: &mut Vec<u8>,
    ) -> Result<bool, PageError> {
        self.store.try_read_into(item, bytes)
    }

    /// Append a batch of new records (§4.4-style maintenance). Each
    /// affected list is decoded, extended and re-written into a fresh
    /// contiguous run — the over-allocate-and-replace strategy of §6
    /// ("Inverted files"); superseded runs are reclaimed only by an
    /// explicit [`heapfile::HeapFile::rebuild`]-style compaction, which
    /// batch maintenance schedules separately.
    ///
    /// Record ids must be fresh and larger than every indexed id. Panics
    /// on a page fault; [`InvertedFile::try_batch_insert`] is the fallible
    /// twin.
    pub fn batch_insert(&mut self, records: &[Record]) {
        self.try_batch_insert(records, 1)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`InvertedFile::batch_insert`], with optional
    /// intra-batch parallelism.
    ///
    /// The batch is applied in two phases. Phase one stages every rewritten
    /// list into fresh heap runs ([`HeapFile::try_put_staged`]) across
    /// `threads` workers, without touching the directory or any statistic;
    /// staged runs are fresh pages nothing references yet, so parallel
    /// staging needs no coordination beyond the pool's own locking. Phase
    /// two commits the staged runs and flips the statistics. A page fault
    /// in phase one therefore leaves the index observably unchanged
    /// (orphan runs aside, reclaimed by the usual compaction): no partial
    /// batch, reads stay exact.
    ///
    /// Contract violations (stale ids, out-of-vocabulary items) are caller
    /// bugs and still panic.
    pub fn try_batch_insert(
        &mut self,
        records: &[Record],
        threads: usize,
    ) -> Result<(), PageError> {
        use std::collections::HashMap;
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
        let stage = |item: ItemId| -> Result<heapfile::StagedBlob, PageError> {
            let mut bytes = Vec::new();
            let mut list = Vec::new();
            self.try_fetch_list_into(item, &mut bytes, &mut list)?;
            list.extend(additions[&item].iter().copied());
            let enc = codec::postings::encode_postings_mode(&list, self.compression);
            self.store.try_put_staged(item, &enc)
        };
        let staged = if threads > 1 {
            let results = pagestore::par_map(items.len(), threads, |i| stage(items[i]));
            results.into_iter().collect::<Result<Vec<_>, _>>()?
        } else {
            items
                .iter()
                .map(|&item| stage(item))
                .collect::<Result<Vec<_>, _>>()?
        };
        self.store.commit_staged(staged);
        for r in records {
            self.max_id = r.id;
            self.num_records += 1;
            for &item in &r.items {
                if let Some(m) = self.min_len_per_item.get_mut(item as usize) {
                    *m = (*m).min(r.items.len() as u32);
                }
            }
        }
        for (item, added) in &additions {
            self.postings_per_item[*item as usize] += added.len() as u64;
        }
        Ok(())
    }
}

impl std::fmt::Debug for InvertedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvertedFile")
            .field("records", &self.num_records)
            .field("vocab", &self.vocab_size)
            .field("list_bytes", &self.list_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::SyntheticSpec;

    #[test]
    fn supports_match_dataset() {
        let d = Dataset::paper_fig1();
        let idx = InvertedFile::build(&d);
        let s = d.supports();
        for (item, &support) in s.iter().enumerate() {
            assert_eq!(idx.support(item as u32), support);
        }
        assert_eq!(idx.num_records(), 18);
    }

    #[test]
    fn fetch_list_returns_sorted_ids_with_lengths() {
        let d = Dataset::paper_fig1();
        let idx = InvertedFile::build(&d);
        // Item d (=3): records 101, 104, 107, 112, 114, 118 (Fig. 2).
        let list = idx.fetch_list(3);
        let ids: Vec<u64> = list.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![101, 104, 107, 112, 114, 118]);
        // Record 101 = {g,b,a,d} has length 4.
        assert_eq!(list[0].len, 4);
    }

    #[test]
    fn batch_insert_extends_lists() {
        let d = Dataset::paper_fig1();
        let mut idx = InvertedFile::build(&d);
        idx.batch_insert(&[Record::new(200, vec![0, 3])]);
        let ids: Vec<u64> = idx.fetch_list(3).iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![101, 104, 107, 112, 114, 118, 200]);
        assert_eq!(idx.num_records(), 19);
        assert_eq!(idx.support(3), 7);
    }

    #[test]
    fn threaded_batch_insert_matches_serial() {
        let d = SyntheticSpec {
            num_records: 400,
            vocab_size: 40,
            zipf: 0.8,
            len_min: 2,
            len_max: 8,
            seed: 9,
        }
        .generate();
        let build_batch = || -> Vec<Record> {
            (0..200u64)
                .map(|i| Record::new(1000 + i, vec![(i % 40) as u32, ((i * 7) % 40) as u32]))
                .collect()
        };
        let mut serial = InvertedFile::build(&d);
        serial.batch_insert(&build_batch());
        let pager = Pager::with_cache_bytes(1 << 20);
        let mut threaded = InvertedFile::builder(&d).pager(pager).build();
        threaded.try_batch_insert(&build_batch(), 4).unwrap();
        assert_eq!(threaded.num_records(), serial.num_records());
        for item in 0..40u32 {
            assert_eq!(
                threaded.fetch_list(item),
                serial.fetch_list(item),
                "item {item} list diverged"
            );
            assert_eq!(threaded.support(item), serial.support(item));
        }
    }

    #[test]
    #[should_panic(expected = "fresh and increasing")]
    fn stale_batch_id_panics() {
        let d = Dataset::paper_fig1();
        let mut idx = InvertedFile::build(&d);
        idx.batch_insert(&[Record::new(5, vec![0])]);
    }

    #[test]
    fn raw_mode_round_trips() {
        let d = SyntheticSpec {
            num_records: 500,
            vocab_size: 50,
            zipf: 0.8,
            len_min: 2,
            len_max: 10,
            seed: 3,
        }
        .generate();
        let idx = InvertedFile::builder(&d)
            .compression(Compression::Raw)
            .build();
        let s = d.supports();
        for item in 0..50u32 {
            assert_eq!(idx.fetch_list(item).len() as u64, s[item as usize]);
        }
    }
}
