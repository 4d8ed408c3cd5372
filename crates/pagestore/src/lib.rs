//! Paged storage substrate with a deterministic buffer pool.
//!
//! The OIF paper ([Terrovitis et al., EDBT 2011]) measures index performance
//! as *disk page accesses reported as cache misses by the database* (Berkeley
//! DB with a 32 KiB cache) plus an I/O-vs-CPU time split. This crate
//! reproduces that measurement environment from scratch:
//!
//! * [`Disk`] — an in-memory array of fixed-size pages standing in for the
//!   hard disk. Multiple logical *files* (segments) live on one disk so that
//!   an index built from several structures (e.g. the OIF's B⁺-tree plus its
//!   metadata) shares one cache, exactly like a single Berkeley DB
//!   environment.
//! * [`BufferPool`] — an LRU page cache with a configurable byte budget
//!   (default 32 KiB, the paper's setting), internally synchronised with a
//!   sharded mapping table and per-frame pin latches so concurrent readers
//!   scale with cores (see the [`cache`](self) module docs). Every miss is
//!   classified as *sequential* (physical page id = previously fetched
//!   id + 1) or *random* and charged against an [`IoCostModel`], yielding
//!   a deterministic simulated I/O time alongside the miss counters.
//! * [`IoStats`] — the counters the experiment harness prints: cache hits,
//!   sequential misses, random misses, pages written, simulated I/O time.
//!
//! The pool is wrapped in [`Pager`], the handle the index crates use.
//! `Pager`, [`PageGuard`] and everything built on them (B⁺-tree cursors,
//! query evaluation) are `Send`/`Sync`: a batch of read-only queries can be
//! evaluated by a thread pool over one shared index.
//!
//! [Terrovitis et al., EDBT 2011]: https://doi.org/10.1145/1951365.1951394

// Library code must surface failures as typed errors (or `expect` a named
// invariant), never swallow them into an anonymous `unwrap` panic. Tests
// are exempt: there an unwrap *is* the assertion.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
pub mod commit;
mod cost;
mod disk;
mod error;
pub mod fault;
mod file;
mod frame;
pub mod par;
mod raw;
pub mod ser;
mod stats;
mod storage;
mod sync;
pub mod wal;

pub use cache::BufferPool;
#[cfg(not(feature = "model"))]
pub use commit::{Checkpointer, CheckpointerConfig};
pub use commit::{CommitQueue, CommitQueueStats};
pub use cost::IoCostModel;
pub use disk::{Disk, FileId, MemStorage, PageId, PAGE_SIZE};
pub use error::{Clock, PageError, RealClock, RetryPolicy, ScrubFinding, ScrubReport};
pub use fault::{FaultConfig, FaultDomain, FaultFile, FaultHandle, FaultStorage};
pub use file::{FileStorage, StorageLayout};
pub use par::{par_map, par_map_with};
pub use raw::{MemFile, OsFile, RawFile};
pub use stats::IoStats;
pub use storage::{PhysPage, Storage, StorageError};
pub use wal::{Wal, WalStats, WAL_MAGIC};

use frame::PinnedSlot;
use std::sync::Arc;

/// Shared handle to a buffer pool over a simulated disk.
///
/// `Pager` is cheaply clonable; all clones share the same cache and
/// statistics. All index structures in the workspace perform their page I/O
/// through this type so that an experiment can snapshot / reset one set of
/// counters per index.
///
/// The pool is internally synchronised: `Pager` (and its clones) may be
/// used from many threads at once. Cache *hits* — the hot path of
/// read-mostly query evaluation — take only a mapping-shard read latch plus
/// one atomic pin, so concurrent readers do not serialise; misses,
/// eviction and writes coordinate through a single policy lock.
#[derive(Clone)]
pub struct Pager {
    inner: Arc<BufferPool>,
}

impl Pager {
    /// Create a pager with the paper's default cache budget (32 KiB).
    pub fn new() -> Self {
        Self::with_cache_bytes(32 * 1024)
    }

    /// Create a pager whose cache holds `bytes / PAGE_SIZE` pages (at least
    /// one).
    pub fn with_cache_bytes(bytes: usize) -> Self {
        Self::with_pool(BufferPool::new(Disk::new(), bytes, IoCostModel::default()))
    }

    /// Create a pager over an explicit [`Storage`] backend — e.g. a
    /// [`FileStorage`] for indexes that must survive a restart — with a
    /// `bytes / PAGE_SIZE`-page cache.
    pub fn with_storage(storage: impl Storage + 'static, bytes: usize) -> Self {
        Self::with_pool(BufferPool::new(storage, bytes, IoCostModel::default()))
    }

    /// Create a pager from a fully configured pool.
    pub fn with_pool(pool: BufferPool) -> Self {
        Pager {
            inner: Arc::new(pool),
        }
    }

    /// Create a new logical file (segment) on the underlying disk.
    pub fn create_file(&self) -> FileId {
        self.inner.create_file()
    }

    /// Mutation hook for the model suite's teeth test (model builds only):
    /// see [`BufferPool::model_break_evictor_pin_recheck`].
    #[cfg(feature = "model")]
    pub fn model_break_evictor_pin_recheck(&self) {
        self.inner.model_break_evictor_pin_recheck()
    }

    /// Append a fresh zeroed page to `file`, returning its page id within the
    /// file. The new page is written through the cache.
    pub fn allocate_page(&self, file: FileId) -> PageId {
        self.inner.allocate_page(file)
    }

    /// Fallible twin of [`Pager::allocate_page`]: refused with
    /// [`PageError::ReadOnly`] when the pool is degraded.
    pub fn try_allocate_page(&self, file: FileId) -> Result<PageId, PageError> {
        self.inner.try_allocate_page(file)
    }

    /// Number of pages currently allocated to `file`.
    pub fn file_len(&self, file: FileId) -> u64 {
        self.inner.file_len(file)
    }

    /// Read page `page` of `file` into `buf` (must be `PAGE_SIZE` long),
    /// going through the cache.
    pub fn read_page(&self, file: FileId, page: PageId, buf: &mut [u8]) {
        self.inner.read_page(file, page, buf)
    }

    /// Read a page and pass it to `f` without copying out of the cache frame.
    pub fn with_page<R>(&self, file: FileId, page: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        self.inner.with_page(file, page, f)
    }

    /// Pin page `page` of `file` in the cache and return a guard borrowing
    /// its bytes without copying.
    ///
    /// While the guard lives the frame is exempt from eviction and
    /// [`Pager::clear_cache`], and any [`Pager::write_page`] to it panics,
    /// so the guard's `&[u8]` view is stable. Pinning the same page again
    /// (same or cloned guard) is safe — frames are pin-*counted* — and
    /// guards may be sent to (and dropped on) other threads.
    ///
    /// The first `pin_page` of an uncached page costs one (counted) page
    /// access like any other read; re-pinning a cached page is a cache hit.
    /// Holding a guard across *other* page accesses can change which frame
    /// the pool evicts, so callers that must keep the paper's page-access
    /// counts reproducible (the B⁺-tree read path) drop the guard before
    /// fetching the next page.
    pub fn pin_page(&self, file: FileId, page: PageId) -> PageGuard {
        let pinned = self.inner.pin_slot(file, page);
        let phys = pinned.slot().phys();
        PageGuard { pinned, phys }
    }

    /// Fallible twin of [`Pager::pin_page`]: a page fault that fails even
    /// after the pool's [`RetryPolicy`] surfaces as a typed [`PageError`]
    /// naming the page — transient errors as
    /// [`Transient`](PageError::Transient), integrity failures as
    /// [`Corrupt`](PageError::Corrupt) (and the page is quarantined) —
    /// instead of panicking. The access pattern, pin semantics and page
    /// accounting are identical to `pin_page`.
    pub fn try_pin_page(&self, file: FileId, page: PageId) -> Result<PageGuard, PageError> {
        let pinned = self.inner.try_pin_slot(file, page)?;
        let phys = pinned.slot().phys();
        Ok(PageGuard { pinned, phys })
    }

    /// Fallible twin of [`Pager::read_page`].
    pub fn try_read_page(
        &self,
        file: FileId,
        page: PageId,
        buf: &mut [u8],
    ) -> Result<(), PageError> {
        self.inner.try_read_page(file, page, buf)
    }

    /// Fallible twin of [`Pager::with_page`] (`f` is not run on a fault).
    pub fn try_with_page<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, PageError> {
        self.inner.try_with_page(file, page, f)
    }

    /// Overwrite page `page` of `file` with `data` (must be `PAGE_SIZE`
    /// long).
    pub fn write_page(&self, file: FileId, page: PageId, data: &[u8]) {
        self.inner.write_page(file, page, data)
    }

    /// Fallible twin of [`Pager::write_page`]: refused with
    /// [`PageError::ReadOnly`] when the pool is degraded (carrying the
    /// original write-back failure as the cause).
    pub fn try_write_page(&self, file: FileId, page: PageId, data: &[u8]) -> Result<(), PageError> {
        self.inner.try_write_page(file, page, data)
    }

    /// Edit a page in place: exclusive, under the pool's policy lock and
    /// the frame's shard write latch, and panicking if the page is pinned;
    /// `f` must not call back into the pool. See
    /// [`BufferPool::try_with_page_mut`] for the full contract. Refused
    /// with [`PageError::ReadOnly`] on a degraded pool, before any byte
    /// moves.
    pub fn try_with_page_mut<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R, PageError> {
        self.inner.try_with_page_mut(file, page, f)
    }

    /// Snapshot the I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    /// Reset the I/O statistics (e.g. after an index build, before queries).
    pub fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    /// Drop every cached frame, so that the next accesses are cold. Used
    /// between queries to emulate the paper's "minimised caching effects"
    /// protocol.
    pub fn clear_cache(&self) {
        self.inner.clear_cache()
    }

    /// Total bytes allocated on the simulated disk across all files.
    pub fn disk_bytes(&self) -> u64 {
        self.inner.total_pages() * PAGE_SIZE as u64
    }

    /// Store `bytes` under `key` in the storage catalog — the key→blob
    /// store index structures use for their non-paged state. Durable only
    /// after the next [`Pager::sync`].
    pub fn put_catalog(&self, key: &str, bytes: &[u8]) {
        self.inner.put_catalog(key, bytes)
    }

    /// Fetch the catalog entry under `key`.
    pub fn catalog(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.get_catalog(key)
    }

    /// All catalog keys, sorted.
    pub fn catalog_keys(&self) -> Vec<String> {
        self.inner.catalog_keys()
    }

    /// Flush every dirty cached page and make the backend durable
    /// (superblock + trailer + `sync_all` for [`FileStorage`]; a no-op
    /// flush for the in-memory backend). Frames stay cached.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.inner.sync()
    }

    /// Fallible twin of [`Pager::sync`], surfacing the failure as a typed
    /// [`PageError::ReadOnly`] (any sync failure degrades the pool).
    pub fn try_sync(&self) -> Result<(), PageError> {
        self.inner.try_sync()
    }

    /// Group-committing durability barrier: concurrent callers coalesce
    /// onto one flush + commit flip and each returns with the durable
    /// storage epoch covering its writes. Semantically equivalent to
    /// [`Pager::try_sync`] (same flush, same degraded-mode behaviour) but
    /// N overlapping calls pay far fewer than N flips — see
    /// [`crate::commit`] and the commit bench.
    pub fn group_sync(&self) -> Result<u64, PageError> {
        self.inner.group_sync()
    }

    /// Group-commit counters (commits acknowledged, flushes actually
    /// run, waiter high-water mark).
    pub fn commit_queue_stats(&self) -> CommitQueueStats {
        self.inner.commit_queue_stats()
    }

    /// Flush up to `max_pages` dirty frames without a commit flip — the
    /// background checkpointer's work unit, also callable directly for
    /// deterministic tests. See [`BufferPool::checkpoint_slice`].
    pub fn checkpoint_slice(&self, max_pages: usize) -> Result<u64, PageError> {
        self.inner.checkpoint_slice(max_pages)
    }

    /// Spawn a background [`Checkpointer`] thread over this pager's pool.
    /// The returned handle owns the thread (clean shutdown on drop); see
    /// [`crate::commit`] for the protocol and the degraded-mode handoff.
    #[cfg(not(feature = "model"))]
    pub fn start_checkpointer(&self, cfg: CheckpointerConfig) -> Checkpointer {
        Checkpointer::spawn(self.inner.clone(), cfg)
    }

    /// Commit epoch of the backend's last durable sync (0 for the
    /// in-memory backend, which has no commit protocol).
    pub fn durable_epoch(&self) -> u64 {
        self.inner.durable_epoch()
    }

    /// Fold write-ahead-log activity into this pager's [`IoStats`]
    /// (`wal_appends` / `wal_bytes` / `fsyncs`), so one stats snapshot
    /// observes the whole commit pipeline. The [`Wal`] itself is a free-
    /// standing object (its records are not pages); its owner harvests
    /// [`Wal::take_stats`] and reports the deltas here.
    pub fn note_wal(&self, stats: WalStats) {
        self.inner
            .note_wal(stats.appends, stats.bytes, stats.fsyncs);
    }

    /// Leave degraded read-only mode after the medium healed (clears the
    /// sticky write-failure cause and any sticky group-commit failure).
    /// Returns whether the pool was degraded. Callers should verify the
    /// medium first — [`Pager::scrub`] + [`Pager::clear_quarantine`] —
    /// since a still-broken medium re-degrades on the next write-back.
    pub fn clear_degraded(&self) -> bool {
        self.inner.clear_degraded()
    }

    /// Replace the I/O cost model (defaults follow a ~2010 commodity disk).
    pub fn set_cost_model(&self, model: IoCostModel) {
        self.inner.set_cost_model(model)
    }

    /// Configure how transient page-fault read errors are retried (see
    /// [`RetryPolicy`]).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.inner.set_retry_policy(policy)
    }

    /// The current transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry_policy()
    }

    /// Inject the time source used for retry backoff (tests pass a
    /// recording clock so retries spend no wall-clock time).
    pub fn set_retry_clock(&self, clock: Arc<dyn Clock>) {
        self.inner.set_retry_clock(clock)
    }

    /// `Some(cause)` when the pool is in degraded read-only mode after a
    /// failed write-back (reads keep serving; mutations return
    /// [`PageError::ReadOnly`]).
    pub fn degraded(&self) -> Option<Arc<str>> {
        self.inner.degraded()
    }

    /// Forget every quarantined page (e.g. after restoring the backing
    /// file); returns how many were forgotten.
    pub fn clear_quarantine(&self) -> usize {
        self.inner.clear_quarantine()
    }

    /// Walk every allocated page, verify readability and integrity, and
    /// report corrupt / unreadable / quarantined pages. Bypasses the cache
    /// (no counters move); see [`BufferPool::scrub`].
    pub fn scrub(&self) -> ScrubReport {
        self.inner.scrub()
    }
}

impl Default for Pager {
    fn default() -> Self {
        Self::new()
    }
}

/// A pin on one cached page, borrowing its bytes without copying.
///
/// Obtained from [`Pager::pin_page`]. The guard holds the frame's pin
/// latch (an atomic count on the frame slot), which keeps the page buffer
/// alive, unmoved and unwritten; [`PageGuard::bytes`] — or the `Deref`
/// impl — yields the page contents directly out of the buffer-pool frame.
/// Dropping the guard releases the pin with a single atomic decrement (no
/// pool lock), including during unwinding.
///
/// Guards are `Send` and `Sync`: the pinned bytes are immutable while any
/// pin is outstanding, so views may cross threads freely — this is what
/// makes B⁺-tree cursors (and the query evaluation built on them) usable
/// from a thread pool.
pub struct PageGuard {
    pinned: PinnedSlot,
    phys: u64,
}

impl PageGuard {
    /// The pinned page's bytes (always `PAGE_SIZE` long).
    pub fn bytes(&self) -> &[u8] {
        self.pinned.bytes()
    }
}

impl Clone for PageGuard {
    fn clone(&self) -> Self {
        PageGuard {
            // Re-pins the frame, so its pin count matches the number of
            // live guards.
            pinned: self.pinned.clone(),
            phys: self.phys,
        }
    }
}

impl std::ops::Deref for PageGuard {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl std::fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("phys", &self.phys)
            .finish()
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("files", &self.inner.file_count())
            .field("pages", &self.inner.total_pages())
            .field("stats", &self.inner.stats())
            .finish()
    }
}

// Compile-time proof of the threading contract: the pager, its guards and
// the pool are usable from (and shareable across) threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pager>();
    assert_send_sync::<PageGuard>();
    assert_send_sync::<BufferPool>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pager_roundtrip() {
        let pager = Pager::new();
        let f = pager.create_file();
        let p = pager.allocate_page(f);
        let mut data = vec![0u8; PAGE_SIZE];
        data[0] = 42;
        data[PAGE_SIZE - 1] = 7;
        pager.write_page(f, p, &data);
        let mut out = vec![0u8; PAGE_SIZE];
        pager.read_page(f, p, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn stats_count_misses_after_cache_clear() {
        let pager = Pager::with_cache_bytes(PAGE_SIZE * 2);
        let f = pager.create_file();
        for _ in 0..4 {
            pager.allocate_page(f);
        }
        pager.reset_stats();
        pager.clear_cache();
        let mut buf = vec![0u8; PAGE_SIZE];
        for p in 0..4 {
            pager.read_page(f, p, &mut buf);
        }
        let s = pager.stats();
        assert_eq!(s.misses(), 4);
        // First access is random, the rest follow physically contiguous pages.
        assert_eq!(s.random_misses, 1);
        assert_eq!(s.seq_misses, 3);
    }

    #[test]
    fn clones_share_state() {
        let pager = Pager::new();
        let f = pager.create_file();
        let p = pager.allocate_page(f);
        let clone = pager.clone();
        let mut data = vec![0u8; PAGE_SIZE];
        data[10] = 99;
        clone.write_page(f, p, &data);
        let mut out = vec![0u8; PAGE_SIZE];
        pager.read_page(f, p, &mut out);
        assert_eq!(out[10], 99);
    }

    #[test]
    fn guard_outlives_pager_handle() {
        // The guard's Arc keeps the pinned frame alive independently of the
        // handle it came from.
        let pager = Pager::new();
        let f = pager.create_file();
        let p = pager.allocate_page(f);
        let mut data = vec![0u8; PAGE_SIZE];
        data[3] = 33;
        pager.write_page(f, p, &data);
        let guard = pager.pin_page(f, p);
        drop(pager);
        assert_eq!(guard[3], 33);
    }

    #[test]
    fn guard_can_cross_threads() {
        let pager = Pager::new();
        let f = pager.create_file();
        let p = pager.allocate_page(f);
        let mut data = vec![0u8; PAGE_SIZE];
        data[7] = 77;
        pager.write_page(f, p, &data);
        let guard = pager.pin_page(f, p);
        let byte = std::thread::spawn(move || guard[7]).join().unwrap();
        assert_eq!(byte, 77);
    }
}
