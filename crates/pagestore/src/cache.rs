//! Buffer pool over the simulated disk: a sharded mapping table with
//! per-frame latches, scan-resistant cold/hot eviction, and miss
//! classification.
//!
//! The pool is deliberately small by default (32 KiB — the paper's §5
//! setting: "we set up the database cache to the minimum (32K)"), so that
//! query evaluation is I/O-bound and the miss counters approximate the true
//! disk page accesses an index incurs.
//!
//! ## Concurrency
//!
//! The pool is internally synchronised (every method takes `&self`), with
//! two tiers so a read-mostly workload scales with cores:
//!
//! * **Hit path — no global lock.** The `(file, page) → frame` mapping is
//!   split across [`SHARD_COUNT`] shards, each behind its own `RwLock`. A
//!   cache hit takes one shard *read* latch, increments the frame's atomic
//!   pin count ([`FrameSlot`]'s per-frame latch) and records the touch in
//!   the shard's touch log; concurrent readers — even of the same page —
//!   never contend on a pool-wide lock. Guard drops are a single atomic
//!   decrement with no lock at all.
//! * **Miss path — one policy lock.** Misses, eviction, allocation, writes
//!   (including in-place edits), flushes and statistics share the `policy`
//!   mutex guarding the disk, the cold/hot eviction lists and the miss
//!   counters. Eviction latches only its victim: it re-checks the
//!   victim's pin count under that frame's shard *write* latch, so a
//!   frame observed unpinned there can have no reader about to
//!   materialise a view (readers pin under the read latch).
//!
//! Lock order is `policy → shard map → shard touch log`; the hit path
//! takes shard latches only and never waits on the policy lock while
//! holding one, so the hierarchy is cycle-free.
//!
//! ## Eviction policy
//!
//! Eviction prefers *cold* frames (touched only once since load) over *hot*
//! ones, oldest first, so a long sequential scan cannot flush hot pages such
//! as B-tree roots — the scan-resistant "midpoint" policy real database
//! caches (incl. Berkeley DB's priority buffers) use. When every frame is
//! hot, the whole pool ages back to cold (epoch reset) so stale hot pages
//! cannot monopolise the cache.
//!
//! The policy is realised as two intrusive lists (cold, FIFO by load order;
//! hot, LRU by last touch) and is **observationally identical** to the
//! pre-sharding single-mutex pool: hits assign a globally ordered sequence
//! number and park in per-shard touch logs, and the logs are drained — in
//! sequence order — before any operation that consults the lists (eviction,
//! `clear_cache`, policy-locked fetches). Under single-threaded replay the
//! drained log replays exactly the eager LRU updates of the old code, so
//! victim choice, and hence the paper's page-access counts, are bit-for-bit
//! unchanged (the CI golden-file gate and
//! `eviction_matches_historical_min_scan_policy` both pin this down).
//!
//! ## Pinned frames
//!
//! [`BufferPool::pin`] increments a frame's pin count; pinned frames are
//! exempt from eviction and from [`BufferPool::clear_cache`], and writing to
//! a pinned page panics. Frame buffers live in stable heap allocations
//! (shared `Arc<FrameSlot>`s) that are never moved, recycled or freed while
//! pinned, which is what lets [`PageGuard`](crate::PageGuard) hand out
//! `&[u8]` page bytes without copying — from any thread — while the pool
//! keeps serving other pages. If every frame is pinned, the pool grows past
//! its capacity rather than deadlocking (the overflow drains again as pins
//! are released and frames are evicted).

use crate::cost::IoCostModel;
use crate::disk::{FileId, PageId, PAGE_SIZE};
use crate::error::{Clock, PageError, RealClock, RetryPolicy, ScrubFinding, ScrubReport};
use crate::frame::{FrameSlot, PinnedSlot};
use crate::stats::IoStats;
use crate::storage::{Storage, StorageError};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::ptr::NonNull;
use std::sync::Arc;

/// Sentinel for "no frame" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// Number of mapping-table shards. Page-to-shard assignment is a fixed
/// multiplicative hash, so it is deterministic across runs.
const SHARD_COUNT: usize = 16;

/// Bound on eviction re-tries when racing pinners keep invalidating the
/// chosen victim; past it the pool grows past capacity instead (safe, and
/// unreachable single-threaded).
const EVICT_RETRY_LIMIT: usize = 1024;

/// When a shard's touch log reaches this many parked hits, the hitting
/// thread folds the logs into the LRU lists itself (taking the policy
/// lock once) instead of waiting for the next miss — a hit-only workload
/// over a fully cached working set would otherwise grow the logs without
/// bound. Amortised over this many hits, the extra lock is noise.
const TOUCH_LOG_DRAIN_THRESHOLD: usize = 1024;

/// One mapping shard: a slice of the `(file, page) → frame` table plus the
/// shard's touch log (globally sequenced cache hits awaiting LRU replay).
struct Shard {
    map: RwLock<HashMap<(FileId, PageId), Arc<FrameSlot>>>,
    touches: Mutex<Vec<Touch>>,
}

/// One parked cache hit: `(global sequence, physical page, slot recycle
/// version at hit time)`. The version lets the drain skip touches whose
/// frame was evicted and whose physical page was re-installed into a
/// fresh frame in the meantime (concurrency only — single-threaded,
/// drains always run before any eviction can intervene).
type Touch = (u64, u64, u64);

/// Eviction bookkeeping for one cached frame (policy-lock side).
struct PolicyEntry {
    phys: u64,
    key: (FileId, PageId),
    slot: Arc<FrameSlot>,
    dirty: bool,
    /// Touched more than once since load; hot frames live in the hot list.
    hot: bool,
    /// Intrusive cold/hot list links (entry indices).
    prev: u32,
    next: u32,
}

/// Head/tail of one intrusive frame list.
#[derive(Clone, Copy)]
struct FrameList {
    head: u32,
    tail: u32,
}

impl FrameList {
    const EMPTY: FrameList = FrameList {
        head: NIL,
        tail: NIL,
    };
}

/// Everything guarded by the single policy lock: the disk, the eviction
/// lists and the miss-side statistics.
struct PolicyCore {
    disk: Box<dyn Storage>,
    capacity: usize,
    /// Entry slots; indices are stable (freed slots are reused, never
    /// compacted) so list links and the `map` stay valid.
    entries: Vec<Option<PolicyEntry>>,
    /// Free entry indices.
    free_entries: Vec<u32>,
    /// Recycled frame slots (page buffer allocations kept for reuse).
    free_slots: Vec<Arc<FrameSlot>>,
    /// phys page -> entry index of the cached frame.
    map: HashMap<u64, u32>,
    cold: FrameList,
    hot: FrameList,
    /// Physical page of the most recent *disk fetch* (not cache hit), used to
    /// classify the next miss as sequential or random.
    last_fetched: Option<u64>,
    /// Miss-side statistics; `hits` lives in an atomic on the pool and is
    /// merged into snapshots.
    stats: IoStats,
    cost: IoCostModel,
    /// Scratch for draining touch logs (allocation reused).
    touch_scratch: Vec<Touch>,
    /// Bounded retry policy for transient page-fault read errors.
    retry: RetryPolicy,
    /// Time source for retry backoff (tests inject a recording clock).
    clock: Arc<dyn Clock>,
    /// Pages that failed an integrity check: `phys → (file, page)`.
    /// Every later fault on one fails fast with [`PageError::Corrupt`]
    /// instead of re-reading rot. A `BTreeMap` so scrub reports list them
    /// in deterministic physical order.
    quarantine: BTreeMap<u64, (FileId, PageId)>,
    /// `Some(cause)` once a write-back has failed: the pool is in degraded
    /// read-only mode — reads keep serving, mutations return
    /// [`PageError::ReadOnly`] carrying this cause.
    read_only: Option<Arc<str>>,
}

impl PolicyCore {
    fn entry(&self, idx: u32) -> &PolicyEntry {
        self.entries[idx as usize].as_ref().expect("live entry")
    }

    fn entry_mut(&mut self, idx: u32) -> &mut PolicyEntry {
        self.entries[idx as usize].as_mut().expect("live entry")
    }

    fn list(&mut self, hot: bool) -> &mut FrameList {
        if hot {
            &mut self.hot
        } else {
            &mut self.cold
        }
    }

    fn push_tail(&mut self, hot: bool, idx: u32) {
        let tail = self.list(hot).tail;
        {
            let e = self.entry_mut(idx);
            e.prev = tail;
            e.next = NIL;
        }
        if tail != NIL {
            self.entry_mut(tail).next = idx;
        }
        let list = self.list(hot);
        if list.head == NIL {
            list.head = idx;
        }
        list.tail = idx;
    }

    fn unlink(&mut self, hot: bool, idx: u32) {
        let (prev, next) = {
            let e = self.entry_mut(idx);
            let links = (e.prev, e.next);
            e.prev = NIL;
            e.next = NIL;
            links
        };
        if prev != NIL {
            self.entry_mut(prev).next = next;
        }
        if next != NIL {
            self.entry_mut(next).prev = prev;
        }
        let list = self.list(hot);
        if list.head == idx {
            list.head = next;
        }
        if list.tail == idx {
            list.tail = prev;
        }
    }

    /// Mark a frame hot when it is touched again after its load, moving it
    /// to the back of the hot LRU list.
    fn touch(&mut self, idx: u32) {
        let hot = self.entry(idx).hot;
        self.unlink(hot, idx);
        self.entry_mut(idx).hot = true;
        self.push_tail(true, idx);
    }

    /// Oldest cold frame with no outstanding pins, if any. In degraded
    /// read-only mode dirty frames are also skipped: they can never be
    /// written back, so evicting them would lose committed data — the
    /// pool evicts clean frames or grows instead.
    fn first_unpinned_cold(&self) -> Option<u32> {
        let degraded = self.read_only.is_some();
        let mut idx = self.cold.head;
        while idx != NIL {
            let e = self.entry(idx);
            if e.slot.pin_count() == 0 && !(degraded && e.dirty) {
                return Some(idx);
            }
            idx = e.next;
        }
        None
    }

    /// Epoch reset: age the whole hot list back to cold, preserving LRU
    /// order, so stale hot pages cannot pin the cache forever. Returns
    /// false when the hot list was empty.
    fn splice_hot_into_cold(&mut self) -> bool {
        if self.hot.head == NIL {
            return false;
        }
        let mut idx = self.hot.head;
        while idx != NIL {
            let e = self.entry_mut(idx);
            e.hot = false;
            idx = e.next;
        }
        // Splice the (LRU-ordered) hot list onto the cold tail.
        if self.cold.head == NIL {
            self.cold = self.hot;
        } else {
            let cold_tail = self.cold.tail;
            let hot_head = self.hot.head;
            self.entry_mut(cold_tail).next = hot_head;
            self.entry_mut(hot_head).prev = cold_tail;
            self.cold.tail = self.hot.tail;
        }
        self.hot = FrameList::EMPTY;
        true
    }
}

/// A page cache with a sharded mapping table, per-frame pin latches,
/// scan-resistant eviction, miss classification and cost accounting.
///
/// Most callers use the [`Pager`](crate::Pager) wrapper; the pool itself is
/// exposed for tests and custom configurations. The pool is internally
/// synchronised — all methods take `&self` and may be called from any
/// thread (see the module docs for the locking design).
pub struct BufferPool {
    shards: Box<[Shard]>,
    /// Global touch sequence: orders cache hits across shards so deferred
    /// LRU replay is deterministic.
    seq: AtomicU64,
    /// Cache hits (the lock-free side of [`IoStats`]).
    hits: AtomicU64,
    policy: Mutex<PolicyCore>,
    /// Group-commit coordination for [`BufferPool::group_sync`]. Lives
    /// outside the policy lock: the leader holds no queue lock while
    /// flushing, and waiters never touch the policy lock at all.
    commit_queue: crate::commit::CommitQueue,
    /// Mutation hook for the model-checker teeth test: when set, the
    /// evictor skips its pin re-check under the shard write latch —
    /// reintroducing the exact race the protocol exists to prevent — so
    /// `tests/model.rs` can assert the checker finds a failing schedule.
    /// A plain std atomic on purpose: flipping it is test setup, not a
    /// modeled step. Never compiled into production builds.
    #[cfg(feature = "model")]
    model_break_evictor_pin_recheck: std::sync::atomic::AtomicBool,
}

impl BufferPool {
    /// Create a pool caching at most `cache_bytes / PAGE_SIZE` pages
    /// (minimum 1) over any [`Storage`] backend (the in-memory
    /// [`Disk`](crate::Disk) or a durable
    /// [`FileStorage`](crate::FileStorage)).
    pub fn new(storage: impl Storage + 'static, cache_bytes: usize, cost: IoCostModel) -> Self {
        let capacity = (cache_bytes / PAGE_SIZE).max(1);
        let shards = (0..SHARD_COUNT)
            .map(|_| Shard {
                map: RwLock::new(HashMap::new()),
                touches: Mutex::new(Vec::new()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BufferPool {
            shards,
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            policy: Mutex::new(PolicyCore {
                disk: Box::new(storage),
                capacity,
                entries: Vec::new(),
                free_entries: Vec::new(),
                free_slots: Vec::new(),
                map: HashMap::new(),
                cold: FrameList::EMPTY,
                hot: FrameList::EMPTY,
                last_fetched: None,
                stats: IoStats::default(),
                cost,
                touch_scratch: Vec::new(),
                retry: RetryPolicy::default(),
                clock: Arc::new(RealClock),
                quarantine: BTreeMap::new(),
                read_only: None,
            }),
            commit_queue: crate::commit::CommitQueue::new(),
            #[cfg(feature = "model")]
            model_break_evictor_pin_recheck: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Disable the evictor's pin re-check (model builds only; see the
    /// field doc). The checker must then find the pinned-reader-vs-evictor
    /// race deterministically — the mutation test that proves the model
    /// suite has teeth.
    #[cfg(feature = "model")]
    pub fn model_break_evictor_pin_recheck(&self) {
        self.model_break_evictor_pin_recheck
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether the evictor's pin re-check is active (always, outside model
    /// builds).
    #[inline]
    fn evictor_pin_recheck_enabled(&self) -> bool {
        #[cfg(feature = "model")]
        {
            !self
                .model_break_evictor_pin_recheck
                .load(std::sync::atomic::Ordering::Relaxed)
        }
        #[cfg(not(feature = "model"))]
        {
            true
        }
    }

    /// Number of page frames the pool may hold (pins may transiently push it
    /// above this).
    pub fn capacity(&self) -> usize {
        self.policy.lock().capacity
    }

    /// Number of frames currently cached.
    pub fn cached_frames(&self) -> usize {
        self.policy.lock().map.len()
    }

    /// Create a new logical file (segment) on the underlying disk.
    pub fn create_file(&self) -> FileId {
        self.policy.lock().disk.create_file()
    }

    /// Number of pages currently allocated to `file`.
    pub fn file_len(&self, file: FileId) -> u64 {
        self.policy.lock().disk.file_len(file)
    }

    /// Number of files on the underlying disk.
    pub fn file_count(&self) -> usize {
        self.policy.lock().disk.file_count()
    }

    /// Total pages allocated on the underlying disk across all files.
    pub fn total_pages(&self) -> u64 {
        self.policy.lock().disk.total_pages()
    }

    /// Snapshot the I/O statistics.
    pub fn stats(&self) -> IoStats {
        let core = self.policy.lock();
        let mut s = core.stats.clone();
        s.hits = self.hits.load(Ordering::SeqCst);
        s
    }

    pub fn reset_stats(&self) {
        let mut core = self.policy.lock();
        core.stats = IoStats::default();
        core.last_fetched = None;
        self.hits.store(0, Ordering::SeqCst);
    }

    pub fn set_cost_model(&self, cost: IoCostModel) {
        self.policy.lock().cost = cost;
    }

    /// Configure how transient page-fault read errors are retried.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.policy.lock().retry = policy;
    }

    /// The current transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy.lock().retry
    }

    /// Inject the time source used for retry backoff (tests pass a
    /// recording clock so no wall-clock time is spent).
    pub fn set_retry_clock(&self, clock: Arc<dyn Clock>) {
        self.policy.lock().clock = clock;
    }

    /// `Some(cause)` when the pool is in degraded read-only mode after a
    /// failed write-back: reads keep serving, mutations return
    /// [`PageError::ReadOnly`].
    pub fn degraded(&self) -> Option<Arc<str>> {
        self.policy.lock().read_only.clone()
    }

    /// Forget every quarantined page (e.g. after restoring the file from
    /// a backup); returns how many were forgotten. The next access
    /// re-reads and re-verifies each page from disk.
    pub fn clear_quarantine(&self) -> usize {
        let mut core = self.policy.lock();
        let n = core.quarantine.len();
        core.quarantine.clear();
        n
    }

    /// Walk every allocated page of every file, verify it is readable and
    /// integral, and report what is not — the operator-facing half of
    /// graceful degradation.
    ///
    /// Reads go straight to the storage backend (transient errors retried
    /// under the pool's [`RetryPolicy`]), bypassing the cache entirely: no
    /// frame is evicted or installed and the miss counters do not move, so
    /// a scrub can run against a live pool without perturbing the paper's
    /// page-access accounting. Pages found corrupt are quarantined. Note
    /// that dirty cached pages are verified against their last *committed*
    /// on-disk image — the in-cache bytes are newer but not yet on the
    /// medium.
    pub fn scrub(&self) -> ScrubReport {
        let mut core = self.policy.lock();
        let core = &mut *core;
        let mut report = ScrubReport::default();
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        let policy = core.retry;
        let clock = core.clock.clone();
        for f in 0..core.disk.file_count() {
            let file = FileId(f as u32);
            for page in 0..core.disk.file_len(file) {
                let phys = core.disk.phys(file, page);
                report.pages_checked += 1;
                let mut attempt: u32 = 1;
                let outcome = loop {
                    match core.disk.read_phys(phys, &mut buf) {
                        Ok(()) => break Ok(()),
                        Err(e) if e.is_transient() && attempt < policy.attempts.max(1) => {
                            clock.sleep(policy.backoff_before(attempt));
                            core.stats.retries += 1;
                            attempt += 1;
                        }
                        Err(e) => break Err(e),
                    }
                };
                match outcome {
                    Ok(()) => {}
                    Err(e) if e.is_corruption() => {
                        core.quarantine.insert(phys, (file, page));
                        report.corrupt.push(ScrubFinding {
                            file,
                            page,
                            phys,
                            cause: e.to_string(),
                        });
                    }
                    Err(e) => report.unreadable.push(ScrubFinding {
                        file,
                        page,
                        phys,
                        cause: e.to_string(),
                    }),
                }
            }
        }
        for (&phys, &(file, page)) in core.quarantine.iter() {
            report.quarantined.push((file, page, phys));
        }
        report
    }

    /// Store `bytes` under `key` in the backend's catalog (index non-paged
    /// state). Durable only after the next [`BufferPool::sync`].
    pub fn put_catalog(&self, key: &str, bytes: &[u8]) {
        self.policy.lock().disk.put_catalog(key, bytes);
    }

    /// Fetch the catalog entry under `key`.
    pub fn get_catalog(&self, key: &str) -> Option<Vec<u8>> {
        self.policy.lock().disk.get_catalog(key)
    }

    /// All catalog keys, sorted.
    pub fn catalog_keys(&self) -> Vec<String> {
        self.policy.lock().disk.catalog_keys()
    }

    /// Flush every dirty frame to the backend (charging write costs,
    /// keeping the frames cached) and ask the backend to make all state —
    /// pages, file table, catalog — durable.
    ///
    /// Pinned dirty frames are flushed too: the policy lock excludes every
    /// writer (`write_page`, recycling), so reading their buffers here is
    /// safe, and their pins only protect the bytes from *changing*, which a
    /// write-back does not do. In-place edits
    /// ([`BufferPool::try_with_page_mut`]) hold the policy lock too, so a
    /// flush never sees a half-edited page.
    pub fn sync(&self) -> Result<(), StorageError> {
        let mut core = self.policy.lock();
        // A degraded pool refuses the barrier outright: a prior write-back
        // already failed, so pretending the dirty set reached the medium
        // would be a lie. (`try_sync` surfaces this as a typed error.)
        if let Some(cause) = &core.read_only {
            return Err(StorageError::Io(std::io::Error::other(format!(
                "buffer pool is in degraded read-only mode: {cause}"
            ))));
        }
        // Flush the dirty set in ascending physical-page order. The map is
        // a HashMap, so iterating it directly would issue the writes in a
        // per-run-random order — a large sync then degenerates into random
        // I/O. Sorted by physical page, consecutive dirty pages of one
        // structure become consecutive `pwrite`s (and, under the shadow
        // backend, claim ascending free slots), which is also what makes
        // the sync bench's bytes/wall numbers reproducible.
        let mut dirty: Vec<(u64, u32)> = core
            .map
            .iter()
            .filter(|&(_, &idx)| core.entry(idx).dirty)
            .map(|(&phys, &idx)| (phys, idx))
            .collect();
        dirty.sort_unstable_by_key(|&(phys, _)| phys);
        for (phys, idx) in dirty {
            let slot = core.entry(idx).slot.clone();
            // SAFETY: the policy lock is held and every mutation path
            // takes it, so the buffer cannot be mutated or recycled while
            // we read it.
            let write_res = core.disk.write_phys(phys, unsafe { slot.bytes() });
            if let Err(e) = write_res {
                // The frame keeps its dirty flag — nothing was lost — but
                // the pool flips to degraded read-only mode: the medium is
                // refusing writes, so further mutations would only pile up
                // unfsyncable state.
                core.read_only = Some(Arc::from(e.to_string().as_str()));
                return Err(e);
            }
            core.entry_mut(idx).dirty = false;
            let write_cost = core.cost.write;
            core.stats.writes += 1;
            core.stats.synced_pages += 1;
            core.stats.synced_bytes += PAGE_SIZE as u64;
            core.stats.io_time += write_cost;
        }
        if let Err(e) = core.disk.sync() {
            core.read_only = Some(Arc::from(e.to_string().as_str()));
            return Err(e);
        }
        // One durability barrier issued (internally the shadow backend
        // flushes the device twice around the superblock flip; counted
        // once per logical barrier — see the `IoStats::fsyncs` docs).
        core.stats.fsyncs += 1;
        Ok(())
    }

    /// Fallible twin of [`BufferPool::sync`], surfacing the failure as a
    /// typed [`PageError::ReadOnly`] (any sync failure leaves the pool
    /// degraded, so the read-only cause is the right shape).
    pub fn try_sync(&self) -> Result<(), PageError> {
        self.sync().map_err(|e| {
            let cause = self
                .policy
                .lock()
                .read_only
                .clone()
                .unwrap_or_else(|| Arc::from(e.to_string().as_str()));
            PageError::ReadOnly { cause }
        })
    }

    /// Group-committing twin of [`BufferPool::sync`]: concurrent callers
    /// coalesce onto one flush via the pool's [`CommitQueue`]
    /// (see [`crate::commit`]); each returns once a flush covering its
    /// ticket has committed, with the durable storage epoch. A flush
    /// failure degrades the pool (like `sync`) and surfaces to every
    /// covered caller as [`PageError::ReadOnly`].
    pub fn group_sync(&self) -> Result<u64, PageError> {
        self.commit_queue
            .commit(|| match self.sync() {
                Ok(()) => Ok(self.policy.lock().disk.epoch()),
                Err(e) => Err(self
                    .policy
                    .lock()
                    .read_only
                    .clone()
                    .unwrap_or_else(|| Arc::from(e.to_string().as_str()))),
            })
            .map_err(|cause| PageError::ReadOnly { cause })
    }

    /// Group-commit counters (flush amortisation, waiter high-water).
    pub fn commit_queue_stats(&self) -> crate::commit::CommitQueueStats {
        self.commit_queue.stats()
    }

    /// Flush up to `max_pages` dirty frames (ascending physical order,
    /// like `sync`) **without** a commit flip — the background
    /// checkpointer's work unit. The flushed pages land in fresh shadow
    /// slots and become durable at the next `sync`/`group_sync`; until
    /// then recovery still sees the previous epoch, so a crash mid-slice
    /// loses nothing. Returns how many frames were flushed (0 = pool
    /// clean). A write failure degrades the pool exactly like `sync`.
    pub fn checkpoint_slice(&self, max_pages: usize) -> Result<u64, PageError> {
        let mut core = self.policy.lock();
        if let Some(cause) = &core.read_only {
            return Err(PageError::ReadOnly {
                cause: cause.clone(),
            });
        }
        let mut dirty: Vec<(u64, u32)> = core
            .map
            .iter()
            .filter(|&(_, &idx)| core.entry(idx).dirty)
            .map(|(&phys, &idx)| (phys, idx))
            .collect();
        dirty.sort_unstable_by_key(|&(phys, _)| phys);
        dirty.truncate(max_pages);
        let mut flushed = 0u64;
        for &(phys, idx) in &dirty {
            let slot = core.entry(idx).slot.clone();
            // SAFETY: as in `sync` — the policy lock excludes every writer.
            let write_res = core.disk.write_phys(phys, unsafe { slot.bytes() });
            if let Err(e) = write_res {
                // The frame keeps its dirty flag; the pool degrades just
                // like a failed `sync` write-back would.
                let cause: Arc<str> = Arc::from(e.to_string().as_str());
                core.read_only = Some(cause.clone());
                return Err(PageError::ReadOnly { cause });
            }
            core.entry_mut(idx).dirty = false;
            let write_cost = core.cost.write;
            core.stats.writes += 1;
            core.stats.checkpoint_pages += 1;
            core.stats.io_time += write_cost;
            flushed += 1;
        }
        Ok(flushed)
    }

    /// Fold write-ahead-log activity (see [`Wal`](crate::Wal)) into this
    /// pool's [`IoStats`], so one snapshot observes the whole commit
    /// pipeline.
    pub fn note_wal(&self, appends: u64, bytes: u64, fsyncs: u64) {
        let mut core = self.policy.lock();
        core.stats.wal_appends += appends;
        core.stats.wal_bytes += bytes;
        core.stats.fsyncs += fsyncs;
    }

    /// Commit epoch of the backend's last durable sync (0 for backends
    /// without a commit protocol, e.g. the memory disk).
    pub fn durable_epoch(&self) -> u64 {
        self.policy.lock().disk.epoch()
    }

    /// Leave degraded read-only mode after the medium healed: clears the
    /// sticky cause (and any sticky group-commit failure) so mutations
    /// and syncs are admitted again. Returns whether the pool *was*
    /// degraded. Dirty frames that were stranded stay dirty and flush on
    /// the next sync; callers should verify the medium first
    /// ([`BufferPool::scrub`]) — if it is still broken, the next
    /// write-back simply re-degrades the pool.
    pub fn clear_degraded(&self) -> bool {
        let was = self.policy.lock().read_only.take().is_some();
        self.commit_queue.reset_failure();
        was
    }

    fn shard_of(&self, key: (FileId, PageId)) -> &Shard {
        // Fixed multiplicative hash — deterministic shard choice.
        let h = (key.0 .0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        &self.shards[(h >> 56) as usize % SHARD_COUNT]
    }

    /// Fast-path lookup (no pool-wide lock): one shard read latch, an
    /// atomic pin, and a touch-log append. Returns `None` on a cache miss.
    fn lookup_fast(&self, key: (FileId, PageId)) -> Option<PinnedSlot> {
        let shard = self.shard_of(key);
        let (slot, version) = {
            let map = shard.map.read();
            let slot = map.get(&key)?;
            // Pin under the shard read latch: eviction re-checks pins under
            // the shard *write* latch, so this pin is ordered before any
            // recycle decision.
            slot.pin();
            (slot.clone(), slot.version())
        };
        self.hits.fetch_add(1, Ordering::SeqCst);
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let pending = {
            let mut touches = shard.touches.lock();
            touches.push((seq, slot.phys(), version));
            touches.len()
        };
        // A hit-only workload (fully cached working set) never reaches a
        // policy-locked drain point, so the logs must be folded in
        // opportunistically or they grow without bound. Draining early is
        // observationally identical: the same touches are applied in the
        // same seq order, just sooner — the lists agree at every
        // subsequent eviction decision.
        if pending >= TOUCH_LOG_DRAIN_THRESHOLD {
            let mut core = self.policy.lock();
            self.drain_touches(&mut core);
        }
        debug_assert_eq!(
            slot.version(),
            version,
            "a pinned slot must never be recycled"
        );
        Some(PinnedSlot::adopt(slot))
    }

    /// Replay parked cache-hit touches into the LRU lists, in global
    /// sequence order. Called before anything consults or mutates the
    /// lists, which under single-threaded replay makes the deferred
    /// updates indistinguishable from the historical eager ones.
    fn drain_touches(&self, core: &mut PolicyCore) {
        let mut scratch = std::mem::take(&mut core.touch_scratch);
        scratch.clear();
        for shard in self.shards.iter() {
            scratch.append(&mut shard.touches.lock());
        }
        scratch.sort_unstable_by_key(|&(seq, _, _)| seq);
        for &(_, phys, version) in &scratch {
            // A touch may outlive its frame only under concurrency: the
            // frame was evicted between the hit and this drain (phys no
            // longer mapped), or evicted *and* its page re-installed into
            // a fresh frame (version mismatch). Skip both — the touched
            // incarnation is gone.
            if let Some(&idx) = core.map.get(&phys) {
                if core.entry(idx).slot.version() == version {
                    core.touch(idx);
                }
            }
        }
        core.touch_scratch = scratch;
    }

    /// Policy-locked fetch: ensure the page is cached and return its entry
    /// index. Counts a hit (touching immediately — the logs are already
    /// drained) or a classified, charged miss. The caller must have
    /// drained the touch logs.
    ///
    /// Fault behaviour: quarantined pages fail fast *before* the miss is
    /// classified or charged (a fault-free rerun sees identical counters);
    /// a failed load leaves the already-charged miss in the stats — under
    /// faults the counters describe attempted I/O, which is what the cost
    /// model simulates.
    fn try_fetch_locked(
        &self,
        core: &mut PolicyCore,
        file: FileId,
        page: PageId,
    ) -> Result<u32, PageError> {
        let phys = core.disk.phys(file, page);
        if let Some(&idx) = core.map.get(&phys) {
            self.hits.fetch_add(1, Ordering::SeqCst);
            core.touch(idx);
            return Ok(idx);
        }
        if let Some(&(qf, qp)) = core.quarantine.get(&phys) {
            return Err(PageError::Corrupt {
                file: qf,
                page: qp,
                phys,
                cause: "page is quarantined after an earlier integrity failure".into(),
            });
        }
        // Miss: classify, charge, load.
        let sequential = core.last_fetched == Some(phys.wrapping_sub(1));
        if sequential {
            core.stats.seq_misses += 1;
            core.stats.io_time += core.cost.seq_read;
        } else {
            core.stats.random_misses += 1;
            core.stats.io_time += core.cost.random_read;
        }
        core.last_fetched = Some(phys);
        self.try_install(core, (file, page), phys, false)
    }

    /// Pin the page into the cache and return the pinned slot. The fast
    /// path is latch-only; misses fall back to the policy lock.
    fn try_acquire(&self, file: FileId, page: PageId) -> Result<PinnedSlot, PageError> {
        let key = (file, page);
        if let Some(pinned) = self.lookup_fast(key) {
            return Ok(pinned);
        }
        let mut core = self.policy.lock();
        self.drain_touches(&mut core);
        // `try_fetch_locked` re-checks the mapping, so a page another
        // thread installed between our fast-path miss and the lock
        // acquisition is correctly counted as a hit.
        let idx = self.try_fetch_locked(&mut core, file, page)?;
        let slot = core.entry(idx).slot.clone();
        // Pin under the policy lock: eviction also runs under it, so the
        // frame cannot be recycled before the pin lands.
        slot.pin();
        Ok(PinnedSlot::adopt(slot))
    }

    fn acquire(&self, file: FileId, page: PageId) -> PinnedSlot {
        self.try_acquire(file, page)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Append a zeroed page to `file` and install it in the cache as dirty
    /// (it still needs a write-back, which is charged when evicted or
    /// flushed). Refused with [`PageError::ReadOnly`] when the pool is
    /// degraded.
    pub fn try_allocate_page(&self, file: FileId) -> Result<PageId, PageError> {
        let mut core = self.policy.lock();
        if let Some(cause) = &core.read_only {
            return Err(PageError::ReadOnly {
                cause: cause.clone(),
            });
        }
        self.drain_touches(&mut core);
        let page = core.disk.allocate_page(file);
        let phys = core.disk.phys(file, page);
        // A zeroed install never reads the disk, so it cannot fail; `?`
        // keeps the types honest if that ever changes.
        self.try_install(&mut core, (file, page), phys, true)?;
        Ok(page)
    }

    /// Panicking wrapper around [`BufferPool::try_allocate_page`].
    pub fn allocate_page(&self, file: FileId) -> PageId {
        self.try_allocate_page(file)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read a whole page into `buf`.
    pub fn read_page(&self, file: FileId, page: PageId, buf: &mut [u8]) {
        self.with_page(file, page, |data| buf.copy_from_slice(data))
    }

    /// Fallible twin of [`BufferPool::read_page`].
    pub fn try_read_page(
        &self,
        file: FileId,
        page: PageId,
        buf: &mut [u8],
    ) -> Result<(), PageError> {
        self.try_with_page(file, page, |data| buf.copy_from_slice(data))
    }

    /// Borrow a page's bytes without copying. The page is transiently
    /// pinned for the duration of `f` (released even if `f` panics).
    pub fn with_page<R>(&self, file: FileId, page: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        let pinned = self.acquire(file, page);
        f(pinned.bytes())
    }

    /// Fallible twin of [`BufferPool::with_page`]: a page fault surfaces
    /// as a typed error instead of a panic and `f` is not run.
    pub fn try_with_page<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, PageError> {
        let pinned = self.try_acquire(file, page)?;
        Ok(f(pinned.bytes()))
    }

    /// Pin a page for zero-copy reading. Used by
    /// [`Pager::pin_page`](crate::Pager::pin_page) to build a
    /// [`PageGuard`](crate::PageGuard).
    pub(crate) fn pin_slot(&self, file: FileId, page: PageId) -> PinnedSlot {
        self.acquire(file, page)
    }

    /// Fallible twin of [`BufferPool::pin_slot`] — the foundation of
    /// [`Pager::try_pin_page`](crate::Pager::try_pin_page).
    pub(crate) fn try_pin_slot(&self, file: FileId, page: PageId) -> Result<PinnedSlot, PageError> {
        self.try_acquire(file, page)
    }

    /// Pin a page, returning a pointer to its (stable) bytes and its
    /// physical page number for [`BufferPool::unpin`]. While the pin is
    /// held the frame is exempt from eviction and `clear_cache`, and writes
    /// to the page panic.
    ///
    /// This is the historical manual-pin API, kept for tests and custom
    /// configurations; the caller must guarantee the pool outlives the pin
    /// and must balance it with `unpin`. Higher-level code uses
    /// [`Pager::pin_page`](crate::Pager::pin_page), whose guard manages the
    /// pin automatically.
    pub fn pin(&self, file: FileId, page: PageId) -> (NonNull<[u8; PAGE_SIZE]>, u64) {
        let pinned = self.acquire(file, page);
        let (ptr, phys) = (pinned.slot().data_ptr(), pinned.slot().phys());
        // Hand the pin itself to the caller (balanced by `unpin`).
        pinned.leak_pin();
        (ptr, phys)
    }

    /// Release one pin on the frame holding physical page `phys`
    /// (counterpart of [`BufferPool::pin`]).
    ///
    /// Panics if `phys` is not cached — an unbalanced pin/unpin pair. The
    /// message names the physical page and (when the reverse mapping still
    /// exists) the logical file and page, since "which page was that?" is
    /// the first question the panic raises.
    pub fn unpin(&self, phys: u64) {
        let core = self.policy.lock();
        let idx = match core.map.get(&phys) {
            Some(&idx) => idx,
            None => {
                // Cold path: reverse-map the physical page for the message.
                let owner = (0..core.disk.file_count())
                    .map(|f| FileId(f as u32))
                    .find_map(|f| {
                        (0..core.disk.file_len(f))
                            .find(|&p| core.disk.phys(f, p) == phys)
                            .map(|p| format!("page {p} of {f:?}"))
                    })
                    .unwrap_or_else(|| "not an allocated page of any file".to_string());
                panic!(
                    "unpin of uncached physical page {phys} ({owner}): pin/unpin calls \
                     are unbalanced or the frame was dropped while pinned"
                );
            }
        };
        core.entry(idx).slot.unpin();
    }

    /// Fallible twin of [`BufferPool::unpin`]: releases one pin and
    /// returns `true` when `phys` is cached, `false` (a no-op) when it is
    /// not — for callers that want to balance pins without risking the
    /// unbalanced-pair panic.
    pub fn unpin_checked(&self, phys: u64) -> bool {
        let core = self.policy.lock();
        match core.map.get(&phys) {
            Some(&idx) => {
                core.entry(idx).slot.unpin();
                true
            }
            None => false,
        }
    }

    /// Pin count of the frame caching `(file, page)`, if cached.
    pub fn pin_count(&self, file: FileId, page: PageId) -> Option<u32> {
        let core = self.policy.lock();
        let phys = core.disk.phys(file, page);
        core.map
            .get(&phys)
            .map(|&idx| core.entry(idx).slot.pin_count())
    }

    /// Overwrite a whole page. Panics if the page is pinned: a pinned
    /// frame's bytes are borrowed by [`PageGuard`](crate::PageGuard)s.
    pub fn write_page(&self, file: FileId, page: PageId, data: &[u8]) {
        self.try_write_page(file, page, data)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`BufferPool::write_page`]: refused with
    /// [`PageError::ReadOnly`] when the pool is degraded, and a failed
    /// fetch of the target page surfaces as its typed error. Still panics
    /// if the page is pinned (that is a caller bug, not a media fault).
    pub fn try_write_page(&self, file: FileId, page: PageId, data: &[u8]) -> Result<(), PageError> {
        assert_eq!(data.len(), PAGE_SIZE, "write_page requires a full page");
        self.try_with_page_mut(file, page, |buf| buf.copy_from_slice(data))
    }

    /// Edit a page **in place**: the page is fetched like any write (same
    /// miss accounting as [`BufferPool::try_write_page`]), `f` gets its
    /// buffer, and the frame is marked dirty.
    ///
    /// The edit is exclusive. It runs under the policy lock (so no flush,
    /// eviction or other write interleaves) and the owning shard's write
    /// latch (so no reader can pin the frame), and it panics if the page is
    /// already pinned — a live [`PageGuard`](crate::PageGuard) on it is a
    /// caller bug. `f` must not call back into the pool: both locks are
    /// held while it runs. Refused with [`PageError::ReadOnly`] when the
    /// pool is degraded, before any byte moves.
    pub fn try_with_page_mut<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R, PageError> {
        let mut core = self.policy.lock();
        if let Some(cause) = &core.read_only {
            return Err(PageError::ReadOnly {
                cause: cause.clone(),
            });
        }
        self.drain_touches(&mut core);
        let idx = self.try_fetch_locked(&mut core, file, page)?;
        let entry = core.entry(idx);
        let shard = self.shard_of(entry.key);
        let r = {
            // The shard write latch excludes concurrent pinners for the
            // duration of the edit.
            let _map = shard.map.write();
            assert_eq!(
                entry.slot.pin_count(),
                0,
                "cannot write page {page} of {file:?}: page is pinned"
            );
            // SAFETY: no pins exist and none can be acquired while we hold
            // the shard write latch, and the policy lock keeps flushes out,
            // so the buffer is exclusively ours.
            f(unsafe { entry.slot.buffer_mut() })
        };
        core.entry_mut(idx).dirty = true;
        Ok(r)
    }

    /// Write every dirty unpinned frame back to disk (charging write costs)
    /// and drop those frames. Pinned frames stay cached — their bytes are
    /// still borrowed — and keep their dirty flag for a later write-back.
    pub fn clear_cache(&self) {
        let mut core = self.policy.lock();
        self.drain_touches(&mut core);
        let indices: Vec<u32> = core.map.values().copied().collect();
        for idx in indices {
            if core.entry(idx).slot.pin_count() == 0 {
                self.drop_frame(&mut core, idx);
            }
        }
        // A cleared cache also forgets the head position: the next read pays
        // a seek.
        core.last_fetched = None;
    }

    /// Write back (if dirty), unmap, unlink and free one frame. Returns
    /// false if a racing reader pinned the frame after it was selected (the
    /// re-check under the shard write latch failed — impossible
    /// single-threaded), or if the frame is dirty but cannot be written
    /// back (degraded read-only mode; the frame stays cached so reads keep
    /// serving its bytes).
    fn drop_frame(&self, core: &mut PolicyCore, idx: u32) -> bool {
        let (key, phys) = {
            let e = core.entry(idx);
            (e.key, e.phys)
        };
        // In degraded mode a dirty frame is unevictable: its write-back
        // would fail and dropping it anyway would lose the only good copy.
        if core.entry(idx).dirty && core.read_only.is_some() {
            return false;
        }
        {
            let shard = self.shard_of(key);
            let mut map = shard.map.write();
            let e = core.entry(idx);
            if self.evictor_pin_recheck_enabled() && e.slot.pin_count() != 0 {
                return false;
            }
            // Unpinned under the write latch ⇒ no reader holds or can
            // acquire a view; safe to unmap (and later recycle).
            map.remove(&key);
        }
        if core.entry(idx).dirty {
            core.entry_mut(idx).dirty = false;
            let slot = core.entry(idx).slot.clone();
            // SAFETY: frame is unmapped and unpinned — no shared borrows.
            let bytes = unsafe { slot.bytes() };
            if let Err(e) = core.disk.write_phys(phys, bytes) {
                // A failed write-back flips the pool into degraded
                // read-only mode instead of panicking: restore the frame
                // (remap, re-dirty — no bytes were lost) and record the
                // cause; every later mutation returns `ReadOnly` with it
                // while reads keep serving from cache and disk.
                core.entry_mut(idx).dirty = true;
                self.shard_of(key).map.write().insert(key, slot);
                if core.read_only.is_none() {
                    core.read_only = Some(Arc::from(e.to_string().as_str()));
                }
                return false;
            }
            core.stats.writes += 1;
            core.stats.io_time += core.cost.write;
        }
        let hot = core.entry(idx).hot;
        self_unlink_and_free(core, hot, idx, phys);
        true
    }

    /// Install a page in a (possibly recycled) frame slot, evicting first
    /// if the pool is full. Returns the entry index. The caller must hold
    /// the policy lock with touch logs drained.
    ///
    /// A failed disk read is handled per the error taxonomy: transient
    /// errors (including short reads) are retried under the pool's
    /// [`RetryPolicy`] with deterministic doubling backoff; corruption
    /// quarantines the page and fails fast forever after; anything else
    /// surfaces as [`PageError::Io`]. On failure the cache is left
    /// consistent — nothing is mapped and the recycled slot returns to the
    /// free pool (evictions already performed stand; their write-backs
    /// were real I/O).
    fn try_install(
        &self,
        core: &mut PolicyCore,
        key: (FileId, PageId),
        phys: u64,
        zeroed_dirty: bool,
    ) -> Result<u32, PageError> {
        debug_assert!(!core.map.contains_key(&phys));
        while core.map.len() >= core.capacity {
            if !self.evict_one(core) {
                // Every frame is pinned (or unevictable in degraded mode):
                // grow past capacity instead of deadlocking; the overflow
                // drains as pins are released.
                break;
            }
        }
        let read_into =
            |core: &mut PolicyCore, buf: &mut [u8; PAGE_SIZE]| -> Result<(), PageError> {
                let policy = core.retry;
                let clock = core.clock.clone();
                let mut attempt: u32 = 1;
                loop {
                    match core.disk.read_phys(phys, buf) {
                        Ok(()) => return Ok(()),
                        Err(e) if e.is_corruption() => {
                            // Never retried — re-reading rotten bits is
                            // wasted I/O. Quarantine so every later access
                            // fails fast, naming the page.
                            core.quarantine.insert(phys, key);
                            return Err(PageError::Corrupt {
                                file: key.0,
                                page: key.1,
                                phys,
                                cause: e.to_string(),
                            });
                        }
                        Err(e) if e.is_transient() => {
                            if attempt >= policy.attempts.max(1) {
                                return Err(PageError::Transient {
                                    file: key.0,
                                    page: key.1,
                                    phys,
                                    attempts: attempt,
                                    cause: e.to_string(),
                                });
                            }
                            clock.sleep(policy.backoff_before(attempt));
                            core.stats.retries += 1;
                            attempt += 1;
                        }
                        Err(e) => {
                            return Err(PageError::Io {
                                file: key.0,
                                page: key.1,
                                phys,
                                cause: e.to_string(),
                            });
                        }
                    }
                }
            };
        let slot = match core.free_slots.pop() {
            Some(slot) => {
                // SAFETY: a recycled slot is unmapped with no pins — this
                // Arc is its only reference, so the buffer is exclusive.
                let read = unsafe {
                    slot.reset_for(phys);
                    let buf = slot.buffer_mut();
                    if zeroed_dirty {
                        buf.fill(0);
                        Ok(())
                    } else {
                        read_into(core, buf)
                    }
                };
                if let Err(e) = read {
                    // Still unmapped and unpinned; hand it back for the
                    // next install (it is reset again on reuse).
                    core.free_slots.push(slot);
                    return Err(e);
                }
                slot
            }
            None => {
                let mut data = Box::new([0u8; PAGE_SIZE]);
                if !zeroed_dirty {
                    read_into(core, &mut data)?;
                }
                Arc::new(FrameSlot::new(data, phys))
            }
        };
        let entry = PolicyEntry {
            phys,
            key,
            slot: slot.clone(),
            dirty: zeroed_dirty,
            hot: false,
            prev: NIL,
            next: NIL,
        };
        let idx = match core.free_entries.pop() {
            Some(idx) => {
                core.entries[idx as usize] = Some(entry);
                idx
            }
            None => {
                let idx = core.entries.len() as u32;
                core.entries.push(Some(entry));
                idx
            }
        };
        core.map.insert(phys, idx);
        core.push_tail(false, idx);
        // Publish to the mapping shard last, so concurrent readers only see
        // fully installed frames.
        self.shard_of(key).map.write().insert(key, slot);
        Ok(idx)
    }

    /// Evict the preferred victim (oldest unpinned cold frame, with an
    /// epoch reset to cold when no cold frame is evictable). Returns false
    /// when every frame is pinned.
    fn evict_one(&self, core: &mut PolicyCore) -> bool {
        let mut spliced = false;
        for _ in 0..EVICT_RETRY_LIMIT {
            match core.first_unpinned_cold() {
                Some(idx) => {
                    if self.drop_frame(core, idx) {
                        return true;
                    }
                    // A racing reader pinned the victim after selection;
                    // rescan (it is now skipped as pinned).
                }
                None => {
                    // Without pins the epoch reset only fires when the cold
                    // list is empty (every frame hot) — the historical
                    // policy. With pins it also fires when every cold frame
                    // is pinned, so an unpinned hot frame is still found
                    // rather than growing the pool.
                    if spliced || !core.splice_hot_into_cold() {
                        return false;
                    }
                    spliced = true;
                }
            }
        }
        false
    }
}

/// Unlink one entry from its list and return entry + slot to the free
/// pools. (Free function to appease borrow scopes in `drop_frame`.)
fn self_unlink_and_free(core: &mut PolicyCore, hot: bool, idx: u32, phys: u64) {
    core.unlink(hot, idx);
    core.map.remove(&phys);
    let entry = core.entries[idx as usize].take().expect("live entry");
    core.free_entries.push(idx);
    core.free_slots.push(entry.slot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Disk;
    use std::time::Duration;

    fn pool(pages: usize) -> (BufferPool, FileId) {
        let mut disk = Disk::new();
        let f = disk.create_file();
        (
            BufferPool::new(disk, pages * PAGE_SIZE, IoCostModel::free()),
            f,
        )
    }

    #[test]
    fn hit_after_first_read() {
        let (p, f) = pool(4);
        p.allocate_page(f);
        p.reset_stats();
        p.clear_cache();
        let mut buf = vec![0u8; PAGE_SIZE];
        p.read_page(f, 0, &mut buf);
        p.read_page(f, 0, &mut buf);
        assert_eq!(p.stats().misses(), 1);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (p, f) = pool(2);
        for _ in 0..3 {
            p.allocate_page(f);
        }
        p.clear_cache();
        p.reset_stats();
        let mut buf = vec![0u8; PAGE_SIZE];
        p.read_page(f, 0, &mut buf); // cache: {0}
        p.read_page(f, 1, &mut buf); // cache: {0,1}
        p.read_page(f, 0, &mut buf); // touch 0
        p.read_page(f, 2, &mut buf); // evicts 1
        p.read_page(f, 0, &mut buf); // hit
        p.read_page(f, 1, &mut buf); // miss again
        assert_eq!(p.stats().misses(), 4);
        assert_eq!(p.stats().hits, 2);
    }

    #[test]
    fn dirty_pages_survive_eviction() {
        let (p, f) = pool(1);
        p.allocate_page(f);
        p.allocate_page(f);
        let mut page = vec![0u8; PAGE_SIZE];
        page[5] = 55;
        p.write_page(f, 0, &page);
        // Force eviction of page 0 by touching page 1.
        let mut buf = vec![0u8; PAGE_SIZE];
        p.read_page(f, 1, &mut buf);
        p.read_page(f, 0, &mut buf);
        assert_eq!(buf[5], 55);
    }

    #[test]
    fn sequential_vs_random_classification() {
        let (p, f) = pool(1);
        for _ in 0..6 {
            p.allocate_page(f);
        }
        p.clear_cache();
        p.reset_stats();
        let mut buf = vec![0u8; PAGE_SIZE];
        // 0,1,2 sequential run; then jump to 5; then 4 (backwards = random).
        for pg in [0u64, 1, 2, 5, 4] {
            p.read_page(f, pg, &mut buf);
        }
        assert_eq!(p.stats().seq_misses, 2); // pages 1 and 2
        assert_eq!(p.stats().random_misses, 3); // pages 0, 5, 4
    }

    #[test]
    fn cost_model_charges_io_time() {
        let mut disk = Disk::new();
        let f = disk.create_file();
        let p = BufferPool::new(
            disk,
            PAGE_SIZE,
            IoCostModel {
                random_read: Duration::from_millis(8),
                seq_read: Duration::from_millis(1),
                write: Duration::ZERO,
            },
        );
        for _ in 0..3 {
            p.allocate_page(f);
        }
        p.clear_cache();
        p.reset_stats();
        let mut buf = vec![0u8; PAGE_SIZE];
        for pg in 0..3 {
            p.read_page(f, pg, &mut buf);
        }
        // 1 random + 2 sequential.
        assert_eq!(p.stats().io_time, Duration::from_millis(10));
    }

    #[test]
    fn capacity_minimum_is_one_page() {
        let disk = Disk::new();
        let p = BufferPool::new(disk, 10, IoCostModel::free());
        assert_eq!(p.capacity(), 1);
    }

    #[test]
    fn writes_counted_on_clear() {
        let (p, f) = pool(4);
        p.allocate_page(f);
        p.reset_stats();
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 1;
        p.write_page(f, 0, &page);
        p.clear_cache();
        assert_eq!(p.stats().writes, 1);
    }

    #[test]
    fn sync_flushes_in_phys_order_and_counts_synced_pages() {
        use std::sync::{Arc, Mutex};

        /// MemStorage wrapper recording the physical-page order of writes.
        struct Recording {
            inner: Disk,
            writes: Arc<Mutex<Vec<u64>>>,
        }
        impl Storage for Recording {
            fn create_file(&mut self) -> FileId {
                self.inner.create_file()
            }
            fn file_count(&self) -> usize {
                self.inner.file_count()
            }
            fn file_len(&self, file: FileId) -> u64 {
                self.inner.file_len(file)
            }
            fn total_pages(&self) -> u64 {
                self.inner.total_pages()
            }
            fn allocate_page(&mut self, file: FileId) -> PageId {
                self.inner.allocate_page(file)
            }
            fn phys(&self, file: FileId, page: PageId) -> u64 {
                self.inner.phys(file, page)
            }
            fn read_phys(
                &mut self,
                phys: u64,
                out: &mut [u8; PAGE_SIZE],
            ) -> Result<(), StorageError> {
                self.inner.read_phys(phys, out)
            }
            fn write_phys(&mut self, phys: u64, data: &[u8]) -> Result<(), StorageError> {
                self.writes.lock().unwrap().push(phys);
                self.inner.write_phys(phys, data)
            }
            fn put_catalog(&mut self, key: &str, bytes: &[u8]) {
                self.inner.put_catalog(key, bytes)
            }
            fn get_catalog(&self, key: &str) -> Option<Vec<u8>> {
                self.inner.get_catalog(key)
            }
            fn catalog_keys(&self) -> Vec<String> {
                self.inner.catalog_keys()
            }
        }

        let writes = Arc::new(Mutex::new(Vec::new()));
        let mut disk = Disk::new();
        let f = disk.create_file();
        let p = BufferPool::new(
            Recording {
                inner: disk,
                writes: writes.clone(),
            },
            8 * PAGE_SIZE,
            IoCostModel::free(),
        );
        for _ in 0..8 {
            p.allocate_page(f);
        }
        // Dirty the pages in a scrambled order; the HashMap behind the
        // pool would replay an arbitrary order without the explicit sort.
        writes.lock().unwrap().clear();
        for pg in [5u64, 1, 7, 3, 0, 6, 2, 4] {
            p.write_page(f, pg, &[pg as u8 + 1; PAGE_SIZE]);
        }
        p.sync().unwrap();
        assert_eq!(
            *writes.lock().unwrap(),
            (0..8).collect::<Vec<u64>>(),
            "sync must flush the dirty set in ascending physical order"
        );
        let s = p.stats();
        assert_eq!(s.synced_pages, 8);
        assert_eq!(s.synced_bytes, 8 * PAGE_SIZE as u64);
        assert_eq!(s.writes, 8);
        // A second sync with nothing dirty flushes nothing.
        p.sync().unwrap();
        assert_eq!(p.stats().synced_pages, 8);
    }

    #[test]
    fn scan_does_not_flush_hot_pages() {
        // A frame touched twice (hot) survives a long touched-once scan
        // that exceeds capacity — the scan-resistance the cold/hot split
        // exists for.
        let (p, f) = pool(4);
        for _ in 0..12 {
            p.allocate_page(f);
        }
        p.clear_cache();
        let mut buf = vec![0u8; PAGE_SIZE];
        p.read_page(f, 0, &mut buf);
        p.read_page(f, 0, &mut buf); // page 0 is now hot
        for pg in 1..12 {
            p.read_page(f, pg, &mut buf);
        }
        p.reset_stats();
        p.read_page(f, 0, &mut buf);
        assert_eq!(p.stats().hits, 1, "hot page 0 must survive the scan");
    }

    #[test]
    fn epoch_reset_when_all_frames_hot() {
        let (p, f) = pool(2);
        for _ in 0..3 {
            p.allocate_page(f);
        }
        p.clear_cache();
        let mut buf = vec![0u8; PAGE_SIZE];
        // Make pages 0 and 1 hot.
        for pg in [0u64, 1, 0, 1] {
            p.read_page(f, pg, &mut buf);
        }
        // All frames hot: loading 2 must still evict someone (page 0, the
        // LRU after the epoch reset) rather than grow or panic.
        p.read_page(f, 2, &mut buf);
        p.reset_stats();
        p.read_page(f, 1, &mut buf);
        assert_eq!(p.stats().hits, 1, "page 1 (recently used) must survive");
        p.read_page(f, 0, &mut buf);
        assert_eq!(p.stats().misses(), 1, "page 0 was the epoch-reset victim");
    }

    #[test]
    fn eviction_matches_historical_min_scan_policy() {
        // Drive a pool with a mixed access pattern and mirror the policy
        // the linked lists replaced: victim = min (hot, last_used), with an
        // epoch reset when every frame is hot. The miss sequence must be
        // identical — this is what keeps the paper's page-access counts
        // reproducible across the O(capacity), O(1), and sharded-deferred
        // implementations.
        #[derive(Clone)]
        struct Model {
            cap: usize,
            // (phys, hot, last_used)
            frames: Vec<(u64, bool, u64)>,
            clock: u64,
        }
        impl Model {
            fn access(&mut self, phys: u64) -> bool {
                self.clock += 1;
                if let Some(fr) = self.frames.iter_mut().find(|fr| fr.0 == phys) {
                    fr.1 = true;
                    fr.2 = self.clock;
                    return true; // hit
                }
                if self.frames.len() >= self.cap {
                    if self.frames.iter().all(|fr| fr.1) {
                        for fr in &mut self.frames {
                            fr.1 = false;
                        }
                    }
                    let (i, _) = self
                        .frames
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, fr)| (fr.1, fr.2))
                        .unwrap();
                    self.frames.remove(i);
                }
                self.frames.push((phys, false, self.clock));
                false // miss
            }
        }

        let (p, f) = pool(4);
        for _ in 0..16 {
            p.allocate_page(f);
        }
        p.clear_cache();
        p.reset_stats();
        let mut model = Model {
            cap: 4,
            frames: Vec::new(),
            clock: 0,
        };
        // Deterministic pseudo-random walk mixing scans and re-touches.
        let mut x = 7u64;
        let mut buf = vec![0u8; PAGE_SIZE];
        for step in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pg = if step % 3 == 0 {
                step as u64 % 16
            } else {
                x % 16
            };
            let before = p.stats().hits;
            p.read_page(f, pg, &mut buf);
            let hit = p.stats().hits > before;
            assert_eq!(
                hit,
                model.access(pg),
                "divergence from reference policy at step {step} (page {pg})"
            );
        }
    }

    #[test]
    fn touch_logs_stay_bounded_on_hit_only_workload() {
        // A fully cached working set produces hits only — no miss ever
        // reaches a policy-locked drain point, so the opportunistic drain
        // must keep the parked-touch logs bounded.
        let (p, f) = pool(4);
        p.allocate_page(f);
        let mut buf = vec![0u8; PAGE_SIZE];
        for _ in 0..TOUCH_LOG_DRAIN_THRESHOLD * 3 {
            p.read_page(f, 0, &mut buf);
        }
        let pending: usize = p.shards.iter().map(|s| s.touches.lock().len()).sum();
        assert!(
            pending < TOUCH_LOG_DRAIN_THRESHOLD,
            "touch logs must drain opportunistically, found {pending} parked entries"
        );
        // Every read hit (allocate_page installs the page in the cache).
        assert_eq!(p.stats().hits, (TOUCH_LOG_DRAIN_THRESHOLD * 3) as u64);
    }

    #[test]
    fn pinned_page_survives_cache_full_of_misses() {
        let (p, f) = pool(2);
        for _ in 0..10 {
            p.allocate_page(f);
        }
        p.clear_cache();
        let (ptr, phys) = p.pin(f, 0);
        // SAFETY: the pin keeps the buffer alive and un-mutated.
        let bytes = unsafe { &ptr.as_ref()[..] };
        let before: Vec<u8> = bytes.to_vec();
        let mut buf = vec![0u8; PAGE_SIZE];
        for pg in 1..10 {
            p.read_page(f, pg, &mut buf);
        }
        p.reset_stats();
        p.read_page(f, 0, &mut buf);
        assert_eq!(p.stats().hits, 1, "pinned page must not be evicted");
        assert_eq!(bytes, &before[..], "pinned bytes must be stable");
        p.unpin(phys);
    }

    #[test]
    fn unpin_checked_balances_or_reports_uncached() {
        let (p, f) = pool(2);
        p.allocate_page(f);
        let (_, phys) = p.pin(f, 0);
        assert_eq!(p.pin_count(f, 0), Some(1));
        assert!(p.unpin_checked(phys), "cached page must release its pin");
        assert_eq!(p.pin_count(f, 0), Some(0));
        assert!(
            !p.unpin_checked(u64::MAX),
            "uncached physical page is a no-op, not a panic"
        );
    }

    #[test]
    fn unpinned_hot_frame_evicted_when_all_cold_frames_pinned() {
        let (p, f) = pool(2);
        for _ in 0..3 {
            p.allocate_page(f);
        }
        p.clear_cache();
        let mut buf = vec![0u8; PAGE_SIZE];
        p.read_page(f, 0, &mut buf);
        p.read_page(f, 0, &mut buf); // page 0: hot, unpinned
        let (_, phys) = p.pin(f, 1); // page 1: cold, pinned
                                     // Loading page 2 must evict hot-but-unpinned page 0, not grow.
        p.read_page(f, 2, &mut buf);
        assert_eq!(p.cached_frames(), p.capacity(), "pool must not grow");
        p.reset_stats();
        p.read_page(f, 0, &mut buf);
        assert_eq!(p.stats().misses(), 1, "page 0 must have been evicted");
        p.unpin(phys);
    }

    #[test]
    fn all_pinned_overflows_capacity_then_drains() {
        let (p, f) = pool(2);
        for _ in 0..4 {
            p.allocate_page(f);
        }
        p.clear_cache();
        let pins: Vec<_> = (0..2).map(|pg| p.pin(f, pg).1).collect();
        // Both frames pinned: further reads must still succeed (overflow).
        let mut buf = vec![0u8; PAGE_SIZE];
        p.read_page(f, 2, &mut buf);
        p.read_page(f, 3, &mut buf);
        assert!(p.cached_frames() > p.capacity());
        for phys in pins {
            p.unpin(phys);
        }
        // With pins released the pool drains back to capacity.
        p.read_page(f, 2, &mut buf);
        p.allocate_page(f);
        assert!(p.cached_frames() <= p.capacity());
    }

    #[test]
    fn double_pin_and_unpin_balance() {
        let (p, f) = pool(2);
        p.allocate_page(f);
        let (_, phys_a) = p.pin(f, 0);
        let (_, phys_b) = p.pin(f, 0);
        assert_eq!(phys_a, phys_b);
        assert_eq!(p.pin_count(f, 0), Some(2));
        p.unpin(phys_a);
        assert_eq!(p.pin_count(f, 0), Some(1));
        p.unpin(phys_b);
        assert_eq!(p.pin_count(f, 0), Some(0));
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn write_to_pinned_page_panics() {
        let (p, f) = pool(2);
        p.allocate_page(f);
        let _pin = p.pin(f, 0);
        p.write_page(f, 0, &[0u8; PAGE_SIZE]);
    }

    #[test]
    fn clear_cache_keeps_pinned_frames() {
        let (p, f) = pool(4);
        for _ in 0..2 {
            p.allocate_page(f);
        }
        let (_, phys) = p.pin(f, 0);
        p.clear_cache();
        p.reset_stats();
        let mut buf = vec![0u8; PAGE_SIZE];
        p.read_page(f, 0, &mut buf);
        assert_eq!(p.stats().hits, 1, "pinned frame must survive clear_cache");
        p.read_page(f, 1, &mut buf);
        assert_eq!(p.stats().misses(), 1, "unpinned frame must be dropped");
        p.unpin(phys);
    }

    #[test]
    fn unpinned_eviction_still_writes_back_dirty_frames() {
        let (p, f) = pool(1);
        p.allocate_page(f);
        p.allocate_page(f);
        let mut page = vec![0u8; PAGE_SIZE];
        page[9] = 99;
        p.write_page(f, 0, &page);
        let (_, phys) = p.pin(f, 0);
        p.unpin(phys);
        p.reset_stats();
        // Eviction by loading page 1: the previously pinned, now unpinned
        // dirty frame must be written back, not dropped.
        let mut buf = vec![0u8; PAGE_SIZE];
        p.read_page(f, 1, &mut buf);
        assert_eq!(p.stats().writes, 1);
        p.read_page(f, 0, &mut buf);
        assert_eq!(buf[9], 99);
    }

    // ------- fault handling: retries, quarantine, degraded mode -------

    use std::sync::{Arc, Mutex as StdMutex};

    /// What the [`FlakyDisk`] below should do, shared with the test body.
    #[derive(Default)]
    struct FaultPlan {
        /// Errors returned by the next `read_phys` calls, front first;
        /// reads succeed once drained.
        read_errors: Vec<StorageError>,
        /// Physical pages that always read back corrupt.
        corrupt: std::collections::HashSet<u64>,
        /// When set, every `write_phys` fails hard.
        fail_writes: bool,
    }

    /// A [`Disk`] whose faults are scripted by a shared [`FaultPlan`].
    struct FlakyDisk {
        inner: Disk,
        plan: Arc<StdMutex<FaultPlan>>,
    }

    impl Storage for FlakyDisk {
        fn create_file(&mut self) -> FileId {
            self.inner.create_file()
        }
        fn file_count(&self) -> usize {
            self.inner.file_count()
        }
        fn file_len(&self, file: FileId) -> u64 {
            self.inner.file_len(file)
        }
        fn total_pages(&self) -> u64 {
            self.inner.total_pages()
        }
        fn allocate_page(&mut self, file: FileId) -> PageId {
            self.inner.allocate_page(file)
        }
        fn phys(&self, file: FileId, page: PageId) -> u64 {
            self.inner.phys(file, page)
        }
        fn read_phys(&mut self, phys: u64, out: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
            let mut plan = self.plan.lock().unwrap();
            if !plan.read_errors.is_empty() {
                return Err(plan.read_errors.remove(0));
            }
            if plan.corrupt.contains(&phys) {
                return Err(StorageError::ChecksumMismatch {
                    what: format!("page {phys}"),
                    expected: 1,
                    actual: 2,
                });
            }
            self.inner.read_phys(phys, out)
        }
        fn write_phys(&mut self, phys: u64, data: &[u8]) -> Result<(), StorageError> {
            if self.plan.lock().unwrap().fail_writes {
                return Err(StorageError::Io(std::io::Error::other(
                    "simulated dead sector",
                )));
            }
            self.inner.write_phys(phys, data)
        }
        fn put_catalog(&mut self, key: &str, bytes: &[u8]) {
            self.inner.put_catalog(key, bytes)
        }
        fn get_catalog(&self, key: &str) -> Option<Vec<u8>> {
            self.inner.get_catalog(key)
        }
        fn catalog_keys(&self) -> Vec<String> {
            self.inner.catalog_keys()
        }
    }

    /// A [`Clock`] that records requested sleeps instead of sleeping.
    struct TestClock(StdMutex<Vec<Duration>>);
    impl Clock for TestClock {
        fn sleep(&self, d: Duration) {
            self.0.lock().unwrap().push(d);
        }
    }

    fn flaky_pool(pages: usize) -> (BufferPool, FileId, Arc<StdMutex<FaultPlan>>, Arc<TestClock>) {
        let plan = Arc::new(StdMutex::new(FaultPlan::default()));
        let mut disk = Disk::new();
        let f = disk.create_file();
        let p = BufferPool::new(
            FlakyDisk {
                inner: disk,
                plan: plan.clone(),
            },
            pages * PAGE_SIZE,
            IoCostModel::free(),
        );
        let clock = Arc::new(TestClock(StdMutex::new(Vec::new())));
        p.set_retry_clock(clock.clone());
        (p, f, plan, clock)
    }

    fn transient(msg: &str) -> StorageError {
        StorageError::Transient(std::io::Error::other(msg.to_string()))
    }

    #[test]
    fn transient_read_faults_are_absorbed_by_retries_with_deterministic_backoff() {
        let (p, f, plan, clock) = flaky_pool(4);
        p.allocate_page(f);
        p.write_page(f, 0, &[7u8; PAGE_SIZE]);
        p.clear_cache();
        p.reset_stats();
        // Two hiccups, then the medium recovers: within the default
        // 3-attempt policy, so the caller never sees an error.
        plan.lock().unwrap().read_errors = vec![transient("blip 1"), transient("blip 2")];
        let mut buf = vec![0u8; PAGE_SIZE];
        p.try_read_page(f, 0, &mut buf).expect("retries absorb it");
        assert_eq!(buf[0], 7);
        assert_eq!(p.stats().retries, 2);
        // Backoff under the injected clock: 1 ms, then doubled to 2 ms —
        // no wall-clock time spent.
        assert_eq!(
            *clock.0.lock().unwrap(),
            vec![Duration::from_millis(1), Duration::from_millis(2)]
        );
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let (p, f, plan, clock) = flaky_pool(4);
        p.allocate_page(f);
        p.clear_cache();
        plan.lock().unwrap().read_errors = vec![
            transient("blip 1"),
            transient("blip 2"),
            transient("blip 3"),
        ];
        let mut buf = vec![0u8; PAGE_SIZE];
        let err = p.try_read_page(f, 0, &mut buf).unwrap_err();
        match &err {
            PageError::Transient {
                attempts, cause, ..
            } => {
                assert_eq!(*attempts, 3);
                assert!(
                    cause.contains("blip 3"),
                    "must carry the LAST error: {cause}"
                );
            }
            other => panic!("expected Transient, got {other:?}"),
        }
        assert_eq!(
            clock.0.lock().unwrap().len(),
            2,
            "two sleeps between three attempts"
        );
        // The fault has cleared (the scripted errors are drained): the
        // same query retried by the caller now succeeds.
        p.try_read_page(f, 0, &mut buf).expect("medium healed");
    }

    #[test]
    fn corruption_is_never_retried_and_quarantines_the_page() {
        let (p, f, plan, clock) = flaky_pool(4);
        p.allocate_page(f);
        p.clear_cache();
        p.reset_stats();
        plan.lock().unwrap().corrupt.insert(0);
        let mut buf = vec![0u8; PAGE_SIZE];
        let err = p.try_read_page(f, 0, &mut buf).unwrap_err();
        assert!(
            matches!(err, PageError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
        assert!(clock.0.lock().unwrap().is_empty(), "rot is not retried");
        assert_eq!(p.stats().retries, 0);
        // Even after the medium is "repaired", the quarantine remembers —
        // the page stays fenced until an operator clears it.
        plan.lock().unwrap().corrupt.clear();
        let err = p.try_read_page(f, 0, &mut buf).unwrap_err();
        assert!(matches!(err, PageError::Corrupt { .. }));
        assert!(err.to_string().contains("quarantine"), "got: {err}");
        assert_eq!(p.clear_quarantine(), 1);
        p.try_read_page(f, 0, &mut buf)
            .expect("cleared quarantine re-reads the (repaired) page");
    }

    #[test]
    fn failed_write_back_degrades_the_pool_to_read_only() {
        let (p, f, plan, _clock) = flaky_pool(1);
        p.allocate_page(f);
        p.allocate_page(f);
        let mut page = vec![0u8; PAGE_SIZE];
        page[3] = 33;
        p.write_page(f, 0, &page); // page 0 cached dirty
        plan.lock().unwrap().fail_writes = true;
        // Reading page 1 wants page 0's frame; the write-back fails, the
        // pool degrades — but the read itself must still be served (the
        // pool grows past capacity rather than losing the dirty frame).
        let mut buf = vec![0u8; PAGE_SIZE];
        p.try_read_page(f, 1, &mut buf).expect("reads keep serving");
        let cause = p.degraded().expect("failed write-back must degrade");
        assert!(cause.contains("dead sector"), "cause: {cause}");
        // Mutations are refused with the original cause…
        let err = p.try_write_page(f, 1, &page).unwrap_err();
        assert!(matches!(err, PageError::ReadOnly { .. }), "got: {err:?}");
        assert!(err.to_string().contains("dead sector"), "got: {err}");
        assert!(matches!(
            p.try_allocate_page(f),
            Err(PageError::ReadOnly { .. })
        ));
        assert!(matches!(p.try_sync(), Err(PageError::ReadOnly { .. })));
        // …and the dirty page's latest bytes are still readable.
        p.try_read_page(f, 0, &mut buf)
            .expect("dirty page readable");
        assert_eq!(buf[3], 33);
    }

    #[test]
    fn degraded_sync_via_infallible_entry_point_errors_not_panics() {
        let (p, f, plan, _clock) = flaky_pool(1);
        p.allocate_page(f);
        p.write_page(f, 0, &[1u8; PAGE_SIZE]);
        plan.lock().unwrap().fail_writes = true;
        assert!(p.sync().is_err(), "failing flush surfaces an error");
        assert!(p.degraded().is_some(), "failed sync flush degrades");
        assert!(p.sync().is_err(), "degraded pool refuses further syncs");
    }

    #[test]
    fn scrub_reports_exactly_the_damaged_pages_without_touching_counters() {
        let (p, f, plan, clock) = flaky_pool(4);
        for _ in 0..3 {
            p.allocate_page(f);
        }
        p.sync().unwrap();
        p.reset_stats();
        plan.lock().unwrap().corrupt.insert(1);
        let report = p.scrub();
        assert_eq!(report.pages_checked, 3);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].page, 1);
        assert_eq!(report.quarantined, vec![(f, 1, 1)]);
        assert!(report.unreadable.is_empty());
        assert!(!report.is_clean());
        assert_eq!(p.stats().misses(), 0, "scrub must not move miss counters");
        assert_eq!(p.stats().hits, 0);
        // Repair + clear: the next scrub is clean, absorbing a transient
        // hiccup along the way (and counting its retry).
        plan.lock().unwrap().corrupt.clear();
        assert_eq!(p.clear_quarantine(), 1);
        clock.0.lock().unwrap().clear();
        plan.lock().unwrap().read_errors = vec![transient("hiccup")];
        let report = p.scrub();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.pages_checked, 3);
        assert_eq!(clock.0.lock().unwrap().len(), 1, "scrub retried the hiccup");
    }
}
