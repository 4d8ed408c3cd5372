//! Frame slots: stable page buffers with per-frame atomic latches.
//!
//! A [`FrameSlot`] is one cached page's home: a heap-allocated `PAGE_SIZE`
//! buffer plus the atomic metadata that lets readers latch it without any
//! pool-wide lock —
//!
//! * `pin` — the count of outstanding readers ([`PageGuard`](crate::PageGuard)s
//!   and transient `with_page` borrows). A frame with `pin > 0` is exempt
//!   from eviction, from `clear_cache`, and from `write_page` (which
//!   panics); its buffer is therefore immutable and stable for as long as
//!   the pin is held, which is what makes `&[u8]` views of the page — and
//!   the guards and cursors built on them — safely `Send`.
//! * `version` — bumped every time the slot is recycled for a different
//!   page; debug assertions use it to catch stale-slot bugs.
//! * `phys` — the physical page currently held, for LRU touch bookkeeping
//!   and diagnostics.
//!
//! Page bytes change only with `pin == 0`, under the pool's policy lock
//! plus the owning shard's write latch (`write_page` and the in-place
//! `with_page_mut` edit), so a pinned view never observes a write.
//!
//! Slots are shared via `Arc`: the buffer pool's mapping shards, its
//! eviction bookkeeping and every live guard each hold a reference, so a
//! pinned frame's buffer stays valid even if the pool itself is dropped.
//! The pin protocol is the per-frame latch the pool's concurrency rests
//! on: readers increment `pin` while holding their mapping shard's read
//! latch, the evictor re-checks `pin == 0` while holding the same shard's
//! write latch, so a frame observed unpinned under the write latch can
//! have no reader about to materialise a view of it.

use crate::disk::PAGE_SIZE;
use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::ptr::NonNull;
use std::sync::Arc;

/// One cached page frame. See the module docs for the latch protocol.
pub(crate) struct FrameSlot {
    /// Physical page currently cached in this slot.
    phys: AtomicU64,
    /// Recycle counter (diagnostics / debug assertions).
    version: AtomicU64,
    /// Outstanding reader pins — the per-frame latch.
    pin: AtomicU32,
    /// Stable heap allocation holding the page bytes; freed in `Drop`.
    data: NonNull<[u8; PAGE_SIZE]>,
}

// SAFETY: the raw buffer is exclusively managed through the pin protocol —
// shared `&[u8]` views exist only while `pin > 0` (during which the pool
// never writes or recycles the buffer), and mutation happens only with
// `pin == 0` under the pool's policy lock plus the owning shard's write
// latch, which also excludes flushes (they read under the policy lock).
// Nothing is tied to a particular thread.
unsafe impl Send for FrameSlot {}
unsafe impl Sync for FrameSlot {}

impl FrameSlot {
    pub(crate) fn new(data: Box<[u8; PAGE_SIZE]>, phys: u64) -> FrameSlot {
        FrameSlot {
            phys: AtomicU64::new(phys),
            version: AtomicU64::new(0),
            pin: AtomicU32::new(0),
            data: NonNull::from(Box::leak(data)),
        }
    }

    pub(crate) fn phys(&self) -> u64 {
        self.phys.load(Ordering::Acquire)
    }

    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    pub(crate) fn pin_count(&self) -> u32 {
        self.pin.load(Ordering::SeqCst)
    }

    /// Add one pin. Callers must either hold the owning shard's map latch
    /// (first pin of a lookup), the pool's policy lock (miss path), or an
    /// existing pin (guard clone), so the frame cannot be concurrently
    /// recycled.
    pub(crate) fn pin(&self) {
        let old = self.pin.fetch_add(1, Ordering::SeqCst);
        assert!(old < u32::MAX, "pin count overflow");
    }

    /// Release one pin.
    pub(crate) fn unpin(&self) {
        let old = self.pin.fetch_sub(1, Ordering::SeqCst);
        assert!(old > 0, "unpin without pin");
    }

    /// Raw pointer to the page buffer (for the historical `BufferPool::pin`
    /// test API).
    pub(crate) fn data_ptr(&self) -> NonNull<[u8; PAGE_SIZE]> {
        self.data
    }

    /// The page bytes.
    ///
    /// # Safety
    /// The caller must hold a pin (or otherwise exclude writers/recycling,
    /// e.g. the policy lock plus shard write latch).
    pub(crate) unsafe fn bytes(&self) -> &[u8] {
        &self.data.as_ref()[..]
    }

    /// Exclusive access to the page buffer.
    ///
    /// # Safety
    /// The caller must guarantee exclusivity: `pin == 0` *and* no
    /// concurrent reader can acquire a pin (slot unmapped, or the owning
    /// shard's write latch held), *and* no flush can read the buffer (the
    /// pool's policy lock held).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn buffer_mut(&self) -> &mut [u8; PAGE_SIZE] {
        &mut *self.data.as_ptr()
    }

    /// Re-purpose a recycled slot for a new physical page.
    ///
    /// # Safety
    /// Same exclusivity requirement as [`FrameSlot::buffer_mut`].
    pub(crate) unsafe fn reset_for(&self, phys: u64) {
        debug_assert_eq!(self.pin_count(), 0, "cannot recycle a pinned slot");
        self.phys.store(phys, Ordering::Release);
        self.version.fetch_add(1, Ordering::AcqRel);
    }
}

impl Drop for FrameSlot {
    fn drop(&mut self) {
        // SAFETY: the buffer came from `Box::leak` in `new` and is dropped
        // exactly once, when the last `Arc<FrameSlot>` goes.
        drop(unsafe { Box::from_raw(self.data.as_ptr()) });
    }
}

/// RAII pin on a frame slot: increments on creation/clone, decrements on
/// drop — including drops during unwinding, so pin counts stay balanced
/// across panics in user callbacks.
pub(crate) struct PinnedSlot {
    slot: Arc<FrameSlot>,
}

impl PinnedSlot {
    /// Wrap a slot whose pin count has **already** been incremented for
    /// this handle (the pool pins under the appropriate latch).
    pub(crate) fn adopt(slot: Arc<FrameSlot>) -> PinnedSlot {
        debug_assert!(slot.pin_count() > 0, "adopt requires an existing pin");
        PinnedSlot { slot }
    }

    pub(crate) fn slot(&self) -> &FrameSlot {
        &self.slot
    }

    /// The pinned page's bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: this handle holds a pin, so the buffer is neither
        // written, recycled nor freed.
        unsafe { self.slot.bytes() }
    }

    /// Consume the handle, keeping its pin (for the manual
    /// [`BufferPool::pin`](crate::BufferPool::pin)/`unpin` API). The `Arc`
    /// reference is released; the pin count stays raised until a matching
    /// `unpin`.
    pub(crate) fn leak_pin(self) {
        let mut this = std::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped (ManuallyDrop), so the Arc is
        // released exactly once, here, and the unpin in `Drop` is skipped.
        unsafe { std::ptr::drop_in_place(&mut this.slot) };
    }
}

impl Clone for PinnedSlot {
    fn clone(&self) -> Self {
        // Holding a pin already, so the slot cannot be recycled while we
        // add another — no latch needed.
        self.slot.pin();
        PinnedSlot {
            slot: self.slot.clone(),
        }
    }
}

impl Drop for PinnedSlot {
    fn drop(&mut self) {
        self.slot.unpin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_unpin_balance() {
        let s = FrameSlot::new(Box::new([0u8; PAGE_SIZE]), 7);
        assert_eq!(s.pin_count(), 0);
        s.pin();
        s.pin();
        assert_eq!(s.pin_count(), 2);
        s.unpin();
        s.unpin();
        assert_eq!(s.pin_count(), 0);
        assert_eq!(s.phys(), 7);
    }

    #[test]
    #[should_panic(expected = "unpin without pin")]
    fn unbalanced_unpin_panics() {
        let s = FrameSlot::new(Box::new([0u8; PAGE_SIZE]), 0);
        s.unpin();
    }

    #[test]
    fn pinned_slot_releases_on_drop_and_clone_repins() {
        let slot = Arc::new(FrameSlot::new(Box::new([9u8; PAGE_SIZE]), 1));
        slot.pin();
        let a = PinnedSlot::adopt(slot.clone());
        assert_eq!(slot.pin_count(), 1);
        let b = a.clone();
        assert_eq!(slot.pin_count(), 2);
        assert_eq!(a.bytes()[0], 9);
        drop(a);
        assert_eq!(slot.pin_count(), 1);
        drop(b);
        assert_eq!(slot.pin_count(), 0);
    }

    #[test]
    fn pinned_slot_unpins_during_unwind() {
        let slot = Arc::new(FrameSlot::new(Box::new([0u8; PAGE_SIZE]), 2));
        slot.pin();
        let pinned = PinnedSlot::adopt(slot.clone());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _hold = pinned;
            panic!("boom");
        }));
        assert!(r.is_err());
        assert_eq!(slot.pin_count(), 0, "pin must be released on unwind");
    }
}
