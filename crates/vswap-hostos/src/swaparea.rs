//! The host swap area: slot allocation and slot contents.
//!
//! Slot allocation is the cursor-scan [`SlotTable`] shared with the guest
//! swap partition (see `vswap_mem::slots` for how it reproduces *decayed
//! swap sequentiality*). The host adds retirement of physically bad slots
//! and a high-water mark. Slot contents are one packed 16-byte
//! [`SlotRecord`] per occupied slot in lazily allocated chunks, so a
//! multi-gigabyte swap area costs memory in proportion to the slots in
//! use, however far the allocation cursor has swept.

use sim_core::DeterministicRng;
use std::collections::BTreeSet;
use vswap_mem::{ContentLabel, Gfn, SlotRecord, SlotTable, VmId};

/// What one occupied swap slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// VM whose page was swapped out.
    pub vm: VmId,
    /// Guest frame number of the swapped page.
    pub gfn: Gfn,
    /// Content stored in the slot.
    pub label: ContentLabel,
}

impl SlotInfo {
    fn pack(self) -> SlotRecord {
        SlotRecord::new(self.vm.get(), self.gfn.get(), self.label)
    }

    fn unpack(record: SlotRecord) -> Self {
        SlotInfo {
            vm: VmId::new(record.owner()),
            gfn: Gfn::new(record.page()),
            label: record.label(),
        }
    }
}

/// The host swap area: a fixed number of page-sized slots.
///
/// # Examples
///
/// ```
/// use vswap_hostos::{SlotInfo, SwapArea};
/// use vswap_mem::{ContentLabel, Gfn, VmId};
///
/// let mut swap = SwapArea::new(8);
/// let info = SlotInfo { vm: VmId::new(0), gfn: Gfn::new(3), label: ContentLabel::ZERO };
/// let slot = swap.alloc(info).unwrap();
/// assert_eq!(swap.get(slot), Some(info));
/// swap.free(slot);
/// assert_eq!(swap.get(slot), None);
/// ```
#[derive(Debug, Clone)]
pub struct SwapArea {
    slots: SlotTable,
    high_water: u64,
    /// Slots retired after a permanent media error; never allocated again.
    bad: BTreeSet<u64>,
}

impl SwapArea {
    /// Creates an empty swap area of `capacity` slots.
    pub fn new(capacity: u64) -> Self {
        SwapArea { slots: SlotTable::new(capacity), high_water: 0, bad: BTreeSet::new() }
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.slots.capacity()
    }

    /// Occupied slots (retired bad slots are neither free nor used).
    pub fn used(&self) -> u64 {
        self.slots.taken() - self.bad.len() as u64
    }

    /// Retires a physically bad slot: its contents (if any) are dropped
    /// and the slot is withdrawn from allocation forever.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn mark_bad(&mut self, slot: u64) {
        self.slots.withdraw(slot);
        self.bad.insert(slot);
    }

    /// Number of retired slots.
    pub fn bad_slots(&self) -> u64 {
        self.bad.len() as u64
    }

    /// True if the slot has been retired by [`SwapArea::mark_bad`].
    pub fn is_bad(&self, slot: u64) -> bool {
        self.bad.contains(&slot)
    }

    /// The most slots ever occupied at once.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Allocates a slot for `info`, scanning forward from the allocation
    /// cursor (wrapping), like Linux's `scan_swap_map`. Returns `None`
    /// if the area is full.
    pub fn alloc(&mut self, info: SlotInfo) -> Option<u64> {
        let slot = self.slots.alloc(info.pack())?;
        self.high_water = self.high_water.max(self.used());
        Some(slot)
    }

    /// Like [`SwapArea::alloc`], but picks randomly among the next
    /// `jitter` free slots from the cursor — modelling the interleaving
    /// of concurrent per-CPU slot allocations on a real kernel. This
    /// jitter is the entropy source behind *decayed swap sequentiality*:
    /// with every swap-out/in generation, file-sequential content
    /// diffuses a little further apart.
    pub fn alloc_scattered(
        &mut self,
        info: SlotInfo,
        rng: &mut DeterministicRng,
        jitter: u64,
    ) -> Option<u64> {
        let slot = self.slots.alloc_scattered(info.pack(), rng, jitter)?;
        self.high_water = self.high_water.max(self.used());
        Some(slot)
    }

    /// Frees a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free or out of bounds.
    pub fn free(&mut self, slot: u64) {
        self.slots.free(slot);
    }

    /// Returns the contents of a slot, or `None` if free.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn get(&self, slot: u64) -> Option<SlotInfo> {
        self.slots.get(slot).map(SlotInfo::unpack)
    }

    /// Iterates the occupied slots in the readahead window
    /// `[start, start + window)`, clamped to capacity, in slot order —
    /// the cluster a fault-time swap readahead would read. Borrows the
    /// area instead of allocating, so the per-fault path stays heap-free.
    pub fn window_iter(
        &self,
        start: u64,
        window: u64,
    ) -> impl Iterator<Item = (u64, SlotInfo)> + '_ {
        self.slots.window_iter(start, window).map(|(s, r)| (s, SlotInfo::unpack(r)))
    }

    /// Iterates every occupied slot in slot order, visiting only the
    /// parts of the area in use.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SlotInfo)> + '_ {
        self.slots.iter().map(|(s, r)| (s, SlotInfo::unpack(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(gfn: u64) -> SlotInfo {
        SlotInfo { vm: VmId::new(0), gfn: Gfn::new(gfn), label: ContentLabel::ZERO }
    }

    #[test]
    fn fresh_area_allocates_sequentially() {
        let mut swap = SwapArea::new(8);
        let slots: Vec<u64> = (0..5).map(|g| swap.alloc(info(g)).unwrap()).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        assert_eq!(swap.used(), 5);
    }

    #[test]
    fn cursor_skips_holes_then_wraps() {
        let mut swap = SwapArea::new(4);
        for g in 0..4 {
            swap.alloc(info(g)).unwrap();
        }
        swap.free(1);
        swap.free(2);
        // Cursor is at 4 (past the end): wrap to the lowest free slot.
        assert_eq!(swap.alloc(info(10)), Some(1));
        // Cursor now at 2: continue forward.
        assert_eq!(swap.alloc(info(11)), Some(2));
        assert_eq!(swap.alloc(info(12)), None);
    }

    #[test]
    fn fragmentation_scatters_sequential_content() {
        // Fill, free every other slot, re-allocate: the new "file-order"
        // stream lands in scattered slots — the decay mechanism.
        let mut swap = SwapArea::new(8);
        for g in 0..8 {
            swap.alloc(info(g)).unwrap();
        }
        for s in [0, 2, 4, 6] {
            swap.free(s);
        }
        let new_slots: Vec<u64> = (100..104).map(|g| swap.alloc(info(g)).unwrap()).collect();
        assert_eq!(new_slots, vec![0, 2, 4, 6], "re-allocation plugs holes out of order");
    }

    #[test]
    fn window_returns_occupied_cluster() {
        let mut swap = SwapArea::new(8);
        for g in 0..4 {
            swap.alloc(info(g)).unwrap();
        }
        swap.free(2);
        let slots: Vec<u64> = swap.window_iter(1, 4).map(|(s, _)| s).collect();
        assert_eq!(slots, vec![1, 3]);
        // Window clamps at capacity.
        assert_eq!(swap.window_iter(7, 10).count(), 0);
    }

    #[test]
    fn scattered_allocation_spans_large_areas() {
        // A multi-word area with holes far apart: the wrapped candidate
        // enumeration must see them in cursor order.
        let mut swap = SwapArea::new(256);
        for g in 0..256 {
            swap.alloc(info(g)).unwrap();
        }
        for s in [3, 70, 200] {
            swap.free(s);
        }
        // Cursor is at 256: wrapping enumeration yields 3, 70, 200.
        let mut rng = DeterministicRng::seed_from(7);
        let got = swap.alloc_scattered(info(300), &mut rng, 3).unwrap();
        assert!([3, 70, 200].contains(&got));
        assert_eq!(swap.used(), 254);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut swap = SwapArea::new(4);
        let a = swap.alloc(info(0)).unwrap();
        let _b = swap.alloc(info(1)).unwrap();
        swap.free(a);
        assert_eq!(swap.used(), 1);
        assert_eq!(swap.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "already-free")]
    fn double_free_panics() {
        let mut swap = SwapArea::new(1);
        let s = swap.alloc(info(0)).unwrap();
        swap.free(s);
        swap.free(s);
    }

    #[test]
    fn bad_slots_are_never_reallocated() {
        let mut swap = SwapArea::new(4);
        let s = swap.alloc(info(0)).unwrap();
        swap.mark_bad(s);
        assert!(swap.is_bad(s));
        assert_eq!(swap.bad_slots(), 1);
        assert_eq!(swap.get(s), None, "retired slots drop their contents");
        assert_eq!(swap.used(), 0, "a retired slot is not in use");
        for g in 0..3 {
            let next = swap.alloc(info(g)).unwrap();
            assert_ne!(next, s, "a bad slot must never be handed out again");
        }
        assert_eq!(swap.alloc(info(9)), None, "capacity shrinks by the retired slot");
    }

    #[test]
    fn chunked_slots_keep_allocation_order_windows_and_bad_slots() {
        // 1100 slots span three 512-slot record chunks.
        let mut swap = SwapArea::new(2048);
        for g in 0..1100 {
            assert_eq!(swap.alloc(info(g)), Some(g));
        }
        for s in (0..1100).step_by(3) {
            swap.free(s);
        }
        // The cursor keeps sweeping forward past the holes.
        assert_eq!(swap.alloc(info(5000)), Some(1100));
        // A readahead window across the chunk boundary at 512 sees only
        // the occupied slots.
        let window: Vec<u64> = swap.window_iter(509, 6).map(|(s, _)| s).collect();
        assert_eq!(window, vec![509, 511, 512, 514]);
        // Retiring an occupied slot drops its contents and nothing else.
        let used = swap.used();
        swap.mark_bad(511);
        assert_eq!(swap.get(511), None);
        assert_eq!(swap.used(), used - 1);
        assert_eq!(swap.get(512).map(|i| i.gfn), Some(Gfn::new(512)));
        let window: Vec<u64> = swap.window_iter(509, 6).map(|(s, _)| s).collect();
        assert_eq!(window, vec![509, 512, 514]);
        // Once the tail fills, the wrap plugs the lowest holes first.
        for g in 1101..2048 {
            assert_eq!(swap.alloc(info(g)), Some(g));
        }
        assert_eq!(swap.alloc(info(7000)), Some(0));
        assert_eq!(swap.alloc(info(7001)), Some(3));
        assert_eq!(swap.iter().count() as u64, swap.used());
    }

    #[test]
    fn marking_a_free_slot_bad_withdraws_it() {
        let mut swap = SwapArea::new(2);
        swap.mark_bad(1);
        assert_eq!(swap.alloc(info(0)), Some(0));
        assert_eq!(swap.alloc(info(1)), None);
    }
}
