//! The guest's own swap partition allocator.
//!
//! When a balloon squeezes the guest (or guest memory is simply too small
//! for its anonymous working set), the guest swaps process pages to its
//! swap partition — a region of its virtual disk. From the host's point of
//! view that is ordinary virtual-disk I/O. Slot allocation is the same
//! cursor-scan [`SlotTable`] the host swap area uses.

use crate::process::ProcId;
use vswap_mem::{ContentLabel, SlotRecord, SlotTable, Vpn};

/// What one occupied guest swap slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestSlotInfo {
    /// Owning guest process.
    pub proc: ProcId,
    /// Virtual page of that process.
    pub vpn: Vpn,
    /// Content stored in the slot.
    pub label: ContentLabel,
}

impl GuestSlotInfo {
    fn unpack(record: SlotRecord) -> Self {
        GuestSlotInfo {
            proc: ProcId::new(record.owner()),
            vpn: Vpn::new(record.page()),
            label: record.label(),
        }
    }
}

/// The guest swap partition: page-sized slots over a virtual-disk region.
///
/// # Examples
///
/// ```
/// use vswap_guestos::swap::GuestSlotInfo;
/// use vswap_guestos::{GuestSwap, ProcId};
/// use vswap_mem::{ContentLabel, Vpn};
///
/// let mut swap = GuestSwap::new(100, 4); // disk pages 100..104
/// let info = GuestSlotInfo { proc: ProcId::new(0), vpn: Vpn::new(1), label: ContentLabel::ZERO };
/// let slot = swap.alloc(info).unwrap();
/// assert_eq!(swap.image_page(slot), 100);
/// ```
#[derive(Debug, Clone)]
pub struct GuestSwap {
    base_page: u64,
    slots: SlotTable,
}

impl GuestSwap {
    /// Creates a swap partition of `pages` slots whose first slot lives at
    /// virtual-disk page `base_page`.
    pub fn new(base_page: u64, pages: u64) -> Self {
        GuestSwap { base_page, slots: SlotTable::new(pages) }
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.slots.capacity()
    }

    /// Occupied slots.
    pub fn used(&self) -> u64 {
        self.slots.taken()
    }

    /// Allocates a slot (cursor scan with wrap, like the host allocator).
    pub fn alloc(&mut self, info: GuestSlotInfo) -> Option<u64> {
        self.slots.alloc(SlotRecord::new(info.proc.get(), info.vpn.get(), info.label))
    }

    /// Frees a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free.
    pub fn free(&mut self, slot: u64) {
        self.slots.free(slot);
    }

    /// Contents of a slot, or `None` if free.
    pub fn get(&self, slot: u64) -> Option<GuestSlotInfo> {
        self.slots.get(slot).map(GuestSlotInfo::unpack)
    }

    /// The virtual-disk image page a slot occupies.
    pub fn image_page(&self, slot: u64) -> u64 {
        self.base_page + slot
    }

    /// Snapshots the occupied slots of `[start, start + window)` into
    /// `out` (cleared first) — the readahead loop mutates the partition
    /// while it walks, so it needs a stable copy, not a borrow.
    pub fn window_into(&self, start: u64, window: u64, out: &mut Vec<(u64, GuestSlotInfo)>) {
        out.clear();
        out.extend(
            self.slots.window_iter(start, window).map(|(s, r)| (s, GuestSlotInfo::unpack(r))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(vpn: u64) -> GuestSlotInfo {
        GuestSlotInfo { proc: ProcId::new(0), vpn: Vpn::new(vpn), label: ContentLabel::ZERO }
    }

    #[test]
    fn slots_map_to_image_pages() {
        let mut swap = GuestSwap::new(50, 4);
        let a = swap.alloc(info(0)).unwrap();
        let b = swap.alloc(info(1)).unwrap();
        assert_eq!(swap.image_page(a), 50);
        assert_eq!(swap.image_page(b), 51);
    }

    #[test]
    fn alloc_free_cycle() {
        let mut swap = GuestSwap::new(0, 2);
        let a = swap.alloc(info(0)).unwrap();
        swap.alloc(info(1)).unwrap();
        assert_eq!(swap.alloc(info(2)), None);
        swap.free(a);
        assert_eq!(swap.used(), 1);
        assert_eq!(swap.alloc(info(3)), Some(a));
    }

    #[test]
    fn window_lists_occupied() {
        let mut swap = GuestSwap::new(0, 8);
        swap.alloc(info(0)).unwrap();
        swap.alloc(info(1)).unwrap();
        swap.free(0);
        let mut w = Vec::new();
        swap.window_into(0, 8, &mut w);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 1);
    }
}
