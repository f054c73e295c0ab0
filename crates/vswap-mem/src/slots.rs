//! Swap-slot allocation shared by the host swap area and the guest swap
//! partition.
//!
//! Models Linux's swap-slot allocator closely enough to reproduce *decayed
//! swap sequentiality*: slots are handed out by scanning forward from a
//! cursor (so a fresh swap area fills sequentially in reclaim order), and
//! freed slots leave holes that later allocations plug out of order —
//! which is precisely how file-sequential content gets scattered over
//! time.
//!
//! Taken slots are tracked in a bitmap (one `u64` word per 64 slots)
//! scanned with `trailing_zeros`, plus a low-water hint word so the
//! wrap-around scan is amortized O(1). The bitmap grows as the cursor
//! sweeps forward (words past its end are all free), and slot contents
//! live in a [`ChunkedTable`], so a swap area costs memory in proportion
//! to the slots in use rather than to its capacity.

use crate::chunked::ChunkedTable;
use crate::content::ContentLabel;
use sim_core::DeterministicRng;

/// What one occupied slot holds, packed into 16 bytes: the owner (a VM or
/// a guest process), the page within that owner, and the page's content.
/// The all-zero record is the empty slot.
///
/// # Examples
///
/// ```
/// use vswap_mem::{ContentLabel, SlotRecord};
///
/// let r = SlotRecord::new(3, 42, ContentLabel::from_raw(9));
/// assert_eq!((r.owner(), r.page(), r.label()), (3, 42, ContentLabel::from_raw(9)));
/// assert!(!r.is_empty());
/// assert!(SlotRecord::default().is_empty());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotRecord {
    /// `owner + 1` in the low half, the page number in the high half.
    key: u64,
    label: u64,
}

impl SlotRecord {
    /// Packs a record. `owner` must be below `u32::MAX` and `page` below
    /// 2³² (16 TiB of 4 KiB pages).
    pub fn new(owner: u32, page: u64, label: ContentLabel) -> Self {
        assert!(owner < u32::MAX, "slot owner out of packed range");
        assert!(page < 1 << 32, "slot page out of packed range");
        SlotRecord { key: (u64::from(owner) + 1) | (page << 32), label: label.get() }
    }

    /// True for the empty record.
    pub fn is_empty(self) -> bool {
        self.key == 0
    }

    /// The owning VM or process id.
    pub fn owner(self) -> u32 {
        (self.key as u32).wrapping_sub(1)
    }

    /// The page number within the owner.
    pub fn page(self) -> u64 {
        self.key >> 32
    }

    /// The content stored in the slot.
    pub fn label(self) -> ContentLabel {
        ContentLabel::from_raw(self.label)
    }
}

/// Iterates the free slots of `[start, end)` in ascending order,
/// word-accelerated via `trailing_zeros`.
struct FreeRange<'a> {
    taken: &'a [u64],
    word: usize,
    /// Unconsumed free bits of word `word`.
    mask: u64,
    end: u64,
}

/// Free bits of word `w`: words past the end of the bitmap are all free.
fn free_word(taken: &[u64], w: usize) -> u64 {
    !taken.get(w).copied().unwrap_or(0)
}

impl<'a> FreeRange<'a> {
    fn new(taken: &'a [u64], start: u64, end: u64) -> Self {
        let word = (start / 64) as usize;
        let mask =
            if start < end { free_word(taken, word) & !((1u64 << (start % 64)) - 1) } else { 0 };
        FreeRange { taken, word, mask, end }
    }
}

impl Iterator for FreeRange<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.mask != 0 {
                let slot = (self.word as u64) * 64 + u64::from(self.mask.trailing_zeros());
                if slot >= self.end {
                    return None;
                }
                self.mask &= self.mask - 1;
                return Some(slot);
            }
            self.word += 1;
            if (self.word as u64) * 64 >= self.end {
                return None;
            }
            self.mask = free_word(self.taken, self.word);
        }
    }
}

/// A fixed number of page-sized slots with cursor-scan allocation.
///
/// A slot is *free*, *occupied* (holds a [`SlotRecord`]), or *withdrawn*
/// (taken out of allocation with no contents, e.g. after a media error).
///
/// # Examples
///
/// ```
/// use vswap_mem::{ContentLabel, SlotRecord, SlotTable};
///
/// let mut slots = SlotTable::new(8);
/// let rec = SlotRecord::new(0, 3, ContentLabel::ZERO);
/// assert_eq!(slots.alloc(rec), Some(0));
/// assert_eq!(slots.alloc(rec), Some(1), "a fresh area fills in order");
/// slots.free(0);
/// assert_eq!(slots.alloc(rec), Some(2), "the cursor moves on past holes");
/// assert_eq!(slots.get(1), Some(rec));
/// ```
#[derive(Debug, Clone)]
pub struct SlotTable {
    capacity: u64,
    records: ChunkedTable<SlotRecord>,
    /// Bit set = slot occupied or withdrawn. Word `w` covers slots
    /// `64*w .. 64*w+64`; words past the end are all free.
    taken_bits: Vec<u64>,
    taken: u64,
    cursor: u64,
    /// Invariant: no word below `low_hint` has a free bit — the
    /// wrap-around scan starts here instead of at slot 0.
    low_hint: usize,
}

impl SlotTable {
    /// Creates `capacity` free slots. Allocates nothing.
    pub fn new(capacity: u64) -> Self {
        SlotTable {
            capacity,
            records: ChunkedTable::new(capacity),
            taken_bits: Vec::new(),
            taken: 0,
            cursor: 0,
            low_hint: 0,
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Occupied plus withdrawn slots.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    fn is_taken(&self, slot: u64) -> bool {
        free_word(&self.taken_bits, (slot / 64) as usize) >> (slot % 64) & 1 == 0
    }

    fn set_taken(&mut self, slot: u64) {
        let w = (slot / 64) as usize;
        if w >= self.taken_bits.len() {
            self.taken_bits.resize(w + 1, 0);
        }
        self.taken_bits[w] |= 1u64 << (slot % 64);
        self.taken += 1;
    }

    /// Free slots starting at the cursor and wrapping around, ascending in
    /// each half — the order allocation considers candidates in.
    fn free_from_cursor(&self) -> impl Iterator<Item = u64> + '_ {
        FreeRange::new(&self.taken_bits, self.cursor, self.capacity).chain(FreeRange::new(
            &self.taken_bits,
            (self.low_hint as u64) * 64,
            self.cursor,
        ))
    }

    /// Allocates the first free slot at or after the cursor, else (wrapping)
    /// the lowest free slot overall, like Linux's `scan_swap_map`. Returns
    /// `None` if no slot is free.
    pub fn alloc(&mut self, record: SlotRecord) -> Option<u64> {
        if self.taken == self.capacity {
            return None;
        }
        let slot = match FreeRange::new(&self.taken_bits, self.cursor, self.capacity).next() {
            Some(s) => s,
            None => {
                // Nothing below `low_hint` is free: start the wrapped scan
                // there and pull the hint forward to the word we land in.
                let s =
                    FreeRange::new(&self.taken_bits, (self.low_hint as u64) * 64, self.capacity)
                        .next()?;
                self.low_hint = (s / 64) as usize;
                s
            }
        };
        self.occupy(slot, record);
        Some(slot)
    }

    /// Like [`SlotTable::alloc`], but picks randomly among the next
    /// `jitter` free slots from the cursor — modelling the interleaving of
    /// concurrent per-CPU slot allocations on a real kernel.
    pub fn alloc_scattered(
        &mut self,
        record: SlotRecord,
        rng: &mut DeterministicRng,
        jitter: u64,
    ) -> Option<u64> {
        if jitter <= 1 {
            return self.alloc(record);
        }
        // Two passes over the candidate window keep this allocation-free:
        // count the candidates, draw the index, then re-scan to the pick.
        let count = self.free_from_cursor().take(jitter as usize).count();
        if count == 0 {
            return None;
        }
        let pick = rng.index(count);
        let slot = self.free_from_cursor().nth(pick).expect("candidate counted above");
        self.occupy(slot, record);
        Some(slot)
    }

    fn occupy(&mut self, slot: u64, record: SlotRecord) {
        assert!(!record.is_empty(), "occupying a slot with the empty record");
        self.set_taken(slot);
        self.cursor = slot + 1;
        self.records.set(slot, record);
    }

    /// Frees an occupied slot, returning what it held.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free, withdrawn, or out of bounds.
    pub fn free(&mut self, slot: u64) -> SlotRecord {
        let record = self.records.take(slot);
        assert!(!record.is_empty(), "freeing an already-free slot {slot}");
        self.taken_bits[(slot / 64) as usize] &= !(1u64 << (slot % 64));
        self.taken -= 1;
        self.low_hint = self.low_hint.min((slot / 64) as usize);
        record
    }

    /// Withdraws a slot from allocation for good, dropping its contents if
    /// it was occupied. Withdrawing twice is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn withdraw(&mut self, slot: u64) {
        self.records.take(slot);
        if !self.is_taken(slot) {
            self.set_taken(slot);
        }
    }

    /// Contents of a slot, or `None` if free or withdrawn.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[inline]
    pub fn get(&self, slot: u64) -> Option<SlotRecord> {
        let record = self.records.get(slot);
        (!record.is_empty()).then_some(record)
    }

    /// Occupied slots of `[start, start + window)`, clamped to capacity, in
    /// slot order. Borrows instead of allocating.
    pub fn window_iter(
        &self,
        start: u64,
        window: u64,
    ) -> impl Iterator<Item = (u64, SlotRecord)> + '_ {
        let end = (start + window).min(self.capacity);
        (start..end).filter_map(|s| self.get(s).map(|r| (s, r)))
    }

    /// Every occupied slot in ascending order, visiting only the parts of
    /// the table in use.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SlotRecord)> + '_ {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(page: u64) -> SlotRecord {
        SlotRecord::new(0, page, ContentLabel::ZERO)
    }

    #[test]
    fn the_bitmap_grows_with_the_cursor_only() {
        let mut slots = SlotTable::new(1 << 32);
        for p in 0..130 {
            assert_eq!(slots.alloc(rec(p)), Some(p));
        }
        assert_eq!(slots.taken_bits.len(), 3);
        assert_eq!(slots.records.allocated_chunks(), 1);
    }

    #[test]
    fn withdrawn_slots_are_skipped_and_hold_nothing() {
        let mut slots = SlotTable::new(3);
        slots.alloc(rec(0)).unwrap();
        slots.withdraw(0);
        slots.withdraw(0);
        slots.withdraw(1);
        assert_eq!(slots.get(0), None);
        assert_eq!(slots.taken(), 2);
        assert_eq!(slots.alloc(rec(5)), Some(2));
        assert_eq!(slots.alloc(rec(6)), None);
    }

    #[test]
    fn iter_lists_occupied_slots_in_order() {
        let mut slots = SlotTable::new(2048);
        for p in 0..1500 {
            slots.alloc(rec(p)).unwrap();
        }
        for s in 0..1499 {
            slots.free(s);
        }
        assert_eq!(slots.iter().map(|(s, _)| s).collect::<Vec<_>>(), vec![1499]);
        assert_eq!(slots.records.allocated_chunks(), 1, "emptied chunks are released");
    }
}
