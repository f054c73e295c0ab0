//! The per-VM GPA⇒HPA translation table (hardware-assisted "EPT").
//!
//! The lower level of Figure 1 in the paper: the host controls it, and a
//! non-present entry delivers an EPT-violation fault to the host when the
//! guest touches the page. In this model a non-present entry also remembers
//! *where the evicted content lives* — the host swap area for baseline
//! uncooperative swapping, or a disk-image block for pages the Swap Mapper
//! turned into named pages (whose mapping is discarded rather than swapped).

use crate::addr::Gfn;
use crate::frame::FrameId;

/// Where the content of a non-present guest page can be recovered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backing {
    /// Never materialized: a fault yields a zero-filled page.
    None,
    /// Swapped out to the given host swap-area slot.
    SwapSlot(u64),
    /// Named page discarded by the Mapper; content is page `image_page` of
    /// the VM's disk image.
    ImagePage(u64),
}

/// One GPA⇒HPA entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EptEntry {
    /// The guest page is resident in the given host frame.
    Present {
        /// Backing host frame.
        frame: FrameId,
    },
    /// The guest page is not resident; accessing it faults to the host.
    NotPresent {
        /// Where the content can be recovered from.
        backing: Backing,
    },
}

// Packed entry encoding: the low two bits are the kind, the rest the
// frame, slot or image page. `0` is "not present, never materialized", so
// a new table is all-zero bytes and `Ept::new` is one zeroed allocation.
const TAG_NONE: u64 = 0;
const TAG_PRESENT: u64 = 1;
const TAG_SWAP_SLOT: u64 = 2;
const TAG_IMAGE_PAGE: u64 = 3;
const TAG_BITS: u64 = 0x3;
const VALUE_SHIFT: u32 = 2;

fn pack(entry: EptEntry) -> u64 {
    let (tag, value) = match entry {
        EptEntry::Present { frame } => (TAG_PRESENT, u64::from(frame.get())),
        EptEntry::NotPresent { backing: Backing::None } => return TAG_NONE,
        EptEntry::NotPresent { backing: Backing::SwapSlot(slot) } => (TAG_SWAP_SLOT, slot),
        EptEntry::NotPresent { backing: Backing::ImagePage(page) } => (TAG_IMAGE_PAGE, page),
    };
    assert!(value < 1 << (64 - VALUE_SHIFT), "EPT value out of packed range");
    tag | (value << VALUE_SHIFT)
}

fn unpack(bits: u64) -> EptEntry {
    let value = bits >> VALUE_SHIFT;
    match bits & TAG_BITS {
        TAG_PRESENT => EptEntry::Present { frame: FrameId::new(value as u32) },
        TAG_SWAP_SLOT => EptEntry::NotPresent { backing: Backing::SwapSlot(value) },
        TAG_IMAGE_PAGE => EptEntry::NotPresent { backing: Backing::ImagePage(value) },
        _ => EptEntry::NotPresent { backing: Backing::None },
    }
}

/// A VM's guest-physical address space mapping.
///
/// # Examples
///
/// ```
/// use vswap_mem::{Backing, Ept, FrameId, Gfn};
///
/// let mut ept = Ept::new(16);
/// let gfn = Gfn::new(3);
/// assert_eq!(ept.translate(gfn), None);
/// ept.map(gfn, FrameId::new(7));
/// assert_eq!(ept.translate(gfn), Some(FrameId::new(7)));
/// let frame = ept.unmap(gfn, Backing::SwapSlot(12));
/// assert_eq!(frame, FrameId::new(7));
/// assert_eq!(ept.backing(gfn), Some(Backing::SwapSlot(12)));
/// ```
#[derive(Debug, Clone)]
pub struct Ept {
    /// One packed [`EptEntry`] per gfn.
    entries: Vec<u64>,
    resident: u64,
}

impl Ept {
    /// Creates a table for a guest-physical space of `gfn_count` pages,
    /// all initially non-present with no backing.
    pub fn new(gfn_count: u64) -> Self {
        Ept { entries: vec![TAG_NONE; gfn_count as usize], resident: 0 }
    }

    /// Size of the guest-physical space in pages.
    pub fn gfn_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Number of currently resident (present) guest pages.
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Returns the entry for `gfn`.
    ///
    /// # Panics
    ///
    /// Panics if `gfn` is out of range.
    pub fn entry(&self, gfn: Gfn) -> EptEntry {
        unpack(self.entries[gfn.index()])
    }

    /// Returns the backing frame if the page is present.
    pub fn translate(&self, gfn: Gfn) -> Option<FrameId> {
        match self.entry(gfn) {
            EptEntry::Present { frame } => Some(frame),
            EptEntry::NotPresent { .. } => None,
        }
    }

    /// Returns the backing location if the page is *not* present.
    pub fn backing(&self, gfn: Gfn) -> Option<Backing> {
        match self.entry(gfn) {
            EptEntry::Present { .. } => None,
            EptEntry::NotPresent { backing } => Some(backing),
        }
    }

    /// Maps `gfn` to a host frame, making it present.
    ///
    /// # Panics
    ///
    /// Panics if the page is already present (unmap first).
    pub fn map(&mut self, gfn: Gfn, frame: FrameId) {
        assert!(self.translate(gfn).is_none(), "mapping an already-present gfn {gfn}");
        self.entries[gfn.index()] = pack(EptEntry::Present { frame });
        self.resident += 1;
    }

    /// Unmaps a present page, recording where its content now lives, and
    /// returns the frame that backed it.
    ///
    /// # Panics
    ///
    /// Panics if the page is not present.
    pub fn unmap(&mut self, gfn: Gfn, backing: Backing) -> FrameId {
        let frame =
            self.translate(gfn).unwrap_or_else(|| panic!("unmapping a non-present gfn {gfn}"));
        self.entries[gfn.index()] = pack(EptEntry::NotPresent { backing });
        self.resident -= 1;
        frame
    }

    /// Rewrites the backing of a non-present page (e.g. the Mapper
    /// invalidates a stale image association when the guest overwrites the
    /// underlying disk blocks).
    ///
    /// # Panics
    ///
    /// Panics if the page is present.
    pub fn set_backing(&mut self, gfn: Gfn, backing: Backing) {
        assert!(self.translate(gfn).is_none(), "cannot set backing of present gfn {gfn}");
        self.entries[gfn.index()] = pack(EptEntry::NotPresent { backing });
    }

    /// Iterates over present pages as `(gfn, frame)`.
    pub fn iter_present(&self) -> impl Iterator<Item = (Gfn, FrameId)> + '_ {
        self.entries.iter().enumerate().filter_map(|(i, &bits)| match unpack(bits) {
            EptEntry::Present { frame } => Some((Gfn::new(i as u64), frame)),
            EptEntry::NotPresent { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_non_present() {
        let ept = Ept::new(8);
        assert_eq!(ept.resident_pages(), 0);
        for i in 0..8 {
            assert_eq!(ept.backing(Gfn::new(i)), Some(Backing::None));
        }
    }

    #[test]
    fn map_unmap_cycle_tracks_residency() {
        let mut ept = Ept::new(4);
        ept.map(Gfn::new(0), FrameId::new(10));
        ept.map(Gfn::new(1), FrameId::new(11));
        assert_eq!(ept.resident_pages(), 2);
        let f = ept.unmap(Gfn::new(0), Backing::SwapSlot(5));
        assert_eq!(f, FrameId::new(10));
        assert_eq!(ept.resident_pages(), 1);
        assert_eq!(ept.backing(Gfn::new(0)), Some(Backing::SwapSlot(5)));
        assert_eq!(ept.translate(Gfn::new(1)), Some(FrameId::new(11)));
    }

    #[test]
    fn set_backing_rewrites_eviction_record() {
        let mut ept = Ept::new(2);
        ept.map(Gfn::new(0), FrameId::new(1));
        ept.unmap(Gfn::new(0), Backing::ImagePage(42));
        ept.set_backing(Gfn::new(0), Backing::None);
        assert_eq!(ept.backing(Gfn::new(0)), Some(Backing::None));
    }

    #[test]
    fn iter_present_lists_only_mapped() {
        let mut ept = Ept::new(4);
        ept.map(Gfn::new(1), FrameId::new(100));
        ept.map(Gfn::new(3), FrameId::new(101));
        let present: Vec<(Gfn, FrameId)> = ept.iter_present().collect();
        assert_eq!(
            present,
            vec![(Gfn::new(1), FrameId::new(100)), (Gfn::new(3), FrameId::new(101))]
        );
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_map_panics() {
        let mut ept = Ept::new(1);
        ept.map(Gfn::new(0), FrameId::new(0));
        ept.map(Gfn::new(0), FrameId::new(1));
    }

    #[test]
    #[should_panic(expected = "non-present")]
    fn unmap_non_present_panics() {
        let mut ept = Ept::new(1);
        ept.unmap(Gfn::new(0), Backing::None);
    }
}

#[cfg(test)]
mod backing_tests {
    use super::*;

    #[test]
    fn all_backing_variants_round_trip() {
        let mut ept = Ept::new(4);
        for (i, backing) in
            [Backing::None, Backing::SwapSlot(9), Backing::ImagePage(42)].into_iter().enumerate()
        {
            let gfn = Gfn::new(i as u64);
            ept.map(gfn, FrameId::new(i as u32));
            ept.unmap(gfn, backing);
            assert_eq!(ept.backing(gfn), Some(backing));
            assert_eq!(ept.entry(gfn), EptEntry::NotPresent { backing });
        }
    }

    #[test]
    fn gfn_count_is_fixed() {
        let ept = Ept::new(17);
        assert_eq!(ept.gfn_count(), 17);
    }
}
