//! The guest-page ⇄ disk-block association table.
//!
//! This is the reproduction's equivalent of the Swap Mapper's mmap-backed
//! mappings (`vm_area_struct`s in the paper, §4.1): for each guest frame
//! whose content is *identical to a block of the guest disk image*, the
//! table records which image page backs it, plus the reverse direction for
//! write-invalidation and refault readahead.
//!
//! The table is maintained in **all** configurations — the simulator uses
//! it to classify silent swap writes even for the baseline — but only a
//! Mapper-enabled kernel *acts* on it (discarding instead of swapping,
//! refaulting from the image).
//!
//! An association is always *clean*: the moment the guest dirties the page
//! (COW break) or the underlying image block is overwritten, the
//! association is dissolved.
//!
//! The gfn direction is a dense array over guest memory; the image-page
//! direction is a [`ChunkedTable`] over the disk image, which is far
//! larger than the part a guest ever caches. Lookups on the fault path
//! are one or two array reads with no hashing.

use vswap_mem::{ChunkedTable, Gfn};

/// Bidirectional map between guest frame numbers and image pages.
///
/// # Examples
///
/// ```
/// use vswap_hostos::OriginMap;
/// use vswap_mem::Gfn;
///
/// let mut origin = OriginMap::new(16, 1024);
/// origin.associate(Gfn::new(2), 7);
/// assert_eq!(origin.page_for_gfn(Gfn::new(2)), Some(7));
/// assert_eq!(origin.gfn_for_page(7), Some(Gfn::new(2)));
/// origin.dissociate_gfn(Gfn::new(2));
/// assert_eq!(origin.page_for_gfn(Gfn::new(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct OriginMap {
    /// `image_page + 1` per gfn; `0` = no association. The off-by-one
    /// sentinel keeps the empty map all-zero bytes.
    by_gfn: Vec<u64>,
    /// `gfn + 1` per image page; `0` = no association. Chunks of 4096
    /// entries (32 KiB) keep the directory short for this hot lookup.
    by_page: ChunkedTable<u64, 4096>,
    live: usize,
}

impl OriginMap {
    /// Creates an empty map for a guest-physical space of `gfn_count`
    /// pages over a disk image of `image_pages` pages.
    pub fn new(gfn_count: u64, image_pages: u64) -> Self {
        OriginMap {
            by_gfn: vec![0; gfn_count as usize],
            by_page: ChunkedTable::new(image_pages),
            live: 0,
        }
    }

    /// Associates `gfn` with `image_page`, dissolving any association
    /// either side previously had (a block has at most one guest page and
    /// vice versa).
    pub fn associate(&mut self, gfn: Gfn, image_page: u64) {
        self.dissociate_gfn(gfn);
        self.dissociate_page(image_page);
        self.by_gfn[gfn.index()] = image_page + 1;
        self.by_page.set(image_page, gfn.get() + 1);
        self.live += 1;
    }

    /// Removes the association of `gfn`, if any. Returns the image page it
    /// was associated with.
    pub fn dissociate_gfn(&mut self, gfn: Gfn) -> Option<u64> {
        let page = self.by_gfn[gfn.index()].checked_sub(1)?;
        self.by_gfn[gfn.index()] = 0;
        self.by_page.take(page);
        self.live -= 1;
        Some(page)
    }

    /// Removes the association of `image_page`, if any. Returns the guest
    /// frame it was associated with.
    pub fn dissociate_page(&mut self, image_page: u64) -> Option<Gfn> {
        let gfn = self.by_page.take(image_page).checked_sub(1)?;
        self.by_gfn[gfn as usize] = 0;
        self.live -= 1;
        Some(Gfn::new(gfn))
    }

    /// The image page backing `gfn`, if associated.
    pub fn page_for_gfn(&self, gfn: Gfn) -> Option<u64> {
        self.by_gfn[gfn.index()].checked_sub(1)
    }

    /// The guest frame associated with `image_page`, if any.
    pub fn gfn_for_page(&self, image_page: u64) -> Option<Gfn> {
        self.by_page.get(image_page).checked_sub(1).map(Gfn::new)
    }

    /// Number of live associations (the Mapper's tracked-page count,
    /// Figure 15).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no associations exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn association_is_bidirectional() {
        let mut o = OriginMap::new(8, 512);
        o.associate(Gfn::new(1), 100);
        assert_eq!(o.page_for_gfn(Gfn::new(1)), Some(100));
        assert_eq!(o.gfn_for_page(100), Some(Gfn::new(1)));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn reassociating_gfn_clears_old_page() {
        let mut o = OriginMap::new(8, 512);
        o.associate(Gfn::new(1), 100);
        o.associate(Gfn::new(1), 200);
        assert_eq!(o.gfn_for_page(100), None);
        assert_eq!(o.gfn_for_page(200), Some(Gfn::new(1)));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn reassociating_page_clears_old_gfn() {
        let mut o = OriginMap::new(8, 512);
        o.associate(Gfn::new(1), 100);
        o.associate(Gfn::new(2), 100);
        assert_eq!(o.page_for_gfn(Gfn::new(1)), None);
        assert_eq!(o.page_for_gfn(Gfn::new(2)), Some(100));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn dissociate_both_directions() {
        let mut o = OriginMap::new(8, 512);
        o.associate(Gfn::new(3), 300);
        assert_eq!(o.dissociate_page(300), Some(Gfn::new(3)));
        assert!(o.is_empty());
        o.associate(Gfn::new(4), 400);
        assert_eq!(o.dissociate_gfn(Gfn::new(4)), Some(400));
        assert!(o.is_empty());
        assert_eq!(o.dissociate_gfn(Gfn::new(4)), None);
        assert_eq!(o.dissociate_page(400), None);
    }
}
