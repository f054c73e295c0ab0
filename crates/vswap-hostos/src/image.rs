//! Content registry of one guest's virtual-disk image.
//!
//! The simulation does not store bytes; an [`ImageStore`] records, per image
//! page, the [`ContentLabel`] currently on disk. Guest virtual-disk writes
//! advance labels; reads return the current label; the silent-swap-write
//! counter compares a reclaimed frame's label against the image label to
//! decide whether a swap write copied unchanged data.

use vswap_mem::{ChunkedTable, ContentLabel, LabelGen};

/// Per-page content labels of a guest disk image.
///
/// # Examples
///
/// ```
/// use vswap_hostos::ImageStore;
/// use vswap_mem::LabelGen;
///
/// let mut labels = LabelGen::new();
/// let mut image = ImageStore::new(16, &mut labels);
/// let before = image.label(3);
/// let new = labels.fresh();
/// image.write(3, new);
/// assert_ne!(image.label(3), before);
/// assert_eq!(image.label(3), new);
/// ```
#[derive(Debug, Clone)]
pub struct ImageStore {
    /// First label of the contiguous block reserved for this image: an
    /// unwritten page `p` holds `base + p` implicitly, so formatting a
    /// multi-gigabyte image costs one label-block reservation instead of
    /// one `fresh()` call per page.
    base: u64,
    /// `label + 1` for written pages; `0` = never written (label derives
    /// from `base`). Off-by-one because a legitimately written label may
    /// itself be `ContentLabel::ZERO`. Chunked, so an image costs memory
    /// for the pages the guest has written, not for its size.
    written: ChunkedTable<u64>,
    writes: u64,
}

impl ImageStore {
    /// Creates an image of `pages` pages, each with distinct initial
    /// content drawn from `gen` (a freshly formatted image with data).
    pub fn new(pages: u64, gen: &mut LabelGen) -> Self {
        ImageStore {
            base: gen.fresh_block(pages).get(),
            written: ChunkedTable::new(pages),
            writes: 0,
        }
    }

    /// Size of the image in pages.
    pub fn pages(&self) -> u64 {
        self.written.capacity()
    }

    /// Returns the content currently stored at `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of bounds.
    pub fn label(&self, page: u64) -> ContentLabel {
        match self.written.get(page) {
            0 => ContentLabel::from_raw(self.base + page),
            raw => ContentLabel::from_raw(raw - 1),
        }
    }

    /// Overwrites the content at `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of bounds.
    pub fn write(&mut self, page: u64, label: ContentLabel) {
        self.written.set(page, label.get() + 1);
        self.writes += 1;
    }

    /// Number of page writes the image has absorbed.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_pages_have_distinct_content() {
        let mut gen = LabelGen::new();
        let image = ImageStore::new(8, &mut gen);
        let mut labels: Vec<ContentLabel> = (0..8).map(|p| image.label(p)).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn writes_are_observable_and_counted() {
        let mut gen = LabelGen::new();
        let mut image = ImageStore::new(4, &mut gen);
        let l = gen.fresh();
        image.write(0, l);
        image.write(0, l);
        assert_eq!(image.label(0), l);
        assert_eq!(image.writes(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut gen = LabelGen::new();
        let image = ImageStore::new(1, &mut gen);
        let _ = image.label(1);
    }
}
