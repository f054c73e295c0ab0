//! A two-level table for sparse per-page state.
//!
//! Many per-page tables in the model are indexed by *configured* capacity
//! — every slot of a 16 GiB swap area, every page of a 20 GiB disk image —
//! while a run only ever touches a sliver of that range. A flat
//! `vec![0; capacity]` costs memory and set-up time in proportion to the
//! capacity: the allocator only hands back lazily mapped pages while an
//! allocation stays above its mmap threshold, and glibc raises that
//! threshold dynamically as large blocks are freed, so in a long-running
//! process every later table is a full memset.
//!
//! A [`ChunkedTable`] instead costs memory in proportion to the entries in
//! use: a directory of lazily allocated fixed-size chunks, in which an
//! entry equal to `T::default()` is empty and a chunk is freed as soon as
//! its last entry clears. A lookup is two array reads; an index whose
//! chunk does not exist reads as empty.

/// One allocated chunk: `N` consecutive entries plus a live count.
#[derive(Debug, Clone)]
struct Chunk<T, const N: usize> {
    /// Entries of `entries` that are not `T::default()`.
    live: u32,
    entries: [T; N],
}

/// A sparse table of `capacity` entries stored as lazily allocated chunks
/// of `N` entries each. `T::default()` is the empty entry.
///
/// # Examples
///
/// ```
/// use vswap_mem::ChunkedTable;
///
/// let mut table: ChunkedTable<u64, 64> = ChunkedTable::new(1 << 30);
/// assert_eq!(table.get(1_000_000), 0);
/// table.set(1_000_000, 7);
/// assert_eq!(table.get(1_000_000), 7);
/// assert_eq!(table.allocated_chunks(), 1);
/// table.set(1_000_000, 0);
/// assert_eq!(table.allocated_chunks(), 0, "the chunk goes with its last entry");
/// ```
#[derive(Debug, Clone)]
pub struct ChunkedTable<T, const N: usize = 512> {
    capacity: u64,
    /// Chunk `c` covers indices `c * N .. c * N + N`. The directory grows
    /// only as far as the highest chunk ever filled.
    dir: Vec<Option<Box<Chunk<T, N>>>>,
    chunks: usize,
}

impl<T: Copy + Default + PartialEq, const N: usize> ChunkedTable<T, N> {
    /// Creates an empty table of `capacity` entries. Allocates nothing.
    pub fn new(capacity: u64) -> Self {
        ChunkedTable { capacity, dir: Vec::new(), chunks: 0 }
    }

    /// Number of addressable entries (empty or not).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Chunks currently allocated.
    pub fn allocated_chunks(&self) -> usize {
        self.chunks
    }

    /// Returns the entry at `index` (`T::default()` if empty).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of capacity.
    #[inline]
    pub fn get(&self, index: u64) -> T {
        assert!(index < self.capacity, "index {index} out of bounds ({})", self.capacity);
        match self.dir.get((index / N as u64) as usize) {
            Some(Some(chunk)) => chunk.entries[(index % N as u64) as usize],
            _ => T::default(),
        }
    }

    /// Stores `value` at `index` and returns the previous entry. Storing
    /// `T::default()` empties the entry, freeing its chunk if it was the
    /// chunk's last.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of capacity.
    pub fn set(&mut self, index: u64, value: T) -> T {
        assert!(index < self.capacity, "index {index} out of bounds ({})", self.capacity);
        let c = (index / N as u64) as usize;
        let i = (index % N as u64) as usize;
        let empty = T::default();
        if value == empty {
            let Some(Some(chunk)) = self.dir.get_mut(c) else { return empty };
            let old = std::mem::replace(&mut chunk.entries[i], empty);
            if old != empty {
                chunk.live -= 1;
                if chunk.live == 0 {
                    self.dir[c] = None;
                    self.chunks -= 1;
                }
            }
            return old;
        }
        if c >= self.dir.len() {
            self.dir.resize_with(c + 1, || None);
        }
        let chunk = self.dir[c].get_or_insert_with(|| {
            self.chunks += 1;
            Box::new(Chunk { live: 0, entries: [empty; N] })
        });
        let old = std::mem::replace(&mut chunk.entries[i], value);
        if old == empty {
            chunk.live += 1;
        }
        old
    }

    /// Empties the entry at `index`, returning what it held.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of capacity.
    pub fn take(&mut self, index: u64) -> T {
        self.set(index, T::default())
    }

    /// Number of non-empty entries. O(allocated chunks).
    pub fn occupied(&self) -> u64 {
        self.dir.iter().flatten().map(|chunk| u64::from(chunk.live)).sum()
    }

    /// Iterates the non-empty entries as `(index, entry)` in ascending
    /// index order, visiting allocated chunks only.
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.dir.iter().enumerate().flat_map(|(c, chunk)| {
            let base = (c * N) as u64;
            chunk.iter().flat_map(move |chunk| {
                chunk
                    .entries
                    .iter()
                    .enumerate()
                    .filter(|&(_, v)| *v != T::default())
                    .map(move |(i, &v)| (base + i as u64, v))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_allocates_nothing() {
        let t: ChunkedTable<u64, 8> = ChunkedTable::new(1 << 40);
        assert_eq!(t.get((1 << 40) - 1), 0);
        assert_eq!(t.allocated_chunks(), 0);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn entries_share_chunks_and_chunks_free_with_their_last_entry() {
        let mut t: ChunkedTable<u64, 8> = ChunkedTable::new(64);
        t.set(1, 10);
        t.set(7, 70);
        t.set(8, 80);
        assert_eq!(t.allocated_chunks(), 2);
        assert_eq!(t.occupied(), 3);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(1, 10), (7, 70), (8, 80)]);
        assert_eq!(t.take(7), 70);
        assert_eq!(t.allocated_chunks(), 2);
        assert_eq!(t.take(1), 10);
        assert_eq!(t.allocated_chunks(), 1);
        assert_eq!(t.set(8, 0), 80);
        assert_eq!(t.allocated_chunks(), 0);
    }

    #[test]
    fn overwriting_keeps_the_live_count() {
        let mut t: ChunkedTable<u64, 4> = ChunkedTable::new(8);
        t.set(2, 1);
        assert_eq!(t.set(2, 5), 1);
        assert_eq!(t.occupied(), 1);
        assert_eq!(t.take(2), 5);
        assert_eq!(t.take(2), 0, "clearing an empty entry is a no-op");
        assert_eq!(t.allocated_chunks(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn reads_past_capacity_panic() {
        let t: ChunkedTable<bool, 64> = ChunkedTable::new(3);
        t.get(3);
    }
}
