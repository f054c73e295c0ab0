//! An intrusive doubly-linked list over dense indices.
//!
//! LRU reclamation in both the guest and host kernels needs queues over
//! frames/pages that support O(1) *removal from the middle* (a page gets
//! touched and must be requeued, or gets freed while sitting on the inactive
//! list). With up to millions of frames, `VecDeque::retain` would be far too
//! slow, so — like the kernels being modelled — we use intrusive links
//! stored in a side table indexed by the element number.

/// An intrusive FIFO list over elements identified by dense `usize` indices
/// in `[0, capacity)`.
///
/// Each element can be on the list at most once; membership is tracked
/// internally. All operations are O(1).
///
/// # Examples
///
/// ```
/// use vswap_mem::IndexList;
///
/// let mut lru = IndexList::with_capacity(8);
/// lru.push_back(3);
/// lru.push_back(5);
/// lru.remove(3);
/// assert_eq!(lru.pop_front(), Some(5));
/// assert!(lru.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct IndexList {
    links: LinkTable,
    head: Option<u32>,
    tail: Option<u32>,
    len: usize,
}

/// Dense link storage. The neighbours of element `i` are packed into one
/// `u64` word — `prev + 1` in the low half, `next + 1` in the high half,
/// with `0` meaning "none" — and list membership lives in a separate
/// bitmap. The idle state of every element is all-zero bytes, so growing
/// the table (see [`ListArena::grow`]) is a zero fill of the new tail.
#[derive(Debug, Clone)]
struct LinkTable {
    words: Vec<u64>,
    on_bits: Vec<u64>,
}

impl LinkTable {
    fn with_capacity(capacity: usize) -> Self {
        LinkTable { words: vec![0; capacity], on_bits: vec![0; capacity.div_ceil(64)] }
    }

    fn capacity(&self) -> usize {
        self.words.len()
    }

    fn grow(&mut self, new_capacity: usize) {
        if new_capacity > self.words.len() {
            self.words.resize(new_capacity, 0);
            self.on_bits.resize(new_capacity.div_ceil(64), 0);
        }
    }

    fn on_list(&self, index: usize) -> bool {
        self.on_bits[index / 64] & (1u64 << (index % 64)) != 0
    }

    fn set_on_list(&mut self, index: usize, on: bool) {
        let mask = 1u64 << (index % 64);
        if on {
            self.on_bits[index / 64] |= mask;
        } else {
            self.on_bits[index / 64] &= !mask;
        }
    }

    fn prev(&self, index: usize) -> Option<u32> {
        let p = self.words[index] as u32;
        p.checked_sub(1)
    }

    fn next(&self, index: usize) -> Option<u32> {
        let n = (self.words[index] >> 32) as u32;
        n.checked_sub(1)
    }

    fn set_prev(&mut self, index: usize, prev: Option<u32>) {
        let p = prev.map_or(0, |v| u64::from(v) + 1);
        self.words[index] = (self.words[index] & !0xFFFF_FFFF) | p;
    }

    fn set_next(&mut self, index: usize, next: Option<u32>) {
        let n = next.map_or(0, |v| u64::from(v) + 1);
        self.words[index] = (self.words[index] & 0xFFFF_FFFF) | (n << 32);
    }

    fn link(&mut self, index: usize, prev: Option<u32>, next: Option<u32>) {
        let p = prev.map_or(0, |v| u64::from(v) + 1);
        let n = next.map_or(0, |v| u64::from(v) + 1);
        self.words[index] = p | (n << 32);
        self.set_on_list(index, true);
    }

    fn clear(&mut self, index: usize) {
        self.words[index] = 0;
        self.set_on_list(index, false);
    }
}

impl IndexList {
    /// Creates an empty list able to hold indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        IndexList { links: LinkTable::with_capacity(capacity), head: None, tail: None, len: 0 }
    }

    /// Number of elements currently on the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity (one more than the largest admissible index).
    pub fn capacity(&self) -> usize {
        self.links.capacity()
    }

    /// Grows the capacity to hold indices `0..new_capacity` (no-op if
    /// already large enough).
    pub fn grow(&mut self, new_capacity: usize) {
        self.links.grow(new_capacity);
    }

    /// True if `index` is currently on the list.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of capacity.
    pub fn contains(&self, index: usize) -> bool {
        self.links.on_list(index)
    }

    /// Appends `index` at the back (the "most recently added" end).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of capacity or already on the list.
    pub fn push_back(&mut self, index: usize) {
        assert!(!self.links.on_list(index), "index {index} already on list");
        let idx = index as u32;
        self.links.link(index, self.tail, None);
        match self.tail {
            Some(t) => self.links.set_next(t as usize, Some(idx)),
            None => self.head = Some(idx),
        }
        self.tail = Some(idx);
        self.len += 1;
    }

    /// Prepends `index` at the front (the "next victim" end).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of capacity or already on the list.
    pub fn push_front(&mut self, index: usize) {
        assert!(!self.links.on_list(index), "index {index} already on list");
        let idx = index as u32;
        self.links.link(index, None, self.head);
        match self.head {
            Some(h) => self.links.set_prev(h as usize, Some(idx)),
            None => self.tail = Some(idx),
        }
        self.head = Some(idx);
        self.len += 1;
    }

    /// Returns the front element without removing it.
    pub fn front(&self) -> Option<usize> {
        self.head.map(|h| h as usize)
    }

    /// Removes and returns the front element.
    pub fn pop_front(&mut self) -> Option<usize> {
        let h = self.head?;
        self.remove(h as usize);
        Some(h as usize)
    }

    /// Removes `index` from wherever it sits on the list. Returns `true`
    /// if the element was on the list.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of capacity.
    pub fn remove(&mut self, index: usize) -> bool {
        if !self.links.on_list(index) {
            return false;
        }
        let prev = self.links.prev(index);
        let next = self.links.next(index);
        match prev {
            Some(p) => self.links.set_next(p as usize, next),
            None => self.head = next,
        }
        match next {
            Some(n) => self.links.set_prev(n as usize, prev),
            None => self.tail = prev,
        }
        self.links.clear(index);
        self.len -= 1;
        true
    }

    /// Moves `index` to the back (e.g. "page was referenced; give it a
    /// second chance"). If not on the list, pushes it.
    pub fn move_to_back(&mut self, index: usize) {
        self.remove(index);
        self.push_back(index);
    }

    /// Iterates front-to-back without removing elements.
    pub fn iter(&self) -> Iter<'_> {
        Iter { links: &self.links, cursor: self.head }
    }
}

/// Front-to-back iterator over an [`IndexList`]; see [`IndexList::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    links: &'a LinkTable,
    cursor: Option<u32>,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let c = self.cursor?;
        self.cursor = self.links.next(c as usize);
        Some(c as usize)
    }
}

/// Shared link storage for many lists over one dense index space.
///
/// A host frame sits on exactly one LRU list at a time (its owning VM's
/// anonymous or named list), so all lists can share a single links table —
/// [`ListArena`] — with each list identified by a lightweight [`ListHead`].
/// The caller is responsible for pairing each element with the head of the
/// list it currently belongs to.
///
/// # Examples
///
/// ```
/// use vswap_mem::ilist::{ListArena, ListHead};
///
/// let mut arena = ListArena::with_capacity(16);
/// let mut a = ListHead::new();
/// let mut b = ListHead::new();
/// arena.push_back(&mut a, 1);
/// arena.push_back(&mut b, 2);
/// assert_eq!(arena.pop_front(&mut a), Some(1));
/// assert_eq!(arena.pop_front(&mut b), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct ListArena {
    links: LinkTable,
}

/// Head/tail/len of one list living in a [`ListArena`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ListHead {
    head: Option<u32>,
    tail: Option<u32>,
    len: usize,
}

impl ListHead {
    /// Creates an empty list head.
    pub fn new() -> Self {
        ListHead::default()
    }

    /// Number of elements on this list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Front element (next victim), if any.
    pub fn front(&self) -> Option<usize> {
        self.head.map(|h| h as usize)
    }
}

impl ListArena {
    /// Creates link storage for indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        ListArena { links: LinkTable::with_capacity(capacity) }
    }

    /// Capacity (one more than the largest admissible index).
    pub fn capacity(&self) -> usize {
        self.links.capacity()
    }

    /// Grows the capacity to hold indices `0..new_capacity` (no-op if
    /// already large enough). Owners of a growing index space — the host
    /// frame table — grow the arena with it instead of sizing it for the
    /// whole space up front.
    pub fn grow(&mut self, new_capacity: usize) {
        self.links.grow(new_capacity);
    }

    /// True if `index` is on *some* list in this arena.
    pub fn on_any_list(&self, index: usize) -> bool {
        self.links.on_list(index)
    }

    /// Appends `index` at the back of the list identified by `head`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is already on a list in this arena.
    pub fn push_back(&mut self, head: &mut ListHead, index: usize) {
        assert!(!self.links.on_list(index), "index {index} already on a list");
        let idx = index as u32;
        self.links.link(index, head.tail, None);
        match head.tail {
            Some(t) => self.links.set_next(t as usize, Some(idx)),
            None => head.head = Some(idx),
        }
        head.tail = Some(idx);
        head.len += 1;
    }

    /// Removes `index` from the list identified by `head`.
    ///
    /// The caller must pass the head of the list the element is actually
    /// on; list membership across heads is not checked (only arena-level
    /// membership is). Returns `true` if the element was on a list.
    pub fn remove(&mut self, head: &mut ListHead, index: usize) -> bool {
        if !self.links.on_list(index) {
            return false;
        }
        let prev = self.links.prev(index);
        let next = self.links.next(index);
        match prev {
            Some(p) => self.links.set_next(p as usize, next),
            None => head.head = next,
        }
        match next {
            Some(n) => self.links.set_prev(n as usize, prev),
            None => head.tail = prev,
        }
        self.links.clear(index);
        head.len -= 1;
        true
    }

    /// Removes and returns the front element of the list.
    pub fn pop_front(&mut self, head: &mut ListHead) -> Option<usize> {
        let h = head.head?;
        self.remove(head, h as usize);
        Some(h as usize)
    }

    /// Moves `index` to the back of the list it is on (second chance).
    pub fn move_to_back(&mut self, head: &mut ListHead, index: usize) {
        self.remove(head, index);
        self.push_back(head, index);
    }

    /// Iterates one list front-to-back.
    pub fn iter<'a>(&'a self, head: &ListHead) -> ArenaIter<'a> {
        ArenaIter { links: &self.links, cursor: head.head }
    }
}

/// Front-to-back iterator over one arena list; see [`ListArena::iter`].
#[derive(Debug)]
pub struct ArenaIter<'a> {
    links: &'a LinkTable,
    cursor: Option<u32>,
}

impl Iterator for ArenaIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let c = self.cursor?;
        self.cursor = self.links.next(c as usize);
        Some(c as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut l = IndexList::with_capacity(10);
        for i in [2, 4, 6] {
            l.push_back(i);
        }
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![2, 4, 6]);
        assert_eq!(l.pop_front(), Some(2));
        assert_eq!(l.pop_front(), Some(4));
        assert_eq!(l.pop_front(), Some(6));
        assert_eq!(l.pop_front(), None);
    }

    #[test]
    fn middle_removal_relinks() {
        let mut l = IndexList::with_capacity(10);
        for i in 0..5 {
            l.push_back(i);
        }
        assert!(l.remove(2));
        assert!(!l.remove(2));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![0, 1, 3, 4]);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn move_to_back_requeues() {
        let mut l = IndexList::with_capacity(4);
        l.push_back(0);
        l.push_back(1);
        l.push_back(2);
        l.move_to_back(0);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 2, 0]);
        // Works for non-members too.
        l.move_to_back(3);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 2, 0, 3]);
    }

    #[test]
    fn push_front_becomes_next_victim() {
        let mut l = IndexList::with_capacity(4);
        l.push_back(1);
        l.push_front(2);
        assert_eq!(l.front(), Some(2));
        assert_eq!(l.pop_front(), Some(2));
        assert_eq!(l.pop_front(), Some(1));
    }

    #[test]
    fn grow_preserves_contents() {
        let mut l = IndexList::with_capacity(2);
        l.push_back(0);
        l.push_back(1);
        l.grow(10);
        l.push_back(9);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![0, 1, 9]);
    }

    #[test]
    #[should_panic(expected = "already on list")]
    fn double_insert_panics() {
        let mut l = IndexList::with_capacity(2);
        l.push_back(0);
        l.push_back(0);
    }

    #[test]
    fn arena_lists_are_independent() {
        let mut arena = ListArena::with_capacity(8);
        let mut a = ListHead::new();
        let mut b = ListHead::new();
        arena.push_back(&mut a, 0);
        arena.push_back(&mut a, 1);
        arena.push_back(&mut b, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(arena.iter(&a).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(arena.iter(&b).collect::<Vec<_>>(), vec![2]);
        assert!(arena.remove(&mut a, 0));
        assert_eq!(a.front(), Some(1));
        assert!(arena.on_any_list(2));
        assert!(!arena.on_any_list(0));
    }

    #[test]
    fn arena_element_moves_between_lists() {
        let mut arena = ListArena::with_capacity(4);
        let mut named = ListHead::new();
        let mut anon = ListHead::new();
        arena.push_back(&mut named, 3);
        arena.remove(&mut named, 3);
        arena.push_back(&mut anon, 3);
        assert!(named.is_empty());
        assert_eq!(anon.len(), 1);
        assert_eq!(arena.pop_front(&mut anon), Some(3));
    }

    #[test]
    fn arena_move_to_back_requeues() {
        let mut arena = ListArena::with_capacity(4);
        let mut l = ListHead::new();
        arena.push_back(&mut l, 0);
        arena.push_back(&mut l, 1);
        arena.move_to_back(&mut l, 0);
        assert_eq!(arena.iter(&l).collect::<Vec<_>>(), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "already on a list")]
    fn arena_double_insert_panics() {
        let mut arena = ListArena::with_capacity(2);
        let mut a = ListHead::new();
        let mut b = ListHead::new();
        arena.push_back(&mut a, 0);
        arena.push_back(&mut b, 0);
    }

    #[test]
    fn single_element_edge_cases() {
        let mut l = IndexList::with_capacity(1);
        l.push_back(0);
        assert!(l.contains(0));
        assert_eq!(l.len(), 1);
        assert!(l.remove(0));
        assert!(l.is_empty());
        assert_eq!(l.front(), None);
        // Reinsert after removal works.
        l.push_front(0);
        assert_eq!(l.front(), Some(0));
    }
}
