//! A compact fixed-universe bitset.
//!
//! Used to represent subsets `E ⊆ Dn` of the endogenous facts (indexed by
//! their position in [`Database::endo_facts`](crate::Database::endo_facts))
//! during brute-force enumeration and Monte-Carlo sampling.
#![expect(
    clippy::indexing_slicing,
    reason = "word indexes derive from bit/64, bounded by the allocation"
)]

/// A fixed-size bitset over `0..len`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over a universe of `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A full set over a universe of `len` elements.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    /// The universe size.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Inserts `i`; returns whether it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i` is outside the universe.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of universe {}", self.len);
        let (b, o) = (i / 64, i % 64);
        let fresh = self.blocks[b] & (1 << o) == 0;
        self.blocks[b] |= 1 << o;
        fresh
    }

    /// Removes `i`; returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of universe {}", self.len);
        let (b, o) = (i / 64, i % 64);
        let present = self.blocks[b] & (1 << o) != 0;
        self.blocks[b] &= !(1 << o);
        present
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let (b, o) = (i / 64, i % 64);
        self.blocks[b] & (1 << o) != 0
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let t = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(bi * 64 + t)
                }
            })
        })
    }

    /// Loads the low 64 bits from a mask (for brute-force subset loops).
    ///
    /// # Panics
    /// Panics if the universe exceeds 64.
    pub fn assign_mask(&mut self, mask: u64) {
        assert!(self.len <= 64, "assign_mask requires universe <= 64");
        if !self.blocks.is_empty() {
            self.blocks[0] = mask;
        } else {
            debug_assert_eq!(mask, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn iter_in_order() {
        let mut s = BitSet::new(200);
        for i in [5usize, 64, 65, 199] {
            s.insert(i);
        }
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![5, 64, 65, 199]);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn assign_mask() {
        let mut s = BitSet::new(8);
        s.assign_mask(0b1010_0001);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_range_panics() {
        BitSet::new(3).insert(3);
    }
}
