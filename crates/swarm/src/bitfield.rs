//! Piece bitfields: which of the file's fragments a peer holds.
//!
//! Backed by `u64` words so interest checks and piece selection work
//! word-at-a-time (the per-piece loops are the hottest paths in the swarm).
//! Files up to `INLINE_WORDS * 64` pieces — every bench preset and all
//! but the paper's full-scale 15259-fragment file — keep their words inline
//! in the struct, so a swarm of a thousand peers holds its bitfields in two
//! flat `Vec<Peer>` cache runs instead of two thousand 16-byte heap islands
//! chased once per HAVE announcement.

/// Word capacity kept inline before spilling to the heap (256 pieces).
const INLINE_WORDS: usize = 4;

#[derive(Debug, Clone)]
enum Store {
    /// Words live in the struct; entries at `nwords..` stay zero so sliced
    /// views never see ghost pieces.
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A fixed-length bitfield over piece indices `0..len`.
#[derive(Debug, Clone)]
pub struct Bitfield {
    store: Store,
    len: u32,
    ones: u32,
}

impl PartialEq for Bitfield {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.ones == other.ones && self.words() == other.words()
    }
}

impl Eq for Bitfield {}

impl Bitfield {
    #[inline]
    fn nwords(len: u32) -> usize {
        (len as usize).div_ceil(64)
    }

    fn with_words(len: u32, fill: impl Fn(usize) -> u64) -> Self {
        let n = Self::nwords(len);
        let (store, ones) = if n <= INLINE_WORDS {
            let mut a = [0u64; INLINE_WORDS];
            for (i, slot) in a[..n].iter_mut().enumerate() {
                *slot = fill(i);
            }
            let ones = a.iter().map(|w| w.count_ones()).sum();
            (Store::Inline(a), ones)
        } else {
            let v: Vec<u64> = (0..n).map(fill).collect();
            let ones = v.iter().map(|w| w.count_ones()).sum();
            (Store::Heap(v), ones)
        };
        Bitfield { store, len, ones }
    }

    /// An all-zero bitfield for `len` pieces.
    pub fn empty(len: u32) -> Self {
        Self::with_words(len, |_| 0)
    }

    /// An all-one bitfield for `len` pieces (a seed's bitfield).
    pub fn full(len: u32) -> Self {
        let n = Self::nwords(len);
        let tail = len as usize % 64;
        Self::with_words(len, |i| {
            if i + 1 == n && tail != 0 {
                // Keep the padding bits past `len` clear.
                (1u64 << tail) - 1
            } else {
                u64::MAX
            }
        })
    }

    /// Number of pieces this bitfield covers.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the bitfield covers zero pieces.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (pieces held).
    #[inline]
    pub fn count(&self) -> u32 {
        self.ones
    }

    /// True when every piece is held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ones == self.len
    }

    /// Whether piece `i` is held.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = match &self.store {
            Store::Inline(a) => a[(i / 64) as usize],
            Store::Heap(v) => v[(i / 64) as usize],
        };
        (w >> (i % 64)) & 1 == 1
    }

    #[inline]
    fn word_mut(&mut self, wi: usize) -> &mut u64 {
        debug_assert!(wi < Self::nwords(self.len));
        match &mut self.store {
            Store::Inline(a) => &mut a[wi],
            Store::Heap(v) => &mut v[wi],
        }
    }

    /// Sets piece `i`; returns `true` if it was newly set.
    #[inline]
    pub fn set(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = self.word_mut((i / 64) as usize);
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Clears piece `i`; returns `true` if it was previously set.
    #[inline]
    pub fn clear(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = self.word_mut((i / 64) as usize);
        let mask = 1u64 << (i % 64);
        if *w & mask != 0 {
            *w &= !mask;
            self.ones -= 1;
            true
        } else {
            false
        }
    }

    /// The raw words (little-endian bit order within each word).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.store {
            Store::Inline(a) => &a[..Self::nwords(self.len)],
            Store::Heap(v) => v,
        }
    }

    /// Number of backing words.
    #[inline]
    pub fn num_words(&self) -> usize {
        Self::nwords(self.len)
    }

    /// True if `other` holds at least one piece this bitfield lacks —
    /// i.e. whether a peer with bitfield `self` is *interested* in `other`.
    pub fn is_interested_in(&self, other: &Bitfield) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words().iter().zip(other.words()).any(|(mine, theirs)| theirs & !mine != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = Bitfield::empty(130);
        assert_eq!(e.count(), 0);
        assert!(!e.is_full());
        assert_eq!(e.num_words(), 3);
        let f = Bitfield::full(130);
        assert_eq!(f.count(), 130);
        assert!(f.is_full());
        for i in 0..130 {
            assert!(!e.get(i));
            assert!(f.get(i));
        }
        // Padding bits must be clear so word-level ops see no ghost pieces.
        assert_eq!(f.words()[2].count_ones(), 2);
    }

    #[test]
    fn set_clear_count() {
        let mut b = Bitfield::empty(100);
        assert!(b.set(3));
        assert!(!b.set(3));
        assert!(b.set(99));
        assert_eq!(b.count(), 2);
        assert!(b.get(3) && b.get(99));
        assert!(b.clear(3));
        assert!(!b.clear(3));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn full_becomes_full_by_setting() {
        let mut b = Bitfield::empty(65);
        for i in 0..65 {
            b.set(i);
        }
        assert!(b.is_full());
        assert_eq!(b, Bitfield::full(65));
    }

    #[test]
    fn interest_semantics() {
        let mut mine = Bitfield::empty(64);
        let mut theirs = Bitfield::empty(64);
        assert!(!mine.is_interested_in(&theirs));
        theirs.set(10);
        assert!(mine.is_interested_in(&theirs));
        mine.set(10);
        assert!(!mine.is_interested_in(&theirs));
        // Holding extra pieces doesn't create interest.
        mine.set(11);
        assert!(!mine.is_interested_in(&theirs));
        assert!(theirs.is_interested_in(&mine));
    }

    #[test]
    fn zero_length() {
        let b = Bitfield::empty(0);
        assert!(b.is_full(), "vacuously full");
        let f = Bitfield::full(0);
        assert_eq!(f.num_words(), 0);
    }
}
