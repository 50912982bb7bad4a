//! A fixed-size bitset over `u64` words, for "which of N components have
//! work" sets the per-cycle hot path walks instead of scanning all N.
//!
//! Sets of up to 128 indices keep their words inline — the per-core warp
//! sets and the crossbar's input set are read every stepped cycle, and a
//! heap hop per read is a cache miss at Volta scale — and longer ones on
//! the heap, so N is unbounded. A [`BitWalk`] visits the members in
//! ascending order at one word load per 64 indices.

use std::ops::Range;

/// A position in an ascending walk over the set bits of an index range.
///
/// The walk does not borrow what it walks: every [`BitWalk::next`] is
/// handed the word source again, so the caller is free to mutate between
/// calls — and the source can be an expression over several sets
/// (`!(a | b)`) that is never materialised. Each word is read once, when
/// the walk reaches it; later changes to bits above the last returned index
/// *in that word* are not seen. Callers here only ever change bits at or
/// below it.
#[derive(Debug)]
pub struct BitWalk {
    /// Unvisited set bits of the word at index `base / 64`.
    bits: u64,
    base: usize,
    /// First index not yet loaded into `bits`.
    next: usize,
    end: usize,
}

impl BitWalk {
    /// A walk over the indices in `range`.
    #[inline]
    pub fn over(range: Range<usize>) -> Self {
        BitWalk {
            bits: 0,
            base: 0,
            next: range.start,
            end: range.end,
        }
    }

    /// The next index whose bit is set, where `word(w)` is the 64-bit word
    /// holding indices `64 * w .. 64 * w + 64`.
    #[inline]
    pub fn next(&mut self, word: impl Fn(usize) -> u64) -> Option<usize> {
        while self.bits == 0 {
            if self.next >= self.end {
                return None;
            }
            self.base = self.next & !63;
            self.bits = word(self.base >> 6) & (!0u64 << (self.next & 63));
            self.next = self.base + 64;
            if self.next > self.end {
                self.bits &= !0u64 >> (self.next - self.end);
            }
        }
        let i = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

/// Words every set stores inline; only the words past them go to the heap.
const INLINE_WORDS: usize = 2;

/// A set of indices below a fixed length.
#[derive(Debug, Clone)]
pub struct BitSet {
    /// Words in use, inline and spilled together.
    n_words: usize,
    inline: [u64; INLINE_WORDS],
    /// Words `INLINE_WORDS..n_words`; empty (and unallocated) for sets of
    /// up to `64 * INLINE_WORDS` indices.
    spill: Vec<u64>,
}

impl BitSet {
    /// An empty set over indices `0..len`.
    pub fn new(len: usize) -> Self {
        let n_words = len.div_ceil(64);
        BitSet {
            n_words,
            inline: [0; INLINE_WORDS],
            spill: vec![0; n_words.saturating_sub(INLINE_WORDS)],
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        assert!(w < self.n_words, "bit index beyond the set's length");
        if w < INLINE_WORDS {
            &mut self.inline[w]
        } else {
            &mut self.spill[w - INLINE_WORDS]
        }
    }

    /// Adds `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        *self.word_mut(i >> 6) |= 1 << (i & 63);
    }

    /// Removes `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        *self.word_mut(i >> 6) &= !(1 << (i & 63));
    }

    /// True when `i` is in the set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.word(i >> 6) & (1 << (i & 63)) != 0
    }

    /// The word holding indices `64 * w .. 64 * w + 64`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        assert!(w < self.n_words, "bit index beyond the set's length");
        if w < INLINE_WORDS {
            self.inline[w]
        } else {
            self.spill[w - INLINE_WORDS]
        }
    }

    /// Adds the members of `bits` to the word holding indices
    /// `64 * w .. 64 * w + 64`.
    #[inline]
    pub fn or_word(&mut self, w: usize, bits: u64) {
        *self.word_mut(w) |= bits;
    }

    /// True when the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inline.iter().chain(&self.spill).all(|&w| w == 0)
    }

    /// Empties the words `words` (indices `64 * start .. 64 * end`).
    #[inline]
    pub fn zero_words(&mut self, words: Range<usize>) {
        for w in words {
            *self.word_mut(w) = 0;
        }
    }

    /// Number of indices in the set.
    pub fn count(&self) -> usize {
        let words = self.inline.iter().chain(&self.spill);
        words.map(|w| w.count_ones() as usize).sum()
    }

    /// The next member along `walk`.
    #[inline]
    pub fn next(&self, walk: &mut BitWalk) -> Option<usize> {
        walk.next(|w| self.word(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn walk_matches_a_scan_across_word_boundaries() {
        // Lengths on both sides of every word boundary and of the
        // inline/heap boundary (two words).
        let mut rng = SplitMix64::new(0xB175);
        for len in [1usize, 63, 64, 65, 128, 129, 200] {
            let mut s = BitSet::new(len);
            let mut model = vec![false; len];
            for _ in 0..len {
                let i = rng.next_below(len as u64) as usize;
                let member = rng.next_below(3) != 0;
                if member {
                    s.set(i);
                } else {
                    s.clear(i);
                }
                model[i] = member;
            }
            assert_eq!(s.count(), model.iter().filter(|&&b| b).count());
            assert_eq!(s.is_empty(), !model.contains(&true));
            for from in 0..=len {
                for to in from..=len {
                    let mut walk = BitWalk::over(from..to);
                    let walked: Vec<usize> = std::iter::from_fn(|| s.next(&mut walk)).collect();
                    let scanned: Vec<usize> = (from..to).filter(|&i| model[i]).collect();
                    assert_eq!(walked, scanned, "len {len} range {from}..{to}");
                }
            }
            for (i, &m) in model.iter().enumerate() {
                assert_eq!(s.get(i), m);
            }
            // Emptying whole words, one word range at a time.
            let n_words = len.div_ceil(64);
            for from in 0..=n_words {
                for to in from..=n_words {
                    let mut zeroed = s.clone();
                    zeroed.zero_words(from..to);
                    let kept = |i: usize| model[i] && !(from..to).contains(&(i / 64));
                    let mut walk = BitWalk::over(0..len);
                    let walked: Vec<usize> =
                        std::iter::from_fn(|| zeroed.next(&mut walk)).collect();
                    let scanned: Vec<usize> = (0..len).filter(|&i| kept(i)).collect();
                    assert_eq!(walked, scanned, "len {len} zeroed words {from}..{to}");
                    assert_eq!(zeroed.count(), scanned.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond the set's length")]
    fn an_index_past_a_short_set_is_refused() {
        // 65..128 would fit the inline words, but not this set.
        BitSet::new(64).set(64);
    }

    #[test]
    fn walk_over_an_expression_sees_changes_behind_it() {
        let (mut a, mut b) = (BitSet::new(130), BitSet::new(130));
        for i in [0, 5, 64, 129] {
            a.set(i);
        }
        for i in [5, 70, 129] {
            b.set(i);
        }
        // Neither in `a` nor in `b`, from 62 on.
        let mut walk = BitWalk::over(62..130);
        let mut seen = Vec::new();
        while let Some(i) = walk.next(|w| !(a.word(w) | b.word(w))) {
            a.set(i); // at the returned index: allowed mid-walk
            seen.push(i);
        }
        let expect: Vec<usize> = (62..129).filter(|i| ![64, 70].contains(i)).collect();
        assert_eq!(seen, expect, "bits past the range end never leak in");
    }

    #[test]
    fn zero_words_empties_whole_words_only() {
        let mut s = BitSet::new(192);
        for i in [3, 64, 100, 127, 128] {
            s.set(i);
        }
        s.zero_words(1..2);
        s.or_word(2, 0b110);
        let mut walk = BitWalk::over(0..192);
        assert_eq!(s.next(&mut walk), Some(3));
        assert_eq!(s.next(&mut walk), Some(128));
        assert_eq!(s.next(&mut walk), Some(129));
        assert_eq!(s.next(&mut walk), Some(130));
        assert_eq!(s.next(&mut walk), None);
        s.zero_words(0..3);
        assert!(s.is_empty());
    }
}
