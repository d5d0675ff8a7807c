//! Compact bit mask recording which cells of a level are present.
//!
//! Tree-based AMR stores each cell at exactly one refinement level; the
//! positions *not* stored at a level are "empty" there. A bit per cell is
//! 64x cheaper than a `Vec<bool>` for the 1024^3-scale grids the paper
//! works with.

use crate::aabb::Aabb;

/// A fixed-length bit mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// Creates an all-zero mask of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitMask {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one mask of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut m = BitMask {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        m.clear_tail();
        m
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "i < len is asserted above and words.len() == len.div_ceil(64)"
    )]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "i < len is asserted above and words.len() == len.div_ceil(64)"
    )]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if value {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits in [0, 1].
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Iterator over indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Tight bounding box of the set bits, interpreting the mask as a
    /// `dim^3` grid (x fastest), or `None` when no bit is set. This is
    /// the box the chunked container records for whole-level payloads so
    /// ROI decoding can skip levels entirely.
    ///
    /// Scans word-wise, one `(y, z)` row at a time (a row is `dim`
    /// consecutive bits), so the cost is ~`dim^3 / 64` word operations
    /// rather than per-bit div/mod — this runs on every container
    /// serialization.
    ///
    /// # Panics
    /// Panics if `len != dim^3`.
    pub fn bounding_box(&self, dim: usize) -> Option<Aabb> {
        assert_eq!(self.len, dim * dim * dim, "mask is not a {dim}^3 grid");
        let mut lo = (usize::MAX, usize::MAX, usize::MAX);
        let mut hi = (0usize, 0usize, 0usize);
        let mut any = false;
        for z in 0..dim {
            for y in 0..dim {
                if let Some((first_x, last_x)) = self.range_of_ones(dim * (y + dim * z), dim) {
                    any = true;
                    lo = (lo.0.min(first_x), lo.1.min(y), lo.2.min(z));
                    hi = (hi.0.max(last_x), hi.1.max(y), hi.2.max(z));
                }
            }
        }
        any.then(|| Aabb::new(lo, (hi.0 + 1, hi.1 + 1, hi.2 + 1)))
    }

    /// First and last set-bit offsets within the bit range
    /// `[start, start + len)`, relative to `start`; `None` when the
    /// range is all zero. Word-wise: masks the partial words at both
    /// ends and uses trailing/leading-zero counts.
    fn range_of_ones(&self, start: usize, len: usize) -> Option<(usize, usize)> {
        debug_assert!(start + len <= self.len);
        if len == 0 {
            return None;
        }
        let (w0, w1) = (start / 64, (start + len - 1) / 64);
        let mut found: Option<(usize, usize)> = None;
        for (wi, &w) in (w0..=w1).zip(self.words.get(w0..=w1)?) {
            let mut word = w;
            if wi == w0 {
                word &= u64::MAX << (start % 64);
            }
            if wi == w1 {
                let tail = (start + len - 1) % 64;
                if tail < 63 {
                    word &= (1u64 << (tail + 1)) - 1;
                }
            }
            if word != 0 {
                let base = wi * 64;
                let first = found.map_or(base + word.trailing_zeros() as usize - start, |f| f.0);
                found = Some((first, base + 63 - word.leading_zeros() as usize - start));
            }
        }
        found
    }

    /// Zeroes any bits beyond `len` in the last word (keeps `count_ones`
    /// honest after `ones`).
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Serializes as `len: u64 LE` followed by the packed words.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses a mask written by [`BitMask::to_bytes`]; `None` on malformed
    /// input (wrong length, or set bits beyond `len`).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (len_bytes, rest) = bytes.split_first_chunk::<8>()?;
        let len = u64::from_le_bytes(*len_bytes) as usize;
        let n_words = len.div_ceil(64);
        if rest.len() != n_words.checked_mul(8)? {
            return None;
        }
        let mut words = Vec::with_capacity(n_words);
        for w in rest.chunks_exact(8) {
            words.push(u64::from_le_bytes(w.try_into().ok()?));
        }
        let mut mask = BitMask { words, len };
        // Reject streams with garbage beyond the tail rather than silently
        // miscounting.
        let tail = len % 64;
        if tail != 0 {
            if let Some(&last) = mask.words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return None;
                }
            }
        }
        mask.clear_tail();
        Some(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitMask::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 100);
        let o = BitMask::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!((o.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMask::zeros(130);
        for i in (0..130).step_by(3) {
            m.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(m.get(i), i % 3 == 0, "bit {i}");
        }
        m.set(63, false);
        m.set(64, false);
        assert!(!m.get(63) && !m.get(64));
    }

    #[test]
    fn count_matches_iteration() {
        let mut m = BitMask::zeros(777);
        let picks = [0usize, 1, 63, 64, 65, 100, 511, 776];
        for &i in &picks {
            m.set(i, true);
        }
        assert_eq!(m.count_ones(), picks.len());
        let collected: Vec<usize> = m.iter_ones().collect();
        assert_eq!(collected, picks);
    }

    #[test]
    fn ones_tail_is_clean() {
        // 70 bits: second word must only have 6 set bits.
        let m = BitMask::ones(70);
        assert_eq!(m.count_ones(), 70);
    }

    #[test]
    fn density_of_half() {
        let mut m = BitMask::zeros(1000);
        for i in 0..500 {
            m.set(i * 2, true);
        }
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitMask::zeros(8).get(8);
    }

    #[test]
    fn bounding_box_is_tight() {
        let dim = 4;
        let mut m = BitMask::zeros(dim * dim * dim);
        assert!(m.bounding_box(dim).is_none());
        // Set (1,2,0) and (3,0,2).
        m.set(1 + dim * 2, true);
        m.set(3 + dim * dim * 2, true);
        let b = m.bounding_box(dim).unwrap();
        assert_eq!(b, Aabb::new((1, 0, 0), (4, 3, 3)));
        let full = BitMask::ones(dim * dim * dim);
        assert_eq!(full.bounding_box(dim).unwrap(), Aabb::whole(dim));
    }

    #[test]
    fn bounding_box_matches_brute_force_on_random_masks() {
        // Exercises rows smaller than a word (dim 4), word-aligned rows
        // (dim 8 on word boundaries), and multi-word rows (dim 128 won't
        // fit here, dim 16 rows span word boundaries at odd offsets).
        for dim in [2usize, 4, 8, 16] {
            for seed in 0u64..8 {
                let n = dim * dim * dim;
                let mut m = BitMask::zeros(n);
                let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for i in 0..n {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 7 == 0 {
                        m.set(i, true);
                    }
                }
                // Brute force with per-bit coordinates.
                let mut lo = (usize::MAX, usize::MAX, usize::MAX);
                let mut hi = (0usize, 0usize, 0usize);
                let mut any = false;
                for i in m.iter_ones() {
                    let (x, y, z) = (i % dim, (i / dim) % dim, i / (dim * dim));
                    lo = (lo.0.min(x), lo.1.min(y), lo.2.min(z));
                    hi = (hi.0.max(x), hi.1.max(y), hi.2.max(z));
                    any = true;
                }
                let expect = any.then(|| Aabb::new(lo, (hi.0 + 1, hi.1 + 1, hi.2 + 1)));
                assert_eq!(m.bounding_box(dim), expect, "dim {dim} seed {seed}");
            }
        }
    }

    #[test]
    fn byte_serialization_roundtrip() {
        let mut m = BitMask::zeros(100);
        for i in [0usize, 5, 63, 64, 99] {
            m.set(i, true);
        }
        let bytes = m.to_bytes();
        let back = BitMask::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BitMask::from_bytes(&[]).is_none());
        assert!(BitMask::from_bytes(&[1, 2, 3]).is_none());
        // Declares 4 bits but ships 2 words.
        let mut bad = 4u64.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 16]);
        assert!(BitMask::from_bytes(&bad).is_none());
        // Tail bits set beyond len.
        let mut bad = 4u64.to_le_bytes().to_vec();
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(BitMask::from_bytes(&bad).is_none());
    }
}
