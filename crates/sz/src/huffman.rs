//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ entropy-codes the quantization codes with a custom Huffman stage;
//! this module reproduces that: build a code from symbol frequencies,
//! serialize only the `(symbol, code length)` table, and reconstruct the
//! canonical code on the decode side.

#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

use crate::bitstream::{BitReader, BitWriter};
use crate::error::SzError;
use crate::wire::ByteReader;
use std::collections::BinaryHeap;

/// Maximum accepted code length. With < 2^32 samples the Huffman depth is
/// bounded well below this; the cap protects the decoder against crafted
/// tables.
const MAX_CODE_LEN: u8 = 64;

/// A built Huffman code: canonical `(code, length)` per distinct symbol.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// Sorted distinct symbols.
    symbols: Vec<u32>,
    /// Code length per symbol (parallel to `symbols`).
    lengths: Vec<u8>,
    /// Canonical codewords (parallel to `symbols`).
    codes: Vec<u64>,
}

impl HuffmanCode {
    /// Builds a code from the frequencies of `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty (callers guard this).
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "encoder over in-memory input; `i` and `j` stay below sorted.len() by the loop guards."
    )]
    pub fn from_symbols(data: &[u32]) -> Self {
        assert!(!data.is_empty(), "cannot build a Huffman code from nothing");
        // Frequency map. Symbols are quantization codes, usually tightly
        // clustered around the mid value; a sorted Vec keeps this simple.
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        let mut symbols = Vec::new();
        let mut freqs: Vec<u64> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let s = sorted[i];
            let mut j = i;
            while j < sorted.len() && sorted[j] == s {
                j += 1;
            }
            symbols.push(s);
            freqs.push((j - i) as u64);
            i = j;
        }
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        HuffmanCode {
            symbols,
            lengths,
            codes,
        }
    }

    /// Number of distinct symbols.
    pub fn num_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// Encodes `data` into `writer`.
    ///
    /// # Panics
    /// Panics if a symbol was not present when the code was built.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "encoder-side: callers encode the same data the table was built from, so lookup succeeds and idx < symbols.len() = codes.len() = lengths.len()."
    )]
    pub fn encode(&self, data: &[u32], writer: &mut BitWriter) {
        for &s in data {
            let idx = self
                .symbols
                .binary_search(&s)
                .expect("symbol not in Huffman table");
            writer.write_bits(self.codes[idx], self.lengths[idx]);
        }
    }

    /// Serializes the `(symbol, length)` table.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "encoder-side: distinct symbols come from one in-memory block, far below u32::MAX."
    )]
    pub fn serialize_table(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        for (&s, &l) in self.symbols.iter().zip(&self.lengths) {
            out.extend_from_slice(&s.to_le_bytes());
            out.push(l);
        }
    }

    /// Size in bytes of the serialized table.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "encoder-side accounting over an in-memory table; 5 bytes per symbol cannot overflow usize."
    )]
    pub fn table_size(&self) -> usize {
        4 + self.symbols.len() * 5
    }

    /// Deserializes a table written by [`HuffmanCode::serialize_table`].
    /// Returns the code and the number of bytes consumed.
    pub fn deserialize_table(bytes: &[u8]) -> Result<(Self, usize), SzError> {
        let mut r = ByteReader::new(bytes);
        let n = r
            .get_u32()
            .map_err(|_| SzError::Corrupt("huffman table header truncated".into()))?
            as usize;
        if n == 0 {
            return Err(SzError::Corrupt("huffman table is empty".into()));
        }
        // Five bytes per entry: the declared count is bounded by what the
        // buffer can actually hold before anything is allocated.
        if n > r.remaining() / 5 {
            return Err(SzError::Corrupt(format!(
                "huffman table truncated: {n} entries declared, {} bytes remain",
                r.remaining()
            )));
        }
        let mut symbols = Vec::with_capacity(n);
        let mut lengths = Vec::with_capacity(n);
        for _ in 0..n {
            let truncated = |_| SzError::Corrupt("huffman table truncated".into());
            let s = r.get_u32().map_err(truncated)?;
            let l = r.get_u8().map_err(truncated)?;
            if l == 0 || l > MAX_CODE_LEN {
                return Err(SzError::Corrupt(format!("invalid code length {l}")));
            }
            if let Some(&prev) = symbols.last() {
                if s <= prev {
                    return Err(SzError::Corrupt("huffman symbols not sorted".into()));
                }
            }
            symbols.push(s);
            lengths.push(l);
        }
        // Kraft check: sum of 2^-len must not exceed 1 (and equals 1 for a
        // complete code); reject over-subscribed tables.
        let mut kraft = 0u128;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "1 <= l <= MAX_CODE_LEN (64) is checked on read, and at most 2^32 terms of 2^63 fit u128"
        )]
        for &l in &lengths {
            kraft += 1u128 << (MAX_CODE_LEN - l);
        }
        if n > 1 && kraft > 1u128 << MAX_CODE_LEN {
            return Err(SzError::Corrupt("huffman table violates Kraft".into()));
        }
        let codes = canonical_codes(&lengths);
        Ok((
            HuffmanCode {
                symbols,
                lengths,
                codes,
            },
            r.position(),
        ))
    }

    /// Decodes `count` symbols from `reader`.
    pub fn decode(&self, reader: &mut BitReader<'_>, count: usize) -> Result<Vec<u32>, SzError> {
        let decoder = CanonicalDecoder::new(self);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(decoder.decode_one(reader)?);
        }
        Ok(out)
    }
}

/// Canonical decoding state: for each code length, the first canonical code
/// of that length and the index of its first symbol.
struct CanonicalDecoder {
    /// Indices into a by-length ordering of symbols.
    by_len_symbol: Vec<u32>,
    /// For each length 1..=max: (first_code, first_index, count).
    levels: Vec<(u64, u32, u32)>,
    single_symbol: Option<u32>,
}

impl CanonicalDecoder {
    fn new(code: &HuffmanCode) -> Self {
        if code.symbols.len() == 1 {
            return CanonicalDecoder {
                by_len_symbol: Vec::new(),
                levels: Vec::new(),
                single_symbol: code.symbols.first().copied(),
            };
        }
        // Canonical order is (length, symbol). `symbols` is already
        // sorted, so sorting the zipped pairs gives exactly that without
        // any index round-trips.
        let mut pairs: Vec<(u8, u32)> = code
            .lengths
            .iter()
            .copied()
            .zip(code.symbols.iter().copied())
            .collect();
        pairs.sort_unstable();
        let by_len_symbol: Vec<u32> = pairs.iter().map(|&(_, s)| s).collect();
        let max_len = usize::from(pairs.last().map(|&(l, _)| l).unwrap_or(0));

        let mut counts = vec![0u32; max_len.saturating_add(1)];
        for &(l, _) in &pairs {
            if let Some(c) = counts.get_mut(usize::from(l)) {
                *c = c.saturating_add(1);
            }
        }
        let mut levels = Vec::with_capacity(max_len);
        let mut next_code = 0u64;
        let mut first_index = 0u32;
        for &count in counts.iter().skip(1) {
            next_code <<= 1;
            levels.push((next_code, first_index, count));
            next_code = next_code.wrapping_add(u64::from(count));
            first_index = first_index.saturating_add(count);
        }
        CanonicalDecoder {
            by_len_symbol,
            levels,
            single_symbol: None,
        }
    }

    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "acc >= first_code is checked before each subtraction, and a u32 index plus a difference below a u32 count fits u64"
    )]
    fn decode_one(&self, reader: &mut BitReader<'_>) -> Result<u32, SzError> {
        if let Some(s) = self.single_symbol {
            // Degenerate one-symbol alphabet: a 1-bit code was written.
            reader.read_bit()?;
            return Ok(s);
        }
        let mut acc = 0u64;
        for &(first_code, first_index, count) in &self.levels {
            acc = (acc << 1) | u64::from(reader.read_bit()?);
            if count > 0 && acc >= first_code && acc - first_code < u64::from(count) {
                let idx = u64::from(first_index) + (acc - first_code);
                return usize::try_from(idx)
                    .ok()
                    .and_then(|i| self.by_len_symbol.get(i))
                    .copied()
                    .ok_or_else(|| SzError::Corrupt("invalid huffman codeword".into()));
            }
        }
        Err(SzError::Corrupt("invalid huffman codeword".into()))
    }
}

/// Computes Huffman code lengths from frequencies (package-style heap
/// algorithm). A single symbol gets length 1.
#[expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "encoder-only tree build: the heap holds n >= 2 items when popped twice, every node id is < 2n-1 by construction, and n is an in-memory symbol count."
)]
fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    let n = freqs.len();
    if n == 1 {
        return vec![1];
    }
    // Min-heap of (freq, node). Internal tree built with parent pointers.
    #[derive(PartialEq, Eq)]
    struct Item {
        freq: u64,
        node: u32,
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; tie-break on node id for determinism.
            other.freq.cmp(&self.freq).then(other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut parent = vec![u32::MAX; 2 * n - 1];
    let mut heap: BinaryHeap<Item> = freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| Item {
            freq: f,
            node: i as u32,
        })
        .collect();
    let mut next = n as u32;
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parent[a.node as usize] = next;
        parent[b.node as usize] = next;
        heap.push(Item {
            freq: a.freq + b.freq,
            node: next,
        });
        next += 1;
    }
    (0..n)
        .map(|i| {
            let mut len = 0u8;
            let mut node = i as u32;
            while parent[node as usize] != u32::MAX {
                node = parent[node as usize];
                len += 1;
            }
            len
        })
        .collect()
}

/// Assigns canonical codewords given code lengths: symbols sorted by
/// (length, symbol index) receive consecutive codes.
///
/// Total: runs on lengths deserialized from the wire, so every lookup is
/// checked even though `l <= max_len` holds by construction.
fn canonical_codes(lengths: &[u8]) -> Vec<u64> {
    let max_len = usize::from(lengths.iter().copied().max().unwrap_or(0));
    let mut counts = vec![0u64; max_len.saturating_add(1)];
    for &l in lengths {
        if let Some(c) = counts.get_mut(usize::from(l)) {
            *c = c.saturating_add(1);
        }
    }
    let mut next_code = vec![0u64; max_len.saturating_add(1)];
    let mut code = 0u64;
    for len in 1..=max_len {
        let shorter = counts.get(len.wrapping_sub(1)).copied().unwrap_or(0);
        code = code.wrapping_add(shorter) << 1;
        if let Some(slot) = next_code.get_mut(len) {
            *slot = code;
        }
    }
    // Assign in symbol order (lengths are stored in symbol order; canonical
    // ordering demands (length, symbol) — symbols are sorted, so iterating
    // in symbol order and bumping the per-length counter is canonical).
    let mut codes = Vec::with_capacity(lengths.len());
    for &l in lengths {
        match next_code.get_mut(usize::from(l)) {
            Some(slot) => {
                codes.push(*slot);
                *slot = slot.wrapping_add(1);
            }
            None => codes.push(0),
        }
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u32]) {
        let code = HuffmanCode::from_symbols(data);
        let mut w = BitWriter::new();
        code.encode(data, &mut w);
        let mut table = Vec::new();
        code.serialize_table(&mut table);
        let (bytes, bits) = w.finish();

        let (decoded_code, consumed) = HuffmanCode::deserialize_table(&table).unwrap();
        assert_eq!(consumed, table.len());
        let mut r = BitReader::new(&bytes, bits).unwrap();
        let out = decoded_code.decode(&mut r, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_small() {
        roundtrip(&[1, 2, 3, 2, 1, 2, 2, 2, 9]);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[42; 100]);
    }

    #[test]
    fn roundtrip_two_symbols() {
        roundtrip(&[7, 8, 7, 7, 8, 7]);
    }

    #[test]
    fn roundtrip_skewed_distribution() {
        // Geometric-ish frequencies stress unequal code lengths.
        let mut data = Vec::new();
        for s in 0u32..16 {
            for _ in 0..(1usize << (15 - s as usize)) {
                data.push(s);
            }
        }
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_large_alphabet() {
        let data: Vec<u32> = (0..5000u32).map(|i| (i * i) % 997 + 30000).collect();
        roundtrip(&data);
    }

    #[test]
    fn skewed_code_is_shorter_than_uniform() {
        // 90% of mass on one symbol should beat 2 bits/symbol.
        let mut data = vec![0u32; 900];
        data.extend([1u32, 2, 3].iter().cycle().take(100));
        let code = HuffmanCode::from_symbols(&data);
        let mut w = BitWriter::new();
        code.encode(&data, &mut w);
        let (_, bits) = w.finish();
        assert!(bits < 2 * data.len() as u64, "bits = {bits}");
    }

    #[test]
    fn table_rejects_garbage() {
        assert!(HuffmanCode::deserialize_table(&[1, 2]).is_err());
        // Claims 10 symbols but provides none.
        let mut t = 10u32.to_le_bytes().to_vec();
        t.push(1);
        assert!(HuffmanCode::deserialize_table(&t).is_err());
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let data = vec![1u32, 2, 3, 4, 5, 6, 7, 8];
        let code = HuffmanCode::from_symbols(&data);
        let mut w = BitWriter::new();
        code.encode(&data, &mut w);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits / 2).unwrap();
        assert!(code.decode(&mut r, data.len()).is_err());
    }

    #[test]
    fn kraft_violation_rejected() {
        // Three symbols all claiming length 1 over-subscribes the code space.
        let mut t = 3u32.to_le_bytes().to_vec();
        for s in 0u32..3 {
            t.extend_from_slice(&s.to_le_bytes());
            t.push(1);
        }
        assert!(HuffmanCode::deserialize_table(&t).is_err());
    }
}
