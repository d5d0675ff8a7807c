//! LZSS-style byte-level lossless backend.
//!
//! SZ finishes with a dictionary coder (gzip/zstd) over the entropy-coded
//! payload; compression crates are outside this project's allowed
//! dependency set, so this module provides an in-repo LZ77 variant:
//!
//! * 64 KiB sliding window, hash-chain match finder over 4-byte prefixes;
//! * token stream of literals and `(offset, length)` matches with flag
//!   bits grouped eight to a control byte;
//! * match lengths 4..=258 encoded in one byte, offsets in two.
//!
//! `compress` is guaranteed lossless and never fails; `decompress`
//! validates every back-reference.

#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

use crate::error::SzError;
use crate::wire::ByteReader;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 1 << 16;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;

#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "encoder-side hash over in-memory input; every caller guarantees i + 3 < data.len() before probing."
)]
#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input`, returning the token stream. Output layout:
/// `u64 LE` uncompressed length, then control-byte-grouped tokens.
#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "encoder over trusted in-memory data: indices stay below input.len() by construction, offsets fit the 64 KiB window (u16) and match lengths 4..=258 fit a byte after the MIN_MATCH bias."
)]
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    if input.is_empty() {
        return out;
    }

    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut prev = vec![u32::MAX; input.len()];

    // Tokens are buffered in groups of 8 under one control byte; bit i set
    // means token i is a match.
    let mut ctrl = 0u8;
    let mut ctrl_bits = 0u8;
    let mut group: Vec<u8> = Vec::with_capacity(8 * 3);
    let flush = |out: &mut Vec<u8>, ctrl: &mut u8, ctrl_bits: &mut u8, group: &mut Vec<u8>| {
        if *ctrl_bits > 0 {
            out.push(*ctrl);
            out.extend_from_slice(group);
            *ctrl = 0;
            *ctrl_bits = 0;
            group.clear();
        }
    };

    let mut i = 0usize;
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash4(input, i);
            let chain_head = head[h];
            let mut cand = chain_head;
            let mut steps = 0;
            while cand != u32::MAX && steps < MAX_CHAIN {
                let c = cand as usize;
                if i - c >= WINDOW {
                    break;
                }
                // Cheap rejection: compare the byte just past the current
                // best match first.
                if best_len == 0 || input.get(c + best_len) == input.get(i + best_len) {
                    let max_len = MAX_MATCH.min(input.len() - i);
                    let mut l = 0;
                    while l < max_len && input[c + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - c;
                        if l >= MAX_MATCH {
                            break;
                        }
                    }
                }
                cand = prev[c];
                steps += 1;
            }
            prev[i] = chain_head;
            head[h] = i as u32;
        }

        if best_len >= MIN_MATCH {
            ctrl |= 1 << ctrl_bits;
            group.extend_from_slice(&(best_off as u16).to_le_bytes());
            group.push((best_len - MIN_MATCH) as u8);
            // Insert hash entries for the skipped positions so later
            // matches can reference inside this match.
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= input.len() {
                let h = hash4(input, j);
                prev[j] = head[h];
                head[h] = j as u32;
                j += 1;
            }
            i = end;
        } else {
            group.push(input[i]);
            i += 1;
        }
        ctrl_bits += 1;
        if ctrl_bits == 8 {
            flush(&mut out, &mut ctrl, &mut ctrl_bits, &mut group);
        }
    }
    flush(&mut out, &mut ctrl, &mut ctrl_bits, &mut group);
    out
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, SzError> {
    let mut r = ByteReader::new(input);
    let n = r
        .get_len()
        .map_err(|_| SzError::Corrupt("lzss stream shorter than header".into()))?;
    // Bound the up-front allocation by what the token stream could ever
    // produce: each token needs at least 3 bytes (plus control bits) and
    // expands to at most MAX_MATCH bytes, so a tiny stream declaring a
    // terabyte output is corrupt, not a reservation request.
    let max_expansion = r.remaining().saturating_mul(MAX_MATCH);
    if n > max_expansion {
        return Err(SzError::Corrupt(format!(
            "lzss declares {n} output bytes from a {}-byte stream (max {max_expansion})",
            input.len()
        )));
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let ctrl = r
            .get_u8()
            .map_err(|_| SzError::Corrupt("lzss stream truncated (control)".into()))?;
        for bit in 0..8 {
            if out.len() >= n {
                break;
            }
            if ctrl & (1 << bit) != 0 {
                let truncated = |_| SzError::Corrupt("lzss stream truncated (match)".into());
                let off = r.get_u16().map_err(truncated)? as usize;
                let len = MIN_MATCH + usize::from(r.get_u8().map_err(truncated)?);
                if off == 0 || off > out.len() {
                    return Err(SzError::Corrupt(format!(
                        "lzss back-reference {off} beyond {} decoded bytes",
                        out.len()
                    )));
                }
                #[expect(
                    clippy::arithmetic_side_effects,
                    reason = "off <= out.len() is checked just above"
                )]
                let start = out.len() - off;
                if len <= off {
                    // Source and destination cannot overlap: bulk copy.
                    // `start + len <= out.len()` follows from `len <= off`.
                    let end = start.saturating_add(len).min(out.len());
                    out.extend_from_within(start..end);
                } else {
                    // Overlapping copies are valid (RLE-style): the
                    // source grows as the copy proceeds, so go byte-wise.
                    for k in 0..len {
                        let b = out.get(start.saturating_add(k)).copied().ok_or_else(|| {
                            SzError::Corrupt("lzss back-reference escaped the buffer".into())
                        })?;
                        out.push(b);
                    }
                }
            } else {
                let b = r
                    .get_u8()
                    .map_err(|_| SzError::Corrupt("lzss stream truncated (literal)".into()))?;
                out.push(b);
            }
        }
    }
    if out.len() != n {
        return Err(SzError::Corrupt(format!(
            "lzss produced {} bytes, expected {n}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_short() {
        roundtrip(b"abc");
        roundtrip(b"a");
    }

    #[test]
    fn roundtrip_repetitive() {
        let data: Vec<u8> = b"abcabcabcabcabcabc".repeat(100);
        let c = compress(&data);
        assert!(c.len() < data.len() / 3, "repetitive data should shrink");
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_zeros_rle() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(
            c.len() < 2000,
            "zero run should compress hard, got {}",
            c.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_incompressible() {
        // Pseudo-random bytes: output may expand slightly (1 control bit
        // per literal) but must round-trip.
        let data: Vec<u8> = (0..50_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // "aaaaa..." forces matches whose source overlaps the destination.
        let data = vec![b'a'; 1000];
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_long_window_reference() {
        let mut data = Vec::new();
        let phrase = b"the quick brown fox jumps over the lazy dog";
        data.extend_from_slice(phrase);
        data.extend(std::iter::repeat(7u8).take(40_000));
        data.extend_from_slice(phrase);
        roundtrip(&data);
    }

    #[test]
    fn rejects_truncation() {
        let data: Vec<u8> = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        for cut in [0usize, 4, 8, c.len() - 1] {
            if cut < c.len() {
                assert!(decompress(&c[..cut]).is_err() || cut == c.len());
            }
        }
    }

    #[test]
    fn rejects_bad_backreference() {
        // Hand-craft: n=4, control byte with match flag, offset 9 (> decoded).
        let mut s = 4u64.to_le_bytes().to_vec();
        s.push(0b0000_0001);
        s.extend_from_slice(&9u16.to_le_bytes());
        s.push(0);
        assert!(decompress(&s).is_err());
    }

    #[test]
    fn compresses_float_like_payloads() {
        // Quantization codes from smooth data: long runs of the same byte
        // pattern with occasional jitter.
        let mut data = Vec::new();
        for i in 0..20_000u32 {
            let code: u16 = 32768 + ((i / 100) % 3) as u16;
            data.extend_from_slice(&code.to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        roundtrip(&data);
    }
}
