//! On-disk container format for a single compressed array.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic  [u8; 4] = "TSZ1"
//! version u8    = 1
//! flags   u8      bit 0: payload is LZSS-compressed
//!                 bit 1: elements are f32 (absent: f64)
//! rank    u8      1..=4
//! dims    rank x u64
//! abs_eb  f64     resolved absolute error bound
//! capacity u32    quantizer bins
//! payload ...     (see compress.rs)
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

use crate::config::Dims;
use crate::error::SzError;
use crate::wire::{ByteReader, ByteWriter};
use tac_dtype::TacDtype;

/// Stream magic number.
pub const MAGIC: [u8; 4] = *b"TSZ1";
/// Current format version.
pub const VERSION: u8 = 1;
/// Flag bit: payload passed through the LZSS stage.
pub const FLAG_LOSSLESS: u8 = 0b0000_0001;
/// Flag bit: elements are `f32` (unset: `f64`, the historical default, so
/// every pre-dtype stream decodes unchanged).
pub const FLAG_F32: u8 = 0b0000_0010;

/// Decoded stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    /// Flag bits (see `FLAG_*`).
    pub flags: u8,
    /// Array shape.
    pub dims: Dims,
    /// Resolved absolute error bound used by the quantizer.
    pub abs_eb: f64,
    /// Quantizer capacity.
    pub capacity: u32,
}

impl Header {
    /// Element type of the stream, derived from the flag bits.
    pub fn dtype(&self) -> TacDtype {
        if self.flags & FLAG_F32 != 0 {
            TacDtype::F32
        } else {
            TacDtype::F64
        }
    }

    /// Serialized size in bytes.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "writer-side size accounting: rank() <= 3, so the sum stays tiny."
    )]
    pub fn encoded_len(&self) -> usize {
        4 + 1 + 1 + 1 + self.dims.rank() as usize * 8 + 8 + 4
    }

    /// Appends the encoded header to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u8(VERSION);
        w.put_u8(self.flags);
        w.put_u8(self.dims.rank());
        match self.dims {
            Dims::D1(a) => w.put_u64(a as u64),
            Dims::D2(a, b) => {
                w.put_u64(a as u64);
                w.put_u64(b as u64);
            }
            Dims::D3(a, b, c) => {
                w.put_u64(a as u64);
                w.put_u64(b as u64);
                w.put_u64(c as u64);
            }
            Dims::D4(a, b, c, d) => {
                w.put_u64(a as u64);
                w.put_u64(b as u64);
                w.put_u64(c as u64);
                w.put_u64(d as u64);
            }
        }
        w.put_f64(self.abs_eb);
        w.put_u32(self.capacity);
        out.extend_from_slice(&w.into_bytes());
    }

    /// Decodes a header, returning it and the bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), SzError> {
        let mut r = ByteReader::new(bytes);
        let magic = r
            .get_bytes(4)
            .map_err(|_| SzError::Corrupt("stream shorter than header".into()))?;
        if magic != MAGIC {
            return Err(SzError::UnsupportedFormat(format!(
                "bad magic {magic:02x?}"
            )));
        }
        let version = r
            .get_u8()
            .map_err(|_| SzError::Corrupt("stream shorter than header".into()))?;
        if version != VERSION {
            return Err(SzError::UnsupportedFormat(format!(
                "version {version} (expected {VERSION})"
            )));
        }
        let header_err = |_| SzError::Corrupt("header truncated".into());
        let flags = r.get_u8().map_err(header_err)?;
        let rank = r.get_u8().map_err(header_err)?;
        if !(1..=4).contains(&rank) {
            return Err(SzError::Corrupt(format!("invalid rank {rank}")));
        }
        fn dim(r: &mut ByteReader<'_>) -> Result<usize, SzError> {
            r.get_len()
                .map_err(|_| SzError::Corrupt("header truncated".into()))
        }
        let dims = match rank {
            1 => Dims::D1(dim(&mut r)?),
            2 => Dims::D2(dim(&mut r)?, dim(&mut r)?),
            3 => Dims::D3(dim(&mut r)?, dim(&mut r)?, dim(&mut r)?),
            _ => Dims::D4(dim(&mut r)?, dim(&mut r)?, dim(&mut r)?, dim(&mut r)?),
        };
        if dims.is_empty() {
            return Err(SzError::Corrupt("zero-sized dimensions".into()));
        }
        // Reject absurd sizes before the decompressor allocates (declared
        // dims drive a vec![0.0; n] allocation).
        if dims.len() > (1usize << 40) {
            return Err(SzError::Corrupt(format!(
                "declared element count {} is implausible",
                dims.len()
            )));
        }
        let abs_eb = r.get_f64().map_err(header_err)?;
        let capacity = r.get_u32().map_err(header_err)?;
        if abs_eb <= 0.0 || !abs_eb.is_finite() {
            return Err(SzError::Corrupt(format!("invalid stored eb {abs_eb}")));
        }
        if capacity < 4 || capacity % 2 != 0 {
            return Err(SzError::Corrupt(format!(
                "invalid stored capacity {capacity}"
            )));
        }
        Ok((
            Header {
                flags,
                dims,
                abs_eb,
                capacity,
            },
            r.position(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_all_ranks() {
        for dims in [
            Dims::D1(100),
            Dims::D2(10, 20),
            Dims::D3(4, 5, 6),
            Dims::D4(2, 3, 4, 5),
        ] {
            let h = Header {
                flags: FLAG_LOSSLESS,
                dims,
                abs_eb: 1.5e-4,
                capacity: 65536,
            };
            let mut buf = Vec::new();
            h.encode(&mut buf);
            assert_eq!(buf.len(), h.encoded_len());
            let (h2, consumed) = Header::decode(&buf).unwrap();
            assert_eq!(consumed, buf.len());
            assert_eq!(h2, h);
        }
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let h = Header {
            flags: 0,
            dims: Dims::D1(10),
            abs_eb: 1.0,
            capacity: 1024,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            Header::decode(&bad),
            Err(SzError::UnsupportedFormat(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            Header::decode(&bad),
            Err(SzError::UnsupportedFormat(_))
        ));
    }

    #[test]
    fn decode_rejects_invalid_fields() {
        let h = Header {
            flags: 0,
            dims: Dims::D1(10),
            abs_eb: 1.0,
            capacity: 1024,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        // rank byte
        let mut bad = buf.clone();
        bad[6] = 9;
        assert!(Header::decode(&bad).is_err());
        // truncation
        assert!(Header::decode(&buf[..10]).is_err());
        // zero dims
        let zero = Header {
            dims: Dims::D1(0),
            ..h
        };
        let mut buf0 = Vec::new();
        zero.encode(&mut buf0);
        assert!(Header::decode(&buf0).is_err());
    }
}
