//! The one bounds-checked reader every byte format in the stack is parsed
//! with: the container and the service protocol, and every codec's block
//! payload (the rule-based frames, the latent bitstreams, the learned
//! baselines' frames and the error-bound correction stream).
//!
//! A parser built on [`ByteReader`] cannot index past its input: every read
//! either returns the bytes it asked for or a typed [`ReadError`].  Counts a
//! stream declares are checked against the input (or against what the
//! decoder already holds) before anything is sized from them, and a shape is
//! refused above [`MAX_SHAPE_ELEMENTS`] before any buffer is allocated for
//! it, so a hostile payload behind a valid CRC costs a typed error, never a
//! panic or an allocation bomb.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::models::HistogramModel;
use std::fmt;

/// Largest element count a decoded shape may declare.  `2²⁸` `f32` values
/// are 1 GiB, the most a service reply body can carry, so no block that
/// could be served is refused; a shape over it is malformed input, refused
/// before any buffer is sized from it.  Extents of zero count as one, so the
/// cap also bounds every loop nest over the shape.
pub const MAX_SHAPE_ELEMENTS: usize = 1 << 28;

/// Why a payload could not be parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended before the declared content.
    Truncated {
        /// Bytes the parser needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Bytes remained after the declared content.
    TrailingBytes(usize),
    /// A declared shape overflows, or holds more than
    /// [`MAX_SHAPE_ELEMENTS`] elements.
    OversizedShape,
    /// A serialised histogram model declares more bins than a fitted model
    /// can carry; rejected before the allocation it implies is made.
    OversizedBins {
        /// Declared number of bins.
        bins: usize,
        /// Largest bin count a fitted model can carry.
        max: usize,
    },
    /// A serialised histogram model's entry points outside its bins.
    BadOffset {
        /// The offending bin offset.
        offset: usize,
        /// Number of declared bins.
        bins: usize,
    },
    /// A serialised histogram model's frequencies sum to zero or overflow
    /// the coder's budget.
    BadTotal,
    /// A field violated the format's own invariants.
    Malformed(&'static str),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, had {available}")
            }
            ReadError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            ReadError::OversizedShape => {
                write!(f, "declared shape exceeds {MAX_SHAPE_ELEMENTS} elements")
            }
            ReadError::OversizedBins { bins, max } => {
                write!(f, "histogram model declares {bins} bins (max {max})")
            }
            ReadError::BadOffset { offset, bins } => {
                write!(f, "histogram entry offset {offset} outside {bins} bins")
            }
            ReadError::BadTotal => {
                write!(
                    f,
                    "histogram frequencies sum to zero or overflow the coder budget"
                )
            }
            ReadError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Starts reading `bytes` at offset `pos`.
    pub fn at(bytes: &'a [u8], pos: usize) -> Self {
        ByteReader { bytes, pos }
    }

    /// Offset of the next unread byte.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Takes the next `len` raw bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], ReadError> {
        let (out, _) = self
            .rest()
            .split_at_checked(len)
            .ok_or(self.truncated(len))?;
        self.pos += len;
        Ok(out)
    }

    /// Takes the next `N` bytes as an array.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let (head, _) = self.rest().split_first_chunk().ok_or(self.truncated(N))?;
        self.pos += N;
        Ok(*head)
    }

    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn truncated(&self, len: usize) -> ReadError {
        ReadError::Truncated {
            // Saturate: `len` may be a corrupt u64 length prefix near
            // usize::MAX.
            needed: self.pos.saturating_add(len),
            available: self.bytes.len(),
        }
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, ReadError> {
        self.take_array().map(|[byte]| byte)
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16, ReadError> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, ReadError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, ReadError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    pub fn read_f32(&mut self) -> Result<f32, ReadError> {
        self.take_array().map(f32::from_le_bytes)
    }

    /// Reads `count` little-endian `f32`s, refusing a count the input cannot
    /// hold before allocating for it.
    pub fn read_f32s(&mut self, count: usize) -> Result<Vec<f32>, ReadError> {
        let (values, _) = self.take(count.saturating_mul(4))?.as_chunks();
        Ok(values
            .iter()
            .map(|&value| f32::from_le_bytes(value))
            .collect())
    }

    /// Reads a length-prefixed byte section (`u64` length + payload), the
    /// framing [`write_section`] writes.
    pub fn read_section(&mut self) -> Result<&'a [u8], ReadError> {
        let len = self.read_u64()?;
        self.take(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Reads a `u32`-length-prefixed byte section — the framing the codec
    /// payloads use for their model tables and entropy-coded streams.
    pub fn read_u32_section(&mut self) -> Result<&'a [u8], ReadError> {
        let len = self.read_u32()?;
        self.take(len as usize)
    }

    /// Reads a `u32`-length-prefixed serialised [`HistogramModel`], which
    /// must fill its section exactly.
    pub fn read_model(&mut self) -> Result<HistogramModel, ReadError> {
        HistogramModel::from_section(self.read_u32_section()?)
    }

    /// Reads a rank-prefixed dimension list (`u8` rank + `u32` per extent),
    /// the framing [`write_dims`] writes, refusing a shape whose element
    /// count overflows or exceeds [`MAX_SHAPE_ELEMENTS`] (zero extents
    /// counting as one) before anything is sized from it.
    pub fn read_dims(&mut self) -> Result<Vec<usize>, ReadError> {
        let rank = self.read_u8()?;
        let mut dims = Vec::with_capacity(rank as usize);
        let mut elements = 1usize;
        for _ in 0..rank {
            let extent = self.read_u32()? as usize;
            elements = elements
                .checked_mul(extent.max(1))
                .filter(|&n| n <= MAX_SHAPE_ELEMENTS)
                .ok_or(ReadError::OversizedShape)?;
            dims.push(extent);
        }
        Ok(dims)
    }

    /// Asserts that the whole input was consumed.
    pub fn expect_end(&self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ReadError::TrailingBytes(n)),
        }
    }
}

/// Appends a length-prefixed byte section (`u64` length + payload).
pub fn write_section(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends a `u32`-length-prefixed byte section, read back by
/// [`ByteReader::read_u32_section`].
pub fn write_u32_section(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends a rank-prefixed dimension list (`u8` rank + `u32` per extent) —
/// the framing every block header and latent bitstream in the stack uses
/// for tensor shapes, read back by [`ByteReader::read_dims`].
pub fn write_dims(out: &mut Vec<u8>, dims: &[usize]) {
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_writers_write_and_refuses_the_rest_typed() {
        let mut out = vec![7u8];
        write_dims(&mut out, &[3, 16, 16]);
        write_section(&mut out, b"abc");
        let mut reader = ByteReader::new(&out);
        assert_eq!(reader.read_u8(), Ok(7));
        assert_eq!(reader.read_dims(), Ok(vec![3, 16, 16]));
        assert_eq!(reader.read_section(), Ok(&b"abc"[..]));
        assert_eq!(reader.expect_end(), Ok(()));
        assert_eq!(
            reader.read_u32(),
            Err(ReadError::Truncated {
                needed: out.len() + 4,
                available: out.len()
            })
        );
        for cut in 0..out.len() {
            let mut prefix = out.clone();
            prefix.truncate(cut);
            let mut reader = ByteReader::new(&prefix);
            let parsed = (|| {
                reader.read_u8()?;
                reader.read_dims()?;
                reader.read_section()
            })();
            assert!(matches!(parsed, Err(ReadError::Truncated { .. })), "{cut}");
        }
        let mut long = out.clone();
        long.push(0);
        let mut reader = ByteReader::new(&long);
        assert!(reader.take(out.len()).is_ok());
        assert_eq!(reader.expect_end(), Err(ReadError::TrailingBytes(1)));
    }

    #[test]
    fn shapes_over_the_cap_are_refused_before_allocation() {
        let cube = 1usize << 15;
        for dims in [
            vec![cube, cube, cube],
            vec![MAX_SHAPE_ELEMENTS + 1],
            vec![u32::MAX as usize; 4],
            vec![0, 1 << 20, 1 << 20],
        ] {
            let mut out = Vec::new();
            write_dims(&mut out, &dims);
            assert_eq!(
                ByteReader::new(&out).read_dims(),
                Err(ReadError::OversizedShape),
                "{dims:?}"
            );
        }
        let mut out = Vec::new();
        write_dims(&mut out, &[MAX_SHAPE_ELEMENTS, 0, 1]);
        assert_eq!(
            ByteReader::new(&out).read_dims(),
            Ok(vec![MAX_SHAPE_ELEMENTS, 0, 1])
        );
    }

    #[test]
    fn a_section_length_near_usize_max_is_truncation_not_overflow() {
        let mut out = u64::MAX.to_le_bytes().to_vec();
        out.extend_from_slice(b"xy");
        assert!(matches!(
            ByteReader::new(&out).read_section(),
            Err(ReadError::Truncated { .. })
        ));
        assert!(matches!(
            ByteReader::at(&out, 9).take(usize::MAX),
            Err(ReadError::Truncated { .. })
        ));
    }
}
