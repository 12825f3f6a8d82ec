//! Compressed-stream headers shared by the rule-based codecs.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::BaselineError;
use gld_entropy::{write_dims, ByteReader, ReadError};
use gld_tensor::Tensor;

/// Magic byte identifying the codec that produced a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Prediction-based (SZ3-like) stream.
    SzLike = 1,
    /// Transform-based (ZFP-like) stream.
    ZfpLike = 2,
}

impl Codec {
    fn from_u8(v: u8) -> Result<Codec, ReadError> {
        match v {
            1 => Ok(Codec::SzLike),
            2 => Ok(Codec::ZfpLike),
            _ => Err(ReadError::Malformed("unknown rule-based codec id")),
        }
    }
}

/// A rank 1–4 shape read as the `[planes, rows, cols]` volume both codecs
/// walk: trailing dimensions stay spatial.  Any other rank is a typed error.
pub(crate) fn volume_dims(dims: &[usize]) -> Result<(usize, usize, usize), BaselineError> {
    match *dims {
        [cols] => Ok((1, 1, cols)),
        [rows, cols] => Ok((1, rows, cols)),
        [planes, rows, cols] => Ok((planes, rows, cols)),
        [outer, planes, rows, cols] => Ok((outer * planes, rows, cols)),
        _ => Err(BaselineError::UnsupportedRank { rank: dims.len() }),
    }
}

/// Header describing the original tensor and the error bound used.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockHeader {
    /// Which codec wrote the stream.
    pub codec: Codec,
    /// Original tensor dimensions (up to 4; unused entries are 0).
    pub dims: Vec<usize>,
    /// Absolute error bound used at compression time.
    pub abs_error: f32,
}

impl BlockHeader {
    /// Creates a header for a tensor.
    pub fn new(codec: Codec, data: &Tensor, abs_error: f32) -> Self {
        assert!(
            data.rank() >= 1 && data.rank() <= 4,
            "rule-based codecs support rank 1–4, got {}",
            data.rank()
        );
        BlockHeader {
            codec,
            dims: data.dims().to_vec(),
            abs_error,
        }
    }

    /// Serialised header size in bytes.
    pub fn byte_len(&self) -> usize {
        1 + 1 + self.dims.len() * 4 + 4
    }

    /// Writes the header at the start of `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(self.codec as u8);
        write_dims(out, &self.dims);
        out.extend_from_slice(&self.abs_error.to_le_bytes());
    }

    /// Reads a header written by [`BlockHeader::write`]: a known codec, a
    /// rank of 1–4 and a shape within [`gld_entropy::MAX_SHAPE_ELEMENTS`],
    /// or the typed refusal.
    pub fn read(reader: &mut ByteReader<'_>) -> Result<Self, ReadError> {
        let codec = Codec::from_u8(reader.read_u8()?)?;
        let dims = reader.read_dims()?;
        if volume_dims(&dims).is_err() {
            return Err(ReadError::Malformed("rule-based frame rank outside 1-4"));
        }
        let abs_error = reader.read_f32()?;
        Ok(BlockHeader {
            codec,
            dims,
            abs_error,
        })
    }

    /// Total element count of the described tensor.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let t = Tensor::zeros(&[3, 16, 16]);
        let h = BlockHeader::new(Codec::SzLike, &t, 1e-3);
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), h.byte_len());
        let mut reader = ByteReader::new(&buf);
        assert_eq!(BlockHeader::read(&mut reader), Ok(h.clone()));
        assert_eq!(reader.position(), buf.len());
        assert_eq!(h.numel(), 3 * 16 * 16);
    }

    #[test]
    fn unknown_codec_rejected() {
        let bytes = [99u8, 1, 4, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            BlockHeader::read(&mut ByteReader::new(&bytes)),
            Err(ReadError::Malformed("unknown rule-based codec id"))
        );
    }
}
