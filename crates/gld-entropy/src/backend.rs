//! Entropy back-end abstraction.
//!
//! The symbol models in [`crate::models`] are generic over these traits so
//! the same model code drives both the production byte-wise range coder
//! ([`crate::range`]) and the bit-at-a-time arithmetic coder
//! ([`crate::arith`]) kept as the reference/oracle implementation.  The
//! equivalence suite uses that genericity to prove the two back ends decode
//! identical symbol streams, and the hot-path benchmark uses it to measure
//! the optimized kernels against the exact pre-optimisation coding path.

use crate::adaptive::PROB_TOTAL;
use crate::arith::{ArithmeticDecoder, ArithmeticEncoder};
use crate::range::{RangeDecoder, RangeEncoder};

/// Sink side of an entropy coder: symbols are pushed as cumulative-frequency
/// intervals, escapes as raw bits.
pub trait EntropyEncoder {
    /// Encodes one symbol described by its cumulative interval
    /// `[cum_low, cum_high)` out of `total`.
    fn encode(&mut self, cum_low: u32, cum_high: u32, total: u32);

    /// Encodes `bits` low-order bits of `value` without modelling, MSB
    /// first.
    fn encode_bits_raw(&mut self, value: u64, bits: u32);

    /// Flushes the coder and returns the compressed bytes.
    fn finish(self) -> Vec<u8>
    where
        Self: Sized;
}

/// Source side of an entropy coder.  `decode_target` resolves the next
/// symbol's cumulative position; `decode_update` must follow with the
/// matching interval (same `total`) before the next `decode_target`.
pub trait EntropyDecoder {
    /// Returns the cumulative-frequency position of the next symbol.
    fn decode_target(&mut self, total: u32) -> u32;

    /// Consumes the symbol whose cumulative interval is
    /// `[cum_low, cum_high)` out of `total`.
    fn decode_update(&mut self, cum_low: u32, cum_high: u32, total: u32);

    /// Decodes `bits` bypass bits into an unsigned value, MSB first.
    fn decode_bits_raw(&mut self, bits: u32) -> u64;

    /// Decodes one binary decision coded as the interval `[0, p0)` (a zero)
    /// or `[p0, PROB_TOTAL)` (a one) out of
    /// [`PROB_TOTAL`], for `p0` in
    /// `1..PROB_TOTAL`: the adaptive and frozen bit models of `gld-lz` code
    /// every flag and tree node this way.  Provided as the interval path
    /// (`decode_target` then `decode_update`); a coder may override it with
    /// a cheaper form that consumes exactly the same stream state.
    #[inline]
    fn decode_bit(&mut self, p0: u32) -> bool {
        let bit = self.decode_target(PROB_TOTAL) >= p0;
        if bit {
            self.decode_update(p0, PROB_TOTAL, PROB_TOTAL);
        } else {
            self.decode_update(0, p0, PROB_TOTAL);
        }
        bit
    }
}

/// A matched encoder/decoder pair, used to parameterise whole compression
/// paths (the rule-based codecs' reference implementations take a backend
/// type parameter so the benchmark can run the *pre-optimisation* coder).
pub trait EntropyBackend {
    /// The encoder type of this back end.
    type Encoder: EntropyEncoder;
    /// The decoder type of this back end.
    type Decoder<'a>: EntropyDecoder;

    /// Creates an empty encoder.
    fn encoder() -> Self::Encoder;

    /// Creates a decoder over a finished stream.
    fn decoder(bytes: &[u8]) -> Self::Decoder<'_>;
}

/// The production back end: byte-wise renormalising range coder.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeBackend;

impl EntropyBackend for RangeBackend {
    type Encoder = RangeEncoder;
    type Decoder<'a> = RangeDecoder<'a>;

    fn encoder() -> RangeEncoder {
        RangeEncoder::new()
    }

    fn decoder(bytes: &[u8]) -> RangeDecoder<'_> {
        RangeDecoder::new(bytes)
    }
}

/// The reference back end: CACM-87 style bit-at-a-time arithmetic coder.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArithmeticBackend;

impl EntropyBackend for ArithmeticBackend {
    type Encoder = ArithmeticEncoder;
    type Decoder<'a> = ArithmeticDecoder<'a>;

    fn encoder() -> ArithmeticEncoder {
        ArithmeticEncoder::new()
    }

    fn decoder(bytes: &[u8]) -> ArithmeticDecoder<'_> {
        ArithmeticDecoder::new(bytes)
    }
}

impl EntropyEncoder for ArithmeticEncoder {
    #[inline]
    fn encode(&mut self, cum_low: u32, cum_high: u32, total: u32) {
        ArithmeticEncoder::encode(self, cum_low, cum_high, total);
    }

    #[inline]
    fn encode_bits_raw(&mut self, value: u64, bits: u32) {
        ArithmeticEncoder::encode_bits_raw(self, value, bits);
    }

    fn finish(self) -> Vec<u8> {
        ArithmeticEncoder::finish(self)
    }
}

impl EntropyDecoder for ArithmeticDecoder<'_> {
    #[inline]
    fn decode_target(&mut self, total: u32) -> u32 {
        ArithmeticDecoder::decode_target(self, total)
    }

    #[inline]
    fn decode_update(&mut self, cum_low: u32, cum_high: u32, total: u32) {
        ArithmeticDecoder::decode_update(self, cum_low, cum_high, total);
    }

    #[inline]
    fn decode_bits_raw(&mut self, bits: u32) -> u64 {
        ArithmeticDecoder::decode_bits_raw(self, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One generic roundtrip exercised through both back ends — the trait
    /// surface itself must be lossless regardless of the coder underneath.
    fn roundtrip_via<B: EntropyBackend>() {
        let cdf = [0u32, 10, 12, 30];
        let symbols = [0usize, 2, 1, 2, 2, 0, 1];
        let mut enc = B::encoder();
        for &s in &symbols {
            enc.encode(cdf[s], cdf[s + 1], 30);
            enc.encode_bits_raw(s as u64, 7);
        }
        let bytes = enc.finish();
        let mut dec = B::decoder(&bytes);
        for &s in &symbols {
            let t = dec.decode_target(30);
            let got = cdf.partition_point(|&c| c <= t) - 1;
            assert_eq!(got, s);
            dec.decode_update(cdf[got], cdf[got + 1], 30);
            assert_eq!(dec.decode_bits_raw(7), s as u64);
        }
    }

    /// The arithmetic coder keeps the provided `decode_bit`: it decodes the
    /// bits its encoder wrote as intervals, through the trait.
    #[test]
    fn arithmetic_backend_decodes_bits_through_the_provided_method() {
        let p0s: Vec<u32> = (0..2000u32)
            .map(|i| 1 + i.wrapping_mul(2_654_435_761) % 4095)
            .collect();
        let bits: Vec<bool> = (0..2000u32).map(|i| i * 40503 % 7 < 3).collect();
        let mut enc = ArithmeticBackend::encoder();
        for (&p0, &bit) in p0s.iter().zip(&bits) {
            if bit {
                enc.encode(p0, PROB_TOTAL, PROB_TOTAL);
            } else {
                enc.encode(0, p0, PROB_TOTAL);
            }
        }
        let bytes = EntropyEncoder::finish(enc);
        let mut dec = ArithmeticBackend::decoder(&bytes);
        let decoded: Vec<bool> = p0s.iter().map(|&p0| dec.decode_bit(p0)).collect();
        assert_eq!(decoded, bits);
    }

    #[test]
    fn both_backends_roundtrip_through_the_trait_surface() {
        roundtrip_via::<RangeBackend>();
        roundtrip_via::<ArithmeticBackend>();
    }
}
