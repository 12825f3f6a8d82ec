//! Byte-wise renormalising range coder — the production entropy back end.
//!
//! Functionally equivalent to the bit-at-a-time arithmetic coder in
//! [`crate::arith`] (same cumulative-frequency interface, same `MAX_TOTAL`
//! contract) but renormalises **one byte at a time** with LZMA-style carry
//! propagation, so the hot loop is a couple of integer operations per
//! *symbol* instead of a branchy loop per *bit*.  Bypass bits are coded by
//! range halving — a shift and a compare, no division.
//!
//! The coder itself is table-free; the tables live in the symbol models
//! (`crate::models`), which precompute cumulative-frequency arrays for
//! encoding and a slot→bin lookup table for the decode-side symbol search.
//! The equivalence suite (`tests/hotpath_equivalence.rs` at the workspace
//! root, plus the property tests below) proves encode→decode is lossless
//! for arbitrary models and that both back ends decode their own streams to
//! identical symbols.

use crate::adaptive::{PROB_BITS, PROB_TOTAL};
use crate::backend::{EntropyDecoder, EntropyEncoder};

/// Maximum allowed total frequency for a coding step (shared contract with
/// the arithmetic coder).
pub const MAX_TOTAL: u32 = crate::arith::MAX_TOTAL;

/// Renormalisation threshold: while `range < TOP` a byte is shifted out.
/// `TOP / MAX_TOTAL = 256`, so `range / total` never collapses to zero.
const TOP: u32 = 1 << 24;

/// Range encoder with byte-wise renormalisation and carry handling.
///
/// The first emitted byte is always the initial zero cache byte (plus a
/// possible carry), exactly as in the classic LZMA layout; the decoder
/// consumes it before filling its code register.
#[derive(Debug, Clone)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    /// Number of buffered bytes awaiting a possible carry: the cache byte
    /// itself plus any run of `0xFF` bytes after it.
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::with_buffer(Vec::new())
    }

    /// Creates an empty encoder that writes into `buf` (cleared first).
    /// Recycling the buffer returned by [`RangeEncoder::finish`] lets a hot
    /// loop re-encode stream after stream with no steady-state allocation.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: buf,
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            let mut byte = self.cache;
            loop {
                self.out.push(byte.wrapping_add(carry));
                byte = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        // Keep only the 24 bits below the cached byte; the top byte now
        // lives in `cache` (or in the pending-0xFF run).
        self.low = u64::from((self.low as u32) << 8);
    }

    /// Encodes one symbol described by its cumulative interval
    /// `[cum_low, cum_high)` out of `total`.
    ///
    /// # Panics
    /// Panics if the interval is empty or `total` exceeds [`MAX_TOTAL`].
    #[inline]
    pub fn encode(&mut self, cum_low: u32, cum_high: u32, total: u32) {
        debug_assert!(cum_low < cum_high, "empty coding interval");
        debug_assert!(cum_high <= total, "interval exceeds total");
        debug_assert!(total <= MAX_TOTAL, "total {total} exceeds MAX_TOTAL");
        let r = self.range / total;
        self.low += u64::from(r) * u64::from(cum_low);
        // The top symbol absorbs the division remainder so the full range is
        // always covered (the decoder clamps its target the same way).
        self.range = if cum_high == total {
            self.range - r * cum_low
        } else {
            r * (cum_high - cum_low)
        };
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    /// Encodes a raw bit without modelling (bypass mode) by range halving —
    /// no division, no frequency table.
    #[inline]
    pub fn encode_bit_raw(&mut self, bit: bool) {
        let half = self.range >> 1;
        if bit {
            self.low += u64::from(half);
            self.range -= half;
        } else {
            self.range = half;
        }
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    /// Encodes `bits` low-order bits of `value` in bypass mode, MSB first.
    pub fn encode_bits_raw(&mut self, value: u64, bits: u32) {
        for i in (0..bits).rev() {
            self.encode_bit_raw((value >> i) & 1 == 1);
        }
    }

    /// Flushes the coder and returns the compressed bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Range decoder over a compressed byte slice.  Reads zero bytes past the
/// end (the tail of a stream only disambiguates the final interval).
#[derive(Debug, Clone)]
pub struct RangeDecoder<'a> {
    range: u32,
    code: u32,
    bytes: &'a [u8],
    pos: usize,
    /// `range / total` from the most recent [`RangeDecoder::decode_target`],
    /// reused by [`RangeDecoder::decode_update`] so the division happens
    /// once per symbol.
    last_div: u32,
    #[cfg(debug_assertions)]
    last_total: u32,
}

impl<'a> RangeDecoder<'a> {
    /// Creates a decoder over `bytes` (as produced by
    /// [`RangeEncoder::finish`]).
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut dec = RangeDecoder {
            range: u32::MAX,
            code: 0,
            bytes,
            pos: 0,
            last_div: 0,
            #[cfg(debug_assertions)]
            last_total: 0,
        };
        // Skip the encoder's initial cache byte, then fill the code register.
        dec.pos = 1;
        for _ in 0..4 {
            dec.code = (dec.code << 8) | u32::from(dec.next_byte());
        }
        dec
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Bytes of input consumed so far, **including** zero padding read past
    /// the end of the slice.  Hardened decoders compare this against the
    /// real input length to detect truncated streams instead of decoding
    /// padding symbols indefinitely.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Returns the cumulative-frequency position of the next symbol, to be
    /// looked up against the model's CDF.  `total` must match the total used
    /// at encode time.  The internal `range / total` quotient is cached for
    /// the matching [`RangeDecoder::decode_update`] call, which **must**
    /// follow before the next `decode_target`.
    #[inline]
    pub fn decode_target(&mut self, total: u32) -> u32 {
        let r = self.range / total;
        self.last_div = r;
        #[cfg(debug_assertions)]
        {
            self.last_total = total;
        }
        (self.code / r).min(total - 1)
    }

    /// Consumes the symbol whose cumulative interval is
    /// `[cum_low, cum_high)` out of `total` (as resolved from
    /// [`RangeDecoder::decode_target`]'s return value).
    #[inline]
    pub fn decode_update(&mut self, cum_low: u32, cum_high: u32, total: u32) {
        debug_assert!(cum_low < cum_high, "empty coding interval");
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.last_total, total,
            "decode_update total must match the preceding decode_target"
        );
        let r = self.last_div;
        self.code -= r * cum_low;
        self.range = if cum_high == total {
            self.range - r * cum_low
        } else {
            r * (cum_high - cum_low)
        };
        while self.range < TOP {
            self.code = (self.code << 8) | u32::from(self.next_byte());
            self.range <<= 8;
        }
    }

    /// Decodes one binary decision, as [`EntropyDecoder::decode_bit`]:
    /// zero below `p0` out of [`PROB_TOTAL`].  The interval path's integers
    /// without its division or branch: with `r = range >> 12`,
    /// `⌊code/r⌋ ≥ p0 ⇔ code ≥ r·p0`, and its clamp of the target to
    /// `PROB_TOTAL − 1` never flips the bit because `p0` is below that
    /// total; the update then selects between the two intervals' results.
    #[inline]
    pub fn decode_bit(&mut self, p0: u32) -> bool {
        debug_assert!((1..PROB_TOTAL).contains(&p0), "bit probability {p0}");
        let bound = (self.range >> PROB_BITS) * p0;
        let bit = self.code >= bound;
        let one = 0u32.wrapping_sub(u32::from(bit));
        self.code -= bound & one;
        self.range = (bound & !one) | ((self.range - bound) & one);
        while self.range < TOP {
            self.code = (self.code << 8) | u32::from(self.next_byte());
            self.range <<= 8;
        }
        bit
    }

    /// Decodes one raw (bypass) bit by range halving.
    #[inline]
    pub fn decode_bit_raw(&mut self) -> bool {
        let half = self.range >> 1;
        let bit = self.code >= half;
        if bit {
            self.code -= half;
            self.range -= half;
        } else {
            self.range = half;
        }
        while self.range < TOP {
            self.code = (self.code << 8) | u32::from(self.next_byte());
            self.range <<= 8;
        }
        bit
    }

    /// Decodes `bits` bypass bits into an unsigned value, MSB first.
    pub fn decode_bits_raw(&mut self, bits: u32) -> u64 {
        let mut v = 0u64;
        for _ in 0..bits {
            v = (v << 1) | u64::from(self.decode_bit_raw());
        }
        v
    }
}

impl EntropyEncoder for RangeEncoder {
    #[inline]
    fn encode(&mut self, cum_low: u32, cum_high: u32, total: u32) {
        RangeEncoder::encode(self, cum_low, cum_high, total);
    }

    #[inline]
    fn encode_bits_raw(&mut self, value: u64, bits: u32) {
        RangeEncoder::encode_bits_raw(self, value, bits);
    }

    fn finish(self) -> Vec<u8> {
        RangeEncoder::finish(self)
    }
}

impl EntropyDecoder for RangeDecoder<'_> {
    #[inline]
    fn decode_target(&mut self, total: u32) -> u32 {
        RangeDecoder::decode_target(self, total)
    }

    #[inline]
    fn decode_update(&mut self, cum_low: u32, cum_high: u32, total: u32) {
        RangeDecoder::decode_update(self, cum_low, cum_high, total);
    }

    #[inline]
    fn decode_bits_raw(&mut self, bits: u32) -> u64 {
        RangeDecoder::decode_bits_raw(self, bits)
    }

    #[inline]
    fn decode_bit(&mut self, p0: u32) -> bool {
        RangeDecoder::decode_bit(self, p0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bit as the interval path decodes it: `decode_target` then
    /// `decode_update`, what [`EntropyDecoder::decode_bit`] provides.
    fn interval_bit(dec: &mut RangeDecoder<'_>, p0: u32) -> bool {
        let bit = dec.decode_target(PROB_TOTAL) >= p0;
        if bit {
            dec.decode_update(p0, PROB_TOTAL, PROB_TOTAL);
        } else {
            dec.decode_update(0, p0, PROB_TOTAL);
        }
        bit
    }

    /// Decodes one bit per `p0` from `bytes` by both paths, checking that
    /// each step gives the same bit and leaves the same
    /// `(range, code, consumed)`; returns the bits.
    fn assert_bit_paths_agree(bytes: &[u8], p0s: &[u32]) -> Vec<bool> {
        let mut fast = RangeDecoder::new(bytes);
        let mut slow = RangeDecoder::new(bytes);
        let state = |d: &RangeDecoder<'_>| (d.range, d.code, d.consumed());
        p0s.iter()
            .enumerate()
            .map(|(i, &p0)| {
                let bit = fast.decode_bit(p0);
                assert_eq!(bit, interval_bit(&mut slow, p0), "bit {i}, p0 {p0}");
                assert_eq!(state(&fast), state(&slow), "state after bit {i}, p0 {p0}");
                bit
            })
            .collect()
    }

    /// Random `p0 ∈ [1, 4095]` (a sixth of them at the poles) and random
    /// bits, some runs against the odds.
    fn random_bits(seed: u64, n: usize) -> (Vec<u32>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p0s: Vec<u32> = (0..n)
            .map(|_| match rng.gen_range(0..6) {
                0 => 1 + rng.gen_range(0..2) * (PROB_TOTAL - 2),
                _ => rng.gen_range(1..PROB_TOTAL),
            })
            .collect();
        let bits = p0s
            .iter()
            .map(|&p0| rng.gen_range(0..PROB_TOTAL) >= p0 || rng.gen_range(0..8) == 0)
            .collect();
        (p0s, bits)
    }

    #[test]
    fn decode_bit_matches_the_interval_path_on_hostile_streams() {
        let (p0s, _) = random_bits(7, 3000);
        for len in [0usize, 1, 3, 5, 64] {
            assert_bit_paths_agree(&vec![0xFF; len], &p0s);
            assert_bit_paths_agree(&vec![0x00; len], &p0s);
        }
    }

    /// Encodes and decodes a symbol stream against a fixed frequency table.
    fn roundtrip(symbols: &[usize], freqs: &[u32]) -> Vec<usize> {
        let total: u32 = freqs.iter().sum();
        let cdf: Vec<u32> = std::iter::once(0)
            .chain(freqs.iter().scan(0u32, |acc, &f| {
                *acc += f;
                Some(*acc)
            }))
            .collect();
        let mut enc = RangeEncoder::new();
        for &s in symbols {
            enc.encode(cdf[s], cdf[s + 1], total);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let mut out = Vec::with_capacity(symbols.len());
        for _ in 0..symbols.len() {
            let target = dec.decode_target(total);
            let s = cdf.partition_point(|&c| c <= target) - 1;
            dec.decode_update(cdf[s], cdf[s + 1], total);
            out.push(s);
        }
        out
    }

    #[test]
    fn roundtrip_small_known_stream() {
        let freqs = vec![5, 1, 10, 3];
        let symbols = vec![0, 2, 2, 1, 3, 0, 2, 2, 2, 3, 1, 0];
        assert_eq!(roundtrip(&symbols, &freqs), symbols);
    }

    #[test]
    fn roundtrip_single_symbol_alphabet() {
        let freqs = vec![7];
        let symbols = vec![0; 100];
        assert_eq!(roundtrip(&symbols, &freqs), symbols);
    }

    #[test]
    fn roundtrip_empty_stream() {
        let freqs = vec![1, 1];
        let symbols: Vec<usize> = vec![];
        assert_eq!(roundtrip(&symbols, &freqs), symbols);
    }

    #[test]
    fn roundtrip_max_total_and_extreme_skew() {
        // Drives the carry/renormalisation machinery with a near-degenerate
        // distribution at the largest permitted total.
        let freqs = vec![MAX_TOTAL - 3, 1, 1, 1];
        let symbols: Vec<usize> = (0..4000).map(|i| usize::from(i % 997 == 0)).collect();
        assert_eq!(roundtrip(&symbols, &freqs), symbols);
    }

    #[test]
    fn skewed_distribution_compresses_below_uniform() {
        let freqs = [1000, 8];
        let symbols: Vec<usize> = (0..2000).map(|i| usize::from(i % 100 == 0)).collect();
        let total: u32 = freqs.iter().sum();
        let cdf = [0u32, freqs[0], total];
        let mut enc = RangeEncoder::new();
        for &s in &symbols {
            enc.encode(cdf[s], cdf[s + 1], total);
        }
        let bytes = enc.finish();
        assert!(
            bytes.len() * 8 < symbols.len() / 2,
            "skewed stream took {} bits for {} symbols",
            bytes.len() * 8,
            symbols.len()
        );
    }

    #[test]
    fn bypass_bits_roundtrip() {
        let mut enc = RangeEncoder::new();
        enc.encode_bits_raw(0b1011_0010_1111, 12);
        enc.encode_bits_raw(u32::MAX as u64, 32);
        enc.encode_bits_raw(0, 5);
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        assert_eq!(dec.decode_bits_raw(12), 0b1011_0010_1111);
        assert_eq!(dec.decode_bits_raw(32), u32::MAX as u64);
        assert_eq!(dec.decode_bits_raw(5), 0);
    }

    #[test]
    fn mixed_modelled_and_bypass_roundtrip() {
        let freqs = [3u32, 9, 4];
        let total: u32 = freqs.iter().sum();
        let cdf = [0u32, 3, 12, 16];
        let mut enc = RangeEncoder::new();
        enc.encode(cdf[1], cdf[2], total);
        enc.encode_bits_raw(0xABCD, 16);
        enc.encode(cdf[0], cdf[1], total);
        enc.encode(cdf[2], cdf[3], total);
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let t = dec.decode_target(total);
        assert!((cdf[1]..cdf[2]).contains(&t));
        dec.decode_update(cdf[1], cdf[2], total);
        assert_eq!(dec.decode_bits_raw(16), 0xABCD);
        let t = dec.decode_target(total);
        assert!(t < cdf[1]);
        dec.decode_update(cdf[0], cdf[1], total);
        let t = dec.decode_target(total);
        assert!(t >= cdf[2]);
        dec.decode_update(cdf[2], cdf[3], total);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_roundtrip_arbitrary_streams(
            freqs in prop::collection::vec(1u32..200, 2..12),
            raw_symbols in prop::collection::vec(0usize..1000, 0..300),
        ) {
            let k = freqs.len();
            let symbols: Vec<usize> = raw_symbols.iter().map(|&s| s % k).collect();
            prop_assert_eq!(roundtrip(&symbols, &freqs), symbols);
        }

        /// `decode_bit` returns the coded bits and moves the decoder
        /// exactly as the interval path does, on the whole stream and on
        /// every prefix-truncation tried.
        #[test]
        fn prop_decode_bit_matches_the_interval_path(seed in 0u64..1_000_000, n in 1usize..600) {
            let (p0s, bits) = random_bits(seed, n);
            let mut enc = RangeEncoder::new();
            for (&p0, &bit) in p0s.iter().zip(&bits) {
                if bit {
                    enc.encode(p0, PROB_TOTAL, PROB_TOTAL);
                } else {
                    enc.encode(0, p0, PROB_TOTAL);
                }
            }
            let bytes = enc.finish();
            prop_assert_eq!(assert_bit_paths_agree(&bytes, &p0s), bits);
            for cut in [0, 1, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
                assert_bit_paths_agree(&bytes[..cut], &p0s);
            }
        }

        #[test]
        fn prop_bypass_roundtrip(values in prop::collection::vec(0u64..u32::MAX as u64, 1..64)) {
            let mut enc = RangeEncoder::new();
            for &v in &values {
                enc.encode_bits_raw(v, 32);
            }
            let bytes = enc.finish();
            let mut dec = RangeDecoder::new(&bytes);
            for &v in &values {
                prop_assert_eq!(dec.decode_bits_raw(32), v);
            }
        }

        #[test]
        fn prop_mixed_bypass_and_modelled(
            ops in prop::collection::vec(0u32..2000, 1..200),
        ) {
            // Interleaves modelled symbols (uniform 8-symbol alphabet) with
            // bypass payloads in one stream; the low bit of each op picks
            // the path, the rest is the payload.
            let cdf: Vec<u32> = (0..=8).map(|i| i * 4).collect();
            let mut enc = RangeEncoder::new();
            for &op in &ops {
                let v = op >> 1;
                if op & 1 == 0 {
                    let s = (v % 8) as usize;
                    enc.encode(cdf[s], cdf[s + 1], 32);
                } else {
                    enc.encode_bits_raw(u64::from(v % 1024), 10);
                }
            }
            let bytes = enc.finish();
            let mut dec = RangeDecoder::new(&bytes);
            for &op in &ops {
                let v = op >> 1;
                if op & 1 == 0 {
                    let s = (v % 8) as usize;
                    let t = dec.decode_target(32);
                    let got = cdf.partition_point(|&c| c <= t) - 1;
                    prop_assert_eq!(got, s);
                    dec.decode_update(cdf[got], cdf[got + 1], 32);
                } else {
                    prop_assert_eq!(dec.decode_bits_raw(10), u64::from(v % 1024));
                }
            }
        }
    }
}
