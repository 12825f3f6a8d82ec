//! A classic integer arithmetic coder (CACM-87 style with E1/E2/E3
//! renormalisation) producing a byte-packed bitstream.
//!
//! Symbols are coded from cumulative-frequency triples
//! `(cum_low, cum_high, total)` with `total <= MAX_TOTAL`.  The coder is
//! exact: decoding with the same model state reproduces the symbol stream
//! bit-for-bit, which the property tests in this module verify.

/// Maximum allowed total frequency for a coding step.
pub const MAX_TOTAL: u32 = 1 << 16;

const PRECISION: u64 = 32;
const WHOLE: u64 = 1 << PRECISION;
const HALF: u64 = WHOLE / 2;
const QUARTER: u64 = WHOLE / 4;
const THREE_QUARTER: u64 = 3 * QUARTER;

/// Bit-level output buffer that packs bits MSB-first into bytes.
#[derive(Default, Debug, Clone)]
struct BitWriter {
    bytes: Vec<u8>,
    current: u8,
    filled: u8,
}

impl BitWriter {
    fn push(&mut self, bit: bool) {
        self.current = (self.current << 1) | u8::from(bit);
        self.filled += 1;
        if self.filled == 8 {
            self.bytes.push(self.current);
            self.current = 0;
            self.filled = 0;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.current <<= 8 - self.filled;
            self.bytes.push(self.current);
        }
        self.bytes
    }
}

/// Bit-level reader over a byte slice, returning 0 bits past the end (the
/// decoder only consumes a bounded number of trailing bits).
#[derive(Debug, Clone)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bit: u8,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            bit: 0,
        }
    }

    fn next(&mut self) -> bool {
        if self.pos >= self.bytes.len() {
            return false;
        }
        let b = (self.bytes[self.pos] >> (7 - self.bit)) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.pos += 1;
        }
        b == 1
    }
}

/// Arithmetic encoder.
#[derive(Debug, Clone)]
pub struct ArithmeticEncoder {
    low: u64,
    high: u64,
    pending: u64,
    writer: BitWriter,
}

impl Default for ArithmeticEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ArithmeticEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        ArithmeticEncoder {
            low: 0,
            high: WHOLE - 1,
            pending: 0,
            writer: BitWriter::default(),
        }
    }

    /// Encodes one symbol described by its cumulative interval
    /// `[cum_low, cum_high)` out of `total`.
    ///
    /// # Panics
    /// Panics if the interval is empty or `total` exceeds [`MAX_TOTAL`].
    pub fn encode(&mut self, cum_low: u32, cum_high: u32, total: u32) {
        assert!(cum_low < cum_high, "empty coding interval");
        assert!(cum_high <= total, "interval exceeds total");
        assert!(total <= MAX_TOTAL, "total {total} exceeds MAX_TOTAL");
        let range = self.high - self.low + 1;
        let total = total as u64;
        self.high = self.low + range * cum_high as u64 / total - 1;
        self.low += range * cum_low as u64 / total;
        loop {
            if self.high < HALF {
                self.emit(false);
            } else if self.low >= HALF {
                self.emit(true);
                self.low -= HALF;
                self.high -= HALF;
            } else if self.low >= QUARTER && self.high < THREE_QUARTER {
                self.pending += 1;
                self.low -= QUARTER;
                self.high -= QUARTER;
            } else {
                break;
            }
            self.low <<= 1;
            self.high = (self.high << 1) | 1;
        }
    }

    /// Encodes a raw bit without modelling (bypass mode), used for escape
    /// payloads.
    pub fn encode_bit_raw(&mut self, bit: bool) {
        // A raw bit is a symbol with probability 1/2.
        if bit {
            self.encode(1, 2, 2);
        } else {
            self.encode(0, 1, 2);
        }
    }

    /// Encodes `bits` low-order bits of `value` in bypass mode, MSB first.
    pub fn encode_bits_raw(&mut self, value: u64, bits: u32) {
        for i in (0..bits).rev() {
            self.encode_bit_raw((value >> i) & 1 == 1);
        }
    }

    fn emit(&mut self, bit: bool) {
        self.writer.push(bit);
        while self.pending > 0 {
            self.writer.push(!bit);
            self.pending -= 1;
        }
    }

    /// Flushes the coder and returns the compressed bytes.
    pub fn finish(mut self) -> Vec<u8> {
        // Emit enough bits to disambiguate the final interval.
        self.pending += 1;
        if self.low < QUARTER {
            self.emit(false);
        } else {
            self.emit(true);
        }
        self.writer.finish()
    }
}

/// Arithmetic decoder over a compressed byte slice.
#[derive(Debug, Clone)]
pub struct ArithmeticDecoder<'a> {
    low: u64,
    high: u64,
    value: u64,
    reader: BitReader<'a>,
}

impl<'a> ArithmeticDecoder<'a> {
    /// Creates a decoder over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut reader = BitReader::new(bytes);
        let mut value = 0u64;
        for _ in 0..PRECISION {
            value = (value << 1) | u64::from(reader.next());
        }
        ArithmeticDecoder {
            low: 0,
            high: WHOLE - 1,
            value,
            reader,
        }
    }

    /// Returns the cumulative-frequency position of the next symbol, to be
    /// looked up against the model's CDF.  `total` must match the total used
    /// at encode time.
    pub fn decode_target(&self, total: u32) -> u32 {
        let range = self.high - self.low + 1;
        let scaled = ((self.value - self.low + 1) * total as u64 - 1) / range;
        scaled.min(total as u64 - 1) as u32
    }

    /// Consumes the symbol whose cumulative interval is
    /// `[cum_low, cum_high)` out of `total` (as returned by the model after
    /// resolving [`ArithmeticDecoder::decode_target`]).
    pub fn decode_update(&mut self, cum_low: u32, cum_high: u32, total: u32) {
        assert!(cum_low < cum_high, "empty coding interval");
        let range = self.high - self.low + 1;
        let total = total as u64;
        self.high = self.low + range * cum_high as u64 / total - 1;
        self.low += range * cum_low as u64 / total;
        loop {
            if self.high < HALF {
                // nothing
            } else if self.low >= HALF {
                self.low -= HALF;
                self.high -= HALF;
                self.value -= HALF;
            } else if self.low >= QUARTER && self.high < THREE_QUARTER {
                self.low -= QUARTER;
                self.high -= QUARTER;
                self.value -= QUARTER;
            } else {
                break;
            }
            self.low <<= 1;
            self.high = (self.high << 1) | 1;
            self.value = (self.value << 1) | u64::from(self.reader.next());
        }
    }

    /// Decodes one raw (bypass) bit.
    pub fn decode_bit_raw(&mut self) -> bool {
        let target = self.decode_target(2);
        let bit = target >= 1;
        if bit {
            self.decode_update(1, 2, 2);
        } else {
            self.decode_update(0, 1, 2);
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Encodes and decodes a symbol stream against a fixed frequency table.
    fn roundtrip(symbols: &[usize], freqs: &[u32]) -> Vec<usize> {
        let total: u32 = freqs.iter().sum();
        let cdf: Vec<u32> = std::iter::once(0)
            .chain(freqs.iter().scan(0u32, |acc, &f| {
                *acc += f;
                Some(*acc)
            }))
            .collect();
        let mut enc = ArithmeticEncoder::new();
        for &s in symbols {
            enc.encode(cdf[s], cdf[s + 1], total);
        }
        let bytes = enc.finish();
        let mut dec = ArithmeticDecoder::new(&bytes);
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
    fn skewed_distribution_compresses_below_uniform() {
        // A highly skewed stream must take fewer bits than 1 bit/symbol.
        let freqs = [1000, 8];
        let symbols: Vec<usize> = (0..2000).map(|i| usize::from(i % 100 == 0)).collect();
        let total: u32 = freqs.iter().sum();
        let cdf = [0u32, freqs[0], total];
        let mut enc = ArithmeticEncoder::new();
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
        let mut enc = ArithmeticEncoder::new();
        enc.encode_bits_raw(0b1011_0010_1111, 12);
        enc.encode_bits_raw(u32::MAX as u64, 32);
        enc.encode_bits_raw(0, 5);
        let bytes = enc.finish();
        let mut dec = ArithmeticDecoder::new(&bytes);
        assert_eq!(dec.decode_bits_raw(12), 0b1011_0010_1111);
        assert_eq!(dec.decode_bits_raw(32), u32::MAX as u64);
        assert_eq!(dec.decode_bits_raw(5), 0);
    }

    #[test]
    fn mixed_modelled_and_bypass_roundtrip() {
        let freqs = [3u32, 9, 4];
        let total: u32 = freqs.iter().sum();
        let cdf = [0u32, 3, 12, 16];
        let mut enc = ArithmeticEncoder::new();
        enc.encode(cdf[1], cdf[2], total);
        enc.encode_bits_raw(0xABCD, 16);
        enc.encode(cdf[0], cdf[1], total);
        enc.encode(cdf[2], cdf[3], total);
        let bytes = enc.finish();
        let mut dec = ArithmeticDecoder::new(&bytes);
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

        #[test]
        fn prop_bypass_roundtrip(values in prop::collection::vec(0u64..u32::MAX as u64, 1..64)) {
            let mut enc = ArithmeticEncoder::new();
            for &v in &values {
                enc.encode_bits_raw(v, 32);
            }
            let bytes = enc.finish();
            let mut dec = ArithmeticDecoder::new(&bytes);
            for &v in &values {
                prop_assert_eq!(dec.decode_bits_raw(32), v);
            }
        }
    }
}
