//! Adaptive binary models for the range coder.
//!
//! The models in [`crate::models`] are *static*: they are fitted on the data
//! and shipped in the stream header.  A general-purpose lossless stage (the
//! `gld-lz` crate) cannot afford a header per stream, so it codes its
//! sequence symbols with **adaptive** models instead: every coded bit
//! updates the probability estimate by an exponential decay toward the
//! observed value, and the decoder replays exactly the same updates, so the
//! two sides stay in lock-step with no serialised tables at all.
//!
//! Two shapes are provided:
//!
//! * [`AdaptiveBitModel`] — one binary probability, LZMA-style shift
//!   update;
//! * [`AdaptiveTreeModel`] — an n-bit symbol coded MSB-first through a
//!   complete binary tree of bit models, one per reachable context, which
//!   is the classic bit-tree construction of an adaptive order-0 symbol
//!   model (an 8-bit tree *is* an adaptive byte model).
//!
//! Both are generic over [`EntropyEncoder`]/[`EntropyDecoder`], like every
//! other model in this crate, so the equivalence suite can drive them
//! through the reference arithmetic coder as well as the production range
//! coder.

use crate::backend::{EntropyDecoder, EntropyEncoder};

/// Bits of an adaptive binary model's probabilities.
pub(crate) const PROB_BITS: u32 = 12;

/// Total frequency of an adaptive binary model (12-bit probabilities, well
/// under [`crate::arith::MAX_TOTAL`]).
pub const PROB_TOTAL: u32 = 1 << PROB_BITS;

/// Initial (uniform) probability of a zero bit.
const PROB_INIT: u16 = (PROB_TOTAL / 2) as u16;

/// Adaptation rate: each update moves the estimate 1/32 of the way toward
/// the observed bit.
const ADAPT_SHIFT: u32 = 5;

/// One adaptive binary probability.
///
/// The estimate can never reach 0 or [`PROB_TOTAL`] (the shift update
/// stalls a few counts short of either pole), so both coding intervals stay
/// non-empty for every possible history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBitModel {
    /// Probability of a **zero** bit, out of [`PROB_TOTAL`].
    p0: u16,
}

impl Default for AdaptiveBitModel {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveBitModel {
    /// A fresh model at the uniform estimate.
    pub fn new() -> Self {
        AdaptiveBitModel { p0: PROB_INIT }
    }

    /// Resets the model to the uniform estimate (cheap re-use between
    /// independent streams).
    pub fn reset(&mut self) {
        self.p0 = PROB_INIT;
    }

    /// The current zero-bit probability estimate (out of [`PROB_TOTAL`]).
    ///
    /// Together with [`AdaptiveBitModel::from_probability`] this lets a
    /// trained model be snapshotted into a profile table and restored on the
    /// decode side, warm-starting a fresh stream at the converged estimate
    /// instead of the uniform one.
    pub fn probability(&self) -> u16 {
        self.p0
    }

    /// Reconstructs a model at a snapshotted estimate.
    ///
    /// The estimate is clamped into the open interval `(0, PROB_TOTAL)` so a
    /// corrupted or adversarial snapshot can never create an empty coding
    /// interval: every restored model remains able to code both bit values.
    pub fn from_probability(p0: u16) -> Self {
        AdaptiveBitModel {
            p0: p0.clamp(1, (PROB_TOTAL - 1) as u16),
        }
    }

    /// Moves the estimate 1/32 of the way toward `bit`.  Both results are
    /// computed and the bit's mask picks one, so a bit the model cannot
    /// predict costs no branch misprediction.
    #[inline]
    fn update(&mut self, bit: bool) {
        let p0 = self.p0;
        let one = 0u16.wrapping_sub(u16::from(bit));
        let down = p0 - (p0 >> ADAPT_SHIFT);
        let up = p0 + ((PROB_TOTAL as u16 - p0) >> ADAPT_SHIFT);
        self.p0 = (down & one) | (up & !one);
    }

    /// Encodes one bit and adapts.
    #[inline]
    pub fn encode<E: EntropyEncoder>(&mut self, enc: &mut E, bit: bool) {
        let p0 = u32::from(self.p0);
        if bit {
            enc.encode(p0, PROB_TOTAL, PROB_TOTAL);
        } else {
            enc.encode(0, p0, PROB_TOTAL);
        }
        self.update(bit);
    }

    /// Decodes one bit and adapts (mirror of [`AdaptiveBitModel::encode`]).
    #[inline]
    pub fn decode<D: EntropyDecoder>(&mut self, dec: &mut D) -> bool {
        let bit = dec.decode_bit(u32::from(self.p0));
        self.update(bit);
        bit
    }
}

/// An adaptive order-0 model over `bits`-wide symbols, realised as a binary
/// tree of [`AdaptiveBitModel`]s coded MSB-first.  `AdaptiveTreeModel::new(8)`
/// is an adaptive byte model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveTreeModel {
    bits: u32,
    /// One node per internal tree context; index 1 is the root, node `c`
    /// branches to `2c` / `2c + 1`.
    nodes: Vec<AdaptiveBitModel>,
}

impl AdaptiveTreeModel {
    /// A fresh tree over `bits`-wide symbols (1 ≤ `bits` ≤ 16).
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "tree width {bits} out of range");
        AdaptiveTreeModel {
            bits,
            nodes: vec![AdaptiveBitModel::new(); 1 << bits],
        }
    }

    /// Resets every node to the uniform estimate.
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.reset();
        }
    }

    /// Symbol width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of internal bit-model nodes (`1 << bits`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Appends every node's probability estimate to `out` (root at index 1;
    /// index 0 is an unused placeholder, emitted too so offsets stay
    /// trivially `1 << bits` wide).
    pub fn snapshot_into(&self, out: &mut Vec<u16>) {
        out.extend(self.nodes.iter().map(AdaptiveBitModel::probability));
    }

    /// Restores every node from a snapshot produced by
    /// [`AdaptiveTreeModel::snapshot_into`].  Each probability is clamped
    /// like [`AdaptiveBitModel::from_probability`], so restoring an
    /// untrusted snapshot is safe (the tree still codes every symbol).
    ///
    /// # Panics
    ///
    /// Panics if `probs` is not exactly `1 << bits` long — callers validate
    /// snapshot lengths before restoring.
    pub fn restore_from(&mut self, probs: &[u16]) {
        assert_eq!(probs.len(), self.nodes.len(), "snapshot length mismatch");
        for (node, &p) in self.nodes.iter_mut().zip(probs) {
            *node = AdaptiveBitModel::from_probability(p);
        }
    }

    /// Encodes `value` (must fit in the tree's width), MSB first.
    #[inline]
    pub fn encode<E: EntropyEncoder>(&mut self, enc: &mut E, value: u32) {
        debug_assert!(value < (1 << self.bits), "value {value} exceeds tree");
        let mut ctx = 1usize;
        for i in (0..self.bits).rev() {
            let bit = (value >> i) & 1 == 1;
            self.nodes[ctx].encode(enc, bit);
            ctx = (ctx << 1) | usize::from(bit);
        }
    }

    /// Decodes one symbol, MSB first.
    #[inline]
    pub fn decode<D: EntropyDecoder>(&mut self, dec: &mut D) -> u32 {
        let mut ctx = 1usize;
        for _ in 0..self.bits {
            let bit = self.nodes[ctx].decode(dec);
            ctx = (ctx << 1) | usize::from(bit);
        }
        ctx as u32 - (1 << self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ArithmeticBackend, EntropyBackend, RangeBackend};

    fn bit_roundtrip_via<B: EntropyBackend>() {
        let bits: Vec<bool> = (0..4000).map(|i| i % 7 == 0 || i % 3 == 1).collect();
        let mut model = AdaptiveBitModel::new();
        let mut enc = B::encoder();
        for &b in &bits {
            model.encode(&mut enc, b);
        }
        let stream = enc.finish();
        let mut model = AdaptiveBitModel::new();
        let mut dec = B::decoder(&stream);
        for &b in &bits {
            assert_eq!(model.decode(&mut dec), b);
        }
    }

    #[test]
    fn adaptive_bit_roundtrips_on_both_backends() {
        bit_roundtrip_via::<RangeBackend>();
        bit_roundtrip_via::<ArithmeticBackend>();
    }

    #[test]
    fn skewed_bits_compress_below_uniform() {
        let bits: Vec<bool> = (0..8000).map(|i| i % 97 == 0).collect();
        let mut model = AdaptiveBitModel::new();
        let mut enc = crate::range::RangeEncoder::new();
        for &b in &bits {
            model.encode(&mut enc, b);
        }
        let stream = enc.finish();
        assert!(
            stream.len() * 8 < bits.len() / 2,
            "adaptive model took {} bits for {} skewed bits",
            stream.len() * 8,
            bits.len()
        );
    }

    #[test]
    fn extreme_histories_keep_probabilities_in_range() {
        // A long run of one value must not push the estimate to a pole
        // (which would create an empty coding interval); flipping afterwards
        // must still round-trip.
        for &run_bit in &[false, true] {
            let mut stream_bits = vec![run_bit; 10_000];
            stream_bits.extend([!run_bit, run_bit, !run_bit]);
            let mut model = AdaptiveBitModel::new();
            let mut enc = crate::range::RangeEncoder::new();
            for &b in &stream_bits {
                model.encode(&mut enc, b);
            }
            let stream = enc.finish();
            let mut model = AdaptiveBitModel::new();
            let mut dec = crate::range::RangeDecoder::new(&stream);
            for &b in &stream_bits {
                assert_eq!(model.decode(&mut dec), b);
            }
        }
    }

    #[test]
    fn tree_model_roundtrips_bytes() {
        let data: Vec<u32> = (0..3000).map(|i| (i * i % 251) as u32).collect();
        let mut model = AdaptiveTreeModel::new(8);
        let mut enc = crate::range::RangeEncoder::new();
        for &v in &data {
            model.encode(&mut enc, v);
        }
        let stream = enc.finish();
        let mut model = AdaptiveTreeModel::new(8);
        let mut dec = crate::range::RangeDecoder::new(&stream);
        for &v in &data {
            assert_eq!(model.decode(&mut dec), v);
        }
    }

    #[test]
    fn snapshot_restore_replays_trained_state() {
        // Train a bit model, snapshot it, and check the restored copy codes
        // a fresh stream byte-identically to the original trained model.
        let mut trained = AdaptiveBitModel::new();
        let mut warmup = crate::range::RangeEncoder::new();
        for i in 0..500 {
            trained.encode(&mut warmup, i % 11 == 0);
        }
        let restored = AdaptiveBitModel::from_probability(trained.probability());
        let payload: Vec<bool> = (0..300).map(|i| i % 13 == 0).collect();
        let encode_with = |mut m: AdaptiveBitModel| {
            let mut enc = crate::range::RangeEncoder::new();
            for &b in &payload {
                m.encode(&mut enc, b);
            }
            enc.finish()
        };
        assert_eq!(encode_with(trained), encode_with(restored));
    }

    #[test]
    fn restored_probability_is_clamped_off_the_poles() {
        for p in [0u16, 1, (PROB_TOTAL - 1) as u16, u16::MAX] {
            let model = AdaptiveBitModel::from_probability(p);
            assert!(model.probability() >= 1);
            assert!(u32::from(model.probability()) < PROB_TOTAL);
            // The restored model must still round-trip both bit values.
            let bits = [true, false, true, true, false];
            let mut enc_model = model;
            let mut enc = crate::range::RangeEncoder::new();
            for &b in &bits {
                enc_model.encode(&mut enc, b);
            }
            let stream = enc.finish();
            let mut dec_model = model;
            let mut dec = crate::range::RangeDecoder::new(&stream);
            for &b in &bits {
                assert_eq!(dec_model.decode(&mut dec), b);
            }
        }
    }

    #[test]
    fn tree_snapshot_roundtrips_through_restore() {
        let mut trained = AdaptiveTreeModel::new(8);
        let mut warmup = crate::range::RangeEncoder::new();
        for i in 0..2000u32 {
            trained.encode(&mut warmup, i * 7 % 256);
        }
        let mut probs = Vec::new();
        trained.snapshot_into(&mut probs);
        assert_eq!(probs.len(), trained.node_count());
        let mut restored = AdaptiveTreeModel::new(8);
        restored.restore_from(&probs);
        assert_eq!(restored, trained);
    }

    #[test]
    fn tree_reset_equals_fresh() {
        let data = [3u32, 1, 4, 1, 5, 9, 2, 6];
        let mut fresh = AdaptiveTreeModel::new(4);
        let mut enc = crate::range::RangeEncoder::new();
        for &v in &data {
            fresh.encode(&mut enc, v);
        }
        let fresh_stream = enc.finish();

        let mut reused = AdaptiveTreeModel::new(4);
        let mut warmup = crate::range::RangeEncoder::new();
        for v in 0..16 {
            reused.encode(&mut warmup, v);
        }
        reused.reset();
        let mut enc = crate::range::RangeEncoder::new();
        for &v in &data {
            reused.encode(&mut enc, v);
        }
        assert_eq!(enc.finish(), fresh_stream, "reset must erase all history");
    }
}
