//! Symbol models layered on the entropy coders.
//!
//! * [`GaussianConditionalModel`] codes quantised latents `y` whose per
//!   element mean and scale are predicted by the hyperprior (paper Eq. 1–2).
//! * [`HistogramModel`] codes hyper-latents `z` with a data-built factorised
//!   histogram prior that is serialised into the stream header — the
//!   practical stand-in for the paper's non-parametric density model \[4\].
//!   Decoding resolves symbols through a precomputed slot→bin lookup table
//!   instead of a per-symbol binary search.
//! * [`BypassCoder`] writes raw integers for escape paths.
//! * [`BitCounter`] accumulates theoretical code lengths for rate accounting.
//!
//! All coding entry points are generic over
//! [`EntropyEncoder`]/[`EntropyDecoder`], so the same model drives both the
//! production range coder and the reference arithmetic coder.

use crate::arith::MAX_TOTAL;
use crate::backend::{EntropyDecoder, EntropyEncoder};
use crate::gaussian::{normal_cdf, quantized_gaussian_bits};
use crate::reader::{ByteReader, ReadError};
use std::sync::OnceLock;

/// Total frequency budget used when quantising probability models.
const MODEL_TOTAL: u32 = MAX_TOTAL / 2;

/// Upper bound on the decode lookup table length (slots).  1024 slots cover
/// a full `MODEL_TOTAL` range with a shift of 5 — small enough to stay
/// cache-resident, large enough that the forward scan after the table hit is
/// a handful of steps on realistic histograms.
const LUT_SLOTS: usize = 1024;

/// Number of standard deviations covered by the explicit symbol window of the
/// Gaussian conditional model; values outside are escape-coded.
const TAIL_SIGMAS: f64 = 8.0;

/// Maximum half-width of the explicit symbol window.
const MAX_HALF_WIDTH: i64 = 255;

// ----------------------------------------------------------------------
// Bypass coding of raw integers
// ----------------------------------------------------------------------

/// Raw (model-free) integer coding used for escape values.
pub struct BypassCoder;

impl BypassCoder {
    /// Encodes a signed 32-bit integer with a zig-zag mapping.
    pub fn encode_i32<E: EntropyEncoder>(enc: &mut E, value: i32) {
        let zigzag = ((value << 1) ^ (value >> 31)) as u32;
        enc.encode_bits_raw(zigzag as u64, 32);
    }

    /// Decodes a signed 32-bit integer written by
    /// [`BypassCoder::encode_i32`].
    pub fn decode_i32<D: EntropyDecoder>(dec: &mut D) -> i32 {
        let zigzag = dec.decode_bits_raw(32) as u32;
        ((zigzag >> 1) as i32) ^ -((zigzag & 1) as i32)
    }
}

// ----------------------------------------------------------------------
// Gaussian conditional model
// ----------------------------------------------------------------------

/// Entropy model for quantised latents with per-element Gaussian parameters.
///
/// For each element the model builds a quantised CDF over an integer window
/// centred at the predicted mean, plus an escape symbol for outliers; escapes
/// carry a raw 32-bit payload.  Encoding and decoding must be driven with the
/// *same* mean/scale sequences (both sides derive them from the decoded
/// hyper-latents), which makes the scheme lossless for the quantised symbols.
#[derive(Debug, Clone, Default)]
pub struct GaussianConditionalModel;

/// Most explicit symbols a window can hold.
const MAX_SYMBOLS: usize = 2 * MAX_HALF_WIDTH as usize + 1;

/// Discarded fractions of a window's frequencies that prove its escape bin
/// non-empty (see [`Window::total`]).
const PROVEN_SLACK: f64 = 0.75;

/// How far below the mean [`Window::skip_lower_tail`] looks for the end of
/// the all-ones stretch: `Φ(−4.2)·MODEL_TOTAL ≈ 0.44` of a count.
const LOWER_TAIL_SIGMAS: f64 = 4.2;

/// Below this mass of the distribution inside the window, rounding noise in
/// the CDF is no longer negligible against it and [`Window::total`] takes no
/// shortcut.  (Needs `σ` in the hundreds of millions.)
const MIN_SPAN: f64 = 1e-6;

/// The quantised CDF of one element: an integer window centred at the
/// predicted mean, each symbol's frequency proportional to its Gaussian mass,
/// then an escape bin holding what is left of [`MODEL_TOTAL`].
///
/// A window is up to 511 bins and every bin edge costs an `exp`, so the table
/// is filled from the bottom only as far as a query needs: up to the coded
/// symbol, or up to the decoder's target.
struct Window<'a> {
    mean: f64,
    std: f64,
    lo: i64,
    symbols: usize,
    budget: f64,
    span: f64,
    /// `cum[..=filled]` are final; `cum[i]` is the cumulative frequency
    /// below symbol `lo + i`.
    cum: &'a mut [u32; MAX_SYMBOLS + 1],
    filled: usize,
    /// CDF at the upper edge of the last filled bin.
    edge: f64,
    /// Sum of the fractions of `p·budget` lost to truncation so far (only
    /// read when `span ≥ MIN_SPAN`, where every share fits a `u32`).
    slack: f64,
}

impl<'a> Window<'a> {
    fn new(mean: f64, std: f64, cum: &'a mut [u32; MAX_SYMBOLS + 1]) -> Self {
        let std = std.max(1e-3);
        let centre = mean.round() as i64;
        let half = ((std * TAIL_SIGMAS).ceil() as i64).clamp(1, MAX_HALF_WIDTH);
        let (lo, hi) = (centre - half, centre + half);
        let symbols = (hi - lo + 1) as usize;
        let edge = normal_cdf(lo as f64 - 0.5, mean, std);
        let span = (normal_cdf(hi as f64 + 0.5, mean, std) - edge).max(1e-12);
        cum[0] = 0;
        let mut window = Window {
            mean,
            std,
            lo,
            symbols,
            budget: (MODEL_TOTAL - symbols as u32 - 1) as f64,
            span,
            cum,
            filled: 0,
            edge,
            slack: 0.0,
        };
        window.skip_lower_tail();
        window
    }

    /// Far enough below the mean the bins *together* hold less than one
    /// count of the budget, so each has frequency exactly 1: one CDF
    /// evaluation at the end of that stretch stands in for one per bin.
    fn skip_lower_tail(&mut self) {
        let stretch = (self.mean - LOWER_TAIL_SIGMAS * self.std - self.lo as f64).floor();
        if !(stretch >= 1.0 && self.span >= MIN_SPAN) {
            return;
        }
        let stretch = (stretch as usize).min(self.symbols);
        let upper = normal_cdf((self.lo + stretch as i64) as f64 - 0.5, self.mean, self.std);
        if (upper - self.edge) / self.span * self.budget < 0.99 {
            for (i, c) in self.cum[..=stretch].iter_mut().enumerate() {
                *c = i as u32;
            }
            self.filled = stretch;
            self.edge = upper;
        }
    }

    /// Fills bins — frequency `1 + ⌊p·budget⌋` each — while `more` says so
    /// (and there are bins left).
    fn fill_while(&mut self, more: impl Fn(&Self) -> bool) {
        while self.filled < self.symbols && more(self) {
            let upper_edge = (self.lo + self.filled as i64) as f64 + 0.5;
            let upper = normal_cdf(upper_edge, self.mean, self.std);
            let share = (upper - self.edge).max(0.0) / self.span * self.budget;
            self.edge = upper;
            let whole = share as u32;
            self.slack += share - whole as f64;
            self.cum[self.filled + 1] = self.cum[self.filled] + 1 + whole;
            self.filled += 1;
        }
    }

    /// The coder total: all symbol frequencies plus an escape bin of
    /// `MODEL_TOTAL − allocated − 1`, at least 1.
    ///
    /// The shares `p·budget` sum to `budget` (up to float noise far below a
    /// count), so once the fractions truncation has discarded sum past
    /// [`PROVEN_SLACK`] the floors must leave a count spare: the escape bin
    /// is non-empty and the total is `MODEL_TOTAL − 1` whatever the bins not
    /// yet filled turn out to be.  Only a window whose mass sits in bins of
    /// (near-)integer share — a spike narrower than a bin — gets filled to
    /// the end, and then the total is computed outright.
    fn total(&mut self) -> u32 {
        let shortcut = self.span >= MIN_SPAN;
        self.fill_while(|w| !(shortcut && w.slack >= PROVEN_SLACK));
        if self.filled < self.symbols {
            return MODEL_TOTAL - 1;
        }
        let allocated = self.cum[self.symbols];
        allocated + (MODEL_TOTAL - allocated - 1).max(1)
    }

    /// Cumulative interval of the symbol at window index `index`;
    /// `index == self.symbols` is the escape bin.
    fn interval(&mut self, index: usize) -> (u32, u32) {
        if index == self.symbols {
            let total = self.total();
            self.fill_while(|_| true);
            return (self.cum[self.symbols], total);
        }
        self.fill_while(|w| w.filled <= index);
        (self.cum[index], self.cum[index + 1])
    }

    /// Window index of the bin whose interval contains `target`.
    fn find(&mut self, target: u32) -> usize {
        self.fill_while(|w| w.cum[w.filled] <= target);
        self.cum[..=self.filled].partition_point(|&c| c <= target) - 1
    }
}

impl GaussianConditionalModel {
    /// Creates the model (stateless; provided for API symmetry).
    pub fn new() -> Self {
        GaussianConditionalModel
    }

    /// Encodes `symbols[i]` under `N(means[i], scales[i]²)`.
    pub fn encode<E: EntropyEncoder>(
        &self,
        enc: &mut E,
        symbols: &[i32],
        means: &[f32],
        scales: &[f32],
    ) {
        assert_eq!(symbols.len(), means.len(), "means length mismatch");
        assert_eq!(symbols.len(), scales.len(), "scales length mismatch");
        let mut cum = [0u32; MAX_SYMBOLS + 1];
        for ((&s, &m), &sd) in symbols.iter().zip(means).zip(scales) {
            let mut w = Window::new(m as f64, sd as f64, &mut cum);
            let index = usize::try_from(s as i64 - w.lo).map_or(w.symbols, |i| i.min(w.symbols));
            let (low, high) = w.interval(index);
            enc.encode(low, high, w.total());
            if index == w.symbols {
                BypassCoder::encode_i32(enc, s);
            }
        }
    }

    /// Decodes a symbol sequence; `means`/`scales` must match encoding.
    pub fn decode<D: EntropyDecoder>(
        &self,
        dec: &mut D,
        means: &[f32],
        scales: &[f32],
    ) -> Vec<i32> {
        assert_eq!(means.len(), scales.len(), "scales length mismatch");
        let mut out = Vec::with_capacity(means.len());
        let mut cum = [0u32; MAX_SYMBOLS + 1];
        for (&m, &sd) in means.iter().zip(scales) {
            let mut w = Window::new(m as f64, sd as f64, &mut cum);
            let total = w.total();
            let index = w.find(dec.decode_target(total));
            let (low, high) = w.interval(index);
            dec.decode_update(low, high, total);
            if index == w.symbols {
                out.push(BypassCoder::decode_i32(dec));
            } else {
                out.push((w.lo + index as i64) as i32);
            }
        }
        out
    }

    /// Theoretical number of bits for the symbol stream (without actually
    /// coding it); useful for fast rate estimates.
    pub fn estimate_bits(&self, symbols: &[i32], means: &[f32], scales: &[f32]) -> f64 {
        symbols
            .iter()
            .zip(means)
            .zip(scales)
            .map(|((&s, &m), &sd)| {
                quantized_gaussian_bits(s as i64, m as f64, (sd as f64).max(1e-3))
            })
            .sum()
    }
}

// ----------------------------------------------------------------------
// Histogram (factorized prior) model
// ----------------------------------------------------------------------

/// A static histogram model built from the data itself and shipped in the
/// stream header — the factorized prior for hyper-latents `z`.
///
/// Alongside the cumulative-frequency table used for encoding, the model
/// precomputes a slot→bin lookup table so the decode-side symbol search is a
/// table hit plus a short forward scan instead of a binary search per
/// symbol.
#[derive(Debug, Clone)]
pub struct HistogramModel {
    min: i32,
    freqs: Vec<u32>,
    cdf: Vec<u32>,
    /// Decode-side lookup table, built lazily on the first
    /// [`HistogramModel::decode_symbol`] call so the compress path (which
    /// only encodes) never pays for it.
    lut: OnceLock<DecodeLut>,
}

/// `slots[target >> shift]` is the index of the first bin whose cumulative
/// interval can contain `target`; the true bin is found by scanning forward
/// from there (never backward).  The scan runs on the kernel backend that
/// was active when the table was built — all backends are bit-identical,
/// so the choice only affects throughput.
#[derive(Debug, Clone)]
struct DecodeLut {
    slots: Vec<u16>,
    shift: u32,
    backend: gld_kernels::Backend,
}

/// Model identity is its fitted distribution; the lazily built decode table
/// is derived state and deliberately excluded.
impl PartialEq for HistogramModel {
    fn eq(&self, other: &Self) -> bool {
        self.min == other.min && self.freqs == other.freqs
    }
}

impl Eq for HistogramModel {}

impl HistogramModel {
    /// Builds a histogram over the symbol range present in `symbols`.  Only
    /// observed symbols receive probability mass (the model is always fitted
    /// on exactly the stream it will encode), which keeps the serialised
    /// header proportional to the number of *distinct* symbols rather than
    /// the symbol range.  An empty slice yields a degenerate single-bin
    /// model.
    pub fn fit(symbols: &[i32]) -> Self {
        if symbols.is_empty() {
            return Self::from_freqs(0, vec![1]);
        }
        let min = *symbols.iter().min().unwrap();
        let max = *symbols.iter().max().unwrap();
        let bins = (max - min + 1) as usize;
        assert!(
            bins <= (MODEL_TOTAL / 2) as usize,
            "symbol range {bins} too wide for a histogram model"
        );
        let mut counts = vec![0u64; bins];
        for &s in symbols {
            counts[(s - min) as usize] += 1;
        }
        Self::from_counts(min, counts)
    }

    /// Pools several fitted models into one histogram over the union of
    /// their symbol ranges, summing per-bin frequency mass.  Each input is
    /// already normalised to the same coding budget, so every model
    /// contributes equal weight — the cross-frame shared model of container
    /// v4 is built this way from a sample of a variable's windows.  Returns
    /// `None` for an empty input.
    pub fn merged<'a, I>(models: I) -> Option<HistogramModel>
    where
        I: IntoIterator<Item = &'a HistogramModel>,
    {
        let models: Vec<&HistogramModel> = models.into_iter().collect();
        let min = models.iter().map(|m| m.min).min()?;
        let max = models.iter().map(|m| m.max_symbol()).max()?;
        let bins = (max - min + 1) as usize;
        assert!(
            bins <= (MODEL_TOTAL / 2) as usize,
            "merged symbol range {bins} too wide for a histogram model"
        );
        let mut counts = vec![0u64; bins];
        for m in models {
            for (i, &f) in m.freqs.iter().enumerate() {
                counts[(m.min - min) as usize + i] += f as u64;
            }
        }
        Some(Self::from_counts(min, counts))
    }

    /// Rescales raw per-bin counts to the fixed coding budget and builds the
    /// model: observed bins keep ≥ 1, unobserved bins stay exactly 0.
    fn from_counts(min: i32, counts: Vec<u64>) -> Self {
        let total_count: u64 = counts.iter().sum();
        // Rescale observed bins to the fixed coding budget, keeping every
        // observed bin ≥ 1 and unobserved bins at exactly 0.
        let budget = MODEL_TOTAL as u64;
        let mut freqs: Vec<u32> = counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    0
                } else {
                    (((c * budget) / total_count) as u32).max(1)
                }
            })
            .collect();
        // Fix the total exactly to MODEL_TOTAL by trimming/boosting the
        // largest bins while keeping observed bins ≥ 1.
        let mut sum: u32 = freqs.iter().sum();
        if sum < MODEL_TOTAL {
            let largest = freqs
                .iter()
                .enumerate()
                .max_by_key(|(_, &f)| f)
                .map(|(i, _)| i)
                .unwrap();
            freqs[largest] += MODEL_TOTAL - sum;
        } else {
            while sum > MODEL_TOTAL {
                let largest = freqs
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &f)| f)
                    .map(|(i, _)| i)
                    .unwrap();
                let take = (sum - MODEL_TOTAL).min(freqs[largest].saturating_sub(1));
                assert!(take > 0, "histogram rescale could not converge");
                freqs[largest] -= take;
                sum -= take;
            }
        }
        Self::from_freqs(min, freqs)
    }

    fn from_freqs(min: i32, freqs: Vec<u32>) -> Self {
        let mut cdf = Vec::with_capacity(freqs.len() + 1);
        let mut acc = 0u32;
        cdf.push(0);
        for &f in &freqs {
            acc += f;
            cdf.push(acc);
        }
        HistogramModel {
            min,
            freqs,
            cdf,
            lut: OnceLock::new(),
        }
    }

    /// Builds the slot→bin decode table: slot `s` starts at target
    /// `s << shift` and maps to the bin containing that target.  A
    /// degenerate total of zero (possible only for a corrupt serialised
    /// model) or an oversized bin table yields an empty LUT; decoding then
    /// falls back to the binary-search path.
    fn build_lut(cdf: &[u32], bins: usize) -> DecodeLut {
        let total = *cdf.last().unwrap();
        let mut shift = 0u32;
        let mut slots = Vec::new();
        if total > 0 && bins <= usize::from(u16::MAX) {
            while (((total - 1) >> shift) as usize) + 1 > LUT_SLOTS {
                shift += 1;
            }
            let n_slots = (((total - 1) >> shift) as usize) + 1;
            slots.reserve_exact(n_slots);
            let mut bin = 0usize;
            for s in 0..n_slots {
                let target = (s as u32) << shift;
                while cdf[bin + 1] <= target {
                    bin += 1;
                }
                slots.push(bin as u16);
            }
        }
        DecodeLut {
            slots,
            shift,
            backend: gld_kernels::active(),
        }
    }

    /// Lowest representable symbol.
    pub fn min_symbol(&self) -> i32 {
        self.min
    }

    /// Highest representable symbol.
    pub fn max_symbol(&self) -> i32 {
        self.min + self.freqs.len() as i32 - 1
    }

    fn total(&self) -> u32 {
        *self.cdf.last().unwrap()
    }

    /// Serialises the model (to be stored in the compressed header).  The
    /// encoding is sparse — only bins with non-zero frequency are written —
    /// so the header cost scales with the number of distinct symbols.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nonzero: Vec<(u32, u32)> = self
            .freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, &f)| (i as u32, f))
            .collect();
        let mut out = Vec::with_capacity(12 + nonzero.len() * 8);
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&(self.freqs.len() as u32).to_le_bytes());
        out.extend_from_slice(&(nonzero.len() as u32).to_le_bytes());
        for (offset, freq) in nonzero {
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&freq.to_le_bytes());
        }
        out
    }

    /// Deserialises a model written by [`HistogramModel::to_bytes`] from
    /// **untrusted** bytes, returning it and the number of bytes consumed.
    /// Every read is bounds-checked, bin counts larger than a fitted model
    /// can produce are rejected *before* allocating, and the frequency total
    /// is verified usable by the coder.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<(Self, usize), ReadError> {
        let mut reader = ByteReader::new(bytes);
        let min = reader.read_u32()? as i32;
        let len = reader.read_u32()? as usize;
        let nonzero = reader.read_u32()?;
        let max_bins = (MODEL_TOTAL / 2) as usize;
        if len == 0 || len > max_bins {
            return Err(ReadError::OversizedBins {
                bins: len,
                max: max_bins,
            });
        }
        let mut freqs = vec![0u32; len];
        for _ in 0..nonzero {
            let offset = reader.read_u32()? as usize;
            let freq = reader.read_u32()?;
            *freqs
                .get_mut(offset)
                .ok_or(ReadError::BadOffset { offset, bins: len })? = freq;
        }
        // Duplicate offsets overwrite, so sum what the model actually holds.
        let total: u64 = freqs.iter().map(|&f| u64::from(f)).sum();
        if total == 0 || total > u64::from(MAX_TOTAL) {
            return Err(ReadError::BadTotal);
        }
        Ok((Self::from_freqs(min, freqs), reader.position()))
    }

    /// [`HistogramModel::try_from_bytes`] over a section the model must
    /// fill exactly — the model table of a codec payload.
    pub fn from_section(bytes: &[u8]) -> Result<Self, ReadError> {
        let (model, used) = Self::try_from_bytes(bytes)?;
        match bytes.len() - used {
            0 => Ok(model),
            extra => Err(ReadError::TrailingBytes(extra)),
        }
    }

    /// Whether `s` can be coded under this model (inside the fitted range
    /// and carrying non-zero probability mass).  Shared-profile encoders use
    /// this to decide between the profile model and a per-frame refit.
    pub fn can_encode(&self, s: i32) -> bool {
        s >= self.min_symbol() && s <= self.max_symbol() && self.freqs[(s - self.min) as usize] > 0
    }

    /// Returns a copy of this model extended with one **overflow bin** just
    /// below its range (the new [`HistogramModel::min_symbol`]).  Shared
    /// entropy profiles are built through this: a frame coded against the
    /// profile writes the overflow symbol plus the raw value for any code
    /// the fitted range cannot represent, so a profile fitted on one window
    /// stays usable on later windows whose tails reach further.  The bin
    /// receives a small fixed slice of the coding budget, taken from the
    /// largest existing bins so the total stays unchanged (a degenerate
    /// model whose bins cannot give up mass grows the total instead, which
    /// the coder accepts).
    pub fn with_escape(&self) -> HistogramModel {
        let total = self.total();
        let escape = (total / 64).max(1);
        let mut freqs = Vec::with_capacity(self.freqs.len() + 1);
        freqs.push(escape);
        freqs.extend_from_slice(&self.freqs);
        let mut sum = total + escape;
        while sum > total {
            let largest = freqs
                .iter()
                .enumerate()
                .skip(1)
                .max_by_key(|(_, &f)| f)
                .map(|(i, _)| i)
                .unwrap();
            let take = (sum - total).min(freqs[largest].saturating_sub(1));
            if take == 0 {
                break;
            }
            freqs[largest] -= take;
            sum -= take;
        }
        Self::from_freqs(self.min - 1, freqs)
    }

    /// Theoretical bits to code one symbol under this model.  Cheap enough
    /// for the per-frame shared-vs-embedded cost decision to call per code.
    #[inline]
    pub fn symbol_bits(&self, s: i32) -> f64 {
        let p = self.freqs[(s - self.min) as usize] as f64 / self.total() as f64;
        -p.log2()
    }

    /// Builds the decode lookup table now (idempotent).  Shared-profile
    /// decoders call this once when a profile is installed, so every frame
    /// referencing the profile decodes against an already-built table —
    /// cloning the model clones the warm table with it.
    pub fn prepare_decode(&self) {
        let _ = self
            .lut
            .get_or_init(|| Self::build_lut(&self.cdf, self.freqs.len()));
    }

    /// Size of the serialised header in bytes.
    pub fn header_bytes(&self) -> usize {
        12 + self.freqs.iter().filter(|&&f| f > 0).count() * 8
    }

    /// Encodes one symbol.  It must lie in the fitted range.
    #[inline]
    pub fn encode_symbol<E: EntropyEncoder>(&self, enc: &mut E, s: i32) {
        assert!(
            s >= self.min_symbol() && s <= self.max_symbol(),
            "symbol {s} outside histogram range [{}, {}]",
            self.min_symbol(),
            self.max_symbol()
        );
        let idx = (s - self.min) as usize;
        enc.encode(self.cdf[idx], self.cdf[idx + 1], self.total());
    }

    /// Encodes a symbol sequence.  Every symbol must lie in the fitted range.
    pub fn encode<E: EntropyEncoder>(&self, enc: &mut E, symbols: &[i32]) {
        for &s in symbols {
            self.encode_symbol(enc, s);
        }
    }

    /// Decodes one symbol, resolving the bin through the precomputed
    /// slot→bin table plus a forward scan.
    #[inline]
    pub fn decode_symbol<D: EntropyDecoder>(&self, dec: &mut D) -> i32 {
        let lut = self
            .lut
            .get_or_init(|| Self::build_lut(&self.cdf, self.freqs.len()));
        if lut.slots.is_empty() {
            // Degenerate model (deserialised with an oversized or zero-mass
            // bin table) — fall back to the search path.
            return self.decode_symbol_binary_search(dec);
        }
        let total = self.total();
        let target = dec.decode_target(total);
        let mut bin = lut.slots[(target >> lut.shift) as usize] as usize;
        if self.cdf[bin + 1] <= target {
            // Slot start fell short of the true bin: hand the forward scan
            // to the active SIMD backend (the common case — an exact slot
            // hit — never pays the indirect call).
            bin = gld_kernels::kernels_for(lut.backend).find_bin(&self.cdf, bin + 1, target);
        }
        dec.decode_update(self.cdf[bin], self.cdf[bin + 1], total);
        self.min + bin as i32
    }

    /// Reference decode path: binary search over the CDF, exactly the
    /// pre-LUT implementation.  Kept callable so the equivalence suite can
    /// prove [`HistogramModel::decode_symbol`] resolves identical bins and
    /// consumes identical stream state.
    #[doc(hidden)]
    pub fn decode_symbol_binary_search<D: EntropyDecoder>(&self, dec: &mut D) -> i32 {
        let total = self.total();
        let target = dec.decode_target(total);
        let bin = self.cdf.partition_point(|&c| c <= target) - 1;
        dec.decode_update(self.cdf[bin], self.cdf[bin + 1], total);
        self.min + bin as i32
    }

    /// Decodes `count` symbols.
    pub fn decode<D: EntropyDecoder>(&self, dec: &mut D, count: usize) -> Vec<i32> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.decode_symbol(dec));
        }
        out
    }

    /// Theoretical bits to code `symbols` under this model.
    pub fn estimate_bits(&self, symbols: &[i32]) -> f64 {
        let total = self.total() as f64;
        symbols
            .iter()
            .map(|&s| {
                let idx = (s - self.min) as usize;
                let p = self.freqs[idx] as f64 / total;
                -p.log2()
            })
            .sum()
    }
}

// ----------------------------------------------------------------------
// Bit counter
// ----------------------------------------------------------------------

/// Accumulates theoretical code lengths, used by the rate-accounting paths
/// that want sizes without running the coder.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitCounter {
    bits: f64,
}

impl BitCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        BitCounter { bits: 0.0 }
    }

    /// Adds the cost of a quantised-Gaussian symbol.
    pub fn add_gaussian(&mut self, symbol: i32, mean: f32, scale: f32) {
        self.bits += quantized_gaussian_bits(symbol as i64, mean as f64, (scale as f64).max(1e-3));
    }

    /// Adds a fixed number of raw bits.
    pub fn add_raw_bits(&mut self, bits: f64) {
        self.bits += bits;
    }

    /// Total accumulated bits.
    pub fn bits(&self) -> f64 {
        self.bits
    }

    /// Total accumulated size in bytes (rounded up).
    pub fn bytes(&self) -> usize {
        (self.bits / 8.0).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::{RangeDecoder, RangeEncoder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn gaussian_model_roundtrip_typical_latents() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2000;
        let means: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let scales: Vec<f32> = (0..n).map(|_| rng.gen_range(0.2..4.0)).collect();
        let symbols: Vec<i32> = means
            .iter()
            .zip(&scales)
            .map(|(&m, &s)| (m + rng.gen_range(-3.0..3.0) * s).round() as i32)
            .collect();
        let model = GaussianConditionalModel::new();
        let mut enc = RangeEncoder::new();
        model.encode(&mut enc, &symbols, &means, &scales);
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let decoded = model.decode(&mut dec, &means, &scales);
        assert_eq!(decoded, symbols);
    }

    /// The encoder this module shipped before windows were filled lazily:
    /// every bin of every window, two CDF evaluations each.  Kept as the
    /// byte-level reference for the lazy one.
    fn reference_encode(enc: &mut RangeEncoder, symbols: &[i32], means: &[f32], scales: &[f32]) {
        for ((&s, &m), &sd) in symbols.iter().zip(means).zip(scales) {
            let (mean, std) = (m as f64, (sd as f64).max(1e-3));
            let centre = mean.round() as i64;
            let half = ((std * TAIL_SIGMAS).ceil() as i64).clamp(1, MAX_HALF_WIDTH);
            let (lo, hi) = (centre - half, centre + half);
            let n_bins = (hi - lo + 1) as usize + 1;
            let budget = MODEL_TOTAL - n_bins as u32;
            let span = (normal_cdf(hi as f64 + 0.5, mean, std)
                - normal_cdf(lo as f64 - 0.5, mean, std))
            .max(1e-12);
            let mut cdf = vec![0u32];
            for k in lo..=hi {
                let p = (normal_cdf(k as f64 + 0.5, mean, std)
                    - normal_cdf(k as f64 - 0.5, mean, std))
                .max(0.0)
                    / span;
                cdf.push(cdf.last().unwrap() + 1 + (p * budget as f64) as u32);
            }
            let allocated = *cdf.last().unwrap();
            cdf.push(allocated + (MODEL_TOTAL - allocated - 1).max(1));
            let total = *cdf.last().unwrap();
            let escape = n_bins - 1;
            let idx = s as i64 - lo;
            if idx >= 0 && (idx as usize) < escape {
                enc.encode(cdf[idx as usize], cdf[idx as usize + 1], total);
            } else {
                enc.encode(cdf[escape], total, total);
                BypassCoder::encode_i32(enc, s);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Byte-for-byte the stream of the full-window encoder, and decoding
        /// it back: over ordinary latents, escapes, `σ` at and beyond both
        /// clamps (spikes narrower than a bin — including on exact integers
        /// and half-integers, where the frequencies leave no slack and the
        /// coder total changes — and windows so wide they clip), and means
        /// far from zero.
        #[test]
        fn prop_lazy_windows_code_the_same_bytes(seed in 0u64..100_000, n in 1usize..120) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut means = Vec::new();
            let mut scales = Vec::new();
            let mut symbols = Vec::new();
            for _ in 0..n {
                let mean: f32 = match rng.gen_range(0..6) {
                    0 => rng.gen_range(-4..4) as f32,
                    1 => rng.gen_range(-4..4) as f32 + 0.5,
                    2 => rng.gen_range(-3.0e4..3.0e4),
                    _ => rng.gen_range(-40.0..40.0),
                };
                let scale: f32 = match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => 1e-3,
                    2 => rng.gen_range(1e-4..0.06),
                    3 => rng.gen_range(31.0..33.0),
                    4 => rng.gen_range(100.0..5000.0),
                    5 => 1e10,
                    _ => rng.gen_range(0.05..12.0),
                };
                let symbol = match rng.gen_range(0..10) {
                    0 => rng.gen_range(-100_000..100_000),
                    1 => mean.round() as i32 + rng.gen_range(-256..257),
                    _ => (mean + rng.gen_range(-3.0..3.0) * scale.min(80.0)).round() as i32,
                };
                means.push(mean);
                scales.push(scale);
                symbols.push(symbol);
            }
            let mut reference = RangeEncoder::new();
            reference_encode(&mut reference, &symbols, &means, &scales);
            let reference = reference.finish();
            let model = GaussianConditionalModel::new();
            let mut enc = RangeEncoder::new();
            model.encode(&mut enc, &symbols, &means, &scales);
            prop_assert_eq!(enc.finish(), reference.clone());
            let decoded = model.decode(&mut RangeDecoder::new(&reference), &means, &scales);
            prop_assert_eq!(decoded, symbols);
        }
    }

    #[test]
    fn gaussian_model_handles_outliers_via_escape() {
        let means = vec![0.0f32; 8];
        let scales = vec![0.5f32; 8];
        // Symbols far outside the 8-sigma window.
        let symbols = vec![0, 1, 100_000, -70_000, 2, -1, i32::MAX / 2, 0];
        let model = GaussianConditionalModel::new();
        let mut enc = RangeEncoder::new();
        model.encode(&mut enc, &symbols, &means, &scales);
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        assert_eq!(model.decode(&mut dec, &means, &scales), symbols);
    }

    #[test]
    fn gaussian_model_rate_tracks_scale() {
        // Coding symbols drawn from a narrow predicted distribution is much
        // cheaper than from a wide one.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4000;
        let model = GaussianConditionalModel::new();
        let mut sizes = Vec::new();
        for &scale in &[0.6f32, 8.0f32] {
            let means = vec![0.0f32; n];
            let scales = vec![scale; n];
            let symbols: Vec<i32> = (0..n)
                .map(|_| (rng.gen_range(-2.0..2.0) * scale).round() as i32)
                .collect();
            let mut enc = RangeEncoder::new();
            model.encode(&mut enc, &symbols, &means, &scales);
            sizes.push(enc.finish().len());
        }
        assert!(
            sizes[0] * 2 < sizes[1],
            "narrow {} vs wide {} bytes",
            sizes[0],
            sizes[1]
        );
    }

    #[test]
    fn gaussian_estimate_close_to_actual_size() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 3000;
        let means = vec![0.0f32; n];
        let scales = vec![2.0f32; n];
        let symbols: Vec<i32> = (0..n)
            .map(|_| rng.gen_range(-6.0f32..6.0).round() as i32)
            .collect();
        let model = GaussianConditionalModel::new();
        let est_bits = model.estimate_bits(&symbols, &means, &scales);
        let mut enc = RangeEncoder::new();
        model.encode(&mut enc, &symbols, &means, &scales);
        let actual_bits = (enc.finish().len() * 8) as f64;
        let ratio = actual_bits / est_bits;
        assert!(
            ratio > 0.9 && ratio < 1.2,
            "estimate {est_bits} vs actual {actual_bits}"
        );
    }

    #[test]
    fn histogram_roundtrip_and_serialization() {
        let mut rng = StdRng::seed_from_u64(7);
        let symbols: Vec<i32> = (0..5000).map(|_| rng.gen_range(-12..13)).collect();
        let model = HistogramModel::fit(&symbols);
        let bytes = model.to_bytes();
        let (restored, used) = HistogramModel::try_from_bytes(&bytes).expect("valid model");
        assert_eq!(used, bytes.len());
        assert_eq!(restored, model);

        let mut enc = RangeEncoder::new();
        model.encode(&mut enc, &symbols);
        let stream = enc.finish();
        let mut dec = RangeDecoder::new(&stream);
        assert_eq!(restored.decode(&mut dec, symbols.len()), symbols);
    }

    #[test]
    fn histogram_skewed_data_compresses_well() {
        // 95% zeros should code far below 1 byte/symbol and close to entropy.
        let mut rng = StdRng::seed_from_u64(9);
        let symbols: Vec<i32> = (0..8000)
            .map(|_| {
                if rng.gen_bool(0.95) {
                    0
                } else {
                    rng.gen_range(-3..4)
                }
            })
            .collect();
        let model = HistogramModel::fit(&symbols);
        let mut enc = RangeEncoder::new();
        model.encode(&mut enc, &symbols);
        let bytes = enc.finish().len();
        assert!(
            bytes * 8 < symbols.len(),
            "took {} bits for {} symbols",
            bytes * 8,
            symbols.len()
        );
        let est = model.estimate_bits(&symbols);
        assert!(((bytes * 8) as f64) < est * 1.1 + 64.0);
    }

    #[test]
    fn histogram_empty_and_constant_inputs() {
        let empty = HistogramModel::fit(&[]);
        assert_eq!(empty.min_symbol(), 0);
        let constant = HistogramModel::fit(&[42; 100]);
        assert_eq!(constant.min_symbol(), 42);
        assert_eq!(constant.max_symbol(), 42);
        let mut enc = RangeEncoder::new();
        constant.encode(&mut enc, &[42; 100]);
        let stream = enc.finish();
        let mut dec = RangeDecoder::new(&stream);
        assert_eq!(constant.decode(&mut dec, 100), vec![42; 100]);
    }

    #[test]
    fn try_from_bytes_accepts_fitted_models_and_warm_lut_clones() {
        let mut rng = StdRng::seed_from_u64(11);
        let symbols: Vec<i32> = (0..4000).map(|_| rng.gen_range(-9..10)).collect();
        let model = HistogramModel::fit(&symbols);
        let bytes = model.to_bytes();
        let (restored, used) = HistogramModel::try_from_bytes(&bytes).expect("valid model");
        assert_eq!(used, bytes.len());
        assert_eq!(restored, model);
        assert!(restored.can_encode(0));
        assert!(!restored.can_encode(1_000_000));
        // A prepared model still decodes correctly after cloning (the warm
        // LUT travels with the clone — the shared-profile fast path).
        restored.prepare_decode();
        let cloned = restored.clone();
        let mut enc = RangeEncoder::new();
        model.encode(&mut enc, &symbols);
        let stream = enc.finish();
        let mut dec = RangeDecoder::new(&stream);
        assert_eq!(cloned.decode(&mut dec, symbols.len()), symbols);
    }

    #[test]
    fn try_from_bytes_rejects_malformed_input_typed() {
        let model = HistogramModel::fit(&[1, 2, 2, 3, 3, 3]);
        let good = model.to_bytes();
        // Truncations anywhere in the stream fail typed, never panic.
        for cut in 0..good.len() {
            assert!(HistogramModel::try_from_bytes(&good[..cut]).is_err());
        }
        // Oversized bin count: rejected before the allocation is made.
        let mut huge = good.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            HistogramModel::try_from_bytes(&huge),
            Err(ReadError::OversizedBins { .. })
        ));
        // Entry offset outside the declared bins.
        let mut bad_off = good.clone();
        let entry0 = 12;
        bad_off[entry0..entry0 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            HistogramModel::try_from_bytes(&bad_off),
            Err(ReadError::BadOffset { .. })
        ));
        // All-zero mass is unusable by the coder.
        let mut zeroed = good.clone();
        let mut off = 12;
        while off + 8 <= zeroed.len() {
            zeroed[off + 4..off + 8].copy_from_slice(&0u32.to_le_bytes());
            off += 8;
        }
        assert!(matches!(
            HistogramModel::try_from_bytes(&zeroed),
            Err(ReadError::BadTotal)
        ));
    }

    #[test]
    fn bit_counter_accumulates() {
        let mut c = BitCounter::new();
        c.add_raw_bits(12.0);
        c.add_gaussian(0, 0.0, 1.0);
        assert!(c.bits() > 12.0);
        assert!(c.bytes() >= 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_gaussian_model_roundtrip(
            seed in 0u64..500,
            n in 1usize..400,
            scale in 0.1f32..6.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let means: Vec<f32> = (0..n).map(|_| rng.gen_range(-20.0..20.0)).collect();
            let scales: Vec<f32> = (0..n).map(|_| rng.gen_range(0.05..scale.max(0.06))).collect();
            let symbols: Vec<i32> = (0..n).map(|_| rng.gen_range(-200..200)).collect();
            let model = GaussianConditionalModel::new();
            let mut enc = RangeEncoder::new();
            model.encode(&mut enc, &symbols, &means, &scales);
            let bytes = enc.finish();
            let mut dec = RangeDecoder::new(&bytes);
            prop_assert_eq!(model.decode(&mut dec, &means, &scales), symbols);
        }

        #[test]
        fn prop_histogram_roundtrip(symbols in prop::collection::vec(-300i32..300, 1..500)) {
            let model = HistogramModel::fit(&symbols);
            let mut enc = RangeEncoder::new();
            model.encode(&mut enc, &symbols);
            let bytes = enc.finish();
            let mut dec = RangeDecoder::new(&bytes);
            prop_assert_eq!(model.decode(&mut dec, symbols.len()), symbols);
        }
    }
}
