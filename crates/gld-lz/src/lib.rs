//! # gld-lz
//!
//! A general-purpose transparent lossless codec — the zstd-style entropy
//! stage layered over the domain-specific compressors' frame payloads
//! (container v3's per-frame `Lz` stage, the service's negotiated response
//! stage).
//!
//! The design is a deliberately small LZ77 + range-coder pipeline:
//!
//! * a **greedy/lazy match finder** over a hash-chain window
//!   ([`LzScratch`] holds the head/chain tables, reset per stream so output
//!   never depends on scratch history);
//! * **sequences** — literal bytes and `(length, offset)` matches — coded
//!   with the byte-wise range coder from `gld-entropy`: a flag bit per
//!   sequence, a byte model for literals, and log-slot + raw-bits coding
//!   for lengths and offsets;
//! * a **stored-block fallback**: when the coded stream does not beat the
//!   input, the stream is one tag byte plus the input verbatim, so
//!   incompressible payloads cost exactly one byte of framing.
//!
//! There is one stream layout, one encoder and one hardened decoder; what
//! differs between the two paths is only the set of symbol models:
//!
//! * **cold** ([`compress`]/[`decompress`]): header-free *adaptive* models
//!   ([`gld_entropy::adaptive`]), reset per stream and updated per symbol;
//! * **warm** ([`compress_profiled`]/[`decompress_profiled`]): the frozen
//!   tables of an [`LzProfile`], coded semi-statically, plus an optional
//!   seed dictionary logically prefixed to the input.  The profile already
//!   carries the converged estimates of a fitting pass, so freezing trades
//!   a sliver of in-frame adaptation for a much shorter hot loop: a warm
//!   literal is one range-coder interval, not eight adaptive bit codings.
//!   That is where the warm path's stage-compress speedup comes from.
//!
//! The stream is self-describing (`tag + declared decompressed length`) and
//! the decoder is hardened the same way the `GLDS` protocol decoders are:
//! arbitrary, truncated or bit-flipped input never panics, never allocates
//! beyond the declared decompressed size (which is itself capped by the
//! caller), and always surfaces a typed [`LzError`]
//! (`tests/lz_fuzz.rs` mirrors `protocol_fuzz.rs`).
//!
//! ## Stream layout
//!
//! ```text
//! byte 0        tag: 0 = stored, 1 = LZ
//! stored:       the content, verbatim
//! LZ:           LEB128 decompressed length, then one range-coded stream:
//!                 per sequence: flag bit (0 = literal, 1 = match)
//!                   literal: one byte through the byte model
//!                   match:   length  = MIN_MATCH + slot(len tree)
//!                            offset  = 1 + slot(offset tree)
//!                 slot(v): k = floor(log2(v+1)) through a 5-bit tree,
//!                          then the low k bits of v+1 as bypass bits
//! ```
//!
//! Decoding stops exactly when the declared length has been produced; there
//! is no end marker (the range coder's tail only disambiguates the final
//! interval).  Warm matches may reach back into the seed dictionary, so a
//! warm LZ stream decodes only under the same profile and dictionary;
//! stored blocks decode without either.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use gld_entropy::adaptive::{AdaptiveBitModel, AdaptiveTreeModel, PROB_TOTAL};
use gld_entropy::{RangeDecoder, RangeEncoder};
use gld_kernels::{kernels, KernelBackend};
use std::fmt;

/// Pre-resolved latency histograms for the stage's public entry points:
/// one registry lookup per process per family, a couple of atomic adds per
/// record — the codec hot loops never touch the registry lock.
fn compress_ns() -> &'static gld_obs::Histogram {
    static H: std::sync::OnceLock<std::sync::Arc<gld_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| gld_obs::registry::histogram("gld_lz_compress_ns", &[]))
}

fn decompress_ns() -> &'static gld_obs::Histogram {
    static H: std::sync::OnceLock<std::sync::Arc<gld_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| gld_obs::registry::histogram("gld_lz_decompress_ns", &[]))
}

/// Stream tag byte: the content follows verbatim.
pub const TAG_STORED: u8 = 0;

/// Stream tag byte: LEB128 length + range-coded LZ sequences follow.
pub const TAG_LZ: u8 = 1;

/// Shortest match the encoder emits (and the decoder's implied minimum).
pub const MIN_MATCH: usize = 4;

/// Hard cap on a declared decompressed length (1 GiB) — the same bound the
/// wire protocol puts on a frame body.  Callers typically pass a lower
/// limit.
pub const MAX_RAW_LEN: usize = 1 << 30;

/// Hash-table width of the match finder (entries, not bytes).
const HASH_BITS: u32 = 15;

/// How many chain links the match finder follows before giving up.
const MAX_CHAIN: usize = 48;

/// Slot-tree width: slots 0..=31 cover every `u32` length/offset.
const SLOT_BITS: u32 = 5;

/// "No position" marker in the hash head / chain tables.
const NIL: u32 = u32::MAX;

/// Typed decode failures.  The decoder never panics: arbitrary input yields
/// either the decompressed bytes or exactly one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LzError {
    /// The stream is empty.
    Empty,
    /// The tag byte is neither stored nor LZ.
    BadTag(u8),
    /// The declared decompressed length exceeds the caller's limit.
    TooLarge {
        /// Length the stream declared.
        declared: u64,
        /// Limit the caller enforced.
        max: usize,
    },
    /// The length prefix is malformed or the coded stream ends before the
    /// declared content was produced.
    Truncated,
    /// A match referenced bytes before the start of the output.
    BadOffset {
        /// The offending offset.
        offset: u64,
        /// Bytes produced when it was decoded.
        produced: usize,
    },
    /// A match would run past the declared decompressed length.
    Overrun,
    /// A serialised warm-start profile has the wrong size.
    BadProfile {
        /// Size of the rejected snapshot in bytes.
        len: usize,
        /// The only size a valid snapshot can have.
        expected: usize,
    },
}

impl fmt::Display for LzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LzError::Empty => write!(f, "empty stage stream"),
            LzError::BadTag(t) => write!(f, "unknown stage stream tag {t}"),
            LzError::TooLarge { declared, max } => {
                write!(
                    f,
                    "declared decompressed length {declared} exceeds limit {max}"
                )
            }
            LzError::Truncated => write!(f, "stage stream ended before the declared content"),
            LzError::BadOffset { offset, produced } => {
                write!(
                    f,
                    "match offset {offset} with only {produced} bytes produced"
                )
            }
            LzError::Overrun => write!(f, "match runs past the declared decompressed length"),
            LzError::BadProfile { len, expected } => {
                write!(f, "profile snapshot of {len} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for LzError {}

/// One symbol model of a sequence stream: codes a single symbol (a flag
/// bit as 0/1, or a tree value) through the range coder.  The sequence
/// coder is generic over it, so the cold and warm paths share one loop
/// and still compile to separate machine code.
trait SymbolModel {
    fn encode(&mut self, enc: &mut RangeEncoder, symbol: u32);
    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32;
}

impl SymbolModel for AdaptiveBitModel {
    #[inline]
    fn encode(&mut self, enc: &mut RangeEncoder, bit: u32) {
        AdaptiveBitModel::encode(self, enc, bit != 0);
    }

    #[inline]
    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        u32::from(AdaptiveBitModel::decode(self, dec))
    }
}

impl SymbolModel for AdaptiveTreeModel {
    #[inline]
    fn encode(&mut self, enc: &mut RangeEncoder, symbol: u32) {
        AdaptiveTreeModel::encode(self, enc, symbol);
    }

    #[inline]
    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        AdaptiveTreeModel::decode(self, dec)
    }
}

/// The four models of one sequence stream: the match flag, the literal
/// byte model and the length and offset slot trees.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sequence<Flag, Tree> {
    flag: Flag,
    literal: Tree,
    len_slot: Tree,
    off_slot: Tree,
}

/// The cold model set: adaptive, reset per stream (it lives in
/// [`LzScratch`]).
type Adaptive = Sequence<AdaptiveBitModel, AdaptiveTreeModel>;

/// The warm model set: a profile's frozen tables.
type Frozen = Sequence<StaticBitModel, StaticTreeModel>;

/// Number of probability estimates one [`Adaptive`] snapshot holds:
/// the flag bit, the byte tree, and the two slot trees.
const SNAPSHOT_PROBS: usize = 1 + (1 << 8) + (1 << SLOT_BITS) + (1 << SLOT_BITS);

/// Serialised size of a warm-start profile in bytes (one `u16` per
/// probability, little-endian).
pub const PROFILE_BYTES: usize = SNAPSHOT_PROBS * 2;

impl Adaptive {
    fn new() -> Self {
        Sequence {
            flag: AdaptiveBitModel::new(),
            literal: AdaptiveTreeModel::new(8),
            len_slot: AdaptiveTreeModel::new(SLOT_BITS),
            off_slot: AdaptiveTreeModel::new(SLOT_BITS),
        }
    }

    fn reset(&mut self) {
        self.flag.reset();
        self.literal.reset();
        self.len_slot.reset();
        self.off_slot.reset();
    }

    /// Flattens every probability estimate, in a fixed field order.
    fn snapshot(&self) -> Vec<u16> {
        let mut probs = Vec::with_capacity(SNAPSHOT_PROBS);
        probs.push(self.flag.probability());
        self.literal.snapshot_into(&mut probs);
        self.len_slot.snapshot_into(&mut probs);
        self.off_slot.snapshot_into(&mut probs);
        debug_assert_eq!(probs.len(), SNAPSHOT_PROBS);
        probs
    }

    /// Rebuilds the model set from a snapshot (`probs` must be exactly
    /// [`SNAPSHOT_PROBS`] long — callers validate first).  Each estimate is
    /// clamped off the probability poles on restore, so even an adversarial
    /// snapshot yields models that can code every symbol.
    fn restore(probs: &[u16]) -> Self {
        assert_eq!(probs.len(), SNAPSHOT_PROBS, "snapshot length mismatch");
        let mut models = Adaptive::new();
        models.flag = AdaptiveBitModel::from_probability(probs[0]);
        let mut off = 1;
        let lit = models.literal.node_count();
        models.literal.restore_from(&probs[off..off + lit]);
        off += lit;
        let slots = models.len_slot.node_count();
        models.len_slot.restore_from(&probs[off..off + slots]);
        off += slots;
        models.off_slot.restore_from(&probs[off..off + slots]);
        models
    }
}

/// Fixed-point scale of a frozen symbol distribution (total frequency ≈
/// `1 << 15`, comfortably inside the range coder's `MAX_TOTAL` of `1 << 16`
/// even after every zero-rounded symbol is bumped to frequency 1).
const STATIC_SCALE_BITS: u32 = 15;

/// Slot count cap of a frozen model's decode lookup table.
const STATIC_LUT_SLOTS: usize = 1024;

/// One frozen binary probability: codes like [`AdaptiveBitModel`] but never
/// adapts, so encode/decode are a single range-coder interval each.  The
/// total stays the constant [`PROB_TOTAL`], so the decoder resolves the bit
/// with a shift, a multiply and no branch (`RangeDecoder::decode_bit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StaticBitModel {
    p0: u16,
}

impl SymbolModel for &StaticBitModel {
    #[inline]
    fn encode(&mut self, enc: &mut RangeEncoder, bit: u32) {
        let p0 = u32::from(self.p0);
        if bit != 0 {
            enc.encode(p0, PROB_TOTAL, PROB_TOTAL);
        } else {
            enc.encode(0, p0, PROB_TOTAL);
        }
    }

    #[inline]
    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        u32::from(dec.decode_bit(u32::from(self.p0)))
    }
}

/// A frozen order-0 symbol distribution flattened out of an adaptive
/// bit-tree snapshot: one cumulative-frequency interval per symbol instead
/// of `bits` adaptive bit codings, plus a slot lookup table on the decode
/// side.
///
/// Derivation is integer-only (fixed-point products of the tree's node
/// probabilities), so every build and backend derives bit-identical tables
/// from the same snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StaticTreeModel {
    cdf: Vec<u32>,
    lut: Vec<u16>,
    shift: u32,
}

impl StaticTreeModel {
    /// Flattens a tree snapshot (heap-ordered node probabilities, root at
    /// index 1) into per-symbol frequencies: each symbol's probability is
    /// the fixed-point product of its path's branch probabilities.
    fn from_probs(bits: u32, probs: &[u16]) -> StaticTreeModel {
        let n = 1usize << bits;
        debug_assert_eq!(probs.len(), n);
        let mut cdf = Vec::with_capacity(n + 1);
        cdf.push(0u32);
        let mut total = 0u32;
        for s in 0..n as u32 {
            let mut ctx = 1usize;
            let mut acc: u64 = 1 << STATIC_SCALE_BITS;
            for i in (0..bits).rev() {
                let bit = (s >> i) & 1 == 1;
                let p0 = u64::from(probs[ctx].clamp(1, (PROB_TOTAL - 1) as u16));
                let f = if bit { u64::from(PROB_TOTAL) - p0 } else { p0 };
                acc = (acc * f) >> 12;
                ctx = (ctx << 1) | usize::from(bit);
            }
            total += (acc as u32).max(1);
            cdf.push(total);
        }
        let mut shift = 0u32;
        while (((total - 1) >> shift) as usize) + 1 > STATIC_LUT_SLOTS {
            shift += 1;
        }
        let n_slots = (((total - 1) >> shift) as usize) + 1;
        let mut lut = Vec::with_capacity(n_slots);
        let mut bin = 0usize;
        for slot in 0..n_slots {
            let target = (slot as u32) << shift;
            while cdf[bin + 1] <= target {
                bin += 1;
            }
            lut.push(bin as u16);
        }
        StaticTreeModel { cdf, lut, shift }
    }

    #[inline]
    fn total(&self) -> u32 {
        *self.cdf.last().unwrap()
    }
}

impl SymbolModel for &StaticTreeModel {
    #[inline]
    fn encode(&mut self, enc: &mut RangeEncoder, s: u32) {
        let s = s as usize;
        enc.encode(self.cdf[s], self.cdf[s + 1], self.total());
    }

    #[inline]
    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        let total = self.total();
        let target = dec.decode_target(total);
        let mut bin = usize::from(self.lut[(target >> self.shift) as usize]);
        while self.cdf[bin + 1] <= target {
            bin += 1;
        }
        dec.decode_update(self.cdf[bin], self.cdf[bin + 1], total);
        bin as u32
    }
}

impl Frozen {
    /// Derives the frozen tables from an adaptive snapshot, deterministically.
    fn derive(models: &Adaptive) -> Self {
        let probs = models.snapshot();
        let lit = 1usize << 8;
        let slots = 1usize << SLOT_BITS;
        Sequence {
            flag: StaticBitModel {
                p0: probs[0].clamp(1, (PROB_TOTAL - 1) as u16),
            },
            literal: StaticTreeModel::from_probs(8, &probs[1..1 + lit]),
            len_slot: StaticTreeModel::from_probs(SLOT_BITS, &probs[1 + lit..1 + lit + slots]),
            off_slot: StaticTreeModel::from_probs(SLOT_BITS, &probs[1 + lit + slots..]),
        }
    }

    /// Borrows the tables as a model set the sequence coder can drive.
    fn view(&self) -> Sequence<&StaticBitModel, &StaticTreeModel> {
        Sequence {
            flag: &self.flag,
            literal: &self.literal,
            len_slot: &self.len_slot,
            off_slot: &self.off_slot,
        }
    }
}

/// A warm-start profile for the stage: the adaptive sequence models of a
/// previously coded stream, snapshotted after training, plus the frozen
/// coding tables derived from that snapshot.  Streams compressed with a
/// profile are coded **semi-statically** against the converged estimates
/// (no cold-model ramp, no per-symbol adaptation), and — combined with a
/// seed dictionary — let every frame of a variable reuse what frame 0
/// taught the coder.
///
/// A profile is pure *coder* state: the bytes it produces decode only with
/// the same profile (the container's profile table carries it exactly once
/// per variable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LzProfile {
    models: Adaptive,
    frozen: Frozen,
}

impl LzProfile {
    /// Trains a profile on `sample` by compressing it cold and snapshotting
    /// the adaptive models afterwards.  The sample itself is discarded —
    /// callers that also want a seed dictionary pass the sample bytes to
    /// [`compress_profiled`] separately.
    pub fn fit(sample: &[u8], scratch: &mut LzScratch) -> Self {
        encode_stream(sample, &[], None, scratch, &mut Vec::new());
        let models = scratch.models.clone();
        let frozen = Frozen::derive(&models);
        LzProfile { models, frozen }
    }

    /// Serialises the profile: every probability estimate as a
    /// little-endian `u16`, fixed layout, [`PROFILE_BYTES`] total.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PROFILE_BYTES);
        for p in self.models.snapshot() {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out
    }

    /// Deserialises a profile written by [`LzProfile::to_bytes`].  The only
    /// structural check needed is the exact size; the probability estimates
    /// themselves are clamped into valid range on restore, so arbitrary
    /// bytes always yield a usable (if useless) profile — corruption is
    /// caught by the container's CRCs, not here.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Self, LzError> {
        if bytes.len() != PROFILE_BYTES {
            return Err(LzError::BadProfile {
                len: bytes.len(),
                expected: PROFILE_BYTES,
            });
        }
        let probs: Vec<u16> = bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        let models = Adaptive::restore(&probs);
        let frozen = Frozen::derive(&models);
        Ok(LzProfile { models, frozen })
    }
}

/// The match finder's tables: hash heads, chain links and the per-position
/// 4-byte hashes, batch-computed up front by the active kernel backend so
/// the coding loop never rehashes.
#[derive(Debug, Default)]
struct MatchFinder {
    head: Vec<u32>,
    chain: Vec<u32>,
    hashes: Vec<u32>,
}

/// The best match the finder produced for one position.
#[derive(Clone, Copy)]
struct Match {
    len: usize,
    dist: usize,
}

impl MatchFinder {
    /// Rebuilds the tables over `window` and pre-seeds the hash chains with
    /// every position below `base` (the dictionary prefix), so matching at
    /// `base..` can reach back into the dictionary from the first byte.
    fn prepare(&mut self, window: &[u8], base: usize) {
        self.head.clear();
        self.head.resize(1 << HASH_BITS, NIL);
        self.chain.clear();
        self.chain.resize(window.len(), NIL);
        self.hashes.clear();
        self.hashes.resize(window.len().saturating_sub(3), 0);
        kernels().hash4_batch(window, HASH_BITS, &mut self.hashes);
        for p in 0..base {
            self.insert(p);
        }
    }

    #[inline]
    fn insert(&mut self, at: usize) {
        if let Some(&h) = self.hashes.get(at) {
            self.chain[at] = self.head[h as usize];
            self.head[h as usize] = at as u32;
        }
    }

    /// Longest match for `window[at..]` among the (bounded) hash chain, most
    /// recent candidates first — ties therefore resolve to the closest
    /// occurrence, which codes cheapest.  The extension scan runs on the
    /// active backend.
    #[inline]
    fn find(&self, window: &[u8], at: usize, kern: &dyn KernelBackend) -> Option<Match> {
        let remaining = window.len() - at;
        if remaining < MIN_MATCH {
            return None;
        }
        let first4 = &window[at..at + 4];
        let mut pos = self.head[self.hashes[at] as usize];
        let mut best: Option<Match> = None;
        let mut depth = 0usize;
        while pos != NIL && depth < MAX_CHAIN {
            let p = pos as usize;
            // Quick reject on the first four bytes before the full extension.
            if window[p..p + 4] == *first4 {
                let len = 4 + kern.match_len(
                    &window[p + 4..p + remaining],
                    &window[at + 4..at + remaining],
                );
                if best.is_none_or(|b| len > b.len) {
                    best = Some(Match { len, dist: at - p });
                    if len == remaining {
                        break;
                    }
                }
            }
            pos = self.chain[p];
            depth += 1;
        }
        best
    }
}

/// Reusable compressor state: the match finder's tables, the adaptive
/// models and the coded-stream buffer.  One scratch per worker thread makes
/// steady-state stage compression allocation-free (`CodecScratch` in
/// `gld-core` carries one); every table is reset at the start of each
/// stream, so **output never depends on what the scratch was previously
/// used for**.
#[derive(Debug)]
pub struct LzScratch {
    finder: MatchFinder,
    models: Adaptive,
    /// Recycled backing buffer for the range encoder's output.
    stream_buf: Vec<u8>,
    /// Dictionary-primed match window (`dict ‖ input`), used only when a
    /// stream has a seed dictionary.
    window: Vec<u8>,
}

impl Default for LzScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl LzScratch {
    /// Creates an empty scratch (tables are allocated lazily on first use).
    pub fn new() -> Self {
        LzScratch {
            finder: MatchFinder::default(),
            models: Adaptive::new(),
            stream_buf: Vec::new(),
            window: Vec::new(),
        }
    }
}

/// Codes `v` as a log slot through `tree`, then its low bits as bypass
/// bits: `v + 1 = (1 << k) | low`.
#[inline]
fn encode_slot(enc: &mut RangeEncoder, tree: &mut impl SymbolModel, v: u32) {
    let n = v + 1;
    let k = 31 - n.leading_zeros();
    tree.encode(enc, k);
    if k > 0 {
        enc.encode_bits_raw(u64::from(n - (1 << k)), k);
    }
}

#[inline]
fn decode_slot(dec: &mut RangeDecoder<'_>, tree: &mut impl SymbolModel) -> u64 {
    let k = tree.decode(dec);
    let low = if k > 0 { dec.decode_bits_raw(k) } else { 0 };
    ((1u64 << k) | low) - 1
}

/// Appends a LEB128-encoded `u64`.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 `u64`, returning it and the bytes consumed.  A prefix
/// longer than ten bytes (the widest legal `u64`) saturates to `u64::MAX`,
/// which every cap refuses; bits shifted past the top of the accumulator on
/// a garbage tenth byte are harmless because the declared length is
/// range-checked by the caller.
fn read_varint(bytes: &[u8]) -> Result<(u64, usize), LzError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in bytes.iter().enumerate().take(10) {
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    if bytes.len() >= 10 {
        return Ok((u64::MAX, 10));
    }
    Err(LzError::Truncated)
}

/// Appends one self-describing stage stream for `input` to `out`: coded
/// under the adaptive models in `scratch` when `frozen` is `None`, under
/// the frozen tables otherwise, with matches reaching back into `dict`.
/// Incompressible input falls back to a stored block (one tag byte of
/// framing) on both paths.  The output depends only on the arguments, never
/// on the scratch's previous contents.
///
/// Panics if `dict.len() + input.len()` exceeds [`MAX_RAW_LEN`]: the format
/// cannot declare a larger stream (the decoder clamps every caller cap to
/// [`MAX_RAW_LEN`]), so silently encoding one would produce a stream no
/// decoder accepts — and match offsets/lengths past `u32` would wrap.  Frame
/// payloads in this stack are bounded well below the cap by the wire
/// protocol's body limit.
fn encode_stream(
    input: &[u8],
    dict: &[u8],
    frozen: Option<&Frozen>,
    scratch: &mut LzScratch,
    out: &mut Vec<u8>,
) {
    assert!(
        dict.len() + input.len() <= MAX_RAW_LEN,
        "window of {} bytes exceeds the stage format's {MAX_RAW_LEN}-byte cap",
        dict.len() + input.len()
    );
    let t0_ns = gld_obs::now_ns();
    let start = out.len();
    out.push(TAG_LZ);
    write_varint(out, input.len() as u64);
    let prefix = out.len() - start;

    let mut buf = std::mem::take(&mut scratch.window);
    let window = if dict.is_empty() {
        input
    } else {
        buf.clear();
        buf.extend_from_slice(dict);
        buf.extend_from_slice(input);
        &buf[..]
    };
    scratch.finder.prepare(window, dict.len());
    let mut enc = RangeEncoder::with_buffer(std::mem::take(&mut scratch.stream_buf));
    let finder = &mut scratch.finder;
    match frozen {
        None => {
            scratch.models.reset();
            code_sequences(window, dict.len(), finder, &mut scratch.models, &mut enc);
        }
        Some(frozen) => code_sequences(window, dict.len(), finder, &mut frozen.view(), &mut enc),
    }
    scratch.window = buf;

    let stream = enc.finish();
    if prefix + stream.len() > input.len() {
        // Stored fallback: the coded stream cannot beat tag + verbatim.
        out.truncate(start);
        out.push(TAG_STORED);
        out.extend_from_slice(input);
    } else {
        out.extend_from_slice(&stream);
    }
    scratch.stream_buf = stream;
    compress_ns().record(gld_obs::now_ns().saturating_sub(t0_ns));
}

/// Codes `window[base..]` as one sequence stream against the prepared
/// match finder, where `window[..base]` is a pre-inserted dictionary prefix
/// matches may reach into (offsets simply extend past the content's start;
/// the decoder pre-seeds its output with the same prefix).  `base = 0` is
/// the ordinary dictionary-free stream.
fn code_sequences<F: SymbolModel, T: SymbolModel>(
    window: &[u8],
    base: usize,
    finder: &mut MatchFinder,
    models: &mut Sequence<F, T>,
    enc: &mut RangeEncoder,
) {
    let kern = kernels();
    let mut i = base;
    // The lazy step's lookahead match is carried into the next iteration
    // instead of being recomputed there — the match finder walks each
    // position's chain once, not twice.
    let mut pending: Option<Match> = None;
    while i < window.len() {
        let found = pending.take().or_else(|| finder.find(window, i, kern));
        match found {
            Some(m) => {
                // Position `i` joins the chains either way (a match covers
                // it; a deferring literal emits it) — inserting before the
                // lookahead lets `i + 1` see it as a candidate source.
                finder.insert(i);
                // Lazy step: if starting one byte later yields a strictly
                // longer match, emit a literal now and take that match at
                // the next iteration.
                let next = if i + 1 < window.len() {
                    finder.find(window, i + 1, kern)
                } else {
                    None
                };
                match next {
                    Some(n) if n.len > m.len => {
                        models.flag.encode(enc, 0);
                        models.literal.encode(enc, u32::from(window[i]));
                        i += 1;
                        pending = next;
                    }
                    _ => {
                        models.flag.encode(enc, 1);
                        encode_slot(enc, &mut models.len_slot, (m.len - MIN_MATCH) as u32);
                        encode_slot(enc, &mut models.off_slot, (m.dist - 1) as u32);
                        for p in i + 1..i + m.len {
                            finder.insert(p);
                        }
                        i += m.len;
                    }
                }
            }
            None => {
                models.flag.encode(enc, 0);
                models.literal.encode(enc, u32::from(window[i]));
                finder.insert(i);
                i += 1;
            }
        }
    }
}

/// Compresses `input` cold, returning one self-describing stage stream.
/// Incompressible input falls back to a stored block (one tag byte of
/// framing).  The output depends only on `input`, never on the scratch's
/// previous contents.
///
/// # Panics
/// Panics if `input` exceeds [`MAX_RAW_LEN`], the largest length the
/// format can declare.
pub fn compress(input: &[u8], scratch: &mut LzScratch) -> Vec<u8> {
    let mut out = Vec::new();
    encode_stream(input, &[], None, scratch, &mut out);
    out
}

/// Compresses `input` warm: symbols are coded **semi-statically** against
/// `profile`'s frozen tables (the converged estimates of the fitting pass,
/// never updated mid-stream), and matches may reach back into `dict` (a
/// caller-supplied seed dictionary logically prefixed to the input — the v4
/// container uses the variable's first frame).  The stream layout is
/// identical to [`compress`]; it simply decodes only with
/// [`decompress_profiled`] under the same profile and dictionary.
///
/// # Panics
/// Panics if `dict.len() + input.len()` exceeds [`MAX_RAW_LEN`] (offsets
/// must stay representable), same contract as [`compress`].
pub fn compress_profiled(
    input: &[u8],
    dict: &[u8],
    profile: &LzProfile,
    scratch: &mut LzScratch,
) -> Vec<u8> {
    let mut out = Vec::new();
    encode_stream(input, dict, Some(&profile.frozen), scratch, &mut out);
    out
}

/// Decompresses one stage stream, refusing to produce (or allocate) more
/// than `max_len` bytes.  Never panics on arbitrary input; see [`LzError`].
pub fn decompress(stream: &[u8], max_len: usize) -> Result<Vec<u8>, LzError> {
    decode_stream(stream, &[], None, max_len)
}

/// Decompresses one stage stream produced by [`compress_profiled`] under
/// the same profile and seed dictionary.  Stored blocks ignore both (they
/// carry the content verbatim); coded streams decode against the profile's
/// frozen tables and pre-seed the match window with `dict`.  Hardened
/// exactly like [`decompress`]: arbitrary bytes yield content or a typed
/// [`LzError`], never a panic, and the output allocation is bounded by
/// `dict.len() + max_len`.
pub fn decompress_profiled(
    stream: &[u8],
    dict: &[u8],
    profile: &LzProfile,
    max_len: usize,
) -> Result<Vec<u8>, LzError> {
    decode_stream(stream, dict, Some(&profile.frozen), max_len)
}

/// Reads one stage stream: the tag, the declared length checked against
/// the one cap `max_len.min(MAX_RAW_LEN)` (for stored blocks too), then
/// the coded body under fresh adaptive models (`frozen` is `None`) or the
/// frozen tables, with `dict` pre-seeding the match window.
fn decode_stream(
    stream: &[u8],
    dict: &[u8],
    frozen: Option<&Frozen>,
    max_len: usize,
) -> Result<Vec<u8>, LzError> {
    let t0_ns = gld_obs::now_ns();
    let result = (|| {
        let max = max_len.min(MAX_RAW_LEN);
        let (&tag, rest) = stream.split_first().ok_or(LzError::Empty)?;
        let (declared, body) = match tag {
            TAG_STORED => (rest.len() as u64, rest),
            TAG_LZ => {
                let (declared, used) = read_varint(rest)?;
                (declared, &rest[used..])
            }
            other => return Err(LzError::BadTag(other)),
        };
        if declared > max as u64 {
            return Err(LzError::TooLarge { declared, max });
        }
        match (tag, frozen) {
            (TAG_STORED, _) => Ok(body.to_vec()),
            (_, None) => decode_sequences(body, dict, Adaptive::new(), declared as usize),
            (_, Some(frozen)) => decode_sequences(body, dict, frozen.view(), declared as usize),
        }
    })();
    decompress_ns().record(gld_obs::now_ns().saturating_sub(t0_ns));
    result
}

/// Decodes the range-coded sequence stream into exactly `declared` bytes of
/// content.  `dict` pre-seeds the match window (matches may reach into it);
/// only the content after the dictionary is returned.
fn decode_sequences<F: SymbolModel, T: SymbolModel>(
    coded: &[u8],
    dict: &[u8],
    mut models: Sequence<F, T>,
    declared: usize,
) -> Result<Vec<u8>, LzError> {
    let mut dec = RangeDecoder::new(coded);
    // Allocation tracks production (Vec's amortised growth), never the
    // declared length: a tiny stream declaring gigabytes cannot reserve
    // them up front.  The dictionary is caller-supplied, already-produced
    // content, so seeding it up front stays within the caller's own budget.
    let mut out = Vec::with_capacity((dict.len() + declared.min(1 << 16)).min(MAX_RAW_LEN));
    out.extend_from_slice(dict);
    let goal = dict.len() as u64 + declared as u64;
    while (out.len() as u64) < goal {
        // The range decoder pads past the end of its input with zero bytes,
        // so a truncated stream would otherwise keep yielding symbols
        // forever; once decoding has consumed meaningfully past the real
        // input, the stream is known-truncated.  (A finished encoder flushes
        // at most 5 tail bytes, and renormalisation reads at most 4 bytes
        // per decoded symbol.)
        if dec.consumed() > coded.len() + 16 {
            return Err(LzError::Truncated);
        }
        if models.flag.decode(&mut dec) == 0 {
            out.push(models.literal.decode(&mut dec) as u8);
            continue;
        }
        let len = decode_slot(&mut dec, &mut models.len_slot) + MIN_MATCH as u64;
        let offset = decode_slot(&mut dec, &mut models.off_slot) + 1;
        if offset > out.len() as u64 {
            return Err(LzError::BadOffset {
                offset,
                produced: out.len(),
            });
        }
        if out.len() as u64 + len > goal {
            return Err(LzError::Overrun);
        }
        let from = out.len() - offset as usize;
        // Byte-wise copy: overlapping matches (offset < len) replicate the
        // produced prefix, exactly as the encoder's extension allows.
        for k in 0..len as usize {
            let byte = out[from + k];
            out.push(byte);
        }
    }
    if dict.is_empty() {
        Ok(out)
    } else {
        Ok(out.split_off(dict.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut scratch = LzScratch::new();
        let stream = compress(data, &mut scratch);
        decompress(&stream, data.len()).expect("self-produced stream decodes")
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"abcd"] {
            assert_eq!(roundtrip(data), data);
        }
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let data: Vec<u8> = b"scientific-data-block-"
            .iter()
            .copied()
            .cycle()
            .take(64 * 1024)
            .collect();
        let mut scratch = LzScratch::new();
        let stream = compress(&data, &mut scratch);
        assert!(
            stream.len() * 20 < data.len(),
            "repetitive 64 KiB took {} bytes",
            stream.len()
        );
        assert_eq!(decompress(&stream, data.len()).unwrap(), data);
    }

    #[test]
    fn random_input_falls_back_to_stored() {
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..256) as u8).collect();
        let mut scratch = LzScratch::new();
        let stream = compress(&data, &mut scratch);
        assert_eq!(stream[0], TAG_STORED, "incompressible input must store");
        assert_eq!(stream.len(), data.len() + 1, "stored costs one tag byte");
        assert_eq!(decompress(&stream, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_matches_roundtrip() {
        // Runs shorter than MIN_MATCH away force offset < length copies.
        let mut data = vec![7u8; 1000];
        data.extend([1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]);
        data.extend(vec![0u8; 500]);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn structured_float_bytes_compress() {
        // The shape of a serialised model table: little-endian u32s with
        // mostly-zero high bytes.
        let data: Vec<u8> = (0u32..4000)
            .flat_map(|i| ((i % 190) + 1).to_le_bytes())
            .collect();
        let mut scratch = LzScratch::new();
        let stream = compress(&data, &mut scratch);
        assert!(
            stream.len() * 2 < data.len(),
            "structured u32 table took {} of {} bytes",
            stream.len(),
            data.len()
        );
        assert_eq!(decompress(&stream, data.len()).unwrap(), data);
    }

    #[test]
    fn dirty_scratch_output_is_bit_identical_to_fresh() {
        let mut rng = StdRng::seed_from_u64(23);
        let warmup: Vec<u8> = (0..9000).map(|_| rng.gen_range(0..17) as u8).collect();
        let data: Vec<u8> = (0..6000)
            .map(|i| ((i as f32).sin() * 30.0) as i8 as u8)
            .collect();

        let mut fresh = LzScratch::new();
        let expected = compress(&data, &mut fresh);

        let mut dirty = LzScratch::new();
        let _ = compress(&warmup, &mut dirty);
        let _ = compress(&data[..100], &mut dirty);
        assert_eq!(
            compress(&data, &mut dirty),
            expected,
            "scratch history leaked into the stream"
        );
    }

    #[test]
    fn declared_length_over_limit_is_refused_before_decoding() {
        let mut scratch = LzScratch::new();
        let data = vec![5u8; 10_000];
        let stream = compress(&data, &mut scratch);
        assert_eq!(stream[0], TAG_LZ);
        match decompress(&stream, 512) {
            Err(LzError::TooLarge { declared, max }) => {
                assert_eq!(declared, 10_000);
                assert_eq!(max, 512);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // An overlong length prefix reports the caller's cap as well.
        let mut overlong = vec![TAG_LZ];
        overlong.extend_from_slice(&[0xFF; 10]);
        assert!(matches!(
            decompress(&overlong, 512),
            Err(LzError::TooLarge { max: 512, .. })
        ));
        // Stored blocks respect the limit too.
        let mut stored = vec![TAG_STORED];
        stored.extend_from_slice(&[1, 2, 3, 4]);
        assert!(matches!(
            decompress(&stored, 3),
            Err(LzError::TooLarge { .. })
        ));
    }

    #[test]
    fn truncated_streams_error_instead_of_spinning() {
        // A stream declaring far more than its coded body can legitimately
        // produce must terminate with a typed error, not decode pad-zeros
        // forever (the declared length here is huge but under the cap).
        let mut stream = vec![TAG_LZ];
        write_varint(&mut stream, (200 << 20) as u64);
        stream.extend_from_slice(&[0x55; 7]);
        let err = decompress(&stream, 256 << 20).unwrap_err();
        assert!(
            matches!(
                err,
                LzError::Truncated | LzError::BadOffset { .. } | LzError::Overrun
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn unknown_tag_and_empty_stream_are_typed() {
        assert_eq!(decompress(&[], 10), Err(LzError::Empty));
        assert_eq!(decompress(&[9, 1, 2], 10), Err(LzError::BadTag(9)));
    }

    /// Two "frames" of the same synthetic variable: similar but not equal.
    fn similar_frames() -> (Vec<u8>, Vec<u8>) {
        let frame = |phase: f32| -> Vec<u8> {
            (0..3000)
                .flat_map(|i| {
                    let v = ((i as f32 * 0.01 + phase).sin() * 120.0) as i16;
                    v.to_le_bytes()
                })
                .collect()
        };
        (frame(0.0), frame(0.02))
    }

    #[test]
    fn profiled_roundtrip_with_dict_and_warm_models() {
        let (first, second) = similar_frames();
        let mut scratch = LzScratch::new();
        let profile = LzProfile::fit(&first, &mut scratch);
        let stream = compress_profiled(&second, &first, &profile, &mut scratch);
        let back = decompress_profiled(&stream, &first, &profile, second.len())
            .expect("self-produced profiled stream decodes");
        assert_eq!(back, second);
        // Empty dictionary (the variable's first frame) round-trips too.
        let stream0 = compress_profiled(&first, &[], &profile, &mut scratch);
        assert_eq!(
            decompress_profiled(&stream0, &[], &profile, first.len()).unwrap(),
            first
        );
    }

    #[test]
    fn profiled_stream_beats_cold_on_similar_frames() {
        let (first, second) = similar_frames();
        let mut scratch = LzScratch::new();
        let cold = compress(&second, &mut scratch);
        let profile = LzProfile::fit(&first, &mut scratch);
        let warm = compress_profiled(&second, &first, &profile, &mut scratch);
        assert!(
            warm.len() < cold.len(),
            "warm {} B not smaller than cold {} B",
            warm.len(),
            cold.len()
        );
    }

    #[test]
    fn profiled_output_is_deterministic_across_dirty_scratch() {
        let (first, second) = similar_frames();
        let mut fresh = LzScratch::new();
        let profile = LzProfile::fit(&first, &mut fresh);
        let expected = compress_profiled(&second, &first, &profile, &mut fresh);
        let mut dirty = LzScratch::new();
        let _ = compress(&second, &mut dirty);
        let _ = compress_profiled(&first, &second, &profile, &mut dirty);
        assert_eq!(
            compress_profiled(&second, &first, &profile, &mut dirty),
            expected,
            "scratch history leaked into the profiled stream"
        );
    }

    #[test]
    fn profile_serialization_roundtrips_and_rejects_bad_sizes() {
        let (first, _) = similar_frames();
        let mut scratch = LzScratch::new();
        let profile = LzProfile::fit(&first, &mut scratch);
        let bytes = profile.to_bytes();
        assert_eq!(bytes.len(), PROFILE_BYTES);
        let restored = LzProfile::try_from_bytes(&bytes).expect("valid profile");
        assert_eq!(restored, profile);
        for bad_len in [0usize, 1, PROFILE_BYTES - 1, PROFILE_BYTES + 1] {
            assert!(matches!(
                LzProfile::try_from_bytes(&vec![0u8; bad_len]),
                Err(LzError::BadProfile { .. })
            ));
        }
    }

    #[test]
    fn adversarial_profile_bytes_still_yield_a_working_coder() {
        // All-zero and all-ones snapshots would put every probability on a
        // pole; the clamped restore must still round-trip data.
        let (_, data) = similar_frames();
        for fill in [0x00u8, 0xFF] {
            let profile = LzProfile::try_from_bytes(&vec![fill; PROFILE_BYTES]).unwrap();
            let mut scratch = LzScratch::new();
            let stream = compress_profiled(&data, &[], &profile, &mut scratch);
            assert_eq!(
                decompress_profiled(&stream, &[], &profile, data.len()).unwrap(),
                data
            );
        }
    }

    #[test]
    fn profiled_stored_fallback_decodes_without_dict_help() {
        let mut rng = StdRng::seed_from_u64(31);
        let dict: Vec<u8> = (0..512).map(|_| rng.gen_range(0..256) as u8).collect();
        let noise: Vec<u8> = (0..2048).map(|_| rng.gen_range(0..256) as u8).collect();
        let mut scratch = LzScratch::new();
        let profile = LzProfile::fit(&dict, &mut scratch);
        let stream = compress_profiled(&noise, &dict, &profile, &mut scratch);
        assert_eq!(stream[0], TAG_STORED, "incompressible input must store");
        assert_eq!(
            decompress_profiled(&stream, &dict, &profile, noise.len()).unwrap(),
            noise
        );
    }
}
