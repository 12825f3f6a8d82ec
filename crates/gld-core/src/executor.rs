//! Streaming block executor: bounded-memory parallel compression of a
//! variable's temporal windows.
//!
//! The paper codes each temporal block on its own (keyframes to latents,
//! the rest generated, the seed derived per block), so blocks share no
//! state and both directions are an ordered map over windows.  One private
//! primitive, `pool_map`, runs such a map on the persistent pool: a lone
//! job runs inline, two or more are one `rayon::pool::join_all` batch that
//! the calling thread drains beside the workers, and results land in index
//! order.
//!
//! * **Encode** ([`stream_compress_variable`]) is one loop of batches: each
//!   batch covers the next `queue_depth` windows, each job materialises its
//!   window (`temporal_window_at`), runs [`Codec::encode`] with the window's
//!   index (the per-block derived seed keeps output bit-identical to the
//!   sequential reference; SZ and GLD report the reconstruction error with
//!   the frame, so nothing is decoded to account it) and drops the window,
//!   and the calling thread then emits the batch's outcomes in temporal
//!   order.  At most `queue_depth` blocks exist between materialisation and
//!   emission, so in-flight blocks are O(depth), not O(variable).
//! * **Decode** (`decompress_blocks` under [`Codec::decompress_container`])
//!   returns every block, so the whole container is one batch.
//!
//! Emission order is temporal order, so containers, statistics and every
//! byte are identical across queue depths and `RAYON_NUM_THREADS` settings
//! (`tests/streaming_executor.rs`).  A codec panic leaves with its original
//! payload once every sibling job of its batch has finished.

use crate::codec::{squared_error, BlockJob, Codec, CodecScratch, EncodedBlock, ErrorTarget};
use crate::container::{Container, ContainerError, DictMode, EntropyProfile};
use gld_datasets::{blocks, Variable};
use gld_entropy::HistogramModel;
use gld_lz::LzProfile;
use gld_tensor::Tensor;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Per-worker scratch arena: pool workers are persistent, so buffers
    /// reused across batch jobs stop the hot path from allocating per
    /// block.  Frames are bit-identical to the fresh-scratch path, so reuse
    /// never leaks state between blocks (or between interleaved executors
    /// sharing a pool thread).
    static WORKER_SCRATCH: RefCell<CodecScratch> = RefCell::new(CodecScratch::new());
}

/// Runs `compress_window_outcome` with this thread's reusable scratch.
///
/// The scratch is *taken out* of the thread-local slot for the duration of
/// the codec call rather than borrowed across it: if the codec's own
/// internal parallelism ever re-enters this function on the same thread
/// (work-stealing during a nested join), the re-entrant call simply finds
/// an empty slot and allocates fresh buffers instead of panicking on a
/// `RefCell` double-borrow.  Output is identical either way.
fn compress_window_outcome_pooled<C: Codec + ?Sized>(
    codec: &C,
    window: &Tensor,
    target: Option<ErrorTarget>,
    index: u64,
    stage: &StageMode,
) -> BlockOutcome {
    let mut scratch = WORKER_SCRATCH.with(|slot| std::mem::take(&mut *slot.borrow_mut()));
    let outcome = compress_window_outcome(codec, window, target, index, &mut scratch, stage);
    WORKER_SCRATCH.with(|slot| *slot.borrow_mut() = scratch);
    outcome
}

/// How each frame runs the container's lossless stage (and, for
/// [`StageMode::Shared`], its entropy coding) on the worker threads.
#[derive(Clone, Debug)]
pub enum StageMode {
    /// No staging — frames are headed for a stage-free v2 stream.
    Off,
    /// Cold per-frame staging (container v3): every frame refits its stage
    /// models from scratch.
    PerFrame,
    /// Warm shared-profile coding (container v4): every frame is coded
    /// against the variable's fitted [`WarmProfile`] — shared entropy model,
    /// primed stage models and the first-block seed dictionary — instead of
    /// refitting per frame.
    Shared(Arc<WarmProfile>),
}

impl StageMode {
    /// The profile table a container written in this mode carries and the
    /// profile id its frames record (no table and id 0 outside `Shared`).
    pub(crate) fn profile(&self) -> (&[EntropyProfile], u8) {
        match self {
            StageMode::Shared(warm) => (std::slice::from_ref(&warm.profile), 1),
            _ => (&[], 0),
        }
    }
}

/// A cross-frame coding profile fitted on a variable's first temporal
/// window ([`fit_variable_profile`]): the wire-format [`EntropyProfile`]
/// the container's table carries — whose stage snapshot the workers code
/// against directly — plus the seed dictionary.
#[derive(Clone, Debug)]
pub struct WarmProfile {
    /// The profile as serialised into the container's v4 profile table.
    pub profile: EntropyProfile,
    /// The profiled first-frame bytes — the [`DictMode::FirstBlock`] seed
    /// dictionary for every later frame's match window.  Empty windows for
    /// block 0 itself.
    pub dict: Vec<u8>,
}

impl WarmProfile {
    /// The stage snapshot every frame warm-starts its adaptive models from.
    pub fn lz(&self) -> &LzProfile {
        let lz = self.profile.lz.as_ref();
        lz.expect("a fitted profile carries its stage snapshot")
    }
}

/// Number of temporal windows whose embedded models are pooled into a
/// variable's shared entropy model.  Sampling a handful of windows spread
/// across the variable keeps the fit cheap while covering the code range of
/// windows the first one alone would miss.
const PROFILE_FIT_WINDOWS: usize = 4;

/// The windows a profile fit may read, of `count >= 1`: the first, then the
/// rest of the sample spread evenly up to the last.
fn sampled_windows(count: usize) -> impl Iterator<Item = usize> {
    let extra = PROFILE_FIT_WINDOWS.min(count) - 1;
    (0..=extra).map(move |k| k * (count - 1) / extra.max(1))
}

/// A 128-bit fingerprint of every value [`fit_variable_profile`] can read
/// from `variable` — the bit patterns of exactly the windows it samples,
/// four values to a word.  Two variables of equal dims that agree on it get
/// the same fit from the same codec, `block_frames` and target, which is
/// what lets a caller memoise the fit.
pub fn profile_fit_fingerprint(variable: &Variable, block_frames: usize) -> u128 {
    let (_, count) = checked_windows(variable, block_frames);
    let data = variable.frames.data();
    let window = data.len() / variable.timesteps() * block_frames;
    let mut hash = count as u128;
    for index in sampled_windows(count) {
        for quad in data[index * window..(index + 1) * window].chunks(4) {
            let word = quad.iter().fold(0, |w, v| (w << 32) | v.to_bits() as u128);
            // Xor, odd multiply, rotate: each a bijection of the state.
            hash = (hash ^ word).wrapping_mul(FINGERPRINT_MULTIPLIER);
            hash = hash.rotate_left(61);
        }
    }
    hash
}

/// Odd, so multiplying by it permutes `u128`: 2¹²⁸ over the golden ratio.
const FINGERPRINT_MULTIPLIER: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835;

/// Fits a variable's shared coding profile: a **sample** of its temporal
/// windows is compressed cold, their embedded entropy models (if the codec
/// has one) are pooled into one shared histogram with an overflow escape
/// bin ([`HistogramModel::with_escape`]), the first window is re-coded
/// under that model, and the stage snapshot plus seed dictionary are fitted
/// on the resulting frame.  Deterministic — the executor later reproduces
/// the identical first frame, so the dictionary always matches what the
/// decoder reconstructs from block 0.
pub fn fit_variable_profile<C: Codec + ?Sized>(
    codec: &C,
    variable: &Variable,
    block_frames: usize,
    target: Option<ErrorTarget>,
) -> WarmProfile {
    let (_, windows) = checked_windows(variable, block_frames);
    let mut scratch = CodecScratch::new();
    // Unmeasured: an unbounded GLD fit runs no sampler.
    let mut encode = |index: usize, model: Option<&HistogramModel>| {
        let window = blocks::temporal_window_at(variable, block_frames, index);
        let job = BlockJob {
            model,
            ..BlockJob::new(&window.data, target, index as u64)
        };
        match codec.encode(&job, &mut scratch) {
            Ok(encoded) => encoded.frame,
            Err(e) => panic!("{e}"),
        }
    };
    let cold = encode(0, None);
    let model = codec.frame_model(&cold).map(|first| {
        let mut models = vec![first];
        // Window 0 is already fitted.
        for index in sampled_windows(windows).skip(1) {
            if let Some(m) = codec.frame_model(&encode(index, None)) {
                models.push(m);
            }
        }
        HistogramModel::merged(models.iter())
            .expect("at least one window model")
            .with_escape()
    });
    let frame0 = match model.as_ref() {
        Some(m) => {
            m.prepare_decode();
            encode(0, Some(m))
        }
        None => cold,
    };
    WarmProfile {
        profile: EntropyProfile {
            model,
            lz: Some(LzProfile::fit(&frame0, &mut scratch.lz)),
            dict_mode: DictMode::FirstBlock,
        },
        dict: frame0,
    }
}

/// Tuning for the streaming executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Windows per pool batch, and so the most blocks ever resident between
    /// materialisation and ordered emission (the bounded queue).  Clamped to
    /// at least 1.
    pub queue_depth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            // Two windows per thread that compresses — the pool's workers
            // *and* the calling thread, which drains each batch beside
            // them — without letting memory balloon.  Every window of a
            // batch is a queued job that whichever thread is free takes
            // next, so no thread idles while its batch has work left.
            queue_depth: 2 * (rayon::current_num_threads() + 1),
        }
    }
}

/// Execution metrics, mainly for tests and benches asserting the memory
/// bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamMetrics {
    /// Blocks compressed and emitted.
    pub blocks: usize,
    /// Peak number of simultaneously resident blocks (materialised but not
    /// yet emitted): the largest batch, so at most
    /// [`StreamConfig::queue_depth`].
    pub peak_resident: usize,
}

/// Everything emission needs from one compressed window: the container
/// frame plus the error/range partials the shared accounting aggregates.
pub struct BlockOutcome {
    /// The encoded container frame (unstaged codec bytes).
    pub frame: Vec<u8>,
    /// The frame's `gld-lz` stage stream when it is strictly smaller than
    /// the frame (the container v3 per-frame stage decision), computed in
    /// the block's pool job through the scratch's `LzScratch` so ordered
    /// emission never serialises stage compression.  `None` when the frame
    /// did not shrink or the caller asked for a stage-free stream.
    pub lz: Option<Vec<u8>>,
    /// Sum of squared reconstruction errors over the window.
    pub sq_err: f64,
    /// Number of values in the window.
    pub numel: usize,
    /// Minimum original value.
    pub lo: f32,
    /// Maximum original value.
    pub hi: f32,
}

/// Per-block codec timing: one pre-resolved histogram handle per family and
/// process, so the hot path pays two atomic adds, never the registry lock.
type BlockHistogram = OnceLock<Arc<gld_obs::Histogram>>;

fn block_histogram(cell: &'static BlockHistogram, family: &str) -> &'static gld_obs::Histogram {
    cell.get_or_init(|| gld_obs::registry::histogram(family, &[]))
}

/// Compresses one window through [`Codec::encode`] with `measure` set and
/// accounts its reconstruction error — the codec's own measurement, or a
/// decode of the frame when the codec returned none — the single definition
/// both the sequential reference and the streaming executor share, which is
/// what makes them bit-identical.
pub(crate) fn compress_window_outcome<C: Codec + ?Sized>(
    codec: &C,
    window: &Tensor,
    target: Option<ErrorTarget>,
    index: u64,
    scratch: &mut CodecScratch,
    stage: &StageMode,
) -> BlockOutcome {
    static ENCODE_NS: BlockHistogram = OnceLock::new();
    let _span = gld_obs::span::SpanGuard::enter("block.encode", 0, index);
    let t0_ns = gld_obs::now_ns();
    let model = stage.profile().0.first().and_then(|p| p.model.as_ref());
    let job = BlockJob {
        model,
        measure: true,
        ..BlockJob::new(window, target, index)
    };
    let EncodedBlock { frame, sq_err } = match codec.encode(&job, scratch) {
        Ok(encoded) => encoded,
        Err(e) => panic!("{e}"),
    };
    // A codec that did not hold the decoder's reconstruction leaves the
    // measurement here: decode the frame once and sum against that.
    let sq_err = sq_err.unwrap_or_else(|| match codec.decode(&frame, model) {
        Ok(recon) => squared_error(window.data(), recon.data()),
        Err(e) => panic!("a frame this codec just encoded does not decode: {e}"),
    });
    block_histogram(&ENCODE_NS, "gld_block_encode_ns")
        .record(gld_obs::now_ns().saturating_sub(t0_ns));
    let lz = match stage {
        StageMode::Off => None,
        StageMode::PerFrame => crate::container::stage_frame(&frame, &mut scratch.lz),
        StageMode::Shared(warm) => {
            // Block 0 is the dictionary itself: it de-stages dict-free.
            let dict = if index == 0 {
                // ...which the decoder takes from this container: a profile
                // fitted elsewhere would seed later frames with other bytes.
                assert!(frame == warm.dict, "profile was fitted on another variable");
                &[][..]
            } else {
                warm.dict.as_slice()
            };
            crate::container::stage_frame_profiled(&frame, dict, warm.lz(), &mut scratch.lz)
        }
    };
    BlockOutcome {
        frame,
        lz,
        sq_err,
        numel: window.numel(),
        lo: window.min(),
        hi: window.max(),
    }
}

/// Decodes every frame of `container` (already checked against `codec` by
/// [`Codec::decompress_container`]) and returns the blocks in temporal order,
/// or the first frame in frame order that the codec refused.
///
/// The whole container is one `pool_map` batch: the call returns every
/// block, so memory is O(variable) by contract.
pub(crate) fn decompress_blocks<C: Codec + ?Sized>(
    codec: &C,
    container: &Container,
) -> Result<Vec<Tensor>, ContainerError> {
    static DECODE_NS: BlockHistogram = OnceLock::new();
    let decode_ns = block_histogram(&DECODE_NS, "gld_block_decode_ns");
    let frames = container.blocks();
    pool_map(frames.len(), |index| {
        let _span = gld_obs::span::SpanGuard::enter("block.decode", 0, index as u64);
        let t0_ns = gld_obs::now_ns();
        // Frames of a profiled (v4) container may reference the container's
        // shared entropy model instead of embedding one.
        let model = container
            .profile_for_block(index)
            .and_then(|p| p.model.as_ref());
        let block = codec.decode(&frames[index], model);
        decode_ns.record(gld_obs::now_ns().saturating_sub(t0_ns));
        block.map_err(|error| ContainerError::Block {
            block: index,
            error,
        })
    })
    .into_iter()
    .collect()
}

/// Runs `job` for every index in `0..count` on the persistent pool and
/// returns the results in index order — the one pool primitive under both
/// directions.  A lone job runs inline and never touches the pool; two or
/// more are **one batch**: one submission and one wake-up, the calling
/// thread starts on job 0 and keeps draining the batch beside the workers
/// (so the call completes with every worker busy, and from inside a pool
/// job), and each result lands in its own slot — the same values in the
/// same order as a sequential map.  A panic leaves with its original
/// payload once every sibling job has finished.
fn pool_map<T, F>(count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count < 2 {
        return (0..count).map(job).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    let job = &job;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter_mut()
        .enumerate()
        .map(|(index, slot)| {
            Box::new(move || *slot = Some(job(index))) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    rayon::pool::join_all(jobs);
    slots
        .into_iter()
        .map(|slot| slot.expect("pool batch completed every job"))
        .collect()
}

/// The streaming iterator over a variable's complete temporal windows plus
/// their total count — the one definition of the tiling contract (and its
/// too-few-timesteps diagnostic) shared by every compress path.
pub(crate) fn checked_windows(
    variable: &Variable,
    block_frames: usize,
) -> (blocks::TemporalWindows<'_>, usize) {
    let windows = blocks::temporal_windows_iter(variable, block_frames);
    let count = windows.count_total();
    assert!(
        count > 0,
        "variable '{}' has {} timesteps, too few for one {}-frame block",
        variable.name,
        variable.timesteps(),
        block_frames
    );
    (windows, count)
}

/// Streams every complete temporal window of `variable` through `codec` and
/// hands the outcomes to `emit` strictly in temporal order, holding at most
/// `config.queue_depth` blocks in flight.  The windows run as consecutive
/// pool batches of `queue_depth`; `emit` runs on the calling thread after
/// each batch.  Returning `false` from `emit` cancels the stream: no later
/// batch is compressed (the sink writer uses this to abort on the first
/// I/O error instead of compressing the rest of the variable for nothing).
///
/// `stage` selects how each job runs the container's lossless stage per
/// frame (posted in [`BlockOutcome::lz`]): cold per-frame fits for a v3
/// stream, warm shared-profile coding for a v4 stream, or no staging at all
/// for a v2 stream.
///
/// A panic inside the codec or in `emit` propagates out of this call with
/// its original payload.
pub fn stream_compress_variable<C, F>(
    codec: &C,
    variable: &Variable,
    block_frames: usize,
    target: Option<ErrorTarget>,
    config: StreamConfig,
    stage: StageMode,
    mut emit: F,
) -> StreamMetrics
where
    C: Codec + ?Sized,
    F: FnMut(usize, BlockOutcome) -> bool,
{
    let (_, count) = checked_windows(variable, block_frames);
    let depth = config.queue_depth.max(1);
    let mut metrics = StreamMetrics::default();
    for start in (0..count).step_by(depth) {
        let batch = depth.min(count - start);
        let outcomes = pool_map(batch, |offset| {
            let index = start + offset;
            let window = blocks::temporal_window_at(variable, block_frames, index);
            compress_window_outcome_pooled(codec, &window.data, target, index as u64, &stage)
        });
        metrics.peak_resident = metrics.peak_resident.max(batch);
        for (index, outcome) in (start..).zip(outcomes) {
            // Counted before `emit`: a cancelling emission still took it.
            metrics.blocks += 1;
            if !emit(index, outcome) {
                return metrics;
            }
        }
    }
    metrics
}
