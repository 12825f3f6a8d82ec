//! Streaming block executor: bounded-memory parallel compression of a
//! variable's temporal windows.
//!
//! The buffered pipeline this replaces materialised every window result
//! before packing the container, so the pipeline's working set grew with
//! the variable.  Here three roles run concurrently on the persistent pool
//! (`rayon::scope`):
//!
//! * a **producer** — a claim counter advanced under the flow lock; the
//!   claimed window itself is materialised (`temporal_window_at`) *outside*
//!   the lock, so block-sized copies never serialise the other roles.
//!   Claims are gated by a ticket window: index `i` may only be claimed
//!   while `i < emitted + queue_depth`, which is the bounded queue — at
//!   most `queue_depth` blocks exist between materialisation and emission,
//!   so in-flight blocks are O(depth), not O(variable);
//! * **one-shot worker jobs** — each claims at most one window, runs
//!   [`Codec::encode`] with the window's index (the per-block derived seed
//!   keeps output bit-identical to the sequential reference; SZ and GLD
//!   report the reconstruction error with the frame, so nothing is decoded
//!   to account it), posts the outcome to the reorder buffer and exits.
//!   A job that finds
//!   the ticket window full exits immediately instead of parking, so the
//!   executor never blocks a pool thread and concurrent executors
//!   interleave fairly on the shared pool;
//! * an **ordered collector** (the calling thread) emits outcomes strictly
//!   in temporal order, tops the pool up with one fresh job per emission,
//!   and — while its next index is still in flight — helps by claiming and
//!   compressing blocks itself, so the executor finishes even if every
//!   pool worker is busy elsewhere.
//!
//! Emission order equals claim order equals temporal order, so containers,
//! statistics and every byte are identical across worker counts, queue
//! depths and `RAYON_NUM_THREADS` settings (`tests/streaming_executor.rs`).
//!
//! The read side, `decompress_blocks` under
//! [`Codec::decompress_container`], needs none of that flow control: it
//! returns every block, so it fans them over the same pool as one batch.

use crate::codec::{squared_error, BlockJob, Codec, CodecScratch, EncodedBlock, ErrorTarget};
use crate::container::{Container, DictMode, EntropyProfile};
use gld_datasets::{blocks, Variable};
use gld_entropy::HistogramModel;
use gld_lz::LzProfile;
use gld_tensor::Tensor;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Per-worker scratch arena: pool workers are persistent, so buffers
    /// reused across one-shot jobs stop the hot path from allocating per
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
    /// Maximum blocks simultaneously resident between materialisation and
    /// ordered emission (the bounded queue).  Clamped to at least 1.
    pub queue_depth: usize,
    /// Upper bound on one-shot worker jobs kept in flight on the pool; `0`
    /// means one per pool thread.  The collector always helps, so any
    /// value makes progress.
    pub workers: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            // Two tickets per thread that compresses — the pool's workers
            // *and* the helping collector — without letting memory balloon.
            // Counting only the workers stalls a one-thread pool: whenever
            // the collector finished block 0 before the worker finished
            // block 1, the worker's next job found the window full and
            // exited, and the collector compressed three blocks of four.
            // Which way that race went changed an encode's wall time by a
            // third from one call to the next.
            queue_depth: 2 * (rayon::current_num_threads() + 1),
            workers: 0,
        }
    }
}

/// Execution metrics, mainly for tests and benches asserting the memory
/// bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamMetrics {
    /// Blocks compressed and emitted.
    pub blocks: usize,
    /// Peak number of simultaneously resident blocks (claimed but not yet
    /// emitted).  Bounded by [`StreamConfig::queue_depth`] by construction.
    pub peak_resident: usize,
}

/// Everything the collector needs from one compressed window: the container
/// frame plus the error/range partials the shared accounting aggregates.
pub struct BlockOutcome {
    /// The encoded container frame (unstaged codec bytes).
    pub frame: Vec<u8>,
    /// The frame's `gld-lz` stage stream when it is strictly smaller than
    /// the frame (the container v3 per-frame stage decision), computed on
    /// the worker thread through the scratch's `LzScratch` so the ordered
    /// collector never serialises stage compression.  `None` when the frame
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
    let sq_err =
        sq_err.unwrap_or_else(|| squared_error(window.data(), codec.decode(&frame, model).data()));
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
/// [`Codec::decompress_container`]) and returns the blocks in temporal order.
///
/// Blocks share no state, so a container of two or more goes to the pool as
/// **one batch**: one submission and one wake-up, the calling thread starts
/// on block 0 and keeps draining the batch beside the workers (so the call
/// completes with every worker busy, and from inside a pool job), and each
/// block lands in its own slot — the same floats in the same order as a
/// sequential map.  No ticket window: the call returns every block, so
/// memory is O(variable) by contract.  A codec panic leaves with its
/// original payload once every sibling block has finished.
pub(crate) fn decompress_blocks<C: Codec + ?Sized>(
    codec: &C,
    container: &Container,
) -> Vec<Tensor> {
    static DECODE_NS: BlockHistogram = OnceLock::new();
    let decode_ns = block_histogram(&DECODE_NS, "gld_block_decode_ns");
    let decode = |index: usize, frame: &[u8]| {
        let _span = gld_obs::span::SpanGuard::enter("block.decode", 0, index as u64);
        let t0_ns = gld_obs::now_ns();
        // Frames of a profiled (v4) container may reference the container's
        // shared entropy model instead of embedding one.
        let model = container
            .profile_for_block(index)
            .and_then(|p| p.model.as_ref());
        let block = codec.decode(frame, model);
        decode_ns.record(gld_obs::now_ns().saturating_sub(t0_ns));
        block
    };
    let frames = container.blocks();
    if frames.len() < 2 {
        // Nothing to run beside: a lone block never touches the pool.
        return frames.iter().map(|frame| decode(0, frame)).collect();
    }
    let mut slots: Vec<Option<Tensor>> = Vec::new();
    slots.resize_with(frames.len(), || None);
    let decode = &decode;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = frames
        .iter()
        .zip(slots.iter_mut())
        .enumerate()
        .map(|(index, (frame, slot))| {
            Box::new(move || *slot = Some(decode(index, frame))) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    rayon::pool::join_all(jobs);
    slots
        .into_iter()
        .map(|slot| slot.expect("pool batch completed every block"))
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

/// Shared flow-control state: the claim counter, the ticket window and the
/// reorder buffer, all under one lock.
struct FlowState {
    /// Lowest unclaimed window index; claims advance it in temporal order.
    next: usize,
    emitted: usize,
    resident: usize,
    peak_resident: usize,
    ready: BTreeMap<usize, BlockOutcome>,
    worker_panicked: bool,
    /// Set when the emit callback cancels the stream (e.g. the sink hit an
    /// I/O error): remaining windows are abandoned, not compressed.
    cancelled: bool,
}

struct Flow<'a> {
    variable: &'a Variable,
    block_frames: usize,
    count: usize,
    depth: usize,
    state: Mutex<FlowState>,
    /// Collector waits here for the next in-order outcome.
    outcome_posted: Condvar,
}

impl Flow<'_> {
    /// Claims the next window if the ticket window has room, materialising
    /// the block copy *after* releasing the lock.  Claim order under the
    /// lock *is* temporal order.  Returns `None` when the window is full or
    /// every index is claimed — callers exit or wait on the reorder buffer;
    /// nothing ever parks on a claim.
    fn try_claim(&self) -> Option<(usize, Tensor)> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.next >= self.count
            || state.worker_panicked
            || state.cancelled
            || state.next >= state.emitted + self.depth
        {
            return None;
        }
        let index = state.next;
        state.next += 1;
        state.resident += 1;
        state.peak_resident = state.peak_resident.max(state.resident);
        drop(state);
        let window = blocks::temporal_window_at(self.variable, self.block_frames, index);
        Some((index, window.data))
    }

    /// Posts a finished outcome into the reorder buffer.
    fn post(&self, index: usize, outcome: BlockOutcome) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.ready.insert(index, outcome);
        drop(state);
        self.outcome_posted.notify_all();
    }

    /// Marks the run failed so the collector stops instead of waiting for a
    /// block that will never arrive.
    fn poison(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.worker_panicked = true;
        drop(state);
        self.outcome_posted.notify_all();
    }

    /// Stops the stream early: no further windows are claimed; outstanding
    /// jobs drain out as no-ops.
    fn cancel(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.cancelled = true;
        drop(state);
        self.outcome_posted.notify_all();
    }
}

/// One pool job: claim at most one window, compress it, post the outcome.
/// Never blocks — a full ticket window or a drained variable makes it a
/// no-op (the collector tops jobs up as tickets free).  A codec panic
/// poisons the flow before re-throwing so the collector stops cleanly and
/// the pool's scope re-throws the original payload.
fn worker_step<C: Codec + ?Sized>(
    flow: &Flow<'_>,
    codec: &C,
    target: Option<ErrorTarget>,
    stage: &StageMode,
) {
    let run = catch_unwind(AssertUnwindSafe(|| {
        if let Some((index, window)) = flow.try_claim() {
            let outcome =
                compress_window_outcome_pooled(codec, &window, target, index as u64, stage);
            drop(window);
            flow.post(index, outcome);
        }
    }));
    if let Err(payload) = run {
        flow.poison();
        resume_unwind(payload);
    }
}

/// Streams every complete temporal window of `variable` through `codec` and
/// hands the outcomes to `emit` strictly in temporal order, holding at most
/// `config.queue_depth` blocks in flight.  `emit` runs on the calling
/// thread; emitting early frames overlaps with compressing later ones.
/// Returning `false` from `emit` cancels the stream: no further windows are
/// claimed or compressed (the sink writer uses this to abort on the first
/// I/O error instead of compressing the rest of the variable for nothing).
///
/// `stage` selects how the workers run the container's lossless stage per
/// frame (posted in [`BlockOutcome::lz`]): cold per-frame fits for a v3
/// stream, warm shared-profile coding for a v4 stream, or no staging at all
/// for a v2 stream.
///
/// A panic inside the codec — on a worker job or on the collector's helping
/// path — propagates out of this call with its original payload.
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
    let stage = &stage;
    let (_, count) = checked_windows(variable, block_frames);
    let depth = config.queue_depth.max(1);
    let lookahead = match config.workers {
        0 => rayon::current_num_threads(),
        n => n,
    }
    .min(depth)
    .min(count)
    .max(1);

    let flow = Flow {
        variable,
        block_frames,
        count,
        depth,
        state: Mutex::new(FlowState {
            next: 0,
            emitted: 0,
            resident: 0,
            peak_resident: 0,
            ready: BTreeMap::new(),
            worker_panicked: false,
            cancelled: false,
        }),
        outcome_posted: Condvar::new(),
    };

    rayon::scope(|scope| {
        // Guarded like the worker jobs: if `emit` or the helping-path codec
        // call panics, the flow must be stopped before the panic unwinds
        // into the scope so outstanding jobs drain as no-ops and the
        // original payload is re-thrown.
        let flow = &flow;
        let collect = catch_unwind(AssertUnwindSafe(|| {
            let mut spawned = 0usize;
            let spawn_one = |spawned: &mut usize| {
                if *spawned < count {
                    *spawned += 1;
                    scope.spawn(move || worker_step(flow, codec, target, stage));
                }
            };
            for _ in 0..lookahead {
                spawn_one(&mut spawned);
            }

            let mut next_emit = 0usize;
            while next_emit < count {
                let mut state = flow.state.lock().unwrap_or_else(|e| e.into_inner());
                if state.worker_panicked {
                    // Exit without panicking: the worker's original payload
                    // is held by its pool batch, and the surrounding scope
                    // re-throws it once the jobs have drained — panicking
                    // here would mask the real error with a generic one.
                    break;
                }
                if let Some(outcome) = state.ready.remove(&next_emit) {
                    state.emitted += 1;
                    state.resident -= 1;
                    drop(state);
                    if !emit(next_emit, outcome) {
                        flow.cancel();
                        break;
                    }
                    next_emit += 1;
                    // A ticket just freed: keep the pool topped up with one
                    // job per emission (one-shot jobs never park, so this
                    // is the only replenishment point).
                    spawn_one(&mut spawned);
                    continue;
                }
                drop(state);
                // The next block is not ready.  Help: claim and compress
                // one ourselves; if the ticket window is full or everything
                // is claimed, the block we need is in flight — wait for a
                // post.
                if let Some((index, window)) = flow.try_claim() {
                    let outcome =
                        compress_window_outcome_pooled(codec, &window, target, index as u64, stage);
                    drop(window);
                    flow.post(index, outcome);
                } else {
                    let mut state = flow.state.lock().unwrap_or_else(|e| e.into_inner());
                    while !state.worker_panicked && !state.ready.contains_key(&next_emit) {
                        state = flow
                            .outcome_posted
                            .wait(state)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }));
        if let Err(payload) = collect {
            flow.cancel();
            resume_unwind(payload);
        }
    });

    let state = flow.state.into_inner().unwrap_or_else(|e| e.into_inner());
    debug_assert!(state.cancelled || state.worker_panicked || state.emitted == count);
    StreamMetrics {
        blocks: state.emitted,
        peak_resident: state.peak_resident,
    }
}
