//! The sharded compression server.
//!
//! A long-running TCP server speaking the framed `GLDS` protocol
//! (`crate::protocol`).  The front end is a single readiness-driven event
//! loop (`crate::eventloop`, over the in-repo `epoll` shim): it accepts
//! connections, assembles frames incrementally off non-blocking sockets,
//! answers protocol-level ops (`Ping`, `Hello`, `Status`, `Shutdown`)
//! inline, and routes codec work — by deterministic key hash or round-robin
//! (`crate::router`) — onto one of a fixed set of **shards**.  Each shard is
//! a worker thread draining a bounded admission window: a request is only
//! admitted while the shard has fewer than `shard_window` requests in flight
//! (admitted but not yet completed), so a congested shard queues *its own*
//! submitters' requests while every other shard keeps flowing.  All shards
//! share the one persistent `rayon` pool underneath: compress requests run
//! the bounded-memory streaming executor (`gld_core::executor`), whose pool
//! batches the shard thread drains itself, so no shard can be starved by
//! another's pool usage.
//!
//! Connections are kept alive and **pipelined**: a client may have up to
//! `max_outstanding` codec requests unanswered on one connection, responses
//! are written as their shards finish — out of order, matched by request
//! id — and an optional per-connection token bucket refuses excess codec
//! work with [`Status::RateLimited`].
//!
//! Compress responses are `GLDC` containers streamed straight from
//! [`gld_core::compress_variable_to_writer_with`] into the response body (capped
//! by `max_body`; an over-limit container aborts mid-stream and the
//! diagnostic reports how many frames were emitted).  Graceful shutdown —
//! [`Server::shutdown`], or a wire [`Op::Shutdown`] — stops accepting,
//! refuses unadmitted requests, lets every admitted request finish and its
//! response flush, then joins every thread the server spawned.

use crate::eventloop::{EventLoop, LoopObs, ShardObs, WAKER_TOKEN};
use crate::protocol::{
    self, FrameHeader, Op, Status, StatusResponse, EXT_CONTAINER_STAGE, EXT_SHARED_PROFILES,
};
use crate::router::{ShardPolicy, ShardRouter};
use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_core::container::HEADER_LEN as CONTAINER_HEADER_LEN;
use gld_core::{
    compress_variable_to_writer_with, fit_variable_profile, profile_fit_fingerprint, Codec,
    CodecId, Container, ErrorTarget, StageMode, StreamConfig, StreamMetrics, WarmProfile,
};
use gld_datasets::Variable;
use gld_tensor::Tensor;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Per-connection token-bucket admission budget for codec work (compress
/// and decompress; `Ping`/`Hello`/`Status` are never rate limited).
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Bucket capacity: the largest burst admitted at once.
    pub capacity: u32,
    /// Sustained admissions per second once the burst is spent.
    pub refill_per_sec: f64,
}

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Number of shards (per-shard worker threads).  Clamped to at least 1.
    pub shards: usize,
    /// Maximum requests admitted per shard at once (queued or executing,
    /// completion not yet processed).  Clamped to at least 1.
    pub shard_window: usize,
    /// Streaming-executor tuning for compress requests.
    pub stream: StreamConfig,
    /// Shard-assignment policy.
    pub policy: ShardPolicy,
    /// Maximum request *and* response body length in bytes (under the
    /// protocol's 1 GiB hard cap).
    pub max_body: u64,
    /// The event loop's idle tick: how often reaping, rate-limit refill and
    /// the shutdown flag are checked when no fd is ready.
    pub poll_interval: Duration,
    /// A connection whose peer accepts no response bytes for this long is
    /// reaped (its admitted work still completes and releases its window
    /// slots); also the drain deadline for flushing final responses.
    pub write_timeout: Duration,
    /// Maximum codec requests one connection may have unanswered before the
    /// server stops reading from it — the pipelining depth.  Clamped to at
    /// least 1.
    pub max_outstanding: usize,
    /// Optional per-connection token bucket on codec-work admissions;
    /// `None` (the default) admits everything the windows accept.
    pub rate_limit: Option<RateLimit>,
    /// A connection with no inbound traffic for this long is reaped at the
    /// idle tick (`None`, the default, keeps silent keepalives forever).
    /// Connections with admitted work still in flight are never idle-reaped.
    pub idle_timeout: Option<Duration>,
    /// Per-op execution deadline, measured from the moment the request
    /// frame is parsed.  A request that has not *started* executing by its
    /// deadline is answered with `Status::DeadlineExceeded` instead of
    /// being run; work already on a shard completes normally (jobs are not
    /// interruptible).  `None` (the default) never expires requests.
    pub op_deadline: Option<Duration>,
    /// Address for the Prometheus text-exposition metrics endpoint
    /// (`127.0.0.1:0` picks an ephemeral port; see
    /// [`Server::metrics_addr`]).  `None` (the default) serves no endpoint.
    pub metrics_addr: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            shards: 4,
            shard_window: 4,
            stream: StreamConfig::default(),
            policy: ShardPolicy::HashKey,
            max_body: 256 << 20,
            poll_interval: Duration::from_millis(25),
            write_timeout: Duration::from_secs(30),
            max_outstanding: 32,
            rate_limit: None,
            idle_timeout: None,
            op_deadline: None,
            metrics_addr: None,
        }
    }
}

/// The set of codecs a server instance is willing to run, keyed by
/// [`CodecId`].  Registration order is irrelevant — negotiation follows the
/// *client's* preference order.
#[derive(Clone, Default)]
pub struct CodecRegistry {
    codecs: Vec<Arc<dyn Codec + Send + Sync>>,
}

impl CodecRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CodecRegistry::default()
    }

    /// The rule-based default: SZ3-like and ZFP-like (deterministic, fast,
    /// training-free — what the standalone `gld-serviced` binary runs).
    pub fn rule_based() -> Self {
        let mut registry = CodecRegistry::new();
        registry.register(Arc::new(SzCompressor::new()));
        registry.register(Arc::new(ZfpLikeCompressor::new()));
        registry
    }

    /// Registers `codec`, replacing any previous codec with the same id.
    pub fn register(&mut self, codec: Arc<dyn Codec + Send + Sync>) {
        let id = codec.id();
        self.codecs.retain(|c| c.id() != id);
        self.codecs.push(codec);
    }

    /// Looks a codec up by id.
    pub fn get(&self, id: CodecId) -> Option<Arc<dyn Codec + Send + Sync>> {
        self.codecs.iter().find(|c| c.id() == id).cloned()
    }

    /// Registered codec ids.
    pub fn ids(&self) -> Vec<CodecId> {
        self.codecs.iter().map(|c| c.id()).collect()
    }

    /// Picks the first of the client's proposals (raw id bytes, preference
    /// order) that is registered here — the `Hello` negotiation rule.
    pub fn negotiate(&self, proposals: &[u8]) -> Option<CodecId> {
        proposals
            .iter()
            .filter_map(|&byte| CodecId::from_u8(byte).ok())
            .find(|&id| self.get(id).is_some())
    }
}

/// A codec job prepared by the event loop, executed on a shard worker with
/// that worker's [`ShardState`].
pub(crate) type ShardJob = Box<dyn FnOnce(&mut ShardState) -> ShardResult + Send + 'static>;

/// A wrapped job as the shard queue stores it (result delivery included).
type WorkItem = Box<dyn FnOnce(&mut ShardState) + Send + 'static>;

/// Entries one shard's profile memo holds.  A fitted profile weighs tens of
/// kilobytes, so the bound is small and fixed.
const PROFILE_MEMO_CAPACITY: usize = 16;

/// Everything [`fit_variable_profile`] depends on, behind the request key:
/// codec id, `block_frames`, target, dims and the fit's own fingerprint of
/// the windows it samples.
type FitInputs = (String, u8, usize, Option<ErrorTarget>, Vec<usize>, u128);

/// What a shard worker keeps between jobs — a local of its thread, so keys
/// (shard-sticky under the default policy) need no lock.  Today that is a
/// pure memo of [`fit_variable_profile`]: a profile is reused only while
/// every input of the fit is unchanged, so a hit returns what the fit would
/// have and no container byte depends on the traffic before it.
pub(crate) struct ShardState {
    /// Most recently used first; one entry per request key.
    profiles: Vec<(FitInputs, Arc<WarmProfile>)>,
    hits: Arc<gld_obs::Counter>,
    misses: Arc<gld_obs::Counter>,
    evictions: Arc<gld_obs::Counter>,
}

impl ShardState {
    fn new(obs: &ShardObs) -> Self {
        let [hits, misses, evictions] = obs.memo.clone();
        ShardState {
            profiles: Vec::new(),
            hits,
            misses,
            evictions,
        }
    }

    /// `variable`'s shared coding profile: the memoised one on a hit, else a
    /// fresh fit that replaces the key's entry (or the least recently used).
    fn profile(
        &mut self,
        codec: &(dyn Codec + Send + Sync),
        variable: &Variable,
        block_frames: usize,
        target: Option<ErrorTarget>,
    ) -> Arc<WarmProfile> {
        let inputs: FitInputs = (
            variable.name.clone(),
            codec.id() as u8,
            block_frames,
            target,
            variable.frames.dims().to_vec(),
            profile_fit_fingerprint(variable, block_frames),
        );
        let held = self.profiles.iter().position(|(k, _)| k.0 == inputs.0);
        let entry = match held.map(|at| self.profiles.remove(at)) {
            Some(entry) if entry.0 == inputs => {
                self.hits.inc();
                entry
            }
            stale => {
                self.misses.inc();
                let warm = fit_variable_profile(codec, variable, block_frames, target);
                if stale.is_none() && self.profiles.len() == PROFILE_MEMO_CAPACITY {
                    self.profiles.pop();
                    self.evictions.inc();
                }
                (inputs, Arc::new(warm))
            }
        };
        let warm = Arc::clone(&entry.1);
        self.profiles.insert(0, entry);
        warm
    }
}

/// What a shard job hands back to the event loop.
pub(crate) struct ShardResult {
    pub(crate) status: Status,
    pub(crate) codec: u8,
    pub(crate) body: Vec<u8>,
    /// Frames the job handled; `peak_resident` is 0 outside a streaming
    /// compress.
    pub(crate) stream: StreamMetrics,
}

/// A finished shard job on its way back to the event loop.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) shard: usize,
    pub(crate) request_id: u64,
    pub(crate) op: Op,
    pub(crate) result: ShardResult,
    /// The request's frame-start timestamp ([`gld_obs::now_ns`]).
    pub(crate) t0_ns: u64,
    /// When the loop admitted the request to its shard — the `execute`
    /// stage measures from here to response enqueue.
    pub(crate) admit_ns: u64,
}

/// Negotiated session state for one connection (set by `Hello`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Session {
    /// Codec chosen in `Hello`, used when a request's codec byte is 0.
    pub(crate) codec: Option<CodecId>,
    /// Container v3 per-frame stage negotiated.
    pub(crate) stage: bool,
    /// Container v4 shared profiles negotiated (wins over `stage`).
    pub(crate) profiles: bool,
}

/// Job queue for one shard.  Admission control lives in the event loop (the
/// only submitter), so this is just a condvar-parked work queue.
pub(crate) struct ShardQueue {
    state: Mutex<ShardQueueState>,
    work: Condvar,
}

struct ShardQueueState {
    jobs: VecDeque<WorkItem>,
    stop: bool,
}

impl ShardQueue {
    fn new() -> Self {
        ShardQueue {
            state: Mutex::new(ShardQueueState {
                jobs: VecDeque::new(),
                stop: false,
            }),
            work: Condvar::new(),
        }
    }

    /// Hands an admitted job to the shard worker.
    pub(crate) fn push(&self, job: WorkItem) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.jobs.push_back(job);
        drop(state);
        self.work.notify_one();
    }

    /// Worker side: next job, or `None` once stopped *and* drained.
    fn next_job(&self) -> Option<WorkItem> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.stop {
                return None;
            }
            state = self.work.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn stop(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.stop = true;
        drop(state);
        self.work.notify_all();
    }
}

pub(crate) struct ServerShared {
    pub(crate) config: ServiceConfig,
    pub(crate) registry: CodecRegistry,
    pub(crate) router: ShardRouter,
    pub(crate) obs: LoopObs,
    pub(crate) shards: Vec<ShardQueue>,
    pub(crate) waker: epoll::Waker,
    completions: Mutex<Vec<Completion>>,
    addr: SocketAddr,
    shutdown: AtomicBool,
    shutdown_cv: (Mutex<bool>, Condvar),
}

impl ServerShared {
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Idempotently starts the graceful-shutdown sequence: flag the event
    /// loop (which stops accepting and drains) and wake everything waiting.
    pub(crate) fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the event loop out of its poll.
        let _ = self.waker.notify();
        // Wake `Server::wait`.
        let (flag, cv) = &self.shutdown_cv;
        *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
    }

    /// Worker side: queue a finished job's result and wake the loop.
    pub(crate) fn push_completion(&self, completion: Completion) {
        let mut completions = self.completions.lock().unwrap_or_else(|e| e.into_inner());
        completions.push(completion);
        drop(completions);
        let _ = self.waker.notify();
    }

    /// Loop side: take every queued completion.
    pub(crate) fn take_completions(&self) -> Vec<Completion> {
        let mut completions = self.completions.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *completions)
    }
}

/// A running sharded compression server.
///
/// Dropping the handle performs a graceful shutdown; call
/// [`Server::shutdown`] to do it explicitly or [`Server::wait`] to serve
/// until a wire [`Op::Shutdown`] arrives.
pub struct Server {
    shared: Arc<ServerShared>,
    event_loop: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    metrics_endpoint: Option<gld_obs::http::MetricsServer>,
}

impl Server {
    /// Binds, spawns the shard workers and the event loop, and returns the
    /// running server.
    pub fn start(config: ServiceConfig, registry: CodecRegistry) -> std::io::Result<Server> {
        assert!(!registry.codecs.is_empty(), "registry has no codecs");
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shards = config.shards.max(1);
        let poller = epoll::Poller::new()?;
        let waker = epoll::Waker::new(&poller, WAKER_TOKEN)?;
        let shared = Arc::new(ServerShared {
            router: ShardRouter::new(shards, config.policy),
            obs: LoopObs::new(shards),
            shards: (0..shards).map(|_| ShardQueue::new()).collect(),
            waker,
            completions: Mutex::new(Vec::new()),
            addr,
            shutdown: AtomicBool::new(false),
            shutdown_cv: (Mutex::new(false), Condvar::new()),
            config,
            registry,
        });
        let workers = (0..shards)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gld-service-shard-{index}"))
                    .spawn(move || shard_worker(&shared, index))
                    .expect("spawn shard worker")
            })
            .collect();
        let event_loop = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("gld-service-loop".into())
                .spawn(move || EventLoop::new(shared, poller, listener).run())
                .expect("spawn event loop")
        };
        let metrics_endpoint = match shared.config.metrics_addr.clone() {
            Some(metrics_addr) => {
                let render_shared = Arc::clone(&shared);
                let renderer: gld_obs::http::Renderer =
                    Arc::new(move || render_shared.obs.render());
                Some(gld_obs::http::serve(metrics_addr.as_str(), renderer)?)
            }
            None => None,
        };
        gld_obs::log_info!(
            "server",
            addr = addr,
            shards = shards;
            "serving"
        );
        Ok(Server {
            shared,
            event_loop: Some(event_loop),
            workers,
            metrics_endpoint,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The metrics endpoint's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_endpoint
            .as_ref()
            .map(gld_obs::http::MetricsServer::local_addr)
    }

    /// This server's counters, exactly as the `Status` op reports them
    /// (latency summaries included).
    pub fn metrics(&self) -> StatusResponse {
        self.shared.obs.status(true)
    }

    /// Graceful shutdown: stop accepting, drain every admitted request
    /// (responses are written), then join every thread.
    pub fn shutdown(mut self) -> StatusResponse {
        self.shared.trigger_shutdown();
        self.join_all();
        self.metrics()
    }

    /// Serves until a wire [`Op::Shutdown`] request arrives, then drains and
    /// joins exactly like [`Server::shutdown`].
    pub fn wait(mut self) -> StatusResponse {
        {
            let (flag, cv) = &self.shared.shutdown_cv;
            let mut done = flag.lock().unwrap_or_else(|e| e.into_inner());
            while !*done {
                done = cv.wait(done).unwrap_or_else(|e| e.into_inner());
            }
        }
        self.join_all();
        self.metrics()
    }

    fn join_all(&mut self) {
        // The event loop first: it owns the drain (refuse new work, complete
        // admitted work, flush responses, close connections) and exits only
        // when the drain is done.
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        // Shards last: every admitted job has completed by now, so stopping
        // is an empty-queue no-op.
        for shard in &self.shared.shards {
            shard.stop();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(endpoint) = self.metrics_endpoint.take() {
            endpoint.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.event_loop.is_some() {
            self.shared.trigger_shutdown();
            self.join_all();
        }
    }
}

fn shard_worker(shared: &Arc<ServerShared>, index: usize) {
    let mut state = ShardState::new(&shared.obs.shards[index]);
    while let Some(job) = shared.shards[index].next_job() {
        job(&mut state);
    }
}

/// Outcome of preparing a codec request on the event loop: refused with a
/// typed status, or a job ready for its shard's admission window.
pub(crate) enum Prepared {
    Refuse { status: Status, message: String },
    Job { shard: usize, job: ShardJob },
}

impl Prepared {
    fn refuse(status: Status, message: impl Into<String>) -> Self {
        Prepared::Refuse {
            status,
            message: message.into(),
        }
    }
}

/// Runs `Hello` negotiation: picks the codec, mutates the session (codec +
/// feature bits), and returns the ready-to-send response frame parts.
pub(crate) fn negotiate_hello(
    shared: &ServerShared,
    header: &FrameHeader,
    body: &[u8],
    session: &mut Session,
) -> Result<(FrameHeader, Vec<u8>), (Status, String)> {
    let request = protocol::HelloRequest::decode_body(body)
        .map_err(|e| (protocol::status_for(&e), e.to_string()))?;
    let Some(chosen) = shared.registry.negotiate(&request.proposals) else {
        return Err((
            Status::NoCommonCodec,
            "none of the proposed codecs is registered on this server".into(),
        ));
    };
    session.codec = Some(chosen);
    // Capability-and-echo: a feature is on exactly when the client
    // advertised it, and the echoed bit tells the client so.
    session.stage = header.ext & EXT_CONTAINER_STAGE != 0;
    session.profiles = header.ext & EXT_SHARED_PROFILES != 0;
    let info = protocol::HelloResponse {
        shards: shared.router.shards() as u32,
        shard_window: shared.config.shard_window.max(1) as u32,
        queue_depth: shared.config.stream.queue_depth.max(1) as u32,
    };
    let body = info.encode_body();
    let mut echo = 0u8;
    if session.stage {
        echo |= EXT_CONTAINER_STAGE;
    }
    if session.profiles {
        echo |= EXT_SHARED_PROFILES;
    }
    let response = FrameHeader::response(
        Op::Hello,
        chosen as u8,
        Status::Ok,
        header.request_id,
        body.len() as u64,
    )
    .with_ext(echo);
    Ok((response, body))
}

/// Resolves the codec for a request: an explicit header byte wins, else the
/// session default from `Hello`.
fn resolve_codec(
    shared: &ServerShared,
    header_codec: u8,
    session_codec: Option<CodecId>,
) -> Result<Arc<dyn Codec + Send + Sync>, (Status, String)> {
    let id = if header_codec != 0 {
        CodecId::from_u8(header_codec).map_err(|_| {
            (
                Status::UnknownCodec,
                format!("unknown codec id {header_codec}"),
            )
        })?
    } else {
        session_codec.ok_or((
            Status::UnknownCodec,
            "no codec: set the header codec byte or negotiate one with Hello".to_string(),
        ))?
    };
    shared.registry.get(id).ok_or((
        Status::UnknownCodec,
        format!("codec {id:?} is not registered"),
    ))
}

/// A `Vec` sink that refuses to grow past `limit` — the response-body cap
/// enforced *during* container streaming, so an over-limit compress aborts
/// early instead of buffering without bound.
struct LimitedSink {
    buf: Vec<u8>,
    limit: usize,
}

impl Write for LimitedSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if self.buf.len() + data.len() > self.limit {
            return Err(std::io::Error::other(format!(
                "response body limit of {} bytes exceeded",
                self.limit
            )));
        }
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a job that handled `blocks` frames outside the streaming executor
/// reports.
fn frames(blocks: usize) -> StreamMetrics {
    StreamMetrics {
        blocks,
        peak_resident: 0,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "codec panicked".to_string()
    }
}

/// Validates a compress request and builds its shard job.  Runs on the
/// event loop — everything here is decode + cheap checks; the codec work is
/// inside the returned closure.
pub(crate) fn prepare_compress(
    shared: &ServerShared,
    header: &FrameHeader,
    body: &[u8],
    session: &Session,
) -> Prepared {
    let request = match protocol::CompressRequest::decode_body(body) {
        Ok(r) => r,
        Err(e) => return Prepared::refuse(protocol::status_for(&e), e.to_string()),
    };
    let codec = match resolve_codec(shared, header.codec, session.codec) {
        Ok(codec) => codec,
        Err((status, message)) => return Prepared::refuse(status, message),
    };
    let [t, h, w] = request.dims;
    if (t as usize) < request.block_frames as usize {
        // `checked_windows` panics on a zero-window variable; the server
        // must refuse it as a typed error instead.
        return Prepared::refuse(
            Status::Malformed,
            format!(
                "variable has {t} timesteps, too few for one {}-frame block",
                request.block_frames
            ),
        );
    }
    let shard = shared.router.route(&request.key);
    let variable = Variable::new(
        request.key,
        Tensor::from_vec(request.data, &[t as usize, h as usize, w as usize]),
    );
    let block_frames = request.block_frames as usize;
    let target = request.target;
    let stream_config = shared.config.stream;
    let limit = shared.config.max_body as usize;
    let codec_byte = codec.id() as u8;
    let session = *session;

    let job: ShardJob = Box::new(move |state| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Profile-negotiated sessions get the v4 (shared coding profile)
            // container — fitted once per key and shard while the variable
            // keeps coming back — stage-negotiated sessions the v3
            // (per-frame gld-lz stage) one; everyone else gets the
            // stage-free v2 stream their decoder predates the stage for.
            let stage = if session.profiles {
                StageMode::Shared(state.profile(codec.as_ref(), &variable, block_frames, target))
            } else if session.stage {
                StageMode::PerFrame
            } else {
                StageMode::Off
            };
            compress_variable_to_writer_with(
                codec.as_ref(),
                &variable,
                block_frames,
                target,
                stream_config,
                stage,
                LimitedSink {
                    buf: Vec::new(),
                    limit,
                },
            )
        }));
        match outcome {
            Ok(Ok((sink, _stats, metrics))) => ShardResult {
                status: Status::Ok,
                codec: codec_byte,
                body: sink.buf,
                stream: metrics,
            },
            Ok(Err(e)) => ShardResult {
                // The partial-write diagnostic: how far the container got
                // before the sink refused (`StreamWriteError::frames_emitted`).
                status: Status::FrameTooLarge,
                codec: codec_byte,
                body: e.to_string().into_bytes(),
                stream: frames(e.frames_emitted),
            },
            Err(payload) => ShardResult {
                status: Status::Internal,
                codec: codec_byte,
                body: panic_message(payload.as_ref()).into_bytes(),
                stream: StreamMetrics::default(),
            },
        }
    });
    Prepared::Job { shard, job }
}

/// Validates a decompress request and builds its shard job.  The cheap
/// pre-admission checks (length, codec byte) run here; the full CRC-checked
/// container decode runs on the shard.
pub(crate) fn prepare_decompress(shared: &ServerShared, body: &[u8]) -> Prepared {
    let request = match protocol::DecompressRequest::decode_body(body) {
        Ok(r) => r,
        Err(e) => return Prepared::refuse(protocol::status_for(&e), e.to_string()),
    };
    if request.container.len() < CONTAINER_HEADER_LEN {
        return Prepared::refuse(
            Status::BadContainer,
            "container shorter than its fixed header",
        );
    }
    let codec = match CodecId::from_u8(request.container[6])
        .ok()
        .and_then(|id| shared.registry.get(id))
    {
        Some(codec) => codec,
        None => {
            return Prepared::refuse(
                Status::UnknownCodec,
                format!(
                    "container codec id {} is not registered",
                    request.container[6]
                ),
            );
        }
    };
    let shard = shared.router.route(&request.key);
    let codec_byte = codec.id() as u8;
    let container_bytes = request.container;
    let limit = shared.config.max_body as usize;

    let job: ShardJob = Box::new(move |_| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let container = Container::decode(&container_bytes)
                .map_err(|e| (Status::BadContainer, e.to_string()))?;
            let blocks = codec
                .decompress_container(&container)
                .map_err(|e| (Status::BadContainer, e.to_string()))?;
            let body = protocol::encode_blocks_body(&blocks);
            if body.len() > limit {
                return Err((
                    Status::FrameTooLarge,
                    format!(
                        "decompressed body of {} bytes exceeds the {limit}-byte limit",
                        body.len()
                    ),
                ));
            }
            Ok((body, blocks.len()))
        }));
        match outcome {
            Ok(Ok((body, blocks))) => ShardResult {
                status: Status::Ok,
                codec: codec_byte,
                body,
                stream: frames(blocks),
            },
            Ok(Err((status, message))) => ShardResult {
                status,
                codec: codec_byte,
                body: message.into_bytes(),
                stream: StreamMetrics::default(),
            },
            Err(payload) => ShardResult {
                status: Status::Internal,
                codec: codec_byte,
                body: panic_message(payload.as_ref()).into_bytes(),
                stream: StreamMetrics::default(),
            },
        }
    });
    Prepared::Job { shard, job }
}
