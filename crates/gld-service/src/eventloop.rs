//! The readiness-driven connection front end.
//!
//! One loop thread owns an [`epoll::Poller`], the listening socket, and every
//! connection's state machine; shard workers stay exactly as they were —
//! codec work never runs here.  The division of labour:
//!
//! * **Loop thread** (this module): accept, non-blocking reads into a
//!   [`StreamParser`](crate::protocol::StreamParser) per connection, request
//!   admission (per-connection outstanding bound, optional token-bucket rate
//!   limit, per-shard windows), inline ops (`Ping`, `Hello`, `Status`,
//!   `Shutdown`), response serialisation into per-connection write buffers,
//!   non-blocking flushes, connection reaping, graceful drain.
//! * **Shard workers** (`server.rs`): run admitted compress/decompress jobs
//!   and push a completion + waker notification back to the loop.
//!
//! Pipelining falls out of the design: every parsed request carries its own
//! id, responses are enqueued the moment their work completes, and nothing
//! forces completion order across shards — so responses go out **out of
//! order** and clients match on the echoed id.
//!
//! Backpressure is per connection.  A connection stops being *read* — its
//! epoll read interest is dropped, so a level-triggered poller stays quiet —
//! while it has `max_outstanding` codec requests unanswered or its write
//! buffer is over the backlog threshold; every other connection keeps
//! flowing.  A peer that stops draining its responses is reaped after
//! `write_timeout` without progress; a half-closed peer (read side EOF) is
//! served its remaining responses, then reaped.

use crate::protocol::{
    self, FrameHeader, Op, OpLatency, RawFrameHeader, ShardStatus, Status, StatusResponse,
    StatusSummaries, StreamEvent, StreamParser,
};
use crate::server::{
    prepare_compress, prepare_decompress, Completion, Prepared, ServerShared, Session, ShardJob,
    ShardState,
};
use epoll::{Event, Interest, Poller};
use gld_core::StreamMetrics;
use gld_obs::{now_ns, span, Counter, Gauge, Histogram, Registry};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

/// Poller token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Poller token of the cross-thread waker.
pub(crate) const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection (tokens are never reused).
const FIRST_CONN_TOKEN: u64 = 2;

/// Write-buffer backlog (bytes unflushed) above which a connection's reads
/// pause until the peer drains responses.
const READ_PAUSE_BACKLOG: usize = 1 << 20;

/// A refused request's cause.  The three causes are **disjoint**: every
/// refusal counts under exactly one of them, and in the roll-up
/// `glds_requests_rejected_total`, so the roll-up is always their sum.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cause {
    /// The per-connection token bucket was empty (`Status::RateLimited`).
    RateLimited,
    /// The request sat out its `--op-deadline` (`Status::DeadlineExceeded`).
    Deadline,
    /// Anything else: a protocol error, an unknown codec, an over-limit
    /// body, a drain refusal, ...
    Other,
}

/// One shard's instruments in its server's registry, labelled `shard`.
pub(crate) struct ShardObs {
    in_flight: Arc<Gauge>,
    peak_in_flight: Arc<Gauge>,
    admitted: Arc<Counter>,
    completed: Arc<Counter>,
    blocks: Arc<Counter>,
    peak_resident_blocks: Arc<Gauge>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// `glds_profile_memo_{hits,misses,evictions}_total`, bumped by the
    /// shard's worker.
    pub(crate) memo: [Arc<Counter>; 3],
}

/// Everything one server counts, in the server's own [`Registry`] and
/// resolved into handles once, so recording never touches the registry
/// lock.  The event loop is the only writer of the `glds_*` counters and
/// gauges, so a peak is a compare-then-set on its thread; shard workers
/// bump only their memo counters.  Any thread reads: the `Status` op,
/// [`Server::metrics`](crate::Server::metrics) and the metrics endpoint all
/// go through [`LoopObs::status`] or [`LoopObs::render`].
///
/// The stage histograms tile a request's server-side life contiguously —
/// `parse` (frame start → queued/answered), `queue_wait` (queued →
/// admitted), `execute` (admitted → response enqueued), `write` (enqueued →
/// flushed to the kernel) — with shared boundary timestamps, so for every
/// request that flushes, the four segment durations sum exactly to its
/// `glds_request_duration_ns` total.
pub(crate) struct LoopObs {
    registry: Registry,
    connections_opened: Arc<Counter>,
    connections_active: Arc<Gauge>,
    completed: Arc<Counter>,
    blocks: Arc<Counter>,
    rejected: Arc<Counter>,
    rate_limited: Arc<Counter>,
    deadlines: Arc<Counter>,
    rejected_other: Arc<Counter>,
    reaped_idle: Arc<Counter>,
    pub(crate) shards: Vec<ShardObs>,
    /// Per-op totals, indexed by `Op as u8 - 1`.
    totals: [Arc<Histogram>; 6],
    parse: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    execute: Arc<Histogram>,
    write: Arc<Histogram>,
}

impl LoopObs {
    pub(crate) fn new(shards: usize) -> Self {
        let registry = Registry::new();
        let counter = |family: &str| registry.counter(family, &[]);
        let stage = |name: &str| registry.histogram("glds_stage_duration_ns", &[("stage", name)]);
        let shards = (0..shards)
            .map(|index| {
                let shard = index.to_string();
                let labels = [("shard", shard.as_str())];
                let counter = |family: &str| registry.counter(family, &labels);
                let gauge = |family: &str| registry.gauge(family, &labels);
                ShardObs {
                    in_flight: gauge("glds_shard_in_flight"),
                    peak_in_flight: gauge("glds_shard_peak_in_flight"),
                    admitted: counter("glds_shard_admitted_total"),
                    completed: counter("glds_shard_completed_total"),
                    blocks: counter("glds_shard_blocks_total"),
                    peak_resident_blocks: gauge("glds_shard_peak_resident_blocks"),
                    bytes_in: counter("glds_shard_bytes_in_total"),
                    bytes_out: counter("glds_shard_bytes_out_total"),
                    memo: ["hits", "misses", "evictions"]
                        .map(|event| counter(&format!("glds_profile_memo_{event}_total"))),
                }
            })
            .collect();
        LoopObs {
            connections_opened: counter("glds_connections_opened_total"),
            connections_active: registry.gauge("glds_connections_active", &[]),
            completed: counter("glds_requests_completed_total"),
            blocks: counter("glds_blocks_total"),
            rejected: counter("glds_requests_rejected_total"),
            rate_limited: counter("glds_requests_rate_limited_total"),
            deadlines: counter("glds_deadlines_exceeded_total"),
            rejected_other: counter("glds_rejected_other_total"),
            reaped_idle: counter("glds_connections_reaped_idle_total"),
            shards,
            totals: std::array::from_fn(|index| {
                let op = Op::from_u8(index as u8 + 1).expect("op bytes are 1..=6");
                registry.histogram("glds_request_duration_ns", &[("op", op.name())])
            }),
            parse: stage("parse"),
            queue_wait: stage("queue_wait"),
            execute: stage("execute"),
            write: stage("write"),
            registry,
        }
    }

    fn total(&self, op: Op) -> &Histogram {
        &self.totals[op as u8 as usize - 1]
    }

    fn connection_opened(&self) {
        self.connections_opened.inc();
        self.connections_active
            .set(self.connections_active.get() + 1);
    }

    fn connection_closed(&self) {
        self.connections_active
            .set(self.connections_active.get() - 1);
    }

    fn reject(&self, cause: Cause) {
        self.rejected.inc();
        match cause {
            Cause::RateLimited => &self.rate_limited,
            Cause::Deadline => &self.deadlines,
            Cause::Other => &self.rejected_other,
        }
        .inc();
    }

    /// A request entering `shard`'s window: the gauge and its peak move
    /// together.
    fn admit(&self, shard: usize, request_bytes: usize) {
        let shard = &self.shards[shard];
        let now = shard.in_flight.get() + 1;
        shard.in_flight.set(now);
        if now > shard.peak_in_flight.get() {
            shard.peak_in_flight.set(now);
        }
        shard.admitted.inc();
        shard.bytes_in.add(request_bytes as u64);
    }

    /// A request leaving `shard`'s window, with the frames its job handled
    /// and the peak its streaming run held resident.
    fn complete(&self, shard: usize, response_bytes: usize, stream: &StreamMetrics) {
        let shard = &self.shards[shard];
        debug_assert!(shard.in_flight.get() > 0);
        shard.in_flight.set(shard.in_flight.get() - 1);
        shard.completed.inc();
        shard.bytes_out.add(response_bytes as u64);
        shard.blocks.add(stream.blocks as u64);
        if stream.peak_resident as i64 > shard.peak_resident_blocks.get() {
            shard.peak_resident_blocks.set(stream.peak_resident as i64);
        }
        self.completed.inc();
        self.blocks.add(stream.blocks as u64);
    }

    /// The server's counters as the `Status` op serialises them, with the
    /// per-op latency trailer when `summaries` is set.
    pub(crate) fn status(&self, summaries: bool) -> StatusResponse {
        let get = |gauge: &Gauge| gauge.get().max(0) as u64;
        StatusResponse {
            connections_active: get(&self.connections_active),
            connections_opened: self.connections_opened.get(),
            requests_rejected: self.rejected.get(),
            rate_limited: self.rate_limited.get(),
            deadlines_exceeded: self.deadlines.get(),
            reaped_idle: self.reaped_idle.get(),
            faults_injected: fail::total_hits(),
            shards: self
                .shards
                .iter()
                .map(|s| ShardStatus {
                    in_flight: get(&s.in_flight),
                    peak_in_flight: get(&s.peak_in_flight),
                    admitted: s.admitted.get(),
                    completed: s.completed.get(),
                    blocks: s.blocks.get(),
                    peak_resident_blocks: get(&s.peak_resident_blocks),
                    bytes_in: s.bytes_in.get(),
                    bytes_out: s.bytes_out.get(),
                })
                .collect(),
            summaries: summaries.then(|| StatusSummaries {
                rejected_other: self.rejected_other.get(),
                ops: (1..=6u8)
                    .zip(&self.totals)
                    .filter_map(|(op, total)| {
                        let hist = total.snapshot();
                        (hist.count > 0).then_some(OpLatency {
                            op,
                            count: hist.count,
                            p50_ns: hist.p50(),
                            p99_ns: hist.p99(),
                        })
                    })
                    .collect(),
            }),
        }
    }

    /// One scrape of the metrics endpoint: the process-wide codec families
    /// of [`gld_obs::registry::global`], then this server's own.
    pub(crate) fn render(&self) -> String {
        // The failpoint registry is the fault count's one home; the counter
        // catches up with it here, where the endpoint reads it.
        let faults = self.registry.counter("glds_faults_injected_total", &[]);
        faults.add(fail::total_hits().saturating_sub(faults.get()));
        let mut out = gld_obs::registry::global().render();
        out.push_str(&self.registry.render());
        out
    }
}

/// Server-side timestamps a response carries into the write buffer, so the
/// flush path can attribute the `write` stage and the per-op total.
#[derive(Clone, Copy)]
enum RespTiming {
    /// Answered inline on the loop thread (ping/hello/status/refusals):
    /// `parse` covers frame start → enqueue.
    Inline { t0_ns: u64 },
    /// A codec response whose shard job completed: `parse` and `queue_wait`
    /// were recorded earlier; `execute` covers admit → enqueue.
    Completed { t0_ns: u64, admit_ns: u64 },
    /// A codec request answered without executing (deadline expiry, drain
    /// refusal): `parse` was recorded when it queued; `queue_wait` covers
    /// queued → enqueue and `execute` is skipped.
    Expired { t0_ns: u64, parsed_ns: u64 },
}

impl RespTiming {
    fn t0_ns(self) -> u64 {
        match self {
            RespTiming::Inline { t0_ns }
            | RespTiming::Completed { t0_ns, .. }
            | RespTiming::Expired { t0_ns, .. } => t0_ns,
        }
    }
}

/// One enqueued response awaiting its kernel flush, keyed by the absolute
/// enqueued-byte offset at which it ends.  Offsets are monotonic counters,
/// so buffer compaction in `flush_conn` never invalidates them.
struct WriteTrack {
    end: u64,
    enq_ns: u64,
    t0_ns: u64,
    op: Op,
    request_id: u64,
}

/// Per-connection token bucket limiting admissions of codec work.
struct TokenBucket {
    tokens: f64,
    capacity: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(capacity: u32, refill_per_sec: f64, now: Instant) -> Self {
        TokenBucket {
            tokens: capacity as f64,
            capacity: capacity as f64,
            refill_per_sec: refill_per_sec.max(0.0),
            last: now,
        }
    }

    fn try_take(&mut self, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One request parsed off a connection, waiting for its shard's window.
struct PendingRequest {
    conn: u64,
    request_id: u64,
    op: Op,
    request_bytes: usize,
    /// When `--op-deadline` is set: the instant after which this request is
    /// answered [`Status::DeadlineExceeded`] instead of being started.
    deadline: Option<Instant>,
    /// Frame-start timestamp ([`now_ns`]) — the request's latency origin.
    t0_ns: u64,
    /// When the request finished parsing and entered this queue; the
    /// `parse` stage was recorded against `t0_ns..parsed_ns`.
    parsed_ns: u64,
    job: ShardJob,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    parser: StreamParser,
    /// Serialised responses not yet accepted by the kernel; `out_pos` marks
    /// the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// Codec requests parsed off this connection and not yet answered
    /// (pending or admitted) — the per-connection outstanding bound.
    outstanding: usize,
    session: Session,
    bucket: Option<TokenBucket>,
    /// Peer sent EOF (half close): serve what is owed, then reap.
    read_closed: bool,
    /// A framing violation poisoned the stream: flush the error response,
    /// then close.
    fatal: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Last instant the kernel accepted response bytes (or the buffer was
    /// empty) — the stalled-writer clock.
    last_write_progress: Instant,
    /// Last instant the peer sent bytes — the `--idle-timeout` clock.
    last_activity: Instant,
    /// Monotonic count of response bytes ever appended to `out`.
    bytes_enqueued: u64,
    /// Monotonic count of response bytes the kernel has accepted.
    bytes_flushed: u64,
    /// Enqueued responses not yet fully flushed, in enqueue order.
    write_track: VecDeque<WriteTrack>,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Reads are paused while the connection is over either admission bound
    /// (or done reading for good).
    fn reads_paused(&self, max_outstanding: usize) -> bool {
        self.read_closed
            || self.fatal
            || self.outstanding >= max_outstanding
            || self.backlog() > READ_PAUSE_BACKLOG
    }

    fn desired_interest(&self, max_outstanding: usize, draining: bool) -> Interest {
        Interest {
            readable: !draining && !self.reads_paused(max_outstanding),
            writable: self.backlog() > 0,
        }
    }
}

/// The loop state: owned by exactly one thread for the server's lifetime.
pub(crate) struct EventLoop {
    shared: Arc<ServerShared>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// Requests waiting for their shard's window, per shard.
    pending: Vec<VecDeque<PendingRequest>>,
    next_token: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    pub(crate) fn new(shared: Arc<ServerShared>, poller: Poller, listener: TcpListener) -> Self {
        let shards = shared.shards.len();
        EventLoop {
            shared,
            poller,
            listener: Some(listener),
            conns: HashMap::new(),
            pending: (0..shards).map(|_| VecDeque::new()).collect(),
            next_token: FIRST_CONN_TOKEN,
            draining: false,
            drain_deadline: None,
        }
    }

    /// Runs until the graceful drain completes: listener closed, every
    /// admitted request completed, every response flushed (or its consumer
    /// timed out).
    pub(crate) fn run(mut self) {
        if let Some(listener) = &self.listener {
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
            self.poller
                .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)
                .expect("register listener");
        }
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            let timeout = Some(self.shared.config.poll_interval);
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller cannot serve; leave a postmortem timeline
                // and force the drain path.
                if !self.shared.is_shutdown() {
                    gld_obs::log_error!("eventloop", "poller failed, draining");
                    gld_obs::flight::dump("poller-failed");
                }
                self.shared.trigger_shutdown();
            }
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.shared.waker.drain(),
                    token => self.conn_ready(token, event),
                }
            }
            let touched = self.drain_completions();
            for conn in touched {
                self.pump_conn(conn);
            }
            for shard in 0..self.pending.len() {
                self.try_admit(shard);
            }
            self.expire_pending();
            if self.shared.is_shutdown() && !self.draining {
                self.begin_drain();
            }
            self.reap();
            let shards = &self.shared.obs.shards;
            if self.draining
                && self.conns.is_empty()
                && shards.iter().all(|s| s.in_flight.get() == 0)
            {
                return;
            }
        }
    }

    // ── accept ──────────────────────────────────────────────────────────

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.draining {
                        drop(stream);
                        continue;
                    }
                    self.register_conn(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient failures (ECONNABORTED, EMFILE...): level-
                // triggered readiness re-fires next tick, which is the
                // back-off.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let now = Instant::now();
        let conn = Conn {
            parser: StreamParser::new(self.shared.config.max_body),
            out: Vec::new(),
            out_pos: 0,
            outstanding: 0,
            session: Session::default(),
            bucket: self
                .shared
                .config
                .rate_limit
                .as_ref()
                .map(|rl| TokenBucket::new(rl.capacity, rl.refill_per_sec, now)),
            read_closed: false,
            fatal: false,
            interest: Interest::READABLE,
            last_write_progress: now,
            last_activity: now,
            bytes_enqueued: 0,
            bytes_flushed: 0,
            write_track: VecDeque::new(),
            stream,
        };
        if self
            .poller
            .add(conn.stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.shared.obs.connection_opened();
        self.conns.insert(token, conn);
    }

    // ── per-connection I/O ──────────────────────────────────────────────

    fn conn_ready(&mut self, token: u64, event: Event) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this batch
        }
        if event.error {
            self.close_conn(token);
            return;
        }
        if event.readable || event.hangup {
            self.read_conn(token);
        }
        if event.writable {
            self.flush_conn(token);
        }
        self.pump_conn(token);
    }

    /// Reads until `WouldBlock`, EOF, or this connection's backpressure
    /// bound, parsing frames as the bytes arrive.
    fn read_conn(&mut self, token: u64) {
        let max_outstanding = self.shared.config.max_outstanding;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.reads_paused(max_outstanding) {
                return;
            }
            let result = if fail::active() {
                // The `service.read` failpoint sits between the socket and
                // the parser: injected errors flow through the match arms
                // below exactly like real kernel failures.
                match fail::check("service.read") {
                    Some(fail::Action::ErrIo) => {
                        Err(std::io::Error::other("injected fault at service.read"))
                    }
                    Some(fail::Action::ErrInterrupted) => {
                        Err(std::io::ErrorKind::Interrupted.into())
                    }
                    Some(fail::Action::Delay(d)) => {
                        std::thread::sleep(d);
                        conn.stream.read(&mut chunk)
                    }
                    Some(fail::Action::Corrupt) => conn.stream.read(&mut chunk).inspect(|&n| {
                        if n > 0 {
                            chunk[0] ^= 0xFF;
                        }
                    }),
                    None => conn.stream.read(&mut chunk),
                }
            } else {
                conn.stream.read(&mut chunk)
            };
            match result {
                Ok(0) => {
                    conn.read_closed = true;
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.parser.push(&chunk[..n]);
                    self.parse_frames(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Drains every complete frame the parser holds, respecting the
    /// connection's admission bounds between frames.
    fn parse_frames(&mut self, token: u64) {
        let max_outstanding = self.shared.config.max_outstanding;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.fatal || conn.outstanding >= max_outstanding {
                return;
            }
            match conn.parser.next_event() {
                StreamEvent::Incomplete => return,
                StreamEvent::Frame(raw, body) => self.process_frame(token, raw, body),
                StreamEvent::Fatal { error, request_id } => {
                    // The stream position is untrustworthy: answer best-
                    // effort (`Ping` is the neutral op for undecodable
                    // requests), flush, close.
                    self.shared.obs.reject(Cause::Other);
                    gld_obs::log_warn!(
                        "eventloop",
                        conn = token,
                        req = request_id;
                        "framing violation, closing connection: {error}"
                    );
                    let status = protocol::status_for(&error);
                    let message = error.to_string();
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.fatal = true;
                    }
                    self.enqueue_response(
                        token,
                        Op::Ping,
                        0,
                        status,
                        request_id,
                        message.as_bytes(),
                        RespTiming::Inline { t0_ns: now_ns() },
                    );
                    return;
                }
            }
        }
    }

    fn process_frame(&mut self, token: u64, raw: RawFrameHeader, body: Vec<u8>) {
        // The latency origin every stage of this request measures from.
        let t0_ns = now_ns();
        let header = match raw.validate() {
            Ok(header) => header,
            Err(e) => {
                // Framing is intact (the parser consumed the declared body),
                // so an unknown op or status is answered and the connection
                // keeps serving — exactly the two-stage decode contract.
                self.shared.obs.reject(Cause::Other);
                let status = protocol::status_for(&e);
                let message = e.to_string();
                self.enqueue_response(
                    token,
                    Op::Ping,
                    0,
                    status,
                    raw.request_id,
                    message.as_bytes(),
                    RespTiming::Inline { t0_ns },
                );
                return;
            }
        };
        if header.status != Status::Ok {
            self.shared.obs.reject(Cause::Other);
            self.enqueue_response(
                token,
                header.op,
                0,
                Status::Malformed,
                header.request_id,
                b"request frames must carry status 0",
                RespTiming::Inline { t0_ns },
            );
            return;
        }
        match header.op {
            Op::Ping => {
                self.enqueue_response(
                    token,
                    Op::Ping,
                    0,
                    Status::Ok,
                    header.request_id,
                    &[],
                    RespTiming::Inline { t0_ns },
                );
            }
            Op::Hello => self.handle_hello(token, &header, &body, t0_ns),
            Op::Status => self.handle_status(token, &header, &body, t0_ns),
            Op::Shutdown => {
                gld_obs::log_info!("eventloop", conn = token; "wire shutdown requested");
                self.enqueue_response(
                    token,
                    Op::Shutdown,
                    0,
                    Status::Ok,
                    header.request_id,
                    &[],
                    RespTiming::Inline { t0_ns },
                );
                self.shared.trigger_shutdown();
            }
            Op::Compress | Op::Decompress => self.handle_codec_op(token, &header, body, t0_ns),
        }
    }

    fn handle_hello(&mut self, token: u64, header: &FrameHeader, body: &[u8], t0_ns: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match crate::server::negotiate_hello(&self.shared, header, body, &mut conn.session) {
            Ok((response, body)) => {
                let frame = protocol::encode_frame(&response, &body);
                self.enqueue_raw(
                    token,
                    Op::Hello,
                    header.request_id,
                    RespTiming::Inline { t0_ns },
                    frame,
                );
            }
            Err((status, message)) => {
                self.shared.obs.reject(Cause::Other);
                self.enqueue_response(
                    token,
                    Op::Hello,
                    0,
                    status,
                    header.request_id,
                    message.as_bytes(),
                    RespTiming::Inline { t0_ns },
                );
            }
        }
    }

    fn handle_status(&mut self, token: u64, header: &FrameHeader, body: &[u8], t0_ns: u64) {
        if !body.is_empty() {
            self.shared.obs.reject(Cause::Other);
            self.enqueue_response(
                token,
                Op::Status,
                0,
                Status::Malformed,
                header.request_id,
                b"status requests carry an empty body",
                RespTiming::Inline { t0_ns },
            );
            return;
        }
        // Capability-and-echo, per request: a client that set the summary
        // bit gets the trailer and the echoed bit; anyone else gets the
        // legacy body byte-for-byte.
        let echo = header.ext & protocol::EXT_STATUS_SUMMARIES;
        let body = self.shared.obs.status(echo != 0).encode_body();
        let frame = protocol::encode_frame(
            &FrameHeader::response(
                Op::Status,
                0,
                Status::Ok,
                header.request_id,
                body.len() as u64,
            )
            .with_ext(echo),
            &body,
        );
        self.enqueue_raw(
            token,
            Op::Status,
            header.request_id,
            RespTiming::Inline { t0_ns },
            frame,
        );
    }

    /// Compress/decompress: rate limit, decode + precheck inline, then queue
    /// for the shard window.
    fn handle_codec_op(&mut self, token: u64, header: &FrameHeader, body: Vec<u8>, t0_ns: u64) {
        if self.draining {
            self.shared.obs.reject(Cause::Other);
            self.enqueue_response(
                token,
                header.op,
                0,
                Status::ShuttingDown,
                header.request_id,
                b"server is draining",
                RespTiming::Inline { t0_ns },
            );
            return;
        }
        if fail::active() {
            // The `shard.submit` failpoint sits before shard hand-off: an
            // injected error refuses the request with a typed status (the
            // op was never admitted, so it is safe to retry); a delay
            // models a slow submission path.
            match fail::check("shard.submit") {
                Some(fail::Action::ErrIo) | Some(fail::Action::Corrupt) => {
                    self.shared.obs.reject(Cause::Other);
                    self.enqueue_response(
                        token,
                        header.op,
                        0,
                        Status::Internal,
                        header.request_id,
                        b"injected fault at shard.submit",
                        RespTiming::Inline { t0_ns },
                    );
                    return;
                }
                Some(fail::Action::Delay(d)) => std::thread::sleep(d),
                Some(fail::Action::ErrInterrupted) | None => {}
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(bucket) = &mut conn.bucket {
            if !bucket.try_take(Instant::now()) {
                self.shared.obs.reject(Cause::RateLimited);
                self.enqueue_response(
                    token,
                    header.op,
                    0,
                    Status::RateLimited,
                    header.request_id,
                    b"per-connection admission budget exhausted, retry later",
                    RespTiming::Inline { t0_ns },
                );
                return;
            }
        }
        let session = conn.session;
        let prepared = match header.op {
            Op::Compress => prepare_compress(&self.shared, header, &body, &session),
            _ => prepare_decompress(&self.shared, &body),
        };
        match prepared {
            Prepared::Refuse { status, message } => {
                self.shared.obs.reject(Cause::Other);
                self.enqueue_response(
                    token,
                    header.op,
                    0,
                    status,
                    header.request_id,
                    message.as_bytes(),
                    RespTiming::Inline { t0_ns },
                );
            }
            Prepared::Job { shard, job } => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                conn.outstanding += 1;
                let deadline = self.shared.config.op_deadline.map(|d| Instant::now() + d);
                // The request is decoded and queued: close the `parse`
                // stage here so `queue_wait` starts at the same boundary.
                let parsed_ns = now_ns();
                self.shared
                    .obs
                    .parse
                    .record(parsed_ns.saturating_sub(t0_ns));
                span::record("req.parse", t0_ns, parsed_ns, token, header.request_id);
                self.pending[shard].push_back(PendingRequest {
                    conn: token,
                    request_id: header.request_id,
                    op: header.op,
                    request_bytes: body.len(),
                    deadline,
                    t0_ns,
                    parsed_ns,
                    job,
                });
                self.try_admit(shard);
            }
        }
    }

    // ── admission & completion ──────────────────────────────────────────

    /// Moves pending requests into the shard while its window has room.
    /// The loop thread is the only admitter, so the in-flight gauge can
    /// never exceed the window.
    fn try_admit(&mut self, shard: usize) {
        let window = self.shared.config.shard_window.max(1);
        while self.shared.obs.shards[shard].in_flight.get() < window as i64 {
            let Some(request) = self.pending[shard].pop_front() else {
                return;
            };
            if !self.conns.contains_key(&request.conn) {
                // Connection died before its request was admitted; the
                // request dies with it, never charging the window.
                continue;
            }
            if request
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                // The request sat out its execution deadline waiting for a
                // window slot: answer instead of starting stale work.
                self.expire_request(
                    request.conn,
                    request.op,
                    request.request_id,
                    request.t0_ns,
                    request.parsed_ns,
                );
                continue;
            }
            self.shared.obs.admit(shard, request.request_bytes);
            let shared = Arc::clone(&self.shared);
            let PendingRequest {
                conn,
                request_id,
                op,
                job,
                t0_ns,
                parsed_ns,
                ..
            } = request;
            // Admission closes the `queue_wait` stage; `execute` starts at
            // the same boundary and closes when the completion is enqueued.
            let admit_ns = now_ns();
            self.shared
                .obs
                .queue_wait
                .record(admit_ns.saturating_sub(parsed_ns));
            span::record("req.queue_wait", parsed_ns, admit_ns, conn, request_id);
            let wrapped: Box<dyn FnOnce(&mut ShardState) + Send> = Box::new(move |state| {
                let result = {
                    let _guard = gld_obs::span!("shard.execute", conn, request_id);
                    job(state)
                };
                shared.push_completion(Completion {
                    conn,
                    shard,
                    request_id,
                    op,
                    result,
                    t0_ns,
                    admit_ns,
                });
            });
            self.shared.shards[shard].push(wrapped);
        }
    }

    /// Answers one queued request with [`Status::DeadlineExceeded`] and
    /// releases its outstanding slot (it was never admitted, so no shard
    /// window is charged).
    fn expire_request(&mut self, token: u64, op: Op, request_id: u64, t0_ns: u64, parsed_ns: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.outstanding = conn.outstanding.saturating_sub(1);
        }
        self.shared.obs.reject(Cause::Deadline);
        gld_obs::log_debug!(
            "eventloop",
            conn = token,
            req = request_id,
            op = op.name();
            "request expired before admission"
        );
        self.enqueue_response(
            token,
            op,
            0,
            Status::DeadlineExceeded,
            request_id,
            b"request exceeded its execution deadline before a shard could start it",
            RespTiming::Expired { t0_ns, parsed_ns },
        );
    }

    /// Sweeps every shard's pending queue for requests past their deadline,
    /// answering them promptly instead of waiting for a window slot to
    /// surface them.  Runs each idle tick; a no-op without `--op-deadline`.
    fn expire_pending(&mut self) {
        if self.shared.config.op_deadline.is_none() {
            return;
        }
        let now = Instant::now();
        let mut expired = Vec::new();
        for queue in &mut self.pending {
            queue.retain(|request| {
                let overdue = request.deadline.is_some_and(|deadline| now >= deadline);
                if overdue {
                    expired.push((
                        request.conn,
                        request.op,
                        request.request_id,
                        request.t0_ns,
                        request.parsed_ns,
                    ));
                }
                !overdue
            });
        }
        for (token, op, request_id, t0_ns, parsed_ns) in expired {
            self.expire_request(token, op, request_id, t0_ns, parsed_ns);
            self.pump_conn(token);
        }
    }

    /// Applies every completion the workers have queued: release the window
    /// slot, account metrics, hand the response to its connection (which may
    /// be gone — the slot is released either way).  Returns the connections
    /// that received responses.
    fn drain_completions(&mut self) -> Vec<u64> {
        let completions = self.shared.take_completions();
        let mut touched = Vec::new();
        for completion in completions {
            self.shared.obs.complete(
                completion.shard,
                completion.result.body.len(),
                &completion.result.stream,
            );
            if let Some(conn) = self.conns.get_mut(&completion.conn) {
                debug_assert!(conn.outstanding > 0);
                conn.outstanding -= 1;
                self.enqueue_response(
                    completion.conn,
                    completion.op,
                    completion.result.codec,
                    completion.result.status,
                    completion.request_id,
                    &completion.result.body,
                    RespTiming::Completed {
                        t0_ns: completion.t0_ns,
                        admit_ns: completion.admit_ns,
                    },
                );
                touched.push(completion.conn);
            }
        }
        touched
    }

    // ── write path ──────────────────────────────────────────────────────

    #[allow(clippy::too_many_arguments)]
    fn enqueue_response(
        &mut self,
        token: u64,
        op: Op,
        codec: u8,
        status: Status,
        request_id: u64,
        body: &[u8],
        timing: RespTiming,
    ) {
        let header = FrameHeader::response(op, codec, status, request_id, body.len() as u64);
        let frame = protocol::encode_frame(&header, body);
        self.enqueue_raw(token, op, request_id, timing, frame);
    }

    /// Appends a serialised response frame to the connection's out buffer,
    /// closing the stage that ended here (`parse` for inline answers,
    /// `execute` for completions, `queue_wait` for expiries) and opening
    /// the `write` stage at the same boundary.
    fn enqueue_raw(
        &mut self,
        token: u64,
        op: Op,
        request_id: u64,
        timing: RespTiming,
        frame: Vec<u8>,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let enq_ns = now_ns();
        match timing {
            RespTiming::Inline { t0_ns } => {
                self.shared.obs.parse.record(enq_ns.saturating_sub(t0_ns));
                span::record("req.parse", t0_ns, enq_ns, token, request_id);
            }
            RespTiming::Completed { admit_ns, .. } => {
                self.shared
                    .obs
                    .execute
                    .record(enq_ns.saturating_sub(admit_ns));
                span::record("req.execute", admit_ns, enq_ns, token, request_id);
            }
            RespTiming::Expired { parsed_ns, .. } => {
                self.shared
                    .obs
                    .queue_wait
                    .record(enq_ns.saturating_sub(parsed_ns));
                span::record("req.queue_wait", parsed_ns, enq_ns, token, request_id);
            }
        }
        conn.bytes_enqueued += frame.len() as u64;
        conn.write_track.push_back(WriteTrack {
            end: conn.bytes_enqueued,
            enq_ns,
            t0_ns: timing.t0_ns(),
            op,
            request_id,
        });
        conn.out.extend_from_slice(&frame);
        self.flush_conn(token);
    }

    /// Writes buffered response bytes until the kernel pushes back.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut broken = false;
        while conn.out_pos < conn.out.len() {
            let result = if fail::active() {
                // The `service.write` failpoint mirrors `service.read`:
                // injected outcomes take the same arms as kernel ones.
                match fail::check("service.write") {
                    Some(fail::Action::ErrIo) => {
                        Err(std::io::Error::other("injected fault at service.write"))
                    }
                    Some(fail::Action::ErrInterrupted) => {
                        Err(std::io::ErrorKind::Interrupted.into())
                    }
                    Some(fail::Action::Delay(d)) => {
                        std::thread::sleep(d);
                        conn.stream.write(&conn.out[conn.out_pos..])
                    }
                    Some(fail::Action::Corrupt) => {
                        let at = conn.out_pos;
                        conn.out[at] ^= 0xFF;
                        conn.stream.write(&conn.out[conn.out_pos..])
                    }
                    None => conn.stream.write(&conn.out[conn.out_pos..]),
                }
            } else {
                conn.stream.write(&conn.out[conn.out_pos..])
            };
            match result {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.bytes_flushed += n as u64;
                    conn.last_write_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        // Every response the kernel has now fully accepted closes its
        // `write` stage and records the per-op total (both ending at this
        // flush instant, so the four stages tile the total exactly).
        if conn
            .write_track
            .front()
            .is_some_and(|t| t.end <= conn.bytes_flushed)
        {
            let flush_ns = now_ns();
            while let Some(track) = conn.write_track.front() {
                if track.end > conn.bytes_flushed {
                    break;
                }
                let track = conn.write_track.pop_front().expect("front exists");
                self.shared
                    .obs
                    .write
                    .record(flush_ns.saturating_sub(track.enq_ns));
                self.shared
                    .obs
                    .total(track.op)
                    .record(flush_ns.saturating_sub(track.t0_ns));
                span::record("req.write", track.enq_ns, flush_ns, token, track.request_id);
            }
        }
        if broken {
            self.close_conn(token);
            return;
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            conn.last_write_progress = Instant::now();
        } else if conn.out_pos > READ_PAUSE_BACKLOG && conn.out_pos >= conn.out.len() / 2 {
            // Reclaim the flushed prefix so a long-lived pipelined
            // connection's buffer does not grow monotonically.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }

    /// Re-evaluates a connection after any state change: parse newly
    /// unblocked frames, flush, and sync poller interest.
    fn pump_conn(&mut self, token: u64) {
        self.parse_frames(token);
        let max_outstanding = self.shared.config.max_outstanding;
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = conn.desired_interest(max_outstanding, draining);
        if desired != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_err()
            {
                self.close_conn(token);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.interest = desired;
            }
        }
    }

    // ── lifecycle ───────────────────────────────────────────────────────

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.shared.obs.connection_closed();
        // Unadmitted requests die with the connection (admitted ones finish
        // on their shard; their completions release the slots).
        for queue in &mut self.pending {
            queue.retain(|p| p.conn != token);
        }
    }

    /// Closes finished connections, reaps stalled writers, and — with
    /// `--idle-timeout` — reaps silent keepalives that would otherwise hold
    /// their fd forever.
    fn reap(&mut self) {
        let now = Instant::now();
        let write_timeout = self.shared.config.write_timeout;
        let idle_timeout = self.shared.config.idle_timeout;
        let force = self
            .drain_deadline
            .map(|deadline| now >= deadline)
            .unwrap_or(false);
        let done: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| {
                let idle = conn.outstanding == 0 && conn.backlog() == 0;
                let finished = idle && (conn.read_closed || conn.fatal || self.draining);
                let stalled = conn.backlog() > 0
                    && now.saturating_duration_since(conn.last_write_progress) > write_timeout;
                if finished || stalled || force {
                    return Some((token, false));
                }
                // The idle-timeout arm: a connection owed nothing (no
                // outstanding work, no unflushed bytes) whose peer has been
                // silent past the configured timeout.
                let idle_expired = idle
                    && idle_timeout.is_some_and(|timeout| {
                        now.saturating_duration_since(conn.last_activity) > timeout
                    });
                idle_expired.then_some((token, true))
            })
            .collect();
        for (token, idle_reaped) in done {
            if idle_reaped {
                self.shared.obs.reaped_idle.inc();
            }
            self.close_conn(token);
        }
    }

    /// Starts the graceful drain: close the listener, refuse unadmitted
    /// requests, stop reading, let admitted work finish and flush.
    fn begin_drain(&mut self) {
        gld_obs::log_info!(
            "eventloop",
            conns = self.conns.len();
            "draining: listener closed, unadmitted work refused"
        );
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.shared.config.write_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
            // Dropping the listener closes the socket: late connects are
            // refused by the kernel, not left dangling.
        }
        let pending: Vec<PendingRequest> = self
            .pending
            .iter_mut()
            .flat_map(|queue| queue.drain(..))
            .collect();
        for request in pending {
            if let Some(conn) = self.conns.get_mut(&request.conn) {
                conn.outstanding -= 1;
            }
            self.shared.obs.reject(Cause::Other);
            self.enqueue_response(
                request.conn,
                request.op,
                0,
                Status::ShuttingDown,
                request.request_id,
                b"server is draining",
                RespTiming::Expired {
                    t0_ns: request.t0_ns,
                    parsed_ns: request.parsed_ns,
                },
            );
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.pump_conn(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_and_peaks_move_together() {
        let obs = LoopObs::new(1);
        obs.admit(0, 10);
        obs.admit(0, 20);
        let snap = obs.status(false).shards[0];
        assert_eq!(snap.in_flight, 2);
        assert_eq!(snap.peak_in_flight, 2);
        assert_eq!(snap.bytes_in, 30);
        obs.complete(0, 5, &StreamMetrics::default());
        obs.complete(0, 7, &StreamMetrics::default());
        let snap = obs.status(false).shards[0];
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.peak_in_flight, 2, "peak survives the drain");
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.bytes_out, 12);
    }

    #[test]
    fn stream_metrics_fold_into_peaks() {
        let obs = LoopObs::new(1);
        for stream in [
            StreamMetrics {
                blocks: 4,
                peak_resident: 2,
            },
            StreamMetrics {
                blocks: 3,
                peak_resident: 1,
            },
        ] {
            obs.admit(0, 1);
            obs.complete(0, 1, &stream);
        }
        let snap = obs.status(false).shards[0];
        assert_eq!(snap.blocks, 7);
        assert_eq!(snap.peak_resident_blocks, 2);
    }

    #[test]
    fn service_snapshot_aggregates() {
        let obs = LoopObs::new(2);
        obs.connection_opened();
        for shard in 0..2 {
            obs.admit(shard, 1);
            obs.complete(shard, 1, &StreamMetrics::default());
        }
        obs.reject(Cause::Other);
        obs.connection_closed();
        let snap = obs.status(true);
        assert_eq!(snap.completed(), 2);
        assert_eq!(snap.connections_opened, 1);
        assert_eq!(snap.connections_active, 0);
        assert_eq!(snap.requests_rejected, 1);
        assert_eq!(snap.rejected_other(), 1);
    }

    #[test]
    fn rejection_causes_are_disjoint_and_sum_to_the_rollup() {
        let obs = LoopObs::new(1);
        obs.reject(Cause::RateLimited);
        obs.reject(Cause::RateLimited);
        obs.reject(Cause::Deadline);
        obs.reject(Cause::Other);
        let snap = obs.status(true);
        assert_eq!(snap.rate_limited, 2);
        assert_eq!(snap.deadlines_exceeded, 1);
        assert_eq!(snap.rejected_other(), 1);
        assert_eq!(snap.summaries.as_ref().map(|s| s.rejected_other), Some(1));
        assert_eq!(
            snap.requests_rejected,
            snap.rate_limited + snap.deadlines_exceeded + snap.rejected_other(),
            "the roll-up is the sum of the disjoint causes"
        );
        assert_eq!(snap.requests_rejected, 4);
    }
}
