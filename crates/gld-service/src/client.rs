//! Blocking clients for the `GLDS` protocol — what the integration tests,
//! the `gld-service-check` binary, the `service_throughput` bench and the
//! root example speak through.
//!
//! A [`PipelinedClient`] is the one connection type: it holds the socket,
//! the request-id sequence and the reply decoding, submits many requests
//! without waiting and receives replies **as the server finishes them —
//! possibly out of order — matched by request id**.  A [`ServiceClient`]
//! is the window-1 discipline over one: each op submits, then receives
//! that id, and concurrency comes from opening more clients, exactly like
//! the tests do.  [`ServiceClient::into_pipelined`] hands the connection
//! over once the session is negotiated.

use crate::protocol::{
    self, decode_blocks_body, DecompressRequest, FrameHeader, HelloRequest, HelloResponse, Op,
    ProtocolError, Status, StatusResponse, EXT_CONTAINER_STAGE, EXT_SHARED_PROFILES,
};
use gld_core::{CodecId, ErrorTarget};
use gld_datasets::Variable;
use gld_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or dropped.
    Io(std::io::Error),
    /// The server's bytes violated the protocol.
    Protocol(ProtocolError),
    /// The server answered with a non-`Ok` status and a diagnostic.
    Server {
        /// The response status.
        status: Status,
        /// The server's UTF-8 diagnostic.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClientError::Server { status, message } => {
                write!(f, "server refused ({status:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// Server info returned by [`ServiceClient::hello`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// The negotiated codec — the session default for later requests.
    pub codec: CodecId,
    /// Whether the session negotiated the container v3 per-frame stage:
    /// `true` means compress responses arrive as staged v3 containers,
    /// `false` (an old or opted-out peer on either side) means stage-free
    /// v2 streams.
    pub stage: bool,
    /// Whether the session negotiated container v4 shared entropy-model
    /// profiles: `true` means compress responses arrive as v4 containers
    /// (one coding profile fitted per variable, every frame coded warm
    /// against it), and takes precedence over `stage`.  `false` downgrades
    /// to whatever `stage` says.
    pub profiles: bool,
    /// Number of shards the server routes across.
    pub shards: u32,
    /// Per-shard bounded in-flight request window.
    pub shard_window: u32,
    /// Streaming-executor queue depth per compress call.
    pub queue_depth: u32,
}

/// A blocking `GLDS` connection: the window-1 discipline over a
/// [`PipelinedClient`], each op a submit followed by the receive of that id.
pub struct ServiceClient {
    conn: PipelinedClient,
    /// The connected peer and the dial bound, kept so `hello` can reconnect
    /// under the same deadline for its legacy-server downgrade retry.
    addr: SocketAddr,
    connect_timeout: Option<Duration>,
    stage: bool,
    profiles: bool,
}

impl ServiceClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ServiceClient> {
        Self::dial(addr, None, None)
    }

    /// Connects with a bound on how long the TCP dial may take.  The
    /// address must resolve to at least one socket address; each candidate
    /// is tried with the full `timeout`.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> std::io::Result<ServiceClient> {
        Self::dial(addr, Some(timeout), None)
    }

    /// The one place a connection is made: dials under `connect_timeout`
    /// (unbounded when `None`) and applies `io_timeout` to the new socket.
    fn dial(
        addr: impl ToSocketAddrs,
        connect_timeout: Option<Duration>,
        io_timeout: Option<Duration>,
    ) -> std::io::Result<ServiceClient> {
        let stream = match connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let mut dialled = Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to no socket addresses",
                ));
                for candidate in addr.to_socket_addrs()? {
                    dialled = TcpStream::connect_timeout(&candidate, timeout);
                    if dialled.is_ok() {
                        break;
                    }
                }
                dialled?
            }
        };
        let _ = stream.set_nodelay(true);
        let client = ServiceClient {
            addr: stream.peer_addr()?,
            conn: PipelinedClient {
                reader: std::io::BufReader::new(stream),
                wbuf: Vec::new(),
                next_id: 1,
                pending: HashMap::new(),
            },
            connect_timeout,
            stage: false,
            profiles: false,
        };
        client.set_io_timeouts(io_timeout)?;
        Ok(client)
    }

    /// Bounds every blocking socket read and write on this connection
    /// (`None` blocks forever — the default).  With a timeout set, a stalled
    /// server surfaces as [`ClientError::Io`] with `WouldBlock`/`TimedOut`
    /// instead of hanging the caller.
    pub fn set_io_timeouts(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        let stream = self.conn.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    /// The peer this client dialled.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the session negotiated staged (container v3) compress
    /// responses in the last [`ServiceClient::hello`].
    pub fn stage_enabled(&self) -> bool {
        self.stage
    }

    /// Whether the session negotiated shared-profile (container v4)
    /// compress responses in the last [`ServiceClient::hello`].
    pub fn profiles_enabled(&self) -> bool {
        self.profiles
    }

    /// Negotiates a codec (client preference order) and fetches server
    /// info, advertising container-stage and shared-profile support.  The
    /// chosen codec becomes the session default for
    /// [`ServiceClient::compress`] calls made without an explicit codec.
    ///
    /// Servers predating the stage treat the advertisement byte as a
    /// framing violation and close the connection; when that happens the
    /// client reconnects once and retries the `Hello` without the bits, so
    /// negotiation degrades to a stage-free session instead of failing.
    /// (A server that knows the stage but not the profiles simply echoes
    /// the profile bit clear — no retry needed.)
    pub fn hello(&mut self, preferences: &[CodecId]) -> Result<ServerInfo, ClientError> {
        match self.hello_with_options(preferences, true, true) {
            Ok(info) => Ok(info),
            // A pre-stage server rejects the non-zero reserved byte with a
            // well-formed error frame that echoes request id 0 and a
            // Malformed status, then hard-closes — surfacing here as a
            // protocol violation (wrong request-id echo) or a Malformed
            // refusal.  Re-dial and speak exactly like a pre-stage client.
            // Transient I/O failures and statuses a stage-aware server can
            // answer (NoCommonCodec, ...) are NOT downgraded: the bit was
            // not the problem, and a silent stage-free session would cost
            // every later response body — the caller retries those.
            Err(
                ClientError::Protocol(_)
                | ClientError::Server {
                    status: Status::Malformed,
                    ..
                },
            ) => {
                // Same dial bound, same read/write deadline as the
                // connection being replaced (`set_io_timeouts` sets both).
                let io_timeout = self.conn.reader.get_ref().read_timeout()?;
                self.conn = Self::dial(self.addr, self.connect_timeout, io_timeout)?.conn;
                self.hello_with_options(preferences, false, false)
            }
            Err(other) => Err(other),
        }
    }

    /// [`ServiceClient::hello`] with the feature advertisements explicit
    /// (and no downgrade retry): `request_stage: false` speaks exactly like
    /// a pre-stage client, so compress responses come back as stage-free v2
    /// containers; `request_profiles: false` speaks like a pre-profile
    /// client and caps the session at v3.
    pub fn hello_with_options(
        &mut self,
        preferences: &[CodecId],
        request_stage: bool,
        request_profiles: bool,
    ) -> Result<ServerInfo, ClientError> {
        let request = HelloRequest {
            proposals: preferences.iter().map(|&c| c as u8).collect(),
        };
        let mut ext = 0u8;
        if request_stage {
            ext |= EXT_CONTAINER_STAGE;
        }
        if request_profiles {
            ext |= EXT_SHARED_PROFILES;
        }
        let id = self.conn.submit(Op::Hello, 0, ext, &request.encode_body());
        let (_, header, body) = self.response(id)?;
        let codec = CodecId::from_u8(header.codec)
            .map_err(|_| ClientError::Protocol(ProtocolError::UnknownCodec(header.codec)))?;
        let info = HelloResponse::decode_body(&body)?;
        // A feature holds only when the server echoed its bit (an old
        // server leaves the bit — or the whole byte — zero).
        self.stage = request_stage && header.ext & EXT_CONTAINER_STAGE != 0;
        self.profiles = request_profiles && header.ext & EXT_SHARED_PROFILES != 0;
        Ok(ServerInfo {
            codec,
            stage: self.stage,
            profiles: self.profiles,
            shards: info.shards,
            shard_window: info.shard_window,
            queue_depth: info.queue_depth,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.conn.submit_ping();
        self.response(id).map(drop)
    }

    /// Compresses `variable` on the server with the session codec from the
    /// last [`ServiceClient::hello`], returning the encoded `GLDC`
    /// container — byte-identical to `Codec::compress_variable(...).0.encode()`
    /// run locally.
    pub fn compress(
        &mut self,
        key: &str,
        variable: &Variable,
        block_frames: u32,
        target: Option<ErrorTarget>,
    ) -> Result<Vec<u8>, ClientError> {
        // Codec byte 0 = session default; the server rejects it if no Hello
        // happened, which maps to the same error as an unknown codec here.
        let id = self
            .conn
            .submit_compress(key, variable, block_frames, target);
        Ok(self.response(id)?.2)
    }

    /// [`ServiceClient::compress`] with an explicit codec, independent of
    /// any negotiation.
    pub fn compress_as(
        &mut self,
        codec: CodecId,
        key: &str,
        variable: &Variable,
        block_frames: u32,
        target: Option<ErrorTarget>,
    ) -> Result<Vec<u8>, ClientError> {
        let id = self
            .conn
            .submit_compress_as(codec as u8, key, variable, block_frames, target);
        Ok(self.response(id)?.2)
    }

    /// Decompresses an encoded `GLDC` container on the server, returning
    /// the block tensors in temporal order.  `key` must be the variable's
    /// key so the request lands on the same shard as its compress.
    pub fn decompress(&mut self, key: &str, container: &[u8]) -> Result<Vec<Tensor>, ClientError> {
        let id = self.conn.submit_decompress(key, container);
        match self.reply(id)? {
            Reply::Decompressed(blocks) => Ok(blocks),
            _ => unreachable!("a decompress reply decodes to blocks"),
        }
    }

    /// Fetches the server's live counters ([`Op::Status`]): service-wide
    /// connection/rejection totals plus per-shard load.  The request
    /// advertises [`protocol::EXT_STATUS_SUMMARIES`]; a server that knows
    /// the bit echoes it and appends per-op latency summaries, which land
    /// in [`StatusResponse::summaries`] (`None` from older servers).
    pub fn status(&mut self) -> Result<StatusResponse, ClientError> {
        let id = self.conn.submit_status();
        match self.reply(id)? {
            Reply::ServerStatus(status) => Ok(status),
            _ => unreachable!("a status reply decodes to a status"),
        }
    }

    /// Asks the server to drain in-flight work and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let id = self.conn.submit(Op::Shutdown, 0, 0, &[]);
        self.response(id).map(drop)
    }

    /// Converts this connection into the [`PipelinedClient`] it wraps,
    /// keeping the negotiated session (codec, stage, profiles) and the
    /// request-id sequence.  Only the calling discipline changes.
    pub fn into_pipelined(self) -> PipelinedClient {
        self.conn
    }

    /// Window 1: the response to `submitted`, the one request outstanding,
    /// with its op.  A reply to any other id is a protocol violation, and a
    /// non-`Ok` status becomes [`ClientError::Server`].
    fn response(
        &mut self,
        submitted: Result<u64, ClientError>,
    ) -> Result<(Op, FrameHeader, Vec<u8>), ClientError> {
        let request_id = submitted?;
        let (op, header, body) = self.conn.recv_frame()?;
        if header.request_id != request_id {
            return Err(ClientError::Protocol(ProtocolError::Malformed(
                "response echoes the wrong request id",
            )));
        }
        if header.status != Status::Ok {
            return Err(ClientError::Server {
                status: header.status,
                message: String::from_utf8_lossy(&body).into_owned(),
            });
        }
        Ok((op, header, body))
    }

    /// [`ServiceClient::response`] decoded as the pipelined [`Reply`].
    fn reply(&mut self, submitted: Result<u64, ClientError>) -> Result<Reply, ClientError> {
        let (op, _, body) = self.response(submitted)?;
        decode_reply(op, body)
    }
}

/// The compress request body, serialised straight from the variable's
/// buffer: no intermediate owned `Vec<f32>` copy of a possibly huge frame
/// stack.
fn compress_body(
    key: &str,
    variable: &Variable,
    block_frames: u32,
    target: Option<ErrorTarget>,
) -> Vec<u8> {
    let frames = &variable.frames;
    assert_eq!(frames.rank(), 3, "variable frames must be [T, H, W]");
    let dims = [0, 1, 2].map(|axis| frames.dim(axis) as u32);
    protocol::encode_compress_body(key, block_frames, target, dims, frames.data())
}

/// One decoded pipelined reply, paired with its request id by
/// [`PipelinedClient::recv`].
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A `Ping` answered.
    Pong,
    /// A compress response: the encoded `GLDC` container.
    Compressed(Vec<u8>),
    /// A decompress response: the block tensors in temporal order.
    Decompressed(Vec<Tensor>),
    /// A `Status` response: the server's live counters.
    ServerStatus(StatusResponse),
    /// A `Shutdown` acknowledged.
    ShutdownAck,
    /// The server refused this request with a typed status (including
    /// [`Status::RateLimited`]) and a diagnostic; the connection itself is
    /// still healthy and other outstanding requests proceed.
    Refused {
        /// The refusal status.
        status: Status,
        /// The server's UTF-8 diagnostic.
        message: String,
    },
}

/// A pipelined `GLDS` connection: submit many requests without waiting,
/// then receive replies **in whatever order the server finishes them**,
/// matched by request id.
///
/// Make one via [`ServiceClient::into_pipelined`] after negotiating the
/// session with `hello` — the negotiated codec remains the session default
/// on the server side, so `submit_compress` with codec byte 0 keeps using
/// it.  Per-request refusals (rate limit, malformed body, ...) come back as
/// [`Reply::Refused`] rather than an `Err`, because an `Err` from
/// [`recv`](PipelinedClient::recv) means the *connection* is unusable.
///
/// The server bounds unanswered codec requests per connection
/// (`max_outstanding`, surfaced by `Op::Status`); a client that submits past
/// the bound is simply not read until replies drain, so `submit_*` may block
/// once the socket buffers fill.  Interleave submits with `recv` — or use
/// [`drain`](PipelinedClient::drain) — to keep the pipeline moving.
///
/// Submits are **batched**: `submit_*` encodes into a client-side buffer,
/// and the buffer goes out in one write on the next
/// [`recv`](PipelinedClient::recv)/[`drain`](PipelinedClient::drain) (or an
/// explicit [`flush`](PipelinedClient::flush)).  A burst of small requests
/// costs one syscall, not one per frame — the client-side half of what
/// makes pipelining outrun one-outstanding round trips.
pub struct PipelinedClient {
    reader: std::io::BufReader<TcpStream>,
    /// Encoded-but-unsent request frames, flushed in one write.
    wbuf: Vec<u8>,
    next_id: u64,
    /// Ops in flight, keyed by request id — how replies are decoded.
    pending: HashMap<u64, Op>,
}

impl PipelinedClient {
    /// Requests submitted and not yet received.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    fn submit(&mut self, op: Op, codec_byte: u8, ext: u8, body: &[u8]) -> Result<u64, ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        let header =
            FrameHeader::request(op, codec_byte, request_id, body.len() as u64).with_ext(ext);
        protocol::write_frame(&mut self.wbuf, &header, body)?;
        self.pending.insert(request_id, op);
        Ok(request_id)
    }

    /// Sends every buffered submit in one write.  Called automatically by
    /// [`recv`](PipelinedClient::recv); call it directly to push requests
    /// out without waiting for a reply.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if !self.wbuf.is_empty() {
            self.reader.get_mut().write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Submits a liveness probe; returns its request id.
    pub fn submit_ping(&mut self) -> Result<u64, ClientError> {
        self.submit(Op::Ping, 0, 0, &[])
    }

    /// Submits a status probe; returns its request id.  Advertises
    /// [`protocol::EXT_STATUS_SUMMARIES`] so the eventual
    /// [`Reply::ServerStatus`] carries per-op latency summaries when the
    /// server supports them.
    pub fn submit_status(&mut self) -> Result<u64, ClientError> {
        self.submit(Op::Status, 0, protocol::EXT_STATUS_SUMMARIES, &[])
    }

    /// Submits a compress of `variable` under the session codec; returns its
    /// request id.  The eventual [`Reply::Compressed`] container is
    /// byte-identical to the blocking [`ServiceClient::compress`] response.
    pub fn submit_compress(
        &mut self,
        key: &str,
        variable: &Variable,
        block_frames: u32,
        target: Option<ErrorTarget>,
    ) -> Result<u64, ClientError> {
        self.submit_compress_as(0, key, variable, block_frames, target)
    }

    /// [`PipelinedClient::submit_compress`] with an explicit codec byte
    /// (a `CodecId as u8`, or 0 for the session default).
    pub fn submit_compress_as(
        &mut self,
        codec_byte: u8,
        key: &str,
        variable: &Variable,
        block_frames: u32,
        target: Option<ErrorTarget>,
    ) -> Result<u64, ClientError> {
        let body = compress_body(key, variable, block_frames, target);
        self.submit(Op::Compress, codec_byte, 0, &body)
    }

    /// Submits a decompress of an encoded `GLDC` container; returns its
    /// request id.  `key` must be the variable's key so the request lands
    /// on the same shard as its compress.
    pub fn submit_decompress(&mut self, key: &str, container: &[u8]) -> Result<u64, ClientError> {
        let request = DecompressRequest {
            key: key.to_string(),
            container: container.to_vec(),
        };
        self.submit(Op::Decompress, 0, 0, &request.encode_body())
    }

    /// Blocks for the next reply — **not necessarily the oldest submit** —
    /// and returns it with the request id it answers.  An `Err` means the
    /// connection is broken (I/O failure, a protocol violation, or a reply
    /// to an id that was never submitted); per-request refusals are
    /// [`Reply::Refused`].
    pub fn recv(&mut self) -> Result<(u64, Reply), ClientError> {
        let (op, header, body) = self.recv_frame()?;
        let reply = if header.status != Status::Ok {
            Reply::Refused {
                status: header.status,
                message: String::from_utf8_lossy(&body).into_owned(),
            }
        } else {
            decode_reply(op, body)?
        };
        Ok((header.request_id, reply))
    }

    /// The next response frame, with the op of the outstanding request it
    /// answers.
    fn recv_frame(&mut self) -> Result<(Op, FrameHeader, Vec<u8>), ClientError> {
        self.flush()?;
        let (header, body) = protocol::read_frame(&mut self.reader, protocol::MAX_BODY_LEN)??;
        let Some(op) = self.pending.remove(&header.request_id) else {
            return Err(ClientError::Protocol(ProtocolError::Malformed(
                "response echoes a request id that is not outstanding",
            )));
        };
        Ok((op, header, body))
    }

    /// Receives until nothing is outstanding, returning every reply in
    /// arrival order (id-tagged).
    pub fn drain(&mut self) -> Result<Vec<(u64, Reply)>, ClientError> {
        let mut replies = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            replies.push(self.recv()?);
        }
        Ok(replies)
    }
}

/// An `Ok` response body decoded by the op of the request it answers.
fn decode_reply(op: Op, body: Vec<u8>) -> Result<Reply, ClientError> {
    Ok(match op {
        Op::Ping | Op::Hello => Reply::Pong,
        Op::Compress => Reply::Compressed(body),
        Op::Decompress => Reply::Decompressed(decode_blocks_body(&body)?),
        Op::Status => Reply::ServerStatus(StatusResponse::decode_body(&body)?),
        Op::Shutdown => Reply::ShutdownAck,
    })
}
