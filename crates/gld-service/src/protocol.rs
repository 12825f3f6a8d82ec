//! The framed `GLDS` wire protocol.
//!
//! Every message — request or response — is one *frame*: a fixed 32-byte
//! header followed by a `u64` length-prefixed body.  All integers are
//! little-endian.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GLDS"
//! 4       2     protocol version (currently 1)
//! 6       1     op (see [`Op`])
//! 7       1     codec id (a `CodecId` byte, or 0 = none/session default)
//! 8       1     status (requests: must be 0; responses: see [`Status`])
//! 9       1     feature bits (`ext`): bit 0 = container-stage support
//!               ([`EXT_CONTAINER_STAGE`]), bit 1 = shared-profile support
//!               ([`EXT_SHARED_PROFILES`]), bit 2 = status latency
//!               summaries ([`EXT_STATUS_SUMMARIES`]); unknown bits are
//!               **ignored**
//! 10      6     reserved; decoders ignore the contents
//! 16      8     request id (echoed verbatim in the response)
//! 24      8     body length in bytes
//! 32      ...   body
//! ```
//!
//! Reserved space is negotiation headroom, not a tripwire: decoders ignore
//! bits they do not understand, so a peer advertising a future feature can
//! never hard-break this build (the regression suite pins that).  Feature
//! negotiation is capability-and-echo: a client sets a feature bit in its
//! [`Op::Hello`] request, and the server echoes the subset it will honour
//! in the response — a server that never saw the bit simply answers with it
//! clear and the session proceeds without the feature.  Bit 0 negotiates
//! the container-v3 per-frame `gld-lz` stage; bit 1 negotiates container-v4
//! shared entropy-model profiles.  Profile sessions receive v4 compress
//! responses, staged sessions v3, everything else stage-free v2 streams.
//!
//! The compress response body is a `GLDC` container exactly as
//! `Codec::compress_variable` would encode it; the decompress response body
//! is the decoded block tensors.  Codec negotiation happens in [`Op::Hello`]:
//! the client lists codec ids in preference order and the server answers
//! with the first one it has registered (or [`Status::NoCommonCodec`]).
//!
//! **Pipelining.**  The request id (bytes 16..24) is the multiplexing key:
//! a client may send any number of requests down one connection without
//! waiting, and the server answers each frame with its id echoed verbatim —
//! **in whatever order the work completes**.  Responses to a pipelined
//! stream are therefore matched by id, never by arrival order (the blocking
//! one-outstanding-request client keeps working unchanged, since with a
//! single id in flight order is vacuous).  Servers bound the number of
//! unanswered requests per connection and may rate-limit codec work with
//! [`Status::RateLimited`]; [`Op::Status`] exposes per-shard load so health
//! checks are first-class.  [`StreamParser`] is the incremental frame
//! assembler both ends use on a non-blocking stream.
//!
//! Every decoder in this module is panic-free on arbitrary input: malformed,
//! truncated or bit-flipped bytes surface as a typed [`ProtocolError`]
//! (`tests/protocol_fuzz.rs` and the cross-crate `service_end_to_end` suite
//! fuzz this promise).

use gld_core::ErrorTarget;
use gld_entropy::{ByteReader, ReadError};
use gld_tensor::Tensor;
use std::fmt;
use std::io::{Read, Write};

/// Frame magic bytes ("GLD service").
pub const MAGIC: [u8; 4] = *b"GLDS";

/// Current protocol version.  Unknown versions are rejected on both sides.
pub const PROTOCOL_VERSION: u16 = 1;

/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Hard upper bound on a frame body (1 GiB).  A header declaring more is
/// rejected before any allocation; servers typically configure a lower
/// limit on top.
pub const MAX_BODY_LEN: u64 = 1 << 30;

// The codecs' shape cap is sized to this bound: every block they decode
// carries in a reply body.
const _: () = assert!(gld_entropy::MAX_SHAPE_ELEMENTS as u64 * 4 <= MAX_BODY_LEN);

/// Header feature bit (byte 9, bit 0): the sender understands the container
/// v3 per-frame lossless stage.  Set by stage-capable clients in `Hello`
/// requests and echoed by stage-capable servers when the session will use
/// v3 compress responses.
pub const EXT_CONTAINER_STAGE: u8 = 0b1;

/// Header feature bit (byte 9, bit 1): the sender understands container v4
/// shared entropy-model profiles.  Set by profile-capable clients in `Hello`
/// requests and echoed by profile-capable servers when the session will use
/// v4 compress responses (a shared coding profile fitted once per variable,
/// serving every frame warm).  Peers that predate the bit ignore it — the
/// session transparently downgrades to v3 (or v2) streams.
pub const EXT_SHARED_PROFILES: u8 = 0b10;

/// Header feature bit (byte 9, bit 2): the sender understands the
/// latency-summary extension of [`Op::Status`] responses.  A client sets it
/// on a `Status` *request*; a summary-capable server echoes the bit and
/// appends a [`StatusSummaries`] section (per-op request counts with p50/p99
/// latencies, sourced from the server's lock-free histograms) after the
/// shard table.  Peers that predate the bit ignore it and the response body
/// stays byte-identical to the legacy layout.
pub const EXT_STATUS_SUMMARIES: u8 = 0b100;

/// Frame operation, present in requests and echoed in responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Codec negotiation + server info.
    Hello = 1,
    /// Compress one variable; the response body is a `GLDC` container.
    Compress = 2,
    /// Decompress a `GLDC` container; the response body is the block tensors.
    Decompress = 3,
    /// Liveness probe with empty bodies.
    Ping = 4,
    /// Ask the server to drain in-flight work and exit.
    Shutdown = 5,
    /// Health/ops probe: empty request body, response body is a
    /// [`StatusResponse`] (service counters + per-shard load).
    Status = 6,
}

impl Op {
    /// Parses an op byte.
    pub fn from_u8(byte: u8) -> Result<Self, ProtocolError> {
        Ok(match byte {
            1 => Op::Hello,
            2 => Op::Compress,
            3 => Op::Decompress,
            4 => Op::Ping,
            5 => Op::Shutdown,
            6 => Op::Status,
            other => return Err(ProtocolError::UnknownOp(other)),
        })
    }

    /// The op's lowercase name: the `op` label of the server's metric
    /// families, and how logs and checks spell it.
    pub fn name(self) -> &'static str {
        match self {
            Op::Hello => "hello",
            Op::Compress => "compress",
            Op::Decompress => "decompress",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
            Op::Status => "status",
        }
    }
}

/// Response status code.  `Ok` responses carry the op's payload; every other
/// status carries a UTF-8 diagnostic message as the body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// Success.
    Ok = 0,
    /// The request's protocol version is not supported.
    UnsupportedVersion = 1,
    /// The request's op byte is not a known [`Op`].
    UnknownOp = 2,
    /// The frame header or body failed to parse.
    Malformed = 3,
    /// Hello negotiation found no codec both sides support.
    NoCommonCodec = 4,
    /// The requested codec id is not registered on this server.
    UnknownCodec = 5,
    /// A decompress body was not a valid `GLDC` container, or carried a
    /// frame its codec refuses.
    BadContainer = 6,
    /// The request or response body exceeds the configured limit.
    FrameTooLarge = 7,
    /// The server is draining and no longer admits work.
    ShuttingDown = 8,
    /// The server failed internally: a codec bug the shard job's trap
    /// caught (counted in `glds_codec_panics_total`), or an injected fault.
    /// The diagnostic names the failure.
    Internal = 9,
    /// The connection exceeded its admission budget (token bucket); the
    /// request was refused without being admitted.  Retry later — the
    /// connection itself stays healthy.
    RateLimited = 10,
    /// The request sat past its per-op execution deadline (`--op-deadline`)
    /// before a shard could finish it.  The work was abandoned or its
    /// result discarded; the connection stays healthy and the op is safe
    /// to retry (compress/decompress are pure).
    DeadlineExceeded = 11,
}

impl Status {
    /// Parses a status byte.
    pub fn from_u8(byte: u8) -> Result<Self, ProtocolError> {
        Ok(match byte {
            0 => Status::Ok,
            1 => Status::UnsupportedVersion,
            2 => Status::UnknownOp,
            3 => Status::Malformed,
            4 => Status::NoCommonCodec,
            5 => Status::UnknownCodec,
            6 => Status::BadContainer,
            7 => Status::FrameTooLarge,
            8 => Status::ShuttingDown,
            9 => Status::Internal,
            10 => Status::RateLimited,
            11 => Status::DeadlineExceeded,
            other => return Err(ProtocolError::UnknownStatus(other)),
        })
    }
}

/// Typed decode errors for `GLDS` frames and bodies.  The decoders never
/// panic: arbitrary input yields exactly one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's protocol version is not supported by this build.
    UnsupportedVersion(u16),
    /// The op byte is not a known [`Op`].
    UnknownOp(u8),
    /// The status byte is not a known [`Status`].
    UnknownStatus(u8),
    /// The codec id byte is not a known codec.
    UnknownCodec(u8),
    /// The declared body length exceeds the limit in force.
    BodyTooLarge {
        /// Length the header declared.
        declared: u64,
        /// Limit the decoder enforced.
        max: u64,
    },
    /// The input ended before the declared content.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Bytes remained after the declared content.
    TrailingBytes(usize),
    /// A body field violated its own invariants.
    Malformed(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(found) => {
                write!(f, "bad frame magic {found:?}, expected {MAGIC:?}")
            }
            ProtocolError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v}, this build speaks {PROTOCOL_VERSION}"
                )
            }
            ProtocolError::UnknownOp(op) => write!(f, "unknown op byte {op}"),
            ProtocolError::UnknownStatus(s) => write!(f, "unknown status byte {s}"),
            ProtocolError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            ProtocolError::BodyTooLarge { declared, max } => {
                write!(f, "declared body of {declared} bytes exceeds limit {max}")
            }
            ProtocolError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
            ProtocolError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ReadError> for ProtocolError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated { needed, available } => {
                ProtocolError::Truncated { needed, available }
            }
            ReadError::TrailingBytes(n) => ProtocolError::TrailingBytes(n),
            ReadError::Malformed(what) => ProtocolError::Malformed(what),
            _ => ProtocolError::Malformed("embedded payload field"),
        }
    }
}

/// The status a server reports back for a request it could not decode.
pub fn status_for(error: &ProtocolError) -> Status {
    match error {
        ProtocolError::UnsupportedVersion(_) => Status::UnsupportedVersion,
        ProtocolError::UnknownOp(_) => Status::UnknownOp,
        ProtocolError::UnknownCodec(_) => Status::UnknownCodec,
        ProtocolError::BodyTooLarge { .. } => Status::FrameTooLarge,
        _ => Status::Malformed,
    }
}

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame operation.
    pub op: Op,
    /// Codec id byte (0 = none / session default).
    pub codec: u8,
    /// Status byte (0 in requests).
    pub status: Status,
    /// Feature bits (header byte 9); unknown bits are ignored on decode.
    pub ext: u8,
    /// Request id, echoed verbatim in the response.
    pub request_id: u64,
    /// Declared body length in bytes.
    pub body_len: u64,
}

impl FrameHeader {
    /// A request header (status `Ok`, no feature bits).
    pub fn request(op: Op, codec: u8, request_id: u64, body_len: u64) -> Self {
        FrameHeader {
            op,
            codec,
            status: Status::Ok,
            ext: 0,
            request_id,
            body_len,
        }
    }

    /// A response header echoing `op` and `request_id` (no feature bits).
    pub fn response(op: Op, codec: u8, status: Status, request_id: u64, body_len: u64) -> Self {
        FrameHeader {
            op,
            codec,
            status,
            ext: 0,
            request_id,
            body_len,
        }
    }

    /// The same header with the given feature bits (header byte 9).
    pub fn with_ext(mut self, ext: u8) -> Self {
        self.ext = ext;
        self
    }

    /// Serialises the header to its 32-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out[6] = self.op as u8;
        out[7] = self.codec;
        out[8] = self.status as u8;
        out[9] = self.ext;
        // bytes 10..16 reserved, written zero, ignored on decode
        out[16..24].copy_from_slice(&self.request_id.to_le_bytes());
        out[24..32].copy_from_slice(&self.body_len.to_le_bytes());
        out
    }

    /// Parses a 32-byte header, validating magic, version, op, status and
    /// the body-length hard cap ([`MAX_BODY_LEN`]); feature bits pass
    /// through and reserved bytes are ignored.
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Self, ProtocolError> {
        RawFrameHeader::decode(bytes)?.validate()
    }
}

/// A header whose framing fields (magic, version, reserved bytes, body
/// length) validated but whose op/status/codec bytes are still raw.
///
/// Servers read this first: a framing failure means the stream position can
/// no longer be trusted and the connection must close, while an unknown op
/// or status still tells the reader exactly how many body bytes to consume —
/// so it can skip them, answer with a typed error status, and keep serving
/// the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawFrameHeader {
    /// Unvalidated op byte.
    pub op: u8,
    /// Codec id byte.
    pub codec: u8,
    /// Unvalidated status byte.
    pub status: u8,
    /// Feature bits (header byte 9); unknown bits are ignored.
    pub ext: u8,
    /// Request id.
    pub request_id: u64,
    /// Declared body length (already under [`MAX_BODY_LEN`]).
    pub body_len: u64,
}

impl RawFrameHeader {
    /// Validates the framing fields only.
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Self, ProtocolError> {
        let magic: [u8; 4] = bytes[0..4].try_into().expect("fixed slice");
        if magic != MAGIC {
            return Err(ProtocolError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("fixed slice"));
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::UnsupportedVersion(version));
        }
        // Bytes 9..16 are negotiation headroom: byte 9 carries feature
        // bits (unknown ones ignored), bytes 10..15 are ignored entirely —
        // a peer advertising a future feature must never hard-break this
        // decoder.
        let body_len = u64::from_le_bytes(bytes[24..32].try_into().expect("fixed slice"));
        if body_len > MAX_BODY_LEN {
            return Err(ProtocolError::BodyTooLarge {
                declared: body_len,
                max: MAX_BODY_LEN,
            });
        }
        Ok(RawFrameHeader {
            op: bytes[6],
            codec: bytes[7],
            status: bytes[8],
            ext: bytes[9],
            request_id: u64::from_le_bytes(bytes[16..24].try_into().expect("fixed slice")),
            body_len,
        })
    }

    /// Validates the op and status bytes, yielding a typed header.
    pub fn validate(self) -> Result<FrameHeader, ProtocolError> {
        Ok(FrameHeader {
            op: Op::from_u8(self.op)?,
            codec: self.codec,
            status: Status::from_u8(self.status)?,
            ext: self.ext,
            request_id: self.request_id,
            body_len: self.body_len,
        })
    }
}

/// Encodes one complete frame (header + body) to bytes.
pub fn encode_frame(header: &FrameHeader, body: &[u8]) -> Vec<u8> {
    debug_assert_eq!(header.body_len, body.len() as u64);
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(body);
    out
}

/// Parses one complete frame from a byte slice, rejecting truncation and
/// trailing bytes.  This is the fuzz surface: it never panics.
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameHeader, &[u8]), ProtocolError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtocolError::Truncated {
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let header_bytes: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("fixed slice");
    let header = FrameHeader::decode(header_bytes)?;
    // The cap in `FrameHeader::decode` keeps this cast from overflowing.
    let body_len = header.body_len as usize;
    let available = bytes.len() - HEADER_LEN;
    if available < body_len {
        return Err(ProtocolError::Truncated {
            needed: HEADER_LEN.saturating_add(body_len),
            available: bytes.len(),
        });
    }
    if available > body_len {
        return Err(ProtocolError::TrailingBytes(available - body_len));
    }
    Ok((header, &bytes[HEADER_LEN..HEADER_LEN + body_len]))
}

/// Writes one frame to a blocking stream.
pub fn write_frame<W: Write>(
    writer: &mut W,
    header: &FrameHeader,
    body: &[u8],
) -> std::io::Result<()> {
    writer.write_all(&header.encode())?;
    writer.write_all(body)?;
    writer.flush()
}

/// Reads one frame from a blocking stream, enforcing `max_body` on top of
/// the protocol hard cap.  I/O failures surface in the outer `Result`,
/// protocol violations in the inner one.
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_body: u64,
) -> std::io::Result<Result<(FrameHeader, Vec<u8>), ProtocolError>> {
    let mut header_bytes = [0u8; HEADER_LEN];
    reader.read_exact(&mut header_bytes)?;
    let header = match FrameHeader::decode(&header_bytes) {
        Ok(h) => h,
        Err(e) => return Ok(Err(e)),
    };
    if header.body_len > max_body {
        return Ok(Err(ProtocolError::BodyTooLarge {
            declared: header.body_len,
            max: max_body,
        }));
    }
    // Grow the buffer as bytes actually arrive (`take` + `read_to_end`
    // reserves adaptively): a peer declaring a huge body but never sending
    // it cannot force an up-front allocation of the declared size.
    let mut body = Vec::new();
    reader
        .by_ref()
        .take(header.body_len)
        .read_to_end(&mut body)?;
    if (body.len() as u64) < header.body_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream ended inside a frame body",
        ));
    }
    Ok(Ok((header, body)))
}

/// Reads a `u16` length-prefixed UTF-8 key.
fn read_key(reader: &mut ByteReader<'_>) -> Result<String, ProtocolError> {
    let len = reader.read_u16()? as usize;
    let bytes = reader.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Malformed("key is not UTF-8"))
}

/// Appends a `u16` length-prefixed UTF-8 key.
fn write_key(out: &mut Vec<u8>, key: &str) {
    debug_assert!(key.len() <= u16::MAX as usize, "key longer than 64 KiB");
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
}

/// Wire form of an [`ErrorTarget`] option: kind byte 0 (none), 1 (NRMSE) or
/// 2 (point-wise absolute), followed by the `f32` bound for kinds 1 and 2.
fn write_target(out: &mut Vec<u8>, target: Option<ErrorTarget>) {
    match target {
        None => out.push(0),
        Some(ErrorTarget::Nrmse(t)) => {
            out.push(1);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Some(ErrorTarget::PointwiseAbs(t)) => {
            out.push(2);
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}

fn read_target(reader: &mut ByteReader<'_>) -> Result<Option<ErrorTarget>, ProtocolError> {
    let kind = reader.read_u8()?;
    if kind == 0 {
        return Ok(None);
    }
    let value = reader.read_f32()?;
    if !value.is_finite() || value <= 0.0 {
        return Err(ProtocolError::Malformed(
            "error-bound target must be finite and positive",
        ));
    }
    match kind {
        1 => Ok(Some(ErrorTarget::Nrmse(value))),
        2 => Ok(Some(ErrorTarget::PointwiseAbs(value))),
        _ => Err(ProtocolError::Malformed("unknown error-target kind")),
    }
}

/// A parsed [`Op::Compress`] request body.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressRequest {
    /// Variable key — the shard-routing input.
    pub key: String,
    /// Temporal window length (frames per block).
    pub block_frames: u32,
    /// Optional reconstruction-quality target.
    pub target: Option<ErrorTarget>,
    /// Variable dimensions `[timesteps, height, width]`.
    pub dims: [u32; 3],
    /// Row-major `f32` frame data, `dims` product values.
    pub data: Vec<f32>,
}

/// Serialises a compress-request body from borrowed frame data — the
/// clients' entry point, so a variable's `f32` buffer is serialised
/// straight into the wire body without an intermediate owned copy.
pub fn encode_compress_body(
    key: &str,
    block_frames: u32,
    target: Option<ErrorTarget>,
    dims: [u32; 3],
    data: &[f32],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + key.len() + data.len() * 4);
    write_key(&mut out, key);
    out.extend_from_slice(&block_frames.to_le_bytes());
    write_target(&mut out, target);
    for d in dims {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

impl CompressRequest {
    /// Serialises the request body.
    pub fn encode_body(&self) -> Vec<u8> {
        encode_compress_body(
            &self.key,
            self.block_frames,
            self.target,
            self.dims,
            &self.data,
        )
    }

    /// Parses a request body, validating every field before any sized
    /// allocation.
    pub fn decode_body(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut reader = ByteReader::new(bytes);
        let key = read_key(&mut reader)?;
        let block_frames = reader.read_u32()?;
        if block_frames == 0 {
            return Err(ProtocolError::Malformed("block_frames must be at least 1"));
        }
        let target = read_target(&mut reader)?;
        let dims = [reader.read_u32()?, reader.read_u32()?, reader.read_u32()?];
        if dims.contains(&0) {
            return Err(ProtocolError::Malformed("zero-sized dimension"));
        }
        let numel = dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(u64::from(d)))
            .ok_or(ProtocolError::Malformed("dimension product overflows"))?;
        let declared = numel
            .checked_mul(4)
            .ok_or(ProtocolError::Malformed("payload size overflows"))?;
        let remaining = reader.remaining() as u64;
        let consumed = bytes.len() - reader.remaining();
        if declared > remaining {
            return Err(ProtocolError::Truncated {
                needed: (consumed as u64)
                    .saturating_add(declared)
                    .min(usize::MAX as u64) as usize,
                available: bytes.len(),
            });
        }
        if declared < remaining {
            return Err(ProtocolError::TrailingBytes(
                (remaining - declared) as usize,
            ));
        }
        let data = reader.read_f32s(numel as usize)?;
        reader.expect_end()?;
        Ok(CompressRequest {
            key,
            block_frames,
            target,
            dims,
            data,
        })
    }
}

/// A parsed [`Op::Decompress`] request body: the routing key plus the
/// `GLDC` container to decode (left as raw bytes here — container
/// validation is the server's job and yields [`Status::BadContainer`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecompressRequest {
    /// Variable key — the shard-routing input.
    pub key: String,
    /// The encoded `GLDC` container.
    pub container: Vec<u8>,
}

impl DecompressRequest {
    /// Serialises the request body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.key.len() + self.container.len());
        write_key(&mut out, &self.key);
        out.extend_from_slice(&self.container);
        out
    }

    /// Parses a request body.
    pub fn decode_body(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut reader = ByteReader::new(bytes);
        let key = read_key(&mut reader)?;
        let container = reader.take(reader.remaining())?.to_vec();
        Ok(DecompressRequest { key, container })
    }
}

/// A parsed [`Op::Hello`] request body: codec ids in preference order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloRequest {
    /// Proposed codec id bytes, most preferred first.
    pub proposals: Vec<u8>,
}

impl HelloRequest {
    /// Serialises the request body.
    pub fn encode_body(&self) -> Vec<u8> {
        debug_assert!(self.proposals.len() <= u8::MAX as usize);
        let mut out = Vec::with_capacity(1 + self.proposals.len());
        out.push(self.proposals.len() as u8);
        out.extend_from_slice(&self.proposals);
        out
    }

    /// Parses a request body.
    pub fn decode_body(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut reader = ByteReader::new(bytes);
        let count = reader.read_u8()? as usize;
        if count == 0 {
            return Err(ProtocolError::Malformed("hello proposes no codecs"));
        }
        let proposals = reader.take(count)?.to_vec();
        reader.expect_end()?;
        Ok(HelloRequest { proposals })
    }
}

/// The server-info payload of an `Ok` [`Op::Hello`] response (the chosen
/// codec id rides in the response header's codec byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloResponse {
    /// Number of shards the server routes across.
    pub shards: u32,
    /// Per-shard bounded in-flight request window.
    pub shard_window: u32,
    /// Streaming-executor queue depth per compress call.
    pub queue_depth: u32,
}

impl HelloResponse {
    /// Serialises the response body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&self.shards.to_le_bytes());
        out.extend_from_slice(&self.shard_window.to_le_bytes());
        out.extend_from_slice(&self.queue_depth.to_le_bytes());
        out
    }

    /// Parses a response body.
    pub fn decode_body(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut reader = ByteReader::new(bytes);
        let shards = reader.read_u32()?;
        let shard_window = reader.read_u32()?;
        let queue_depth = reader.read_u32()?;
        reader.expect_end()?;
        Ok(HelloResponse {
            shards,
            shard_window,
            queue_depth,
        })
    }
}

/// Per-shard load counters in an [`Op::Status`] response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStatus {
    /// Requests admitted to the shard and not yet completed.
    pub in_flight: u64,
    /// High-water mark of `in_flight` (bounded by the shard window).
    pub peak_in_flight: u64,
    /// Requests ever admitted.
    pub admitted: u64,
    /// Requests completed (including ones whose connection died first).
    pub completed: u64,
    /// Compressed blocks produced by this shard.
    pub blocks: u64,
    /// High-water mark of blocks resident in a streaming compress call.
    pub peak_resident_blocks: u64,
    /// Request payload bytes admitted.
    pub bytes_in: u64,
    /// Response payload bytes produced.
    pub bytes_out: u64,
}

/// Per-op latency summary in the [`EXT_STATUS_SUMMARIES`] section of a
/// [`StatusResponse`]: the op byte, how many requests of that op the
/// server's histogram has recorded, and its p50/p99 estimates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpLatency {
    /// The [`Op`] byte this row summarises.
    pub op: u8,
    /// Requests of this op recorded since this server started.
    pub count: u64,
    /// Median server-side latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile server-side latency in nanoseconds.
    pub p99_ns: u64,
}

/// The negotiated trailer of a [`StatusResponse`]: present only when the
/// client set [`EXT_STATUS_SUMMARIES`] on its `Status` request and the
/// server echoed the bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusSummaries {
    /// Requests refused for reasons other than rate limiting or deadline
    /// expiry (malformed frames, oversized bodies, drain refusals, ...).
    /// Together with the top-level counters the invariant is
    /// `requests_rejected == rate_limited + deadlines_exceeded + rejected_other`.
    pub rejected_other: u64,
    /// Per-op latency rows, one per op the server has served at least once.
    pub ops: Vec<OpLatency>,
}

impl StatusSummaries {
    /// The summary row for `op`, if the server has served it.
    pub fn op(&self, op: Op) -> Option<&OpLatency> {
        self.ops.iter().find(|row| row.op == op as u8)
    }
}

/// The payload of an `Ok` [`Op::Status`] response: service-wide counters
/// plus one [`ShardStatus`] per shard, and — when the request negotiated
/// [`EXT_STATUS_SUMMARIES`] — per-op latency summaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusResponse {
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections ever accepted.
    pub connections_opened: u64,
    /// Requests refused with a typed error status before admission; always
    /// equal to `rate_limited + deadlines_exceeded + rejected_other`.
    pub requests_rejected: u64,
    /// Requests refused with [`Status::RateLimited`] specifically.
    pub rate_limited: u64,
    /// Requests answered with [`Status::DeadlineExceeded`].
    pub deadlines_exceeded: u64,
    /// Idle connections closed by the `--idle-timeout` reaper.
    pub reaped_idle: u64,
    /// Faults fired by the `GLD_FAILPOINTS` injection registry since
    /// process start (0 in normal operation).
    pub faults_injected: u64,
    /// Per-shard load, indexed by shard.
    pub shards: Vec<ShardStatus>,
    /// Latency summaries (`None` unless the session negotiated
    /// [`EXT_STATUS_SUMMARIES`]).
    pub summaries: Option<StatusSummaries>,
}

impl StatusResponse {
    /// Requests completed across shards.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Container frames processed across shards.
    pub fn blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.blocks).sum()
    }

    /// Requests refused for any reason but rate limiting or deadline
    /// expiry: what the disjoint-cause identity leaves of
    /// `requests_rejected`, so a legacy body without the trailer answers it
    /// too.
    pub fn rejected_other(&self) -> u64 {
        self.requests_rejected
            .saturating_sub(self.rate_limited)
            .saturating_sub(self.deadlines_exceeded)
    }

    /// Serialises the response body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(60 + self.shards.len() * 64);
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.connections_active.to_le_bytes());
        out.extend_from_slice(&self.connections_opened.to_le_bytes());
        out.extend_from_slice(&self.requests_rejected.to_le_bytes());
        out.extend_from_slice(&self.rate_limited.to_le_bytes());
        out.extend_from_slice(&self.deadlines_exceeded.to_le_bytes());
        out.extend_from_slice(&self.reaped_idle.to_le_bytes());
        out.extend_from_slice(&self.faults_injected.to_le_bytes());
        for shard in &self.shards {
            for field in [
                shard.in_flight,
                shard.peak_in_flight,
                shard.admitted,
                shard.completed,
                shard.blocks,
                shard.peak_resident_blocks,
                shard.bytes_in,
                shard.bytes_out,
            ] {
                out.extend_from_slice(&field.to_le_bytes());
            }
        }
        if let Some(summaries) = &self.summaries {
            out.extend_from_slice(&summaries.rejected_other.to_le_bytes());
            out.extend_from_slice(&(summaries.ops.len() as u32).to_le_bytes());
            for row in &summaries.ops {
                out.push(row.op);
                out.extend_from_slice(&row.count.to_le_bytes());
                out.extend_from_slice(&row.p50_ns.to_le_bytes());
                out.extend_from_slice(&row.p99_ns.to_le_bytes());
            }
        }
        out
    }

    /// Parses a response body.  The shard count is validated against the
    /// bytes actually present before any allocation.  Bytes remaining after
    /// the shard table are parsed as the [`EXT_STATUS_SUMMARIES`] trailer;
    /// a legacy body ending at the shard table decodes with
    /// `summaries: None`.
    pub fn decode_body(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut reader = ByteReader::new(bytes);
        let count = reader.read_u32()? as usize;
        let connections_active = reader.read_u64()?;
        let connections_opened = reader.read_u64()?;
        let requests_rejected = reader.read_u64()?;
        let rate_limited = reader.read_u64()?;
        let deadlines_exceeded = reader.read_u64()?;
        let reaped_idle = reader.read_u64()?;
        let faults_injected = reader.read_u64()?;
        match count.checked_mul(64) {
            Some(table) if table <= reader.remaining() => {}
            _ => {
                return Err(ProtocolError::Malformed(
                    "status shard table does not match its declared count",
                ))
            }
        }
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            shards.push(ShardStatus {
                in_flight: reader.read_u64()?,
                peak_in_flight: reader.read_u64()?,
                admitted: reader.read_u64()?,
                completed: reader.read_u64()?,
                blocks: reader.read_u64()?,
                peak_resident_blocks: reader.read_u64()?,
                bytes_in: reader.read_u64()?,
                bytes_out: reader.read_u64()?,
            });
        }
        let summaries = if reader.remaining() > 0 {
            let rejected_other = reader.read_u64()?;
            let n_ops = reader.read_u32()? as usize;
            // 25 bytes per row: op byte + three u64 fields.
            if n_ops.checked_mul(25) != Some(reader.remaining()) {
                return Err(ProtocolError::Malformed(
                    "status summary table does not match its declared count",
                ));
            }
            let mut ops = Vec::with_capacity(n_ops);
            for _ in 0..n_ops {
                ops.push(OpLatency {
                    op: reader.read_u8()?,
                    count: reader.read_u64()?,
                    p50_ns: reader.read_u64()?,
                    p99_ns: reader.read_u64()?,
                });
            }
            Some(StatusSummaries {
                rejected_other,
                ops,
            })
        } else {
            None
        };
        reader.expect_end()?;
        Ok(StatusResponse {
            connections_active,
            connections_opened,
            requests_rejected,
            rate_limited,
            deadlines_exceeded,
            reaped_idle,
            faults_injected,
            shards,
            summaries,
        })
    }
}

/// One step of [`StreamParser::next_event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// A complete frame: framing-validated header (op/status/codec bytes
    /// still raw — see [`RawFrameHeader::validate`]) plus its body.
    Frame(RawFrameHeader, Vec<u8>),
    /// More bytes are needed before the next frame completes.
    Incomplete,
    /// An unrecoverable framing violation: the stream position can no longer
    /// be trusted, so the connection must close after a best-effort error
    /// response.  `request_id` is the offending frame's id when the header
    /// parsed far enough to recover it, else 0.  The parser is poisoned —
    /// every subsequent call repeats this event.
    Fatal {
        /// What broke.
        error: ProtocolError,
        /// Best-effort id for the error response (0 if unrecoverable).
        request_id: u64,
    },
}

/// Incremental `GLDS` frame assembler for non-blocking streams.
///
/// Bytes arrive in arbitrary slices via [`push`](StreamParser::push) —
/// split anywhere, including mid-header and mid-body — and complete frames
/// come out of [`next_event`](StreamParser::next_event) in order.  The
/// buffer grows only as bytes actually arrive, so a header declaring a huge
/// body costs nothing until the peer really sends it; a body over `max_body`
/// is refused as soon as the header is readable.  Framing violations poison
/// the parser (see [`StreamEvent::Fatal`]): after garbage there is no way to
/// know where the next frame starts, so resynchronisation is never
/// attempted.  Never panics on arbitrary input.
#[derive(Debug)]
pub struct StreamParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it dominates the buffer.
    start: usize,
    max_body: u64,
    poisoned: Option<(ProtocolError, u64)>,
}

impl StreamParser {
    /// A parser enforcing `max_body` (capped at [`MAX_BODY_LEN`]) per frame.
    pub fn new(max_body: u64) -> Self {
        StreamParser {
            buf: Vec::new(),
            start: 0,
            max_body: max_body.min(MAX_BODY_LEN),
            poisoned: None,
        }
    }

    /// Appends newly received bytes.  Ignored once the parser is poisoned.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, if the buffer holds one.
    pub fn next_event(&mut self) -> StreamEvent {
        if let Some((error, request_id)) = &self.poisoned {
            return StreamEvent::Fatal {
                error: error.clone(),
                request_id: *request_id,
            };
        }
        if self.buffered() < HEADER_LEN {
            return StreamEvent::Incomplete;
        }
        let header_bytes: &[u8; HEADER_LEN] = self.buf[self.start..self.start + HEADER_LEN]
            .try_into()
            .expect("fixed slice");
        let raw = match RawFrameHeader::decode(header_bytes) {
            Ok(raw) => raw,
            Err(error) => {
                // Bytes 16..24 are the id — recoverable iff the magic and
                // version already validated (BodyTooLarge is the only
                // decode error past that point).
                let request_id = if matches!(error, ProtocolError::BodyTooLarge { .. }) {
                    u64::from_le_bytes(header_bytes[16..24].try_into().expect("fixed slice"))
                } else {
                    0
                };
                return self.poison(error, request_id);
            }
        };
        if raw.body_len > self.max_body {
            let error = ProtocolError::BodyTooLarge {
                declared: raw.body_len,
                max: self.max_body,
            };
            return self.poison(error, raw.request_id);
        }
        let frame_len = HEADER_LEN + raw.body_len as usize;
        if self.buffered() < frame_len {
            return StreamEvent::Incomplete;
        }
        let body = self.buf[self.start + HEADER_LEN..self.start + frame_len].to_vec();
        self.start += frame_len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        StreamEvent::Frame(raw, body)
    }

    fn poison(&mut self, error: ProtocolError, request_id: u64) -> StreamEvent {
        self.poisoned = Some((error.clone(), request_id));
        self.buf = Vec::new();
        self.start = 0;
        StreamEvent::Fatal { error, request_id }
    }
}

/// Serialises decompressed blocks as a decompress-response body: block count
/// then, per block, `[n, h, w]` dims and the row-major `f32` data.
pub fn encode_blocks_body(blocks: &[Tensor]) -> Vec<u8> {
    let payload: usize = blocks.iter().map(|b| 12 + b.numel() * 4).sum();
    let mut out = Vec::with_capacity(4 + payload);
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for block in blocks {
        debug_assert_eq!(block.rank(), 3, "decompressed blocks are [N, H, W]");
        for axis in 0..3 {
            out.extend_from_slice(&(block.dim(axis) as u32).to_le_bytes());
        }
        for v in block.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Parses a decompress-response body back into block tensors.  Sizes are
/// validated against the available bytes before any allocation, so a
/// corrupt count or dimension cannot trigger a huge reservation.
pub fn decode_blocks_body(bytes: &[u8]) -> Result<Vec<Tensor>, ProtocolError> {
    let mut reader = ByteReader::new(bytes);
    let count = reader.read_u32()? as usize;
    let mut blocks = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let dims = [
            reader.read_u32()? as usize,
            reader.read_u32()? as usize,
            reader.read_u32()? as usize,
        ];
        if dims.contains(&0) {
            return Err(ProtocolError::Malformed("zero-sized block dimension"));
        }
        let numel = dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
            .ok_or(ProtocolError::Malformed(
                "block dimension product overflows",
            ))?;
        let byte_len = numel
            .checked_mul(4)
            .ok_or(ProtocolError::Malformed("block byte size overflows"))?;
        if byte_len > reader.remaining() as u64 {
            let consumed = bytes.len() - reader.remaining();
            return Err(ProtocolError::Truncated {
                needed: (consumed as u64)
                    .saturating_add(byte_len)
                    .min(usize::MAX as u64) as usize,
                available: bytes.len(),
            });
        }
        let data = reader.read_f32s(numel as usize)?;
        blocks.push(Tensor::from_vec(data, &dims));
    }
    reader.expect_end()?;
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let header = FrameHeader::request(Op::Compress, 2, 0xDEAD_BEEF, 123);
        let decoded = FrameHeader::decode(&header.encode()).unwrap();
        assert_eq!(decoded, header);

        let response = FrameHeader::response(Op::Compress, 2, Status::FrameTooLarge, 7, 0);
        assert_eq!(FrameHeader::decode(&response.encode()).unwrap(), response);
    }

    #[test]
    fn header_rejects_each_invalid_field() {
        let good = FrameHeader::request(Op::Ping, 0, 1, 0).encode();

        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(
            FrameHeader::decode(&bad),
            Err(ProtocolError::BadMagic(_))
        ));

        let mut bad = good;
        bad[4] = 0xEE;
        assert!(matches!(
            FrameHeader::decode(&bad),
            Err(ProtocolError::UnsupportedVersion(_))
        ));

        let mut bad = good;
        bad[6] = 0;
        assert_eq!(FrameHeader::decode(&bad), Err(ProtocolError::UnknownOp(0)));

        let mut bad = good;
        bad[8] = 0xFF;
        assert_eq!(
            FrameHeader::decode(&bad),
            Err(ProtocolError::UnknownStatus(0xFF))
        );

        let mut bad = good;
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            FrameHeader::decode(&bad),
            Err(ProtocolError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_reserved_bits_are_ignored_not_rejected() {
        // The regression the stage-negotiation bit depends on: a peer
        // setting feature or reserved bits this build does not know must
        // still decode (previously any non-zero reserved byte hard-closed
        // the connection, which would have made every future negotiation
        // bit a breaking change).
        let good = FrameHeader::request(Op::Ping, 0, 1, 0).encode();
        for at in 9..16 {
            let mut future = good;
            future[at] = 0xFF;
            let decoded = FrameHeader::decode(&future).expect("future bits must decode");
            assert_eq!(decoded.op, Op::Ping);
            if at == 9 {
                assert_eq!(decoded.ext, 0xFF, "feature bits pass through");
            }
        }

        // Known feature bits round-trip through encode/decode.
        let header = FrameHeader::request(Op::Hello, 0, 7, 0).with_ext(EXT_CONTAINER_STAGE | 0b100);
        let decoded = FrameHeader::decode(&header.encode()).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(decoded.ext & EXT_CONTAINER_STAGE, EXT_CONTAINER_STAGE);
    }

    #[test]
    fn whole_frames_reject_truncation_and_trailing_bytes() {
        let header = FrameHeader::request(Op::Hello, 0, 9, 3);
        let frame = encode_frame(&header, &[1, 2, 3]);
        let (decoded, body) = decode_frame(&frame).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(body, &[1, 2, 3]);

        for cut in [0, 5, HEADER_LEN - 1, HEADER_LEN + 1] {
            assert!(
                matches!(
                    decode_frame(&frame[..cut]),
                    Err(ProtocolError::Truncated { .. })
                ),
                "cut at {cut} not detected"
            );
        }
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(decode_frame(&long), Err(ProtocolError::TrailingBytes(1)));
    }

    #[test]
    fn compress_request_roundtrips() {
        for target in [
            None,
            Some(ErrorTarget::Nrmse(1e-2)),
            Some(ErrorTarget::PointwiseAbs(0.5)),
        ] {
            let request = CompressRequest {
                key: "temperature".into(),
                block_frames: 8,
                target,
                dims: [16, 4, 4],
                data: (0..16 * 4 * 4).map(|i| i as f32 * 0.25).collect(),
            };
            let body = request.encode_body();
            assert_eq!(CompressRequest::decode_body(&body).unwrap(), request);
        }
    }

    #[test]
    fn compress_request_rejects_inconsistent_payloads() {
        let request = CompressRequest {
            key: "k".into(),
            block_frames: 4,
            target: None,
            dims: [8, 2, 2],
            data: vec![0.0; 32],
        };
        let good = request.encode_body();

        // Truncated payload.
        assert!(CompressRequest::decode_body(&good[..good.len() - 1]).is_err());
        // Extra payload.
        let mut long = good.clone();
        long.push(0);
        assert!(CompressRequest::decode_body(&long).is_err());
        // Zero dimension.
        let mut zero_dim = request.clone();
        zero_dim.dims = [0, 2, 2];
        let body = zero_dim.encode_body();
        assert_eq!(
            CompressRequest::decode_body(&body),
            Err(ProtocolError::Malformed("zero-sized dimension"))
        );
        // Absurd dimensions must error before allocating.
        let mut huge = good.clone();
        let dims_at = good.len() - 32 * 4 - 12;
        huge[dims_at..dims_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        huge[dims_at + 4..dims_at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(CompressRequest::decode_body(&huge).is_err());
        // Non-finite error bound.
        let mut nan_target = request.clone();
        nan_target.target = Some(ErrorTarget::Nrmse(f32::NAN));
        let body = nan_target.encode_body();
        assert!(CompressRequest::decode_body(&body).is_err());
    }

    #[test]
    fn hello_and_decompress_bodies_roundtrip() {
        let hello = HelloRequest {
            proposals: vec![2, 3, 1],
        };
        assert_eq!(
            HelloRequest::decode_body(&hello.encode_body()).unwrap(),
            hello
        );
        assert!(HelloRequest::decode_body(&[0]).is_err(), "empty proposal");

        let info = HelloResponse {
            shards: 4,
            shard_window: 2,
            queue_depth: 8,
        };
        assert_eq!(
            HelloResponse::decode_body(&info.encode_body()).unwrap(),
            info
        );

        let request = DecompressRequest {
            key: "v".into(),
            container: vec![9, 8, 7],
        };
        assert_eq!(
            DecompressRequest::decode_body(&request.encode_body()).unwrap(),
            request
        );
    }

    #[test]
    fn blocks_body_roundtrips_and_rejects_huge_counts() {
        let blocks = vec![
            Tensor::arange(2 * 3 * 4).reshape(&[2, 3, 4]),
            Tensor::ones(&[1, 2, 2]),
        ];
        let body = encode_blocks_body(&blocks);
        let back = decode_blocks_body(&body).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in back.iter().zip(&blocks) {
            assert_eq!(a.dims(), b.dims());
            assert_eq!(a.data(), b.data());
        }

        // A corrupt count cannot trigger a huge allocation: it errors out.
        let mut corrupt = body.clone();
        corrupt[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_blocks_body(&corrupt).is_err());
        // Nor can corrupt block dims.
        let mut corrupt = body;
        corrupt[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_blocks_body(&corrupt).is_err());
    }

    #[test]
    fn status_response_roundtrips_and_rejects_bad_counts() {
        let status = StatusResponse {
            connections_active: 3,
            connections_opened: 41,
            requests_rejected: 2,
            rate_limited: 1,
            deadlines_exceeded: 4,
            reaped_idle: 6,
            faults_injected: 17,
            shards: vec![
                ShardStatus {
                    in_flight: 1,
                    peak_in_flight: 2,
                    admitted: 10,
                    completed: 9,
                    blocks: 40,
                    peak_resident_blocks: 8,
                    bytes_in: 1 << 20,
                    bytes_out: 1 << 18,
                },
                ShardStatus::default(),
            ],
            summaries: None,
        };
        let body = status.encode_body();
        assert_eq!(StatusResponse::decode_body(&body).unwrap(), status);

        // A corrupt shard count cannot trigger a huge allocation.
        let mut corrupt = body.clone();
        corrupt[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(StatusResponse::decode_body(&corrupt).is_err());
        assert!(StatusResponse::decode_body(&body[..body.len() - 1]).is_err());

        // The negotiated summaries trailer round-trips, and truncating it
        // is detected rather than misparsed as a legacy body.
        let mut with_summaries = status.clone();
        with_summaries.summaries = Some(StatusSummaries {
            rejected_other: 7,
            ops: vec![
                OpLatency {
                    op: Op::Compress as u8,
                    count: 100,
                    p50_ns: 1_000_000,
                    p99_ns: 9_000_000,
                },
                OpLatency {
                    op: Op::Ping as u8,
                    count: 12,
                    p50_ns: 800,
                    p99_ns: 3_000,
                },
            ],
        });
        let body = with_summaries.encode_body();
        let decoded = StatusResponse::decode_body(&body).unwrap();
        assert_eq!(decoded, with_summaries);
        let summaries = decoded.summaries.unwrap();
        assert_eq!(summaries.op(Op::Compress).unwrap().count, 100);
        assert!(summaries.op(Op::Shutdown).is_none());
        assert!(StatusResponse::decode_body(&body[..body.len() - 1]).is_err());
    }

    #[test]
    fn stream_parser_reassembles_frames_split_anywhere() {
        let frames = [
            encode_frame(&FrameHeader::request(Op::Ping, 0, 7, 0), &[]),
            encode_frame(
                &FrameHeader::request(Op::Compress, 2, 9, 5),
                &[1, 2, 3, 4, 5],
            ),
            encode_frame(
                &FrameHeader::response(Op::Status, 0, Status::RateLimited, 7, 2),
                &[8, 9],
            ),
        ];
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();

        // One byte at a time: every split boundary exercised.
        let mut parser = StreamParser::new(MAX_BODY_LEN);
        let mut out = Vec::new();
        for byte in &stream {
            parser.push(std::slice::from_ref(byte));
            loop {
                match parser.next_event() {
                    StreamEvent::Frame(raw, body) => out.push((raw, body)),
                    StreamEvent::Incomplete => break,
                    StreamEvent::Fatal { error, .. } => panic!("unexpected fatal: {error}"),
                }
            }
        }
        assert_eq!(out.len(), 3);
        for (frame, (raw, body)) in frames.iter().zip(&out) {
            let reencoded = encode_frame(&raw.validate().unwrap().with_ext(raw.ext), body);
            assert_eq!(&reencoded, frame);
        }
        assert_eq!(parser.buffered(), 0);

        // The whole stream in one push parses identically.
        let mut parser = StreamParser::new(MAX_BODY_LEN);
        parser.push(&stream);
        let mut all_at_once = Vec::new();
        while let StreamEvent::Frame(raw, body) = parser.next_event() {
            all_at_once.push((raw, body));
        }
        assert_eq!(all_at_once, out);
    }

    #[test]
    fn stream_parser_poisons_on_garbage_and_stays_poisoned() {
        let good = encode_frame(&FrameHeader::request(Op::Ping, 0, 3, 0), &[]);
        let mut parser = StreamParser::new(MAX_BODY_LEN);
        parser.push(&good);
        parser.push(b"and now thirty-two bytes of junk!");
        assert!(matches!(parser.next_event(), StreamEvent::Frame(raw, _) if raw.request_id == 3));
        let fatal = parser.next_event();
        assert!(
            matches!(
                fatal,
                StreamEvent::Fatal {
                    error: ProtocolError::BadMagic(_),
                    request_id: 0,
                }
            ),
            "got {fatal:?}"
        );
        // Poisoned: further pushes are ignored, the event repeats.
        parser.push(&good);
        assert_eq!(parser.next_event(), fatal);
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn stream_parser_enforces_the_configured_body_cap_with_the_request_id() {
        let mut parser = StreamParser::new(16);
        let header = FrameHeader::request(Op::Compress, 2, 0xABCD, 17);
        parser.push(&header.encode());
        assert!(matches!(
            parser.next_event(),
            StreamEvent::Fatal {
                error: ProtocolError::BodyTooLarge {
                    declared: 17,
                    max: 16
                },
                request_id: 0xABCD,
            }
        ));

        // The protocol hard cap also recovers the id (magic+version valid).
        let mut parser = StreamParser::new(MAX_BODY_LEN);
        let mut raw = FrameHeader::request(Op::Compress, 2, 0x77, 0).encode();
        raw[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        parser.push(&raw);
        assert!(matches!(
            parser.next_event(),
            StreamEvent::Fatal {
                error: ProtocolError::BodyTooLarge { .. },
                request_id: 0x77,
            }
        ));
    }

    #[test]
    fn status_mapping_is_specific() {
        assert_eq!(
            status_for(&ProtocolError::UnsupportedVersion(9)),
            Status::UnsupportedVersion
        );
        assert_eq!(status_for(&ProtocolError::UnknownOp(0)), Status::UnknownOp);
        assert_eq!(
            status_for(&ProtocolError::UnknownCodec(0)),
            Status::UnknownCodec
        );
        assert_eq!(
            status_for(&ProtocolError::BodyTooLarge {
                declared: 10,
                max: 1
            }),
            Status::FrameTooLarge
        );
        assert_eq!(
            status_for(&ProtocolError::Malformed("x")),
            Status::Malformed
        );
    }
}
