//! # gld-service
//!
//! The sharded compression service over the framed `GLDS` wire protocol —
//! the layer that turns the compression stack into long-lived shared
//! infrastructure serving many concurrent clients:
//!
//! * [`protocol`] — the framed wire protocol (magic + version + op + codec
//!   negotiation + `u64` length-prefixed bodies) with panic-free, typed
//!   decoders (fuzzed in `tests/protocol_fuzz.rs`); header byte 9 carries
//!   capability-and-echo feature bits (unknown bits ignored), bit 0
//!   negotiating the container v3 per-frame `gld-lz` stage — stage-blind
//!   clients transparently receive stage-free v2 responses;
//! * [`router`] — deterministic key-hash shard assignment with a
//!   round-robin override;
//! * [`server`] — the TCP server: a readiness-driven event loop front end
//!   (epoll over the in-repo shim) with pipelined keepalive connections,
//!   per-connection admission control (outstanding bound + optional token
//!   bucket → [`Status::RateLimited`]), per-shard worker threads behind
//!   bounded in-flight admission windows, compress responses streamed
//!   straight from `gld_core::compress_variable_to_writer`, graceful
//!   drain-then-join shutdown.  Each server counts into a
//!   `gld_obs::Registry` of its own, the one source behind the
//!   [`Op::Status`] reply, [`Server::metrics`] and the metrics endpoint;
//! * [`client`] — [`PipelinedClient`], the one connection type (socket,
//!   request ids, reply decoding; many outstanding requests matched by
//!   id), and [`ServiceClient`], its window-1 blocking discipline that the
//!   tests, bins, benches and examples speak through;
//! * [`resilient`] — the self-healing client: [`ResilientClient::call`]
//!   runs any `ServiceClient` op under connect/request deadlines, jittered
//!   exponential backoff, automatic reconnect with full `Hello`
//!   re-negotiation, typed exhaustion;
//! * [`chaos`] — the fault-injecting TCP proxy the resilience tests and
//!   the CI chaos smoke job put between client and server.
//!
//! Fault injection: the whole service is instrumented with `GLD_FAILPOINTS`
//! failpoints (`service.read`, `service.write`, `shard.submit`, plus
//! `container.frame`/`container.destage` in `gld-core`) — zero-cost when
//! unset, see the `fail` shim crate.
//!
//! Binaries: `gld-serviced` (standalone server) and `gld-service-check`
//! (client smoke check used by CI's boot-the-binary job).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
mod eventloop;
pub mod protocol;
pub mod resilient;
pub mod router;
pub mod server;

pub use chaos::{ChaosConfig, ChaosProxy};
pub use client::{ClientError, PipelinedClient, Reply, ServerInfo, ServiceClient};
pub use protocol::{Op, OpLatency, ProtocolError, Status, StatusResponse, StatusSummaries};
pub use resilient::{Backoff, ResilientClient, ResilientError, RetryPolicy};
pub use router::{ShardPolicy, ShardRouter};
pub use server::{CodecRegistry, RateLimit, Server, ServiceConfig};
