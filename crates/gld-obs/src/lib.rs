//! # gld-obs
//!
//! Zero-dependency observability for the GLD stack, in the offline-shims
//! spirit: everything here is `std`-only and cheap enough to leave on in
//! production paths.
//!
//! * [`hist`] — fixed-bucket log2-scale latency histograms: lock-free
//!   `AtomicU64` buckets, allocation-free [`Histogram::record`], mergeable
//!   [`HistogramSnapshot`]s with p50/p90/p99/p99.9 interpolation.  Every
//!   estimate lands inside the bucket holding the exact nearest-rank value,
//!   so relative error is bounded by the 1/16 sub-bucket resolution.
//! * [`mod@span`] — lightweight span tracing: [`span!`] opens a guard whose
//!   drop records a monotonic start/stop event into a bounded per-thread
//!   ring; [`span::record`] does the same for intervals measured across
//!   callbacks rather than scopes.
//! * [`log`] — a leveled logger configured by `GLD_LOG=level[,json]`
//!   (human-readable or JSON-lines on stderr) with free-form `key=value`
//!   context such as connection/request ids.
//! * [`flight`] — the flight recorder: recent span and log events, merged
//!   across threads and dumped as JSON-lines on panic (via
//!   [`flight::install_panic_hook`]), on fatal errors, or on demand.
//! * [`registry`] — a process-global registry of named histograms,
//!   counters, and gauges, rendered in Prometheus text exposition format.
//! * [`http`] — a hand-rolled HTTP/1.0 responder serving that exposition
//!   on a dedicated thread (`gld-serviced --metrics-addr`).
//!
//! The process-wide monotonic clock is [`now_ns`]: nanoseconds since the
//! first call in the process, safe to subtract across threads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flight;
pub mod hist;
pub mod http;
pub mod log;
pub mod registry;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use log::Level;
pub use registry::{Counter, Gauge, Registry};
pub use span::SpanGuard;

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide monotonic epoch (the first call in
/// this process).  Cheap, monotonic, and comparable across threads — the
/// timestamp every span, log, and flight event carries.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
