//! Self-healing front end over [`ServiceClient`]: connect/request
//! deadlines, jittered exponential backoff, automatic reconnect with full
//! `Hello` re-negotiation, and an idempotent-retry policy.
//!
//! Compress and decompress are pure functions of their request bodies, so
//! retrying after a connection reset cannot duplicate work or corrupt
//! state — the only question is *which* failures are worth retrying:
//!
//! * **I/O and protocol failures** (reset, timeout, torn frame, corrupted
//!   response): the connection is untrustworthy.  Drop it, back off,
//!   re-dial, re-run the full `Hello` feature negotiation, retry.
//! * **Typed server refusals that promise the op is safe later**
//!   ([`Status::RateLimited`], [`Status::DeadlineExceeded`],
//!   [`Status::ShuttingDown`]): the connection is healthy; back off and
//!   retry on it.
//! * **Everything else** (`NoCommonCodec`, `Malformed`, `FrameTooLarge`,
//!   ...): deterministic refusals that retrying cannot fix — surfaced
//!   immediately as [`ResilientError::Fatal`].
//!
//! When the retry budget runs out the last error comes back inside
//! [`ResilientError::Exhausted`], so callers can distinguish "the service
//! is down" from "my request is wrong".

use crate::client::{ClientError, ServiceClient};
use crate::protocol::Status;
use gld_core::CodecId;
use std::fmt;
use std::time::Duration;

/// Jittered exponential backoff: each delay is the current step scaled by
/// a uniform factor in `[0.5, 1.0)`, and the step doubles (up to the cap)
/// per call.  The jitter stream is a deterministic xorshift seeded by the
/// caller, so two clients with different seeds cannot thundering-herd in
/// lockstep while tests stay reproducible.
#[derive(Clone, Debug)]
pub struct Backoff {
    step: Duration,
    max: Duration,
    rng: u64,
}

impl Backoff {
    /// Starts a fresh schedule at `base`, doubling per delay up to `max`.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Self {
        Backoff {
            step: base.max(Duration::from_millis(1)),
            max: max.max(base),
            rng: seed | 1,
        }
    }

    /// The next delay in the schedule (advances the step and the jitter
    /// stream).
    pub fn next_delay(&mut self) -> Duration {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let unit = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        let delay = self.step.mul_f64(0.5 + unit / 2.0);
        self.step = (self.step * 2).min(self.max);
        delay
    }

    /// Sleeps for [`Backoff::next_delay`].
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

/// Retry tuning for [`ResilientClient`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Bound on each TCP dial.
    pub connect_timeout: Duration,
    /// Bound on every blocking socket read/write once connected (`None`
    /// waits forever).  A stalled server surfaces as a retryable I/O error.
    pub request_timeout: Option<Duration>,
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total).
    pub max_retries: usize,
    /// First backoff delay; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the backoff jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Some(Duration::from_secs(30)),
            max_retries: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Terminal failures out of a [`ResilientClient`] op.
#[derive(Debug)]
pub enum ResilientError {
    /// Every attempt failed with a retryable error; `last` is the final
    /// one.  The service is unreachable or persistently overloaded.
    Exhausted {
        /// Attempts made (`max_retries + 1`).
        attempts: usize,
        /// The error the final attempt died with.
        last: ClientError,
    },
    /// A deterministic refusal that retrying cannot fix (bad request,
    /// unsupported codec, ...), surfaced from the first attempt that hit
    /// it.
    Fatal(ClientError),
}

impl fmt::Display for ResilientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilientError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            ResilientError::Fatal(e) => write!(f, "not retryable: {e}"),
        }
    }
}

impl std::error::Error for ResilientError {}

/// How one failed attempt affects the next.
enum Recovery {
    /// The connection is untrustworthy: drop it and re-dial + re-`Hello`.
    Reconnect,
    /// The connection is healthy; retry the op on it after backoff.
    SameConnection,
    /// Deterministic refusal: stop.
    Fatal,
}

fn classify(error: &ClientError) -> Recovery {
    match error {
        ClientError::Io(_) | ClientError::Protocol(_) => Recovery::Reconnect,
        ClientError::Server { status, .. } => match status {
            Status::RateLimited | Status::DeadlineExceeded | Status::ShuttingDown => {
                Recovery::SameConnection
            }
            _ => Recovery::Fatal,
        },
    }
}

/// A [`ServiceClient`] that survives resets, stalls, and transient
/// refusals: every op runs under the [`RetryPolicy`], reconnecting (with a
/// full `Hello` re-negotiation, so the codec and container feature bits
/// are re-established) whenever the connection stops being trustworthy.
pub struct ResilientClient {
    addr: String,
    preferences: Vec<CodecId>,
    policy: RetryPolicy,
    client: Option<ServiceClient>,
    retries: u64,
    reconnects: u64,
}

impl ResilientClient {
    /// Dials `addr` and negotiates the session (retrying under `policy`),
    /// with `preferences` as the codec preference order for every `Hello`.
    pub fn connect(
        addr: impl Into<String>,
        preferences: &[CodecId],
        policy: RetryPolicy,
    ) -> Result<Self, ResilientError> {
        let mut client = ResilientClient {
            addr: addr.into(),
            preferences: preferences.to_vec(),
            policy,
            client: None,
            retries: 0,
            reconnects: 0,
        };
        client.call(|_| Ok(()))?;
        Ok(client)
    }

    /// Retries performed across every op (attempts beyond each first).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Successful dial + `Hello` negotiations beyond the first — how many
    /// times the connection was rebuilt.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.saturating_sub(1)
    }

    /// Dials and negotiates if no healthy connection is held.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.client.is_some() {
            return Ok(());
        }
        let mut client =
            ServiceClient::connect_with_timeout(self.addr.as_str(), self.policy.connect_timeout)?;
        client.set_io_timeouts(self.policy.request_timeout)?;
        client.hello(&self.preferences)?;
        self.client = Some(client);
        self.reconnects += 1;
        Ok(())
    }

    /// Runs `op` — any [`ServiceClient`] call, such as
    /// `|c| c.compress(key, variable, 8, None)` — under the policy: backoff
    /// between attempts, reconnect (with a full `Hello`) when the connection
    /// stops being trustworthy, fatal on deterministic refusals,
    /// [`ResilientError::Exhausted`] when the budget runs out.  Retry only
    /// ops that are safe to repeat; every op the service offers is.
    pub fn call<T>(
        &mut self,
        mut op: impl FnMut(&mut ServiceClient) -> Result<T, ClientError>,
    ) -> Result<T, ResilientError> {
        let mut backoff = Backoff::new(
            self.policy.base_backoff,
            self.policy.max_backoff,
            self.policy.seed,
        );
        let attempts = self.policy.max_retries + 1;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries += 1;
                backoff.sleep();
            }
            let error = match self.ensure_connected() {
                Ok(()) => match op(self.client.as_mut().expect("just connected")) {
                    Ok(value) => return Ok(value),
                    Err(e) => e,
                },
                Err(e) => e,
            };
            match classify(&error) {
                Recovery::Reconnect => self.client = None,
                Recovery::SameConnection => {}
                Recovery::Fatal => return Err(ResilientError::Fatal(error)),
            }
            last = Some(error);
        }
        Err(ResilientError::Exhausted {
            attempts,
            last: last.expect("the loop ran at least once and failed"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_under_a_cap_with_bounded_jitter() {
        let mut backoff = Backoff::new(Duration::from_millis(100), Duration::from_millis(400), 7);
        let mut expected_step = 100u64;
        for _ in 0..6 {
            let delay = backoff.next_delay().as_secs_f64() * 1000.0;
            let step = expected_step as f64;
            assert!(
                delay >= step * 0.5 - 1e-9 && delay < step,
                "delay {delay}ms outside [{}, {}) jitter band",
                step * 0.5,
                step
            );
            expected_step = (expected_step * 2).min(400);
        }
    }

    #[test]
    fn backoff_streams_differ_by_seed_and_repeat_by_seed() {
        let delays = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(Duration::from_millis(64), Duration::from_secs(1), seed);
            (0..5).map(|_| b.next_delay()).collect()
        };
        assert_eq!(delays(3), delays(3), "same seed, same schedule");
        assert_ne!(delays(3), delays(4), "different seeds de-synchronise");
    }

    #[test]
    fn classification_matches_the_retry_contract() {
        let io = ClientError::Io(std::io::Error::other("reset"));
        assert!(matches!(classify(&io), Recovery::Reconnect));
        let busy = ClientError::Server {
            status: Status::RateLimited,
            message: String::new(),
        };
        assert!(matches!(classify(&busy), Recovery::SameConnection));
        let late = ClientError::Server {
            status: Status::DeadlineExceeded,
            message: String::new(),
        };
        assert!(matches!(classify(&late), Recovery::SameConnection));
        let bad = ClientError::Server {
            status: Status::Malformed,
            message: String::new(),
        };
        assert!(matches!(classify(&bad), Recovery::Fatal));
    }

    #[test]
    fn unreachable_address_exhausts_into_a_typed_error() {
        // A loopback port known to be closed: bind an ephemeral listener,
        // read its port, and drop it, so every dial is refused.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .expect("bind an ephemeral loopback port");
        let policy = RetryPolicy {
            connect_timeout: Duration::from_millis(50),
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let error = ResilientClient::connect(addr.to_string(), &[], policy)
            .map(|_| ())
            .expect_err("a closed loopback port must be unreachable");
        match error {
            ResilientError::Exhausted {
                attempts: 2,
                last: ClientError::Io(_),
            } => {}
            other => panic!("expected exhaustion with an I/O error, got {other:?}"),
        }
    }
}
