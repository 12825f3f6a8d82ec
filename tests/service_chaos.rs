//! Resilience contract tests: a live in-process server behind the chaos
//! TCP proxy, driven through [`ResilientClient`].
//!
//! * A mixed ping/compress/decompress/status workload under connection
//!   resets, stalls, latency, and partial writes completes with **zero
//!   unhandled errors** and every payload **bit-identical** to a fault-free
//!   reference run — those faults all surface as retryable I/O conditions
//!   the client masks completely.
//! * Byte corruption has no app-layer checksum on the GLDS frames, so the
//!   contract there is weaker and explicit: every op returns `Ok` or a
//!   typed error (never a panic or a hang), and once the proxy's fault
//!   budget is spent the workload self-heals and completes exactly.
//! * Idle-connection reaping: a server with `idle_timeout` set reclaims a
//!   parked connection (visible in the wire `Status` counters), and the
//!   resilient client transparently reconnects over the reaped socket.
//! * Deadlines survive `hello`'s legacy-server re-dial: a peer that
//!   corrupts the first `Hello` answer and stalls the second connection
//!   times the client out instead of hanging it.
//!
//! Runs green under `RAYON_NUM_THREADS=1` and `=8`; CI's matrix exercises
//! both.

use gld_core::{CodecId, Container};
use gld_datasets::{generate, DatasetKind, FieldSpec, ScientificDataset};
use gld_service::{
    protocol, ChaosConfig, ChaosProxy, ClientError, CodecRegistry, ResilientClient, ResilientError,
    Server, ServiceClient, ServiceConfig, StatusResponse,
};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn dataset() -> ScientificDataset {
    generate(DatasetKind::E3sm, &FieldSpec::new(2, 24, 16, 16), 71)
}

fn start_server(config: ServiceConfig) -> Server {
    Server::start(config, CodecRegistry::rule_based()).expect("bind an ephemeral port")
}

/// A retry policy tuned for a chaotic but local link: fast backoff, short
/// request deadlines, a generous attempt budget.
fn chaos_policy(seed: u64) -> gld_service::RetryPolicy {
    gld_service::RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Some(Duration::from_secs(2)),
        max_retries: 8,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        seed,
    }
}

#[test]
fn mixed_workload_through_chaos_is_bit_identical_and_error_free() {
    let server = start_server(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let upstream = server.local_addr();
    let ds = dataset();
    let preferences = [CodecId::SzLike, CodecId::ZfpLike];

    // Fault-free reference run, straight at the server.
    let mut reference_client = ServiceClient::connect(upstream).expect("direct connect");
    reference_client.hello(&preferences).expect("direct hello");
    let mut reference_bytes = Vec::new();
    let mut reference_blocks = Vec::new();
    for variable in &ds.variables {
        let bytes = reference_client
            .compress(&variable.name, variable, 8, None)
            .expect("reference compress");
        let blocks = reference_client
            .decompress(&variable.name, &bytes)
            .expect("reference decompress");
        reference_bytes.push(bytes);
        reference_blocks.push(blocks);
    }

    // Resets, stalls, latency and partial writes — everything the client
    // can mask completely.  The budget guarantees termination.
    let mut proxy = ChaosProxy::start(
        upstream,
        ChaosConfig {
            seed: 0xC4A0_5157,
            latency: Some((Duration::from_millis(2), 0.10)),
            partial_write_prob: 0.20,
            stall: Some((Duration::from_millis(30), 0.05)),
            reset_prob: 0.05,
            fault_budget: Some(30),
            ..ChaosConfig::default()
        },
    )
    .expect("start chaos proxy");

    let mut client =
        ResilientClient::connect(proxy.addr().to_string(), &preferences, chaos_policy(7))
            .expect("resilient connect through chaos");

    for round in 0..3 {
        client
            .call(|c| c.ping())
            .unwrap_or_else(|e| panic!("round {round}: ping: {e}"));
        for (index, variable) in ds.variables.iter().enumerate() {
            let bytes = client
                .call(|c| c.compress(&variable.name, variable, 8, None))
                .unwrap_or_else(|e| panic!("round {round}: compress {index}: {e}"));
            assert_eq!(
                bytes, reference_bytes[index],
                "round {round}: compress {index} must be bit-identical through chaos"
            );
            let blocks = client
                .call(|c| c.decompress(&variable.name, &bytes))
                .unwrap_or_else(|e| panic!("round {round}: decompress {index}: {e}"));
            assert_eq!(blocks.len(), reference_blocks[index].len());
            for (got, want) in blocks.iter().zip(&reference_blocks[index]) {
                assert_eq!(got.dims(), want.dims(), "round {round}: dims differ");
                assert_eq!(got.data(), want.data(), "round {round}: data differs");
            }
        }
        let status = client
            .call(|c| c.status())
            .unwrap_or_else(|e| panic!("round {round}: status: {e}"));
        assert!(status.connections_active >= 1, "we are connected");
    }

    assert!(
        proxy.faults_injected() > 0,
        "the fault schedule must actually have fired for this test to mean anything"
    );
    proxy.stop();
    let metrics: StatusResponse = server.shutdown();
    assert!(metrics.completed() >= 2 * ds.variables.len() as u64);
}

#[test]
fn corruption_is_survived_and_the_workload_self_heals_once_the_budget_is_spent() {
    let server = start_server(ServiceConfig::default());
    let upstream = server.local_addr();
    let ds = dataset();
    let variable = &ds.variables[0];
    let preferences = [CodecId::SzLike];

    let mut reference_client = ServiceClient::connect(upstream).expect("direct connect");
    reference_client.hello(&preferences).expect("direct hello");
    let reference = reference_client
        .compress(&variable.name, variable, 8, None)
        .expect("reference compress");

    const BUDGET: u64 = 12;
    let mut proxy = ChaosProxy::start(
        upstream,
        ChaosConfig {
            seed: 0xB17_F11F,
            corrupt_prob: 0.30,
            partial_write_prob: 0.20,
            fault_budget: Some(BUDGET),
            ..ChaosConfig::default()
        },
    )
    .expect("start chaos proxy");

    // GLDS frames carry no checksum, so a corrupted byte can surface as a
    // torn frame (retried internally), a typed refusal (the server read a
    // corrupted request), an exactly-right response, or — for a corrupted
    // response body — bytes that differ from the reference but still obey
    // the container's own per-frame CRCs on decode.  What must NEVER
    // happen: a panic, a hang, or an untyped failure.
    let mut exact = 0usize;
    let mut typed_failures = 0usize;
    let mut response_corruptions = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    while proxy.faults_injected() < BUDGET && Instant::now() < deadline {
        let mut client = ResilientClient::connect(
            proxy.addr().to_string(),
            &preferences,
            chaos_policy(proxy.faults_injected() + 11),
        );
        let attempt = client.as_mut().map_err(|_| ()).and_then(|c| {
            c.call(|c| c.compress(&variable.name, variable, 8, None))
                .map_err(|_| ())
        });
        match attempt {
            Ok(bytes) if bytes == reference => exact += 1,
            Ok(bytes) => {
                // Either leg of the connection was corrupted; the container
                // machinery must classify the result, not crash on it.
                if Container::decode(&bytes).is_err() {
                    response_corruptions += 1;
                }
            }
            Err(()) => typed_failures += 1,
        }
    }
    assert!(
        proxy.faults_injected() >= BUDGET,
        "the fault schedule must exhaust its budget (injected {}, exact {exact}, \
         typed failures {typed_failures}, detected corruptions {response_corruptions})",
        proxy.faults_injected()
    );

    // Budget spent → the proxy is transparent → the workload self-heals.
    let mut healed =
        ResilientClient::connect(proxy.addr().to_string(), &preferences, chaos_policy(23))
            .expect("connect once the proxy is transparent");
    let bytes = healed
        .call(|c| c.compress(&variable.name, variable, 8, None))
        .expect("compress once the proxy is transparent");
    assert_eq!(bytes, reference, "the self-healed run is bit-identical");

    proxy.stop();
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_and_the_resilient_client_recovers() {
    let idle_timeout = Duration::from_millis(150);
    let server = start_server(ServiceConfig {
        idle_timeout: Some(idle_timeout),
        ..ServiceConfig::default()
    });
    let addr = server.local_addr();
    let preferences = [CodecId::SzLike];

    // Park a resilient session...
    let mut parked =
        ResilientClient::connect(addr.to_string(), &preferences, chaos_policy(3)).expect("connect");
    parked.call(|c| c.ping()).expect("ping before idling");
    assert_eq!(parked.reconnects(), 0);

    // ...and watch the server reap it: a *fresh* observer connection per
    // poll, so the observer itself never trips the idle timer.
    let deadline = Instant::now() + Duration::from_secs(10);
    let reaped = loop {
        let mut observer = ServiceClient::connect(addr).expect("observer connect");
        observer.hello(&preferences).expect("observer hello");
        let status = observer.status().expect("observer status");
        if status.reaped_idle >= 1 {
            break status.reaped_idle;
        }
        assert!(
            Instant::now() < deadline,
            "server never reaped the idle connection (status: {status:?})"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(reaped >= 1, "the parked connection was reaped");

    // The reaped socket is dead, but the resilient client masks that: the
    // next op reconnects (with a full re-Hello) and succeeds.
    parked.call(|c| c.ping()).expect("ping after the reap");
    assert_eq!(
        parked.reconnects(),
        1,
        "exactly one transparent reconnect rebuilt the parked session"
    );

    let metrics = server.shutdown();
    assert!(
        metrics.reaped_idle >= 1,
        "the reap is visible in the service metrics"
    );
}

/// A hand-rolled peer for `hello`'s downgrade re-dial.  Of the
/// `connections` it accepts, every first of a pair has its `Hello` read
/// and answered with bytes that are not a `GLDS` frame, then is closed;
/// every second is accepted and never written to.  The silent sockets stay
/// open until the returned sender is dropped, so the client's own socket
/// timeout is the only clock in the test.
fn corrupt_then_stall_peer(connections: usize) -> (SocketAddr, mpsc::Sender<()>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let (release, released) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let mut silent = Vec::new();
        for index in 0..connections {
            let (mut stream, _) = listener.accept().expect("accept");
            if index % 2 == 0 {
                // Consume the whole request so the close is a clean FIN and
                // the garbage is what the client reads.
                protocol::read_frame(&mut stream, protocol::MAX_BODY_LEN)
                    .expect("read hello")
                    .expect("hello is a valid frame");
                stream
                    .write_all(&[b'?'; protocol::HEADER_LEN])
                    .expect("write garbage");
            } else {
                silent.push(stream);
            }
        }
        let _ = released.recv();
    });
    (addr, release, peer)
}

fn is_timeout(error: &ClientError) -> bool {
    matches!(
        error,
        ClientError::Io(e) if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

#[test]
fn hello_redial_keeps_the_io_deadline_against_a_stalling_peer() {
    let (addr, release, peer) = corrupt_then_stall_peer(2);
    let timeout = Duration::from_millis(200);
    let mut client =
        ServiceClient::connect_with_timeout(addr, Duration::from_secs(2)).expect("connect");
    client.set_io_timeouts(Some(timeout)).expect("set timeouts");
    let started = Instant::now();
    let error = client
        .hello(&[CodecId::SzLike])
        .expect_err("the re-dialled connection never answers");
    assert!(is_timeout(&error), "expected a socket timeout, got {error}");
    assert!(
        started.elapsed() >= timeout,
        "the failure must be the deadline expiring, not an early error"
    );
    drop(release);
    peer.join().expect("peer thread");
}

#[test]
fn resilient_connect_exhausts_against_a_corrupt_then_stall_peer() {
    let timeout = Duration::from_millis(200);
    let policy = gld_service::RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Some(timeout),
        max_retries: 1,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        seed: 3,
    };
    let attempts = policy.max_retries + 1;
    // Two connections per attempt: the corrupted `Hello` and its re-dial.
    let (addr, release, peer) = corrupt_then_stall_peer(2 * attempts);
    let started = Instant::now();
    let error = ResilientClient::connect(addr.to_string(), &[CodecId::SzLike], policy)
        .map(|_| ())
        .expect_err("no attempt can complete a hello");
    let elapsed = started.elapsed();
    match error {
        ResilientError::Exhausted {
            attempts: made,
            last,
        } => {
            assert_eq!(made, attempts);
            assert!(is_timeout(&last), "expected a socket timeout, got {last}");
        }
        other => panic!("expected exhaustion, got {other}"),
    }
    // Each attempt costs one request deadline plus its backoff; twice the
    // budget leaves room for a loaded runner and is still finite, which the
    // parent's deadline-free re-dial was not.
    let budget = (timeout + policy.max_backoff) * attempts as u32;
    assert!(
        elapsed < 2 * budget,
        "exhaustion took {elapsed:?}, budget {budget:?}"
    );
    drop(release);
    peer.join().expect("peer thread");
}
