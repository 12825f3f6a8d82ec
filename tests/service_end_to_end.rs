//! Service-grade contract tests for the sharded compression service:
//!
//! * **Concurrency** — N client threads × M variables through a live
//!   in-process server, every round trip bit-identical to a direct
//!   [`Codec`] call (runs green under `RAYON_NUM_THREADS=1` and `=8`; CI's
//!   matrix exercises both).
//! * **Protocol robustness** — the frame decoder never panics on fuzzed
//!   input, and a live server survives raw garbage on a connection while
//!   continuing to serve others.
//! * **Backpressure/overload** — a deliberately slow client (its codec
//!   gated shut) congests one shard: that shard's in-flight count stays
//!   within the configured window, submitters beyond the window block, and
//!   the *other* shard keeps completing work the whole time.

use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_core::{
    BlockJob, Codec, CodecError, CodecId, CodecScratch, Container, EncodedBlock, ErrorTarget,
    GldCompressor, GldConfig, StreamConfig,
};
use gld_datasets::{generate, DatasetKind, FieldSpec, Variable};
use gld_diffusion::ConditionalDiffusion;
use gld_entropy::HistogramModel;
use gld_service::protocol::{self, FrameHeader, Op, Status};
use gld_service::{
    ClientError, CodecRegistry, RateLimit, Reply, Server, ServiceClient, ServiceConfig,
    ShardPolicy, ShardRouter,
};
use gld_tensor::Tensor;
use gld_vae::Vae;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// An untrained (but fully functional and deterministic) GLD pipeline.
fn untrained_compressor() -> GldCompressor {
    let config = GldConfig::tiny();
    GldCompressor::from_parts(
        config,
        Vae::new(config.vae),
        ConditionalDiffusion::new(config.diffusion),
    )
}

fn start_server(config: ServiceConfig, registry: CodecRegistry) -> Server {
    Server::start(config, registry).expect("bind an ephemeral port")
}

fn poll_until(what: &str, deadline: Duration, mut check: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !check() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ───────────────────────── concurrency ─────────────────────────────────

#[test]
fn multi_client_round_trips_are_bit_identical_to_direct_codec_calls() {
    let mut registry = CodecRegistry::rule_based();
    registry.register(Arc::new(untrained_compressor()));
    let server = start_server(
        ServiceConfig {
            shards: 4,
            shard_window: 2,
            ..ServiceConfig::default()
        },
        registry,
    );
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    const VARIABLES: usize = 3;
    let total_requests = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let total_requests = Arc::clone(&total_requests);
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                let info = client
                    .hello(&[CodecId::SzLike, CodecId::ZfpLike])
                    .expect("hello");
                assert_eq!(info.codec, CodecId::SzLike, "first preference wins");
                assert!(info.profiles, "current peers negotiate shared profiles");
                assert_eq!(info.shards, 4);
                assert_eq!(info.shard_window, 2);

                let sz = SzCompressor::new();
                let gld = untrained_compressor();
                for variable_index in 0..VARIABLES {
                    let seed = (client_index * 31 + variable_index) as u64;
                    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 16, 16, 16), seed);
                    let variable = &ds.variables[0];
                    let key = format!("client{client_index}/var{variable_index}");

                    // Alternate codecs and targets across requests.
                    let (codec, codec_id, target): (&dyn Codec, CodecId, Option<ErrorTarget>) =
                        if variable_index % 2 == 0 {
                            (&sz, CodecId::SzLike, Some(ErrorTarget::Nrmse(1e-2)))
                        } else {
                            (&gld, CodecId::Gld, None)
                        };

                    // Remote compress must be bit-identical to a direct
                    // profiled (container v4, the negotiated session format)
                    // `Codec` container encoding.
                    let remote = client
                        .compress_as(codec_id, &key, variable, 8, target)
                        .expect("remote compress");
                    let (local, stats, _) = codec.compress_variable_profiled(
                        variable,
                        8,
                        target,
                        StreamConfig::default(),
                    );
                    assert_eq!(
                        remote,
                        local.encode(),
                        "{key}: remote container differs from direct Codec output"
                    );
                    assert_eq!(stats.blocks, 2);

                    // And the remote decompress must match the direct one.
                    let blocks = client.decompress(&key, &remote).expect("remote decompress");
                    let reference = codec
                        .decompress_container(&Container::decode(&remote).expect("decodes"))
                        .expect("matching codec id");
                    assert_eq!(blocks.len(), reference.len());
                    for (a, b) in blocks.iter().zip(&reference) {
                        assert_eq!(a.dims(), b.dims(), "{key}: block dims differ");
                        assert_eq!(a.data(), b.data(), "{key}: block data differs");
                    }
                    total_requests.fetch_add(2, Ordering::Relaxed);
                }
                // Session-default compress (no explicit codec byte) uses the
                // negotiated codec.
                let ds = generate(DatasetKind::S3d, &FieldSpec::new(1, 16, 8, 8), 99);
                let remote = client
                    .compress(
                        &format!("client{client_index}/default"),
                        &ds.variables[0],
                        8,
                        None,
                    )
                    .expect("session-codec compress");
                let (local, _, _) = sz.compress_variable_profiled(
                    &ds.variables[0],
                    8,
                    None,
                    StreamConfig::default(),
                );
                assert_eq!(remote, local.encode());
                total_requests.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    let metrics = server.shutdown();
    let expected = total_requests.load(Ordering::Relaxed) as u64;
    assert_eq!(
        metrics.completed(),
        expected,
        "every admitted request completed: {metrics:?}"
    );
    assert!(metrics.shards.iter().all(|s| s.in_flight == 0));
    assert!(
        metrics.shards.iter().all(|s| s.peak_in_flight <= 2),
        "no shard ever exceeded its window: {metrics:?}"
    );
    assert_eq!(metrics.connections_opened, CLIENTS as u64);
    assert_eq!(metrics.requests_rejected, 0);
}

#[test]
fn deterministic_sharding_pins_a_key_and_round_robin_overrides_it() {
    // The same key always lands on the hash-assigned shard...
    let server = start_server(
        ServiceConfig {
            shards: 3,
            ..ServiceConfig::default()
        },
        CodecRegistry::rule_based(),
    );
    let addr = server.local_addr();
    let mut client = ServiceClient::connect(addr).expect("connect");
    let ds = generate(DatasetKind::Jhtdb, &FieldSpec::new(1, 8, 8, 8), 5);
    let key = "pinned-variable";
    let expected_shard = ShardRouter::hash_shard(key, 3);
    for _ in 0..3 {
        client
            .compress_as(CodecId::SzLike, key, &ds.variables[0], 4, None)
            .expect("compress");
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.shards[expected_shard].completed, 3);
    for (index, shard) in metrics.shards.iter().enumerate() {
        if index != expected_shard {
            assert_eq!(shard.completed, 0, "hash routing must pin the key");
        }
    }

    // ...while round-robin spreads the identical key across shards.
    let server = start_server(
        ServiceConfig {
            shards: 3,
            policy: ShardPolicy::RoundRobin,
            ..ServiceConfig::default()
        },
        CodecRegistry::rule_based(),
    );
    let addr = server.local_addr();
    let mut client = ServiceClient::connect(addr).expect("connect");
    for _ in 0..3 {
        client
            .compress_as(CodecId::SzLike, key, &ds.variables[0], 4, None)
            .expect("compress");
    }
    let metrics = server.shutdown();
    assert!(
        metrics.shards.iter().all(|s| s.completed == 1),
        "round-robin must spread the same key: {metrics:?}"
    );
}

// ───────────────────── protocol robustness ─────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fuzzed_frames_never_panic_the_decoder(
        bytes in prop::collection::vec(0u32..256, 0..80),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Typed result or nothing: a panic here fails the test.
        let _ = protocol::decode_frame(&bytes);
        // And with a valid header prefix so body decoders run too.
        let mut framed = FrameHeader::request(Op::Compress, 2, 1, 0).encode().to_vec();
        framed.extend_from_slice(&bytes);
        let tail = bytes.len() as u64;
        framed[24..32].copy_from_slice(&tail.to_le_bytes());
        if let Ok((_, body)) = protocol::decode_frame(&framed) {
            let _ = protocol::CompressRequest::decode_body(body);
            let _ = protocol::DecompressRequest::decode_body(body);
            let _ = protocol::HelloRequest::decode_body(body);
        }
    }
}

#[test]
fn live_server_survives_garbage_and_typed_error_paths() {
    let server = start_server(ServiceConfig::default(), CodecRegistry::rule_based());
    let addr = server.local_addr();

    // Raw garbage: the server answers best-effort (or just closes) and the
    // connection dies — without taking the server down.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.write_all(b"this is definitely not a GLDS frame, not even close")
            .expect("write garbage");
        // Whatever happens on this socket, the server must keep serving.
    }

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), 3);
    let variable = &ds.variables[0];
    let mut client = ServiceClient::connect(addr).expect("connect after garbage");

    // Unknown codec id.
    let err = client
        .compress_as(CodecId::Gld, "k", variable, 4, None)
        .expect_err("Gld is not registered on this server");
    assert!(
        matches!(
            err,
            ClientError::Server {
                status: Status::UnknownCodec,
                ..
            }
        ),
        "{err:?}"
    );

    // No session codec negotiated and no explicit codec byte.
    let err = client
        .compress("k", variable, 4, None)
        .expect_err("no session codec yet");
    assert!(
        matches!(
            err,
            ClientError::Server {
                status: Status::UnknownCodec,
                ..
            }
        ),
        "{err:?}"
    );

    // Too few timesteps for one block: typed refusal, not a server panic.
    let err = client
        .compress_as(CodecId::SzLike, "k", variable, 64, None)
        .expect_err("8 timesteps cannot fill a 64-frame block");
    assert!(
        matches!(
            err,
            ClientError::Server {
                status: Status::Malformed,
                ..
            }
        ),
        "{err:?}"
    );

    // A corrupt container: typed BadContainer, naming the damage.
    let good = client
        .compress_as(CodecId::SzLike, "k", variable, 4, None)
        .expect("compress");
    let mut corrupt = good.clone();
    let at = gld_core::container::HEADER_LEN + 12;
    corrupt[at] ^= 0x20;
    let err = client
        .decompress("k", &corrupt)
        .expect_err("bit-flipped container");
    assert!(
        matches!(
            err,
            ClientError::Server {
                status: Status::BadContainer,
                ..
            }
        ),
        "{err:?}"
    );

    // The same connection still serves real work after every refusal.
    let blocks = client.decompress("k", &good).expect("valid decompress");
    assert_eq!(blocks.len(), 2);
    // Every refusal was typed: the codec bug trap never fired.
    assert_eq!(server.codec_panics(), 0);
    let metrics = server.shutdown();
    // Protocol/container refusals land in the disjoint `rejected_other`
    // cause bucket (nothing here was rate-limited or expired), and the
    // roll-up is always the sum of the causes.
    assert!(metrics.rejected_other() >= 3, "{metrics:?}");
    assert_eq!(metrics.rate_limited, 0);
    assert_eq!(metrics.deadlines_exceeded, 0);
    assert_eq!(
        metrics.requests_rejected,
        metrics.rejected_other() + metrics.rate_limited + metrics.deadlines_exceeded,
        "{metrics:?}"
    );
}

// ─────────────────── backpressure / overload ───────────────────────────

/// A codec whose compress path blocks on a shared gate — the deterministic
/// stand-in for a shard whose work drains slowly (as a slow consumer
/// produces).  Registered under the `Gld` id so the SZ3-like codec on the
/// other shard stays fast.
struct GatedCodec {
    inner: SzCompressor,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GatedCodec {
    fn wait_open(&self) {
        let (lock, cv) = &*self.gate;
        let mut open = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*open {
            open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cv) = &**gate;
    *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
    cv.notify_all();
}

impl Codec for GatedCodec {
    fn name(&self) -> &str {
        "gated"
    }
    fn id(&self) -> CodecId {
        CodecId::Gld
    }
    fn encode(
        &self,
        job: &BlockJob<'_>,
        scratch: &mut CodecScratch,
    ) -> Result<EncodedBlock, CodecError> {
        self.wait_open();
        self.inner.encode(job, scratch)
    }
    fn decode(&self, frame: &[u8], model: Option<&HistogramModel>) -> Result<Tensor, CodecError> {
        self.inner.decode(frame, model)
    }
}

#[test]
fn overloaded_shard_respects_its_window_while_other_shards_flow() {
    const WINDOW: usize = 2;
    const QUEUE_DEPTH: usize = 2;
    const SLOW_CLIENTS: usize = 4;
    const FAST_REQUESTS: usize = 6;

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut registry = CodecRegistry::rule_based();
    registry.register(Arc::new(GatedCodec {
        inner: SzCompressor::new(),
        gate: Arc::clone(&gate),
    }));
    let server = start_server(
        ServiceConfig {
            shards: 2,
            shard_window: WINDOW,
            stream: StreamConfig {
                queue_depth: QUEUE_DEPTH,
            },
            ..ServiceConfig::default()
        },
        registry,
    );
    let addr = server.local_addr();

    // Pick keys whose deterministic hash assignment pins them to each shard.
    let slow_key = (0..)
        .map(|i| format!("slow-{i}"))
        .find(|k| ShardRouter::hash_shard(k, 2) == 0)
        .expect("a key hashing to shard 0");
    let fast_key = (0..)
        .map(|i| format!("fast-{i}"))
        .find(|k| ShardRouter::hash_shard(k, 2) == 1)
        .expect("a key hashing to shard 1");

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 16, 8, 8), 13);
    let slow_variable = ds.variables[0].clone();

    // The deliberately slow side: more congested requests than the window
    // admits, all pinned to shard 0, none able to finish while the gate is
    // shut.
    let slow_threads: Vec<_> = (0..SLOW_CLIENTS)
        .map(|_| {
            let slow_key = slow_key.clone();
            let variable = Variable::new(slow_key.clone(), slow_variable.frames.clone());
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                // Negotiate the session (stage only, no profiles) so the
                // gated responses compare against the staged v3 encoding.
                client
                    .hello_with_options(&[CodecId::Gld], true, false)
                    .expect("hello");
                client
                    .compress_as(CodecId::Gld, &slow_key, &variable, 4, None)
                    .expect("gated compress eventually succeeds")
            })
        })
        .collect();

    // Wait until shard 0's window is saturated: exactly WINDOW admitted,
    // the remaining submitters blocked in admission — never counted in.
    poll_until(
        "shard 0 to saturate its window",
        Duration::from_secs(60),
        || server.metrics().shards[0].in_flight == WINDOW as u64,
    );

    // The other shard must keep completing work the whole time.
    let sz = SzCompressor::new();
    let mut fast_client = ServiceClient::connect(addr).expect("connect");
    fast_client
        .hello_with_options(&[CodecId::SzLike], true, false)
        .expect("hello");
    for i in 0..FAST_REQUESTS {
        let ds = generate(
            DatasetKind::Jhtdb,
            &FieldSpec::new(1, 16, 8, 8),
            100 + i as u64,
        );
        let remote = fast_client
            .compress_as(CodecId::SzLike, &fast_key, &ds.variables[0], 4, None)
            .expect("fast shard must not be stalled by the slow one");
        let (local, _) = sz.compress_variable(&ds.variables[0], 4, None);
        assert_eq!(remote, local.encode(), "fast path stays bit-identical");
    }

    let during = server.metrics();
    assert_eq!(
        during.shards[0].in_flight, WINDOW as u64,
        "congested shard holds exactly its window: {during:?}"
    );
    assert!(
        during.shards[0].peak_in_flight <= WINDOW as u64,
        "in-flight never exceeded the window: {during:?}"
    );
    assert_eq!(
        during.shards[0].completed, 0,
        "nothing on the gated shard finished yet"
    );
    assert_eq!(
        during.shards[1].completed, FAST_REQUESTS as u64,
        "the other shard flowed: {during:?}"
    );

    // Open the gate: the backlog drains, blocked submitters are admitted,
    // and every slow client gets its correct container.
    open_gate(&gate);
    let reference_codec = GatedCodec {
        inner: SzCompressor::new(),
        gate: Arc::clone(&gate),
    };
    let reference = {
        let variable = Variable::new(slow_key.clone(), slow_variable.frames.clone());
        reference_codec
            .compress_variable(&variable, 4, None)
            .0
            .encode()
    };
    for thread in slow_threads {
        let container = thread.join().expect("slow client thread");
        assert_eq!(container, reference, "gated responses are still correct");
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.shards[0].completed, SLOW_CLIENTS as u64);
    assert!(
        metrics.shards[0].peak_in_flight <= WINDOW as u64,
        "window held through the drain: {metrics:?}"
    );
    assert!(
        metrics
            .shards
            .iter()
            .all(|s| s.peak_resident_blocks <= QUEUE_DEPTH as u64),
        "executor memory bound held per shard: {metrics:?}"
    );
    assert!(metrics.shards.iter().all(|s| s.in_flight == 0));
}

// ──────────────────────── pipelining ───────────────────────────────────

#[test]
fn soak_200_keepalive_connections_pipelining_mixed_ops_stay_bit_identical() {
    // 200+ keepalive connections, each holding a pipelined window of mixed
    // ping/compress/decompress requests open at once, every response
    // matched back by request id and bit-identical to a local `Codec` call.
    const CONNS: usize = 200;
    const VARIANTS: usize = 8;

    let server = start_server(
        ServiceConfig {
            shards: 2,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
        CodecRegistry::rule_based(),
    );
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint is up");

    // Tiny distinct variables, with local profiled (v4, the negotiated
    // session format) references computed once.
    let sz = SzCompressor::new();
    let references: Vec<_> = (0..VARIANTS)
        .map(|i| {
            let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), i as u64);
            let variable = ds.variables[0].clone();
            let (container, _, _) =
                sz.compress_variable_profiled(&variable, 8, None, StreamConfig::default());
            let encoded = container.encode();
            let blocks = sz
                .decompress_container(&Container::decode(&encoded).expect("decodes"))
                .expect("local decompress");
            (variable, encoded, blocks)
        })
        .collect();

    // Open every connection and submit each one's full window before
    // draining any of them: the server holds 200 live pipelined
    // connections with outstanding work simultaneously.
    let mut pipes = Vec::with_capacity(CONNS);
    for conn in 0..CONNS {
        let mut client = ServiceClient::connect(addr).expect("connect");
        client.hello(&[CodecId::SzLike]).expect("hello");
        let mut pipe = client.into_pipelined();
        let (variable, encoded, _) = &references[conn % VARIANTS];
        let key = format!("soak/{}", conn % VARIANTS);
        let mut ids = std::collections::HashMap::new();
        ids.insert(pipe.submit_ping().expect("submit ping"), "ping");
        ids.insert(
            pipe.submit_compress(&key, variable, 8, None)
                .expect("submit compress"),
            "compress",
        );
        ids.insert(
            pipe.submit_decompress(&key, encoded)
                .expect("submit decompress"),
            "decompress",
        );
        ids.insert(pipe.submit_ping().expect("submit ping"), "ping");
        pipes.push((pipe, ids, conn % VARIANTS));
    }

    // Mid-soak, with 200 pipelined connections live and outstanding work
    // queued, the metrics endpoint must still serve valid exposition.
    {
        use std::io::{Read, Write};
        let mut stream =
            std::net::TcpStream::connect(metrics_addr).expect("connect metrics endpoint");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("write scrape");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read scrape");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.0 200"), "scrape refused: {head}");
        let active = gld_obs::registry::scrape_value(body, "glds_connections_active", "", &[])
            .expect("active-connections gauge");
        assert_eq!(active as usize, CONNS, "every soak connection is live");
        assert!(
            body.contains("# TYPE glds_request_duration_ns histogram"),
            "latency families served under load"
        );
    }

    for (mut pipe, mut ids, variant) in pipes {
        let (_, encoded, blocks) = &references[variant];
        for (id, reply) in pipe.drain().expect("drain") {
            match (ids.remove(&id).expect("id matches a submit"), reply) {
                ("ping", Reply::Pong) => {}
                ("compress", Reply::Compressed(bytes)) => {
                    assert_eq!(&bytes, encoded, "pipelined compress differs from local");
                }
                ("decompress", Reply::Decompressed(got)) => {
                    assert_eq!(got.len(), blocks.len());
                    for (a, b) in got.iter().zip(blocks) {
                        assert_eq!(a.data(), b.data(), "pipelined decompress differs");
                    }
                }
                (kind, other) => panic!("{kind} answered with {other:?}"),
            }
        }
        assert!(ids.is_empty(), "every submit answered exactly once");
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.connections_opened, CONNS as u64);
    assert_eq!(
        metrics.completed(),
        CONNS as u64 * 2,
        "2 codec ops per connection"
    );
    assert_eq!(metrics.requests_rejected, 0);
    assert!(metrics.shards.iter().all(|s| s.in_flight == 0));
}

#[test]
fn responses_come_back_out_of_order_when_earlier_work_is_slower() {
    // The pipelining contract in one picture: a gated compress submitted
    // FIRST is answered AFTER a ping submitted behind it — the request id,
    // not arrival order, is the correlation key.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut registry = CodecRegistry::rule_based();
    registry.register(Arc::new(GatedCodec {
        inner: SzCompressor::new(),
        gate: Arc::clone(&gate),
    }));
    let server = start_server(ServiceConfig::default(), registry);
    let addr = server.local_addr();

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), 21);
    let mut client = ServiceClient::connect(addr).expect("connect");
    client
        .hello_with_options(&[CodecId::Gld], true, false)
        .expect("hello");
    let mut pipe = client.into_pipelined();

    let compress_id = pipe
        .submit_compress("gated", &ds.variables[0], 4, None)
        .expect("submit gated compress");
    let ping_id = pipe.submit_ping().expect("submit ping behind it");

    let (first, reply) = pipe.recv().expect("first reply");
    assert_eq!(first, ping_id, "the ping overtakes the gated compress");
    assert!(matches!(reply, Reply::Pong));

    open_gate(&gate);
    let (second, reply) = pipe.recv().expect("second reply");
    assert_eq!(second, compress_id);
    let reference = GatedCodec {
        inner: SzCompressor::new(),
        gate: Arc::clone(&gate),
    }
    .compress_variable(&ds.variables[0], 4, None)
    .0
    .encode();
    match reply {
        Reply::Compressed(bytes) => assert_eq!(bytes, reference),
        other => panic!("expected the compress, got {other:?}"),
    }
    drop(pipe);
    server.shutdown();
}

#[test]
fn rate_limited_codec_ops_get_a_typed_status_and_the_connection_survives() {
    // A token bucket of 2 with no refill: the first two compresses pass,
    // the next three come back `RateLimited` — typed, per-request, with
    // the connection (and its pings, which are not rate-limited) intact.
    let server = start_server(
        ServiceConfig {
            rate_limit: Some(RateLimit {
                capacity: 2,
                refill_per_sec: 0.0,
            }),
            ..ServiceConfig::default()
        },
        CodecRegistry::rule_based(),
    );
    let addr = server.local_addr();

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), 31);
    let variable = &ds.variables[0];
    let mut client = ServiceClient::connect(addr).expect("connect");
    client.hello(&[CodecId::SzLike]).expect("hello");
    let mut pipe = client.into_pipelined();

    let mut ids = Vec::new();
    for i in 0..5 {
        ids.push(
            pipe.submit_compress(&format!("rl/{i}"), variable, 8, None)
                .expect("submit compress"),
        );
    }
    let ping_id = pipe.submit_ping().expect("pings are not rate-limited");

    let mut compressed = 0;
    let mut limited = 0;
    let mut ponged = 0;
    for (id, reply) in pipe.drain().expect("drain") {
        match reply {
            Reply::Compressed(_) => {
                assert!(ids.contains(&id));
                compressed += 1;
            }
            Reply::Refused { status, .. } => {
                assert_eq!(status, Status::RateLimited, "typed rate-limit status");
                assert!(ids.contains(&id));
                limited += 1;
            }
            Reply::Pong => {
                assert_eq!(id, ping_id);
                ponged += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!((compressed, limited, ponged), (2, 3, 1));

    // The connection keeps serving, and the refusals are accounted.
    pipe.submit_ping().expect("submit after refusals");
    pipe.drain().expect("connection still healthy");
    let metrics = server.shutdown();
    assert_eq!(metrics.rate_limited, 3);
    // Rate-limited refusals are counted under their own disjoint cause,
    // never double-counted into `rejected_other`; the roll-up is the sum.
    assert_eq!(metrics.rejected_other(), 0, "{metrics:?}");
    assert_eq!(metrics.deadlines_exceeded, 0);
    assert_eq!(metrics.requests_rejected, 3, "{metrics:?}");
    assert_eq!(metrics.completed(), 2);
}

// ───────────────────── graceful shutdown ───────────────────────────────

#[test]
fn wire_shutdown_drains_and_a_drained_server_refuses_new_connections() {
    let server = start_server(ServiceConfig::default(), CodecRegistry::rule_based());
    let addr = server.local_addr();

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 16, 8, 8), 17);
    let mut client = ServiceClient::connect(addr).expect("connect");
    let container = client
        .compress_as(CodecId::SzLike, "v", &ds.variables[0], 4, None)
        .expect("compress");
    assert!(!container.is_empty());
    client.shutdown_server().expect("shutdown acknowledged");

    // `wait` returns once the wire shutdown has drained everything.
    let metrics = server.wait();
    assert_eq!(metrics.completed(), 1);
    assert!(metrics.shards.iter().all(|s| s.in_flight == 0));

    // The listener is gone: new connections are refused (or reset).
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(stream) = refused {
        // Accepted by a lingering backlog at most — it must not serve.
        use std::io::Read;
        let mut probe = stream;
        probe
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert!(
            !probe.read(&mut buf).map(|n| n > 0).unwrap_or(false),
            "a drained server must not answer"
        );
    }
}

// ─────────────────── container-stage negotiation ───────────────────────

#[test]
fn stage_negotiation_serves_v3_to_new_clients_and_v2_to_old_ones() {
    let server = start_server(ServiceConfig::default(), CodecRegistry::rule_based());
    let addr = server.local_addr();
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 32, 16, 16), 71);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let (local, _) = Codec::compress_variable(&sz, variable, 8, None);

    // A stage-era client advertises the stage bit alone, the server echoes
    // it, and compress responses arrive as staged v3 containers —
    // bit-identical to the local v3 encoding.
    let mut staged = ServiceClient::connect(addr).expect("connect");
    let info = staged
        .hello_with_options(&[CodecId::SzLike], true, false)
        .expect("hello");
    assert!(info.stage, "stage-capable pair must negotiate the stage");
    assert!(staged.stage_enabled());
    assert!(!info.profiles, "profiles were not requested");
    assert!(!staged.profiles_enabled());
    let remote_v3 = staged
        .compress("stage/var", variable, 8, None)
        .expect("staged compress");
    assert_eq!(remote_v3, local.encode(), "staged response must be v3");
    assert_eq!(
        u16::from_le_bytes([remote_v3[4], remote_v3[5]]),
        gld_core::container::VERSION
    );

    // A pre-stage client (reserved byte zero, exactly what an old binary
    // sends) transparently gets the stage-free v2 stream its decoder
    // predates the stage for.
    let mut old = ServiceClient::connect(addr).expect("connect");
    let info = old
        .hello_with_options(&[CodecId::SzLike], false, false)
        .expect("hello");
    assert!(!info.stage, "server must not stage for a silent client");
    assert!(!old.stage_enabled());
    let remote_v2 = old
        .compress("stage/var", variable, 8, None)
        .expect("unstaged compress");
    assert_eq!(remote_v2, local.encode_v2(), "old client must receive v2");
    assert_eq!(u16::from_le_bytes([remote_v2[4], remote_v2[5]]), 2);
    assert!(
        remote_v3.len() < remote_v2.len(),
        "the negotiated stage must shrink the response body ({} vs {})",
        remote_v3.len(),
        remote_v2.len()
    );

    // Both containers decompress server-side to identical blocks, whatever
    // session they are sent over.
    let a = staged
        .decompress("stage/var", &remote_v3)
        .expect("decompress v3");
    let b = old
        .decompress("stage/var", &remote_v2)
        .expect("decompress v2");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.data(), y.data(), "staged/unstaged reconstructions differ");
    }

    drop(staged);
    drop(old);
    server.shutdown();
}

#[test]
fn profile_negotiation_serves_v4_warm_containers_and_downgrades_cleanly() {
    let server = start_server(ServiceConfig::default(), CodecRegistry::rule_based());
    let addr = server.local_addr();
    let ds = generate(DatasetKind::S3d, &FieldSpec::new(1, 32, 16, 16), 41);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let target = Some(ErrorTarget::Nrmse(1e-3));

    // A current client's default hello advertises both feature bits; the
    // server echoes both and compress responses arrive as v4 containers —
    // bit-identical to the local profiled encoding.
    let mut warm = ServiceClient::connect(addr).expect("connect");
    let info = warm.hello(&[CodecId::SzLike]).expect("hello");
    assert!(
        info.profiles,
        "profile-capable pair must negotiate profiles"
    );
    assert!(info.stage, "the stage bit is negotiated independently");
    assert!(warm.profiles_enabled());
    let remote_v4 = warm
        .compress("profiles/var", variable, 8, target)
        .expect("profiled compress");
    let (local, _, _) = sz.compress_variable_profiled(variable, 8, target, StreamConfig::default());
    assert_eq!(
        remote_v4,
        local.encode(),
        "profiled response must match the local v4 encoding"
    );
    assert_eq!(
        u16::from_le_bytes([remote_v4[4], remote_v4[5]]),
        gld_core::container::VERSION_V4
    );

    // A warm container must cost no more than the per-frame staged v3
    // stream for the same variable, even carrying its profile table.
    let (cold, _) = Codec::compress_variable(&sz, variable, 8, target);
    let cold_v3 = cold.encode();
    assert!(
        remote_v4.len() <= cold_v3.len(),
        "shared profiles must not grow the container ({} vs {})",
        remote_v4.len(),
        cold_v3.len()
    );

    // A stage-era client that never learned the profile bit is capped at
    // the staged v3 stream; the bits downgrade independently.
    let mut staged = ServiceClient::connect(addr).expect("connect");
    let info = staged
        .hello_with_options(&[CodecId::SzLike], true, false)
        .expect("hello");
    assert!(info.stage && !info.profiles);
    let remote_v3 = staged
        .compress("profiles/var", variable, 8, target)
        .expect("staged compress");
    assert_eq!(remote_v3, cold_v3, "stage-only session must stay on v3");

    // Both containers decompress server-side to identical blocks, whatever
    // session carries them.
    let a = warm
        .decompress("profiles/var", &remote_v4)
        .expect("decompress v4");
    let b = staged
        .decompress("profiles/var", &remote_v3)
        .expect("decompress v3");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.data(), y.data(), "warm/cold reconstructions differ");
    }

    drop(warm);
    drop(staged);
    server.shutdown();
}

// ───────────────────── per-shard profile memo ──────────────────────────

/// The local fresh fit a v4 reply must equal, whatever the shard remembers.
fn fresh_v4(
    codec: &dyn Codec,
    variable: &Variable,
    block_frames: usize,
    target: Option<ErrorTarget>,
) -> Vec<u8> {
    let (container, _, _) =
        codec.compress_variable_profiled(variable, block_frames, target, StreamConfig::default());
    container.encode()
}

#[test]
fn the_profile_memo_never_changes_a_reply_byte() {
    // One shard, so every key below meets the same memo.
    let server = start_server(
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
        CodecRegistry::rule_based(),
    );
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    let info = client.hello(&[CodecId::SzLike]).expect("hello");
    assert!(info.profiles, "the memo only serves v4 sessions");
    let (sz, zfp) = (SzCompressor::new(), ZfpLikeCompressor::new());
    let target = Some(ErrorTarget::Nrmse(1e-3));
    let first = generate(DatasetKind::S3d, &FieldSpec::new(1, 32, 16, 16), 41)
        .variables
        .remove(0);
    let second = generate(DatasetKind::S3d, &FieldSpec::new(1, 32, 16, 16), 43)
        .variables
        .remove(0);

    // Same key, same data: a miss and two hits, one answer.
    let expected = fresh_v4(&sz, &first, 8, target);
    for round in 0..3 {
        let reply = client
            .compress("memo/var", &first, 8, target)
            .expect("compress");
        assert_eq!(reply, expected, "round {round} differs from a fresh fit");
    }
    // Same key, other data: the remembered profile must not be used.
    let reply = client
        .compress("memo/var", &second, 8, target)
        .expect("compress");
    assert_eq!(
        reply,
        fresh_v4(&sz, &second, 8, target),
        "new data, old key"
    );
    assert_ne!(reply, expected);
    // ...and back again, which is a refit too.
    let reply = client
        .compress("memo/var", &first, 8, target)
        .expect("compress");
    assert_eq!(reply, expected, "the first data again");

    // Same key and data, one other input of the fit changed at a time.
    let reply = client
        .compress("memo/var", &first, 4, target)
        .expect("compress");
    assert_eq!(
        reply,
        fresh_v4(&sz, &first, 4, target),
        "block_frames 8 -> 4"
    );
    let reply = client
        .compress("memo/var", &first, 4, None)
        .expect("compress");
    assert_eq!(reply, fresh_v4(&sz, &first, 4, None), "target dropped");
    let reply = client
        .compress_as(CodecId::ZfpLike, "memo/var", &first, 4, None)
        .expect("compress");
    assert_eq!(reply, fresh_v4(&zfp, &first, 4, None), "SZ -> ZFP");
    // The same floats in the same order under other dims: windows of equal
    // length, so only the dims tell the two requests apart.
    let reshaped = Variable::new("memo/var", first.frames.reshape(&[32, 8, 32]));
    let reply = client
        .compress_as(CodecId::ZfpLike, "memo/var", &reshaped, 4, None)
        .expect("compress");
    assert_eq!(reply, fresh_v4(&zfp, &reshaped, 4, None), "dims changed");
    assert_ne!(reply, fresh_v4(&zfp, &first, 4, None));

    drop(client);
    server.shutdown();
}

/// SZ behind counters, registered in a server's registry: every call the
/// shard makes through the `Codec` trait is counted on the server's side.
#[derive(Default)]
struct CountingSz {
    inner: SzCompressor,
    measured: AtomicUsize,
    plain: AtomicUsize,
}

impl CountingSz {
    /// `(measured compresses, plain compresses)` since the last call.
    fn take(&self) -> (usize, usize) {
        (
            self.measured.swap(0, Ordering::SeqCst),
            self.plain.swap(0, Ordering::SeqCst),
        )
    }
}

impl Codec for CountingSz {
    fn name(&self) -> &str {
        "counting-sz"
    }
    fn id(&self) -> CodecId {
        CodecId::SzLike
    }
    fn encode(
        &self,
        job: &BlockJob<'_>,
        scratch: &mut CodecScratch,
    ) -> Result<EncodedBlock, CodecError> {
        let counter = match job.measure {
            true => &self.measured,
            false => &self.plain,
        };
        counter.fetch_add(1, Ordering::SeqCst);
        self.inner.encode(job, scratch)
    }
    fn frame_model(&self, frame: &[u8]) -> Option<HistogramModel> {
        self.inner.frame_model(frame)
    }
    fn decode(&self, frame: &[u8], model: Option<&HistogramModel>) -> Result<Tensor, CodecError> {
        self.inner.decode(frame, model)
    }
}

#[test]
fn a_memo_hit_compresses_each_window_once_and_the_memo_stays_bounded() {
    /// What `fit_variable_profile` costs SZ: the sampled windows cold, then
    /// window 0 again under the pooled model.
    const FIT: usize = 5;
    const WINDOWS: usize = 4;
    /// `PROFILE_MEMO_CAPACITY` in `gld-service`'s `server.rs`.
    const CAPACITY: usize = 16;

    let counting = Arc::new(CountingSz::default());
    let mut registry = CodecRegistry::new();
    registry.register(Arc::clone(&counting) as Arc<dyn Codec + Send + Sync>);
    let server = start_server(
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
        registry,
    );
    let addr = server.local_addr();
    let variable = generate(DatasetKind::E3sm, &FieldSpec::new(1, 16, 8, 8), 7)
        .variables
        .remove(0);
    let expected = fresh_v4(&SzCompressor::new(), &variable, 4, None);
    let session = |stage: bool, profiles: bool| {
        let mut client = ServiceClient::connect(addr).expect("connect");
        let info = client
            .hello_with_options(&[CodecId::SzLike], stage, profiles)
            .expect("hello");
        assert_eq!((info.stage, info.profiles), (stage, profiles));
        client
    };
    let mut v4 = session(true, true);
    let request = |client: &mut ServiceClient, key: &str| {
        let reply = client.compress(key, &variable, 4, None).expect("compress");
        (reply, counting.take())
    };

    // v2 and v3 sessions never fit, so they neither read nor feed the memo:
    // the same key's first v4 request afterwards still pays the whole fit.
    let mut v2 = session(false, false);
    let mut v3 = session(true, false);
    for _ in 0..2 {
        assert_eq!(request(&mut v2, "memo/k").1, (WINDOWS, 0));
        assert_eq!(request(&mut v3, "memo/k").1, (WINDOWS, 0));
    }
    // Miss: the fit's compressions, then one measured encode per window.
    // Hit: the encodes alone.
    let (reply, counts) = request(&mut v4, "memo/k");
    assert_eq!((reply, counts), (expected.clone(), (WINDOWS, FIT)));
    for _ in 0..3 {
        let (reply, counts) = request(&mut v4, "memo/k");
        assert_eq!((reply, counts), (expected.clone(), (WINDOWS, 0)));
    }

    // A thousand distinct keys, each a miss; every reply is the fresh fit.
    for k in 0..1000 {
        let (reply, counts) = request(&mut v4, &format!("memo/distinct/{k}"));
        assert_eq!(counts, (WINDOWS, FIT), "key {k} was never seen");
        assert_eq!(reply, expected, "key {k}");
    }
    // The memo now holds exactly the last CAPACITY of them: those hit (from
    // the oldest up, so each hit only reorders), and the one before them —
    // like the hot key from the start — has been evicted.
    for k in 1000 - CAPACITY..1000 {
        let (_, counts) = request(&mut v4, &format!("memo/distinct/{k}"));
        assert_eq!(counts, (WINDOWS, 0), "key {k} is among the last {CAPACITY}");
    }
    for evicted in [
        format!("memo/distinct/{}", 1000 - CAPACITY - 1),
        "memo/k".into(),
    ] {
        let (reply, counts) = request(&mut v4, &evicted);
        assert_eq!(
            (reply, counts),
            (expected.clone(), (WINDOWS, FIT)),
            "{evicted}"
        );
    }

    drop((v2, v3, v4));
    server.shutdown();
}

#[test]
fn unknown_feature_bits_in_hello_do_not_break_the_session() {
    // A hypothetical future client advertising feature bits this server
    // does not know must still negotiate fine (the reserved-byte relaxation
    // this stage negotiation is built on).
    let server = start_server(ServiceConfig::default(), CodecRegistry::rule_based());
    let addr = server.local_addr();

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let hello = gld_service::protocol::HelloRequest {
        proposals: vec![CodecId::SzLike as u8],
    };
    let body = hello.encode_body();
    let header = FrameHeader::request(Op::Hello, 0, 9, body.len() as u64)
        .with_ext(protocol::EXT_CONTAINER_STAGE | 0b1111_0000);
    protocol::write_frame(&mut stream, &header, &body).expect("write hello");
    let (response, _) = protocol::read_frame(&mut stream, protocol::MAX_BODY_LEN)
        .expect("read")
        .expect("decode");
    assert_eq!(response.status, Status::Ok);
    assert_eq!(
        response.ext & protocol::EXT_CONTAINER_STAGE,
        protocol::EXT_CONTAINER_STAGE,
        "the known bit is echoed; unknown bits are ignored"
    );
    assert_eq!(
        response.ext & 0b1111_0000,
        0,
        "the server must not echo bits it does not understand"
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn pre_range_coder_containers_get_a_typed_service_refusal() {
    // A client replaying a stored PR-3-era learned-codec stream (v1
    // framing) must get the named cross-build diagnostic, not garbage or an
    // Internal panic status.
    let mut registry = CodecRegistry::rule_based();
    registry.register(Arc::new(untrained_compressor()));
    let server = start_server(ServiceConfig::default(), registry);
    let addr = server.local_addr();

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 16, 16, 16), 73);
    let gld = untrained_compressor();
    let (container, _) = Codec::compress_variable(&gld, &ds.variables[0], 8, None);
    let legacy = container.encode_v1();

    let mut client = ServiceClient::connect(addr).expect("connect");
    match client.decompress("legacy/var", &legacy) {
        Err(ClientError::Server { status, message }) => {
            assert_eq!(status, Status::BadContainer);
            assert!(
                message.contains("pre-range-coder"),
                "diagnostic must name the incompatibility: {message}"
            );
        }
        other => panic!("expected a typed BadContainer refusal, got {other:?}"),
    }
    // The connection keeps serving after the refusal.
    client.ping().expect("connection still alive");
    drop(client);
    server.shutdown();
}

#[test]
fn a_frame_declaring_a_2_15_cubed_block_gets_a_typed_service_refusal() {
    // A CRC-valid SZ container whose one frame declares a 2¹⁵ × 2¹⁵ × 2¹⁵
    // block: the payload reader refuses the shape before any buffer is
    // sized from it, so the server answers BadContainer instead of
    // aborting on a 128 TiB allocation.
    let server = start_server(ServiceConfig::default(), CodecRegistry::rule_based());
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 16, 16), 79);
    let (container, _) = Codec::compress_variable(&SzCompressor::new(), &ds.variables[0], 8, None);
    let mut frame = container.blocks()[0].clone();
    assert_eq!(frame[1], 3, "codec byte, then a rank-3 shape");
    for at in [2, 6, 10] {
        frame[at..at + 4].copy_from_slice(&(1u32 << 15).to_le_bytes());
    }
    let hostile = Container::from_blocks(CodecId::SzLike, vec![frame]).encode_v2();

    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    match client.decompress("hostile/var", &hostile) {
        Err(ClientError::Server { status, message }) => {
            assert_eq!(status, Status::BadContainer);
            assert!(message.contains("shape"), "names the shape: {message}");
        }
        other => panic!("expected a typed BadContainer refusal, got {other:?}"),
    }
    client.ping().expect("connection still alive");
    drop(client);
    assert_eq!(server.codec_panics(), 0);
    server.shutdown();
}

#[test]
fn hello_downgrades_to_stage_free_against_a_pre_stage_server() {
    // A faithful stand-in for a server built before the stage bit existed:
    // any non-zero reserved byte is a framing violation — answer a
    // best-effort error frame (op Ping, request id 0, exactly the old
    // code's `respond_error` on a RawFrameHeader failure) and close.  A
    // zero reserved byte negotiates normally.  The upgraded client's
    // `hello` must absorb the rejection, re-dial, and come back with a
    // stage-free session instead of an error.
    use std::io::{Read as _, Write as _};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut header = [0u8; protocol::HEADER_LEN];
            stream.read_exact(&mut header).expect("read header");
            if header[9..16].iter().any(|&b| b != 0) {
                let message = b"non-zero reserved header bytes";
                let response =
                    FrameHeader::response(Op::Ping, 0, Status::Malformed, 0, message.len() as u64);
                stream.write_all(&response.encode()).unwrap();
                stream.write_all(message).unwrap();
                continue; // close: the stream position cannot be trusted
            }
            let decoded = protocol::FrameHeader::decode(&header).expect("valid header");
            let mut body = vec![0u8; decoded.body_len as usize];
            stream.read_exact(&mut body).expect("read body");
            let request =
                gld_service::protocol::HelloRequest::decode_body(&body).expect("hello body");
            let info = gld_service::protocol::HelloResponse {
                shards: 1,
                shard_window: 1,
                queue_depth: 1,
            };
            let payload = info.encode_body();
            let response = FrameHeader::response(
                Op::Hello,
                request.proposals[0],
                Status::Ok,
                decoded.request_id,
                payload.len() as u64,
            );
            stream.write_all(&response.encode()).unwrap();
            stream.write_all(&payload).unwrap();
        }
    });

    let mut client = ServiceClient::connect(addr).expect("connect");
    let info = client
        .hello(&[CodecId::SzLike])
        .expect("hello must downgrade");
    assert_eq!(info.codec, CodecId::SzLike);
    assert!(
        !info.stage,
        "a pre-stage server can only yield a stage-free session"
    );
    assert!(!client.stage_enabled());
    old_server.join().expect("old-server thread");
}
