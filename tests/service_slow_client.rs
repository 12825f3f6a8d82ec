//! Slow-client robustness: the event-loop front end must keep one
//! misbehaving connection's cost confined to that connection.
//!
//! * A client trickling one byte per poll tick only backpressures itself —
//!   a concurrent well-behaved client finishes all its work long before the
//!   trickled frame even completes.
//! * A client that declares a body and stalls mid-body is never admitted to
//!   a shard (no in-flight slot, no completion) and never blocks others.
//! * A half-closed socket (client `shutdown(Write)` after its request)
//!   still receives its response, then is reaped without leaking a
//!   connection slot.

use gld_baselines::SzCompressor;
use gld_core::{Codec, CodecId};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_service::protocol::{self, CompressRequest, FrameHeader, Op, Status, MAX_BODY_LEN};
use gld_service::{CodecRegistry, Server, ServiceClient, ServiceConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn start_server(config: ServiceConfig) -> Server {
    Server::start(config, CodecRegistry::rule_based()).expect("bind an ephemeral port")
}

fn poll_until(what: &str, deadline: Duration, mut check: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !check() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A raw compress frame (header + body) for `variable`, explicit codec byte.
fn raw_compress_frame(key: &str, seed: u64) -> Vec<u8> {
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), seed);
    let frames = &ds.variables[0].frames;
    let body = CompressRequest {
        key: key.to_string(),
        block_frames: 4,
        target: None,
        dims: [
            frames.dim(0) as u32,
            frames.dim(1) as u32,
            frames.dim(2) as u32,
        ],
        data: frames.data().to_vec(),
    }
    .encode_body();
    let header = FrameHeader::request(Op::Compress, CodecId::SzLike as u8, 1, body.len() as u64);
    let mut frame = header.encode().to_vec();
    frame.extend_from_slice(&body);
    frame
}

#[test]
fn one_byte_per_tick_client_only_backpressures_itself() {
    let server = start_server(ServiceConfig::default());
    let addr = server.local_addr();

    // The trickler: a ping frame at one byte per 30ms — over 900ms for the
    // 32-byte header.  Returns the instant its pong finally arrived.
    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect slow");
        let frame = FrameHeader::request(Op::Ping, 0, 77, 0).encode();
        for byte in frame {
            stream.write_all(&[byte]).expect("write one byte");
            std::thread::sleep(Duration::from_millis(30));
        }
        let (header, _) = protocol::read_frame(&mut stream, MAX_BODY_LEN)
            .expect("read pong")
            .expect("decode pong");
        assert_eq!(header.request_id, 77);
        assert_eq!(header.status, Status::Ok);
        Instant::now()
    });

    // Meanwhile a well-behaved client round-trips real work, unhindered.
    let sz = SzCompressor::new();
    let mut client = ServiceClient::connect(addr).expect("connect fast");
    client.hello(&[CodecId::SzLike]).expect("hello");
    for i in 0..10 {
        let ds = generate(DatasetKind::Jhtdb, &FieldSpec::new(1, 16, 8, 8), i);
        let remote = client
            .compress_as(
                CodecId::SzLike,
                &format!("fast/{i}"),
                &ds.variables[0],
                4,
                None,
            )
            .expect("compress while the trickler trickles");
        let (local, _, _) = sz.compress_variable_profiled(
            &ds.variables[0],
            4,
            None,
            gld_core::StreamConfig::default(),
        );
        assert_eq!(remote, local.encode(), "fast path stays bit-identical");
    }
    let fast_done = Instant::now();

    let pong_at = slow.join().expect("slow client thread");
    assert!(
        fast_done < pong_at,
        "all fast-client work must finish before the trickled ping completes"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn mid_body_staller_is_never_admitted_and_never_blocks_others() {
    let server = start_server(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let addr = server.local_addr();

    // Declare a full compress body, send only half of it, then stall with
    // the socket held open.
    let frame = raw_compress_frame("staller", 5);
    let mut staller = TcpStream::connect(addr).expect("connect staller");
    staller
        .write_all(&frame[..frame.len() / 2])
        .expect("write half a frame");
    poll_until(
        "the staller's bytes to land",
        Duration::from_secs(10),
        || server.metrics().connections_active == 1,
    );

    // Others flow normally across both shards.
    let mut client = ServiceClient::connect(addr).expect("connect");
    client.hello(&[CodecId::SzLike]).expect("hello");
    const REQUESTS: usize = 6;
    for i in 0..REQUESTS {
        let ds = generate(
            DatasetKind::S3d,
            &FieldSpec::new(1, 16, 8, 8),
            50 + i as u64,
        );
        let remote = client
            .compress_as(
                CodecId::SzLike,
                &format!("ok/{i}"),
                &ds.variables[0],
                4,
                None,
            )
            .expect("compress beside the staller");
        let blocks = client
            .decompress(&format!("ok/{i}"), &remote)
            .expect("decompress beside the staller");
        assert!(!blocks.is_empty());
    }

    // The stalled request was never admitted: no slot held, nothing beyond
    // the well-behaved client's work completed.
    let during = server.metrics();
    assert_eq!(
        during.completed(),
        REQUESTS as u64 * 2,
        "only the well-behaved client's requests complete: {during:?}"
    );
    assert!(
        during.shards.iter().all(|s| s.in_flight == 0),
        "a mid-body stall must not hold an admission slot: {during:?}"
    );
    assert_eq!(during.connections_active, 2);

    // Hanging up mid-body reaps the connection without ceremony.
    drop(staller);
    poll_until("the staller to be reaped", Duration::from_secs(10), || {
        server.metrics().connections_active == 1
    });
    drop(client);
    server.shutdown();
}

#[test]
fn half_closed_socket_gets_its_response_then_is_reaped() {
    let server = start_server(ServiceConfig::default());
    let addr = server.local_addr();

    let frame = raw_compress_frame("half-closed", 9);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&frame).expect("write full request");
    stream
        .shutdown(Shutdown::Write)
        .expect("half-close the write side");

    // The response still arrives on the half-open socket, bit-identical to
    // the session-free (v2) encoding a hello-less connection negotiates.
    let (header, body) = protocol::read_frame(&mut stream, MAX_BODY_LEN)
        .expect("read response")
        .expect("decode response");
    assert_eq!(header.status, Status::Ok);
    assert_eq!(header.request_id, 1);
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), 9);
    let (local, _) = SzCompressor::new().compress_variable(&ds.variables[0], 4, None);
    assert_eq!(body, local.encode_v2(), "hello-less response must be v2");

    // ...after which the server reaps the connection entirely on its own.
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("server closes cleanly");
    assert!(rest.is_empty(), "nothing after the response");
    poll_until(
        "the half-closed conn to be reaped",
        Duration::from_secs(10),
        || {
            let m = server.metrics();
            m.connections_active == 0 && m.shards.iter().all(|s| s.in_flight == 0)
        },
    );
    server.shutdown();
}
