//! End-to-end coverage for the observability layer: the `--metrics-addr`
//! Prometheus endpoint cross-checked against the wire `Status` summaries,
//! the per-stage latency decomposition of the op histograms, the
//! backward-compatible summaries negotiation, the flight recorder, and the
//! per-block decode span and histogram under `decompress_container`.
//!
//! The latency histograms live in the **process-global** registry, so every
//! test here works with cumulative totals (both sides of each comparison
//! read the same histograms) and the tests serialize on one mutex so no
//! GLDS request is mid-flight while a test reads the registry.

use gld_baselines::SzCompressor;
use gld_core::{Codec, CodecId};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_service::protocol::{self, FrameHeader, Op, StatusResponse};
use gld_service::{CodecRegistry, Server, ServiceClient, ServiceConfig, ShardRouter};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes the tests in this binary: the registry is process-global, and
/// the stage-sum identity below only holds when no request is in flight.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn start_server(config: ServiceConfig) -> Server {
    Server::start(
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: Some("127.0.0.1:0".into()),
            ..config
        },
        CodecRegistry::rule_based(),
    )
    .expect("start server")
}

/// One HTTP/1.0 GET against the metrics endpoint, returning the exposition
/// body — the same scrape CI's smoke job performs with curl.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP header/body split");
    assert!(
        head.starts_with("HTTP/1.0 200"),
        "endpoint refused the scrape: {head}"
    );
    assert!(
        head.contains("text/plain"),
        "exposition content type missing: {head}"
    );
    body.to_string()
}

#[test]
fn metrics_endpoint_cross_checks_the_wire_status_summaries() {
    let _guard = obs_lock();
    let server = start_server(ServiceConfig::default());
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("endpoint is up");

    let mut client = ServiceClient::connect(addr).expect("connect");
    client.hello(&[CodecId::SzLike]).expect("hello");
    for _ in 0..20 {
        client.ping().expect("ping");
    }
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), 11);
    client
        .compress_as(CodecId::SzLike, "obs/x", &ds.variables[0], 4, None)
        .expect("compress");

    // The wire summaries and the scrape read the same cumulative
    // histograms; with no traffic between the two reads (the status
    // request itself is the only moving part, and its own response has
    // flushed by the time `status()` returns) every non-status row must
    // agree exactly.
    let status = client.status().expect("status with summaries");
    let summaries = status.summaries.expect("server echoes the summaries bit");
    assert!(!summaries.ops.is_empty(), "served ops produce summary rows");
    let body = scrape(metrics_addr);

    for row in &summaries.ops {
        let op = Op::from_u8(row.op).expect("summary rows carry valid ops");
        if op == Op::Status {
            // The in-flight status request itself lands in the histogram
            // after its summaries were built; its row lags the scrape.
            continue;
        }
        let name = match op {
            Op::Hello => "hello",
            Op::Compress => "compress",
            Op::Decompress => "decompress",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
            Op::Status => unreachable!(),
        };
        let needle = format!("op=\"{name}\"");
        let count = protocol_scrape(&body, "glds_request_duration_ns", "_count", &[&needle])
            .unwrap_or_else(|| panic!("endpoint misses the {name} histogram"));
        assert_eq!(count as u64, row.count, "{name}: count disagrees");
        for (q, expected) in [("0.5", row.p50_ns), ("0.99", row.p99_ns)] {
            let got = protocol_scrape(
                &body,
                "glds_request_duration_ns",
                "_quantile",
                &[&needle, &format!("q=\"{q}\"")],
            )
            .unwrap_or_else(|| panic!("endpoint misses the {name} q={q} gauge"));
            assert_eq!(got as u64, expected, "{name}: q={q} disagrees");
        }
    }

    // The service families the smoke job requires are all present.
    for family in [
        "glds_request_duration_ns",
        "glds_stage_duration_ns",
        "glds_connections_active",
        "glds_connections_opened_total",
        "glds_requests_completed_total",
        "glds_requests_rejected_total",
        "glds_requests_rate_limited_total",
        "glds_deadlines_exceeded_total",
        "glds_rejected_other_total",
        "glds_shard_in_flight",
    ] {
        assert!(
            body.contains(&format!("# TYPE {family} ")),
            "family {family} missing from the exposition"
        );
    }
    // ...and the endpoint's roll-up matches the wire trailer's cause split.
    let rejected = protocol_scrape(&body, "glds_requests_rejected_total", "", &[]).unwrap();
    let rate_limited = protocol_scrape(&body, "glds_requests_rate_limited_total", "", &[]).unwrap();
    let deadlines = protocol_scrape(&body, "glds_deadlines_exceeded_total", "", &[]).unwrap();
    let other = protocol_scrape(&body, "glds_rejected_other_total", "", &[]).unwrap();
    assert_eq!(rejected, rate_limited + deadlines + other);
    assert_eq!(other as u64, summaries.rejected_other);

    drop(client);
    server.shutdown();
}

/// `gld_obs::registry::scrape_value`, re-exported under a test-local name
/// so the assertions read as "scrape the endpoint".
fn protocol_scrape(text: &str, family: &str, suffix: &str, needles: &[&str]) -> Option<f64> {
    gld_obs::registry::scrape_value(text, family, suffix, needles)
}

#[test]
fn stage_sums_decompose_the_op_totals_within_ten_percent() {
    let _guard = obs_lock();
    let server = start_server(ServiceConfig::default());
    let addr = server.local_addr();

    let ds = generate(DatasetKind::S3d, &FieldSpec::new(1, 16, 16, 16), 13);
    let mut client = ServiceClient::connect(addr).expect("connect");
    client.hello(&[CodecId::SzLike]).expect("hello");
    for i in 0..8 {
        client
            .compress_as(
                CodecId::SzLike,
                &format!("decomp/{i}"),
                &ds.variables[0],
                8,
                None,
            )
            .expect("compress");
        client.ping().expect("ping");
    }
    drop(client);
    server.shutdown();

    // Every response in this process has flushed (the servers above are
    // drained), so the per-request identity
    //   total = parse + queue_wait + execute + write
    // — enforced by construction with shared boundary timestamps — must
    // survive summation over all requests.  10% is the acceptance bound;
    // the sums in practice agree to the nanosecond.
    let ops = [
        "hello",
        "compress",
        "decompress",
        "ping",
        "shutdown",
        "status",
    ];
    let total: u64 = ops
        .iter()
        .map(|op| {
            gld_obs::registry::histogram("glds_request_duration_ns", &[("op", op)])
                .snapshot()
                .sum
        })
        .sum();
    let stages = ["parse", "queue_wait", "execute", "write"];
    let stage_sum: u64 = stages
        .iter()
        .map(|stage| {
            gld_obs::registry::histogram("glds_stage_duration_ns", &[("stage", stage)])
                .snapshot()
                .sum
        })
        .sum();
    assert!(total > 0, "the run recorded op totals");
    let diff = total.abs_diff(stage_sum) as f64;
    assert!(
        diff <= 0.10 * total as f64,
        "stage sums {stage_sum} ns fail to decompose op totals {total} ns within 10%"
    );
}

#[test]
fn profile_memo_counters_account_for_every_v4_compress() {
    /// `PROFILE_MEMO_CAPACITY` in `gld-service`'s `server.rs`.
    const CAPACITY: usize = 16;
    const SHARDS: usize = 2;
    let _guard = obs_lock();
    // Per-shard counters in the process-global registry: cumulative across
    // every server of this binary, so the test reads differences.
    let memo = |event: &str, shard: usize| {
        let family = format!("glds_profile_memo_{event}_total");
        gld_obs::registry::counter(&family, &[("shard", &shard.to_string())]).get()
    };
    let totals = || {
        ["hits", "misses", "evictions"]
            .map(|event| (0..SHARDS).map(|s| memo(event, s)).sum::<u64>())
    };
    let before = totals();

    let server = start_server(ServiceConfig {
        shards: SHARDS,
        ..ServiceConfig::default()
    });
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), 29);
    let variable = &ds.variables[0];
    let mut v4 = ServiceClient::connect(server.local_addr()).expect("connect");
    assert!(v4.hello(&[CodecId::SzLike]).expect("hello").profiles);
    let mut v3 = ServiceClient::connect(server.local_addr()).expect("connect");
    v3.hello_with_options(&[CodecId::SzLike], true, false)
        .expect("hello");

    // One hot key five times, sixty keys once each, and three v3 requests
    // that must not count.
    let mut inserts = [0usize; SHARDS];
    for _ in 0..5 {
        v4.compress("memo/hot", variable, 4, None)
            .expect("compress");
    }
    inserts[ShardRouter::hash_shard("memo/hot", SHARDS)] += 1;
    for k in 0..60 {
        let key = format!("memo/once/{k}");
        v4.compress(&key, variable, 4, None).expect("compress");
        inserts[ShardRouter::hash_shard(&key, SHARDS)] += 1;
        if k % 20 == 0 {
            v3.compress(&key, variable, 4, None).expect("compress");
        }
    }
    let [hits, misses, evictions] = {
        let after = totals();
        [0, 1, 2].map(|i| after[i] - before[i])
    };
    assert_eq!(hits + misses, 65, "every v4 compress is a hit or a miss");
    assert_eq!((hits, misses), (4, 61));
    let expected: usize = inserts.iter().map(|n| n.saturating_sub(CAPACITY)).sum();
    assert!(expected > 0, "sixty keys over two shards overflow a memo");
    assert_eq!(
        evictions as usize, expected,
        "evictions == inserts - capacity"
    );

    // The endpoint renders the same counters, shard by shard.
    let body = scrape(server.metrics_addr().expect("endpoint is up"));
    for event in ["hits", "misses", "evictions"] {
        let family = format!("glds_profile_memo_{event}_total");
        assert!(body.contains(&format!("# TYPE {family} counter")));
        for shard in 0..SHARDS {
            let needle = format!("shard=\"{shard}\"");
            let scraped = protocol_scrape(&body, &family, "", &[&needle]);
            assert_eq!(
                scraped,
                Some(memo(event, shard) as f64),
                "{family} {needle}"
            );
        }
    }

    drop((v4, v3));
    server.shutdown();
}

#[test]
fn legacy_status_requests_still_get_the_bare_body() {
    let _guard = obs_lock();
    let server = start_server(ServiceConfig::default());
    let addr = server.local_addr();

    // A hand-rolled status request WITHOUT the summaries bit: the response
    // must not echo the bit and must decode to a trailer-free body —
    // byte-compatible with pre-summaries clients.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let header = FrameHeader::request(Op::Status, 0, 7, 0);
    protocol::write_frame(&mut stream, &header, &[]).expect("write status frame");
    stream.flush().expect("flush");
    let (response, body) = protocol::read_frame(&mut stream, protocol::MAX_BODY_LEN)
        .expect("read frame")
        .expect("response frame");
    assert_eq!(response.request_id, 7);
    assert_eq!(
        response.ext & protocol::EXT_STATUS_SUMMARIES,
        0,
        "server must not volunteer the summaries bit"
    );
    let decoded = StatusResponse::decode_body(&body).expect("legacy body decodes");
    assert!(decoded.summaries.is_none(), "no trailer without the bit");

    // The negotiating client on the same server gets the trailer.
    let mut client = ServiceClient::connect(addr).expect("connect");
    let status = client.status().expect("status");
    assert!(status.summaries.is_some(), "negotiated trailer present");

    drop(stream);
    drop(client);
    server.shutdown();
}

#[test]
fn flight_recorder_dumps_spans_and_logs_as_json_lines() {
    let _guard = obs_lock();
    let dir = std::env::temp_dir().join(format!("gld-obs-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("flight.jsonl");
    let path_str = path.to_string_lossy().into_owned();

    gld_obs::flight::set_dump_path(Some(path_str.clone()));
    {
        let _span = gld_obs::span::SpanGuard::enter("flight.test", 1, 2);
    }
    gld_obs::log::emit(
        gld_obs::Level::Info,
        "flight-test",
        vec![("conn", "1".to_string())],
        "about to dump".to_string(),
    );
    let rendered = gld_obs::flight::dump("observability-test");
    gld_obs::flight::set_dump_path(None);

    let on_disk = std::fs::read_to_string(&path).expect("dump file written");
    assert_eq!(on_disk, rendered, "file carries the rendered record");
    let mut lines = on_disk.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("\"kind\":\"flight\""), "{header}");
    assert!(header.contains("observability-test"), "{header}");
    assert!(
        on_disk
            .lines()
            .any(|l| l.contains("\"kind\":\"span\"") && l.contains("flight.test")),
        "span feed present"
    );
    assert!(
        on_disk
            .lines()
            .any(|l| l.contains("\"kind\":\"log\"") && l.contains("about to dump")),
        "log feed present"
    );
    // Every line is an object: JSON-lines, parseable one at a time.
    for line in on_disk.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_decoded_block_records_one_span_and_one_histogram_sample() {
    // Under the lock no server of this binary is decoding, so the global
    // histogram moves only by what this test decodes.
    let _guard = obs_lock();
    let sz = SzCompressor::new();
    let decode_ns = gld_obs::registry::histogram("gld_block_decode_ns", &[]);
    for blocks in [1usize, 4, 9] {
        let ds = generate(
            DatasetKind::E3sm,
            &FieldSpec::new(1, blocks * 8, 16, 16),
            97,
        );
        let (container, _) = Codec::compress_variable(&sz, &ds.variables[0], 8, None);
        let since_ns = gld_obs::now_ns();
        let before = decode_ns.count();
        sz.decompress_container(&container)
            .expect("codec id matches");
        assert_eq!(decode_ns.count() - before, blocks as u64);
        // Whichever threads decoded them, the call's spans name each block
        // index exactly once.
        let mut indices: Vec<u64> = gld_obs::span::collect()
            .iter()
            .filter(|e| e.name == "block.decode" && e.start_ns >= since_ns)
            .map(|e| e.req)
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..blocks as u64).collect::<Vec<_>>());
    }
}
