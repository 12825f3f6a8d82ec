//! End-to-end coverage for the observability layer: the `--metrics-addr`
//! Prometheus endpoint cross-checked against the wire `Status` summaries,
//! the per-stage latency decomposition of the op histograms, the
//! backward-compatible summaries negotiation, two servers in one process
//! keeping their counts apart, every endpoint counter equal to its `Status`
//! field, the flight recorder, and the per-block decode span and histogram
//! under `decompress_container`.
//!
//! Every server counts into a registry of its own — its `glds_*` counters,
//! gauges and latency histograms, and its shards' profile-memo counters —
//! so the tests here read one server's endpoint and its `Status` and see
//! only that server's traffic.  Only the codec-layer families (such as
//! `gld_block_decode_ns`) live in the process-global registry; the tests
//! serialize on one mutex so no decode is mid-flight while a test reads it.

use gld_baselines::SzCompressor;
use gld_core::{Codec, CodecId};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_service::protocol::{self, FrameHeader, Op, StatusResponse};
use gld_service::{
    CodecRegistry, RateLimit, Reply, Server, ServiceClient, ServiceConfig, ShardRouter, Status,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes the tests in this binary: the codec-layer registry is
/// process-global.
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
        let name = op.name();
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

/// Waits until the server has closed every connection: by then every
/// response it wrote has flushed and recorded its total and its stages, and
/// nothing it counts moves any more.
fn wait_until_no_connections(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().connections_active > 0 {
        assert!(Instant::now() < deadline, "connections never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
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
    wait_until_no_connections(&server);
    let body = scrape(server.metrics_addr().expect("endpoint is up"));
    server.shutdown();

    // Every response of this server has flushed, so the per-request identity
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
    let sum = |family: &str, label: &str, values: &[&str]| -> u64 {
        values
            .iter()
            .map(|value| {
                let needle = format!("{label}=\"{value}\"");
                protocol_scrape(&body, family, "_sum", &[&needle])
                    .unwrap_or_else(|| panic!("endpoint misses {family} {needle}"))
                    as u64
            })
            .sum()
    };
    let total = sum("glds_request_duration_ns", "op", &ops);
    let stages = ["parse", "queue_wait", "execute", "write"];
    let stage_sum = sum("glds_stage_duration_ns", "stage", &stages);
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
    // Per-shard counters of this server alone, read off its endpoint.
    let body = scrape(server.metrics_addr().expect("endpoint is up"));
    let memo = |event: &str, shard: usize| {
        let family = format!("glds_profile_memo_{event}_total");
        let needle = format!("shard=\"{shard}\"");
        protocol_scrape(&body, &family, "", &[&needle])
            .unwrap_or_else(|| panic!("endpoint misses {family} {needle}")) as u64
    };
    let [hits, misses, evictions] =
        ["hits", "misses", "evictions"].map(|event| (0..SHARDS).map(|s| memo(event, s)).sum());
    assert_eq!(hits + misses, 65, "every v4 compress is a hit or a miss");
    assert_eq!((hits, misses), (4, 61));
    let expected: usize = inserts.iter().map(|n| n.saturating_sub(CAPACITY)).sum();
    assert!(expected > 0, "sixty keys over two shards overflow a memo");
    assert_eq!(
        evictions as usize, expected,
        "evictions == inserts - capacity"
    );

    // The endpoint renders them as counters, one series per shard.
    for event in ["hits", "misses", "evictions"] {
        let family = format!("glds_profile_memo_{event}_total");
        assert!(body.contains(&format!("# TYPE {family} counter")));
    }

    drop((v4, v3));
    server.shutdown();
}

#[test]
fn two_servers_in_one_process_report_only_their_own_traffic() {
    let _guard = obs_lock();
    let busy = start_server(ServiceConfig::default());
    let quiet = start_server(ServiceConfig::default());
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), 31);
    let mut client = ServiceClient::connect(busy.local_addr()).expect("connect");
    assert!(client.hello(&[CodecId::SzLike]).expect("hello").profiles);
    client.ping().expect("ping");
    client
        .compress("two/x", &ds.variables[0], 4, None)
        .expect("compress");
    let busy_status = client.status().expect("status");
    let busy_summaries = busy_status.summaries.expect("summaries trailer");
    assert!(busy_summaries.op(Op::Ping).is_some() && busy_summaries.op(Op::Compress).is_some());

    // The quiet server saw one status request and nothing else.
    let mut observer = ServiceClient::connect(quiet.local_addr()).expect("connect");
    let summaries = observer
        .status()
        .expect("status")
        .summaries
        .expect("trailer");
    assert!(
        summaries.op(Op::Ping).is_none() && summaries.op(Op::Compress).is_none(),
        "the quiet server reports another server's traffic: {summaries:?}"
    );
    let body = scrape(quiet.metrics_addr().expect("endpoint is up"));
    let pings = protocol_scrape(
        &body,
        "glds_request_duration_ns",
        "_count",
        &["op=\"ping\""],
    );
    assert_eq!(pings.unwrap_or(0.0), 0.0, "the quiet endpoint counts pings");
    for event in ["hits", "misses", "evictions"] {
        let family = format!("glds_profile_memo_{event}_total");
        for line in body.lines().filter(|line| line.starts_with(&family)) {
            assert!(
                line.ends_with(" 0"),
                "the quiet endpoint counts memo use: {line}"
            );
        }
    }

    drop((client, observer));
    busy.shutdown();
    quiet.shutdown();
}

/// Every `glds_*` counter and gauge the endpoint renders, as `(series,
/// value)`, with the histogram families and the profile-memo counters (which
/// `Status` does not carry) left out.
fn status_backed_series(body: &str) -> Vec<(String, u64)> {
    let mut series: Vec<(String, u64)> = body
        .lines()
        .filter(|line| line.starts_with("glds_"))
        .filter(|line| !line.contains("_duration_ns") && !line.starts_with("glds_profile_memo_"))
        .map(|line| {
            let (name, value) = line.rsplit_once(' ').expect("series and value");
            (name.to_string(), value.parse().expect("integer value"))
        })
        .collect();
    series.sort();
    series
}

/// The same series, spelled from a `Status`.
fn series_of(status: &StatusResponse) -> Vec<(String, u64)> {
    let mut series: Vec<(String, u64)> = [
        ("glds_blocks_total", status.blocks()),
        ("glds_connections_active", status.connections_active),
        ("glds_connections_opened_total", status.connections_opened),
        ("glds_connections_reaped_idle_total", status.reaped_idle),
        ("glds_deadlines_exceeded_total", status.deadlines_exceeded),
        ("glds_faults_injected_total", status.faults_injected),
        ("glds_rejected_other_total", status.rejected_other()),
        ("glds_requests_completed_total", status.completed()),
        ("glds_requests_rate_limited_total", status.rate_limited),
        ("glds_requests_rejected_total", status.requests_rejected),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();
    for (index, shard) in status.shards.iter().enumerate() {
        for (family, value) in [
            ("glds_shard_admitted_total", shard.admitted),
            ("glds_shard_blocks_total", shard.blocks),
            ("glds_shard_bytes_in_total", shard.bytes_in),
            ("glds_shard_bytes_out_total", shard.bytes_out),
            ("glds_shard_completed_total", shard.completed),
            ("glds_shard_in_flight", shard.in_flight),
            ("glds_shard_peak_in_flight", shard.peak_in_flight),
            (
                "glds_shard_peak_resident_blocks",
                shard.peak_resident_blocks,
            ),
        ] {
            series.push((format!("{family}{{shard=\"{index}\"}}"), value));
        }
    }
    series.sort();
    series
}

#[test]
fn endpoint_and_status_read_one_source_for_every_counter() {
    let _guard = obs_lock();
    // Window 1 and a 1 ms deadline: a request queued behind a multi-block
    // compress on its shard expires, one admitted at once never does.  The
    // bucket holds exactly the main connection's four codec requests.
    let server = start_server(ServiceConfig {
        shards: 2,
        shard_window: 1,
        rate_limit: Some(RateLimit {
            capacity: 4,
            refill_per_sec: 0.0,
        }),
        op_deadline: Some(Duration::from_millis(1)),
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServiceConfig::default()
    });
    let addr = server.local_addr();
    let small = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 8, 8), 41);
    let large = generate(DatasetKind::E3sm, &FieldSpec::new(1, 64, 64, 64), 43);

    let mut client = ServiceClient::connect(addr).expect("connect");
    assert!(client.hello(&[CodecId::SzLike]).expect("hello").profiles);
    client.ping().expect("ping");
    let variable = &small.variables[0];
    let container = client.compress("one/x", variable, 4, None).expect("miss");
    client.compress("one/x", variable, 4, None).expect("hit");
    client.decompress("one/x", &container).expect("decompress");
    let refused = |result: Result<Vec<u8>, gld_service::ClientError>| match result {
        Err(gld_service::ClientError::Server { status, .. }) => status,
        other => panic!("expected a refusal, got {other:?}"),
    };
    let malformed = client.compress("one/short", variable, 1_000, None);
    assert_eq!(refused(malformed), Status::Malformed);
    let limited = client.compress("one/x", variable, 4, None);
    assert_eq!(refused(limited), Status::RateLimited);
    drop(client);

    let mut setup = ServiceClient::connect(addr).expect("connect");
    setup.hello(&[CodecId::SzLike]).expect("hello");
    let mut pipe = setup.into_pipelined();
    let slow = &large.variables[0];
    pipe.submit_compress("one/slow", slow, 8, None)
        .expect("submit");
    pipe.submit_compress("one/slow", slow, 8, None)
        .expect("submit");
    let mut replies: Vec<Reply> = pipe
        .drain()
        .expect("drain")
        .into_iter()
        .map(|r| r.1)
        .collect();
    replies.sort_by_key(|reply| matches!(reply, Reply::Refused { .. }));
    assert!(
        matches!(replies[0], Reply::Compressed(_)),
        "{:?}",
        replies[0]
    );
    assert!(
        matches!(
            replies[1],
            Reply::Refused {
                status: Status::DeadlineExceeded,
                ..
            }
        ),
        "{:?}",
        replies[1]
    );
    drop(pipe);

    // A silent connection, left for the idle reaper.
    let silent = TcpStream::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().reaped_idle == 0 {
        assert!(
            Instant::now() < deadline,
            "the silent connection was never reaped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    wait_until_no_connections(&server);
    drop(silent);

    let status = server.metrics();
    let body = scrape(server.metrics_addr().expect("endpoint is up"));
    assert_eq!(status_backed_series(&body), series_of(&status));
    for (what, moved) in [
        ("connections", status.connections_opened),
        ("completed", status.completed()),
        ("blocks", status.blocks()),
        ("rate limited", status.rate_limited),
        ("deadlines", status.deadlines_exceeded),
        ("other refusals", status.rejected_other()),
        ("idle reaps", status.reaped_idle),
        (
            "peak resident",
            status.shards.iter().map(|s| s.peak_resident_blocks).sum(),
        ),
    ] {
        assert!(moved > 0, "the workload never moved {what}: {status:?}");
    }
    assert_eq!(
        status.requests_rejected,
        status.rate_limited + status.deadlines_exceeded + status.rejected_other()
    );
    let summaries = status.summaries.as_ref().expect("metrics carry summaries");
    assert_eq!(summaries.rejected_other, status.rejected_other());
    let memo = |event: &str| -> u64 {
        let family = format!("glds_profile_memo_{event}_total");
        (0..2)
            .map(|shard| {
                let needle = format!("shard=\"{shard}\"");
                protocol_scrape(&body, &family, "", &[&needle]).expect("memo series") as u64
            })
            .sum()
    };
    assert!(memo("hits") >= 1 && memo("misses") >= 1, "v4 hit and miss");
    let rejected = protocol_scrape(&body, "glds_requests_rejected_total", "", &[]).unwrap();
    let rate_limited = protocol_scrape(&body, "glds_requests_rate_limited_total", "", &[]).unwrap();
    let deadlines = protocol_scrape(&body, "glds_deadlines_exceeded_total", "", &[]).unwrap();
    let other = protocol_scrape(&body, "glds_rejected_other_total", "", &[]).unwrap();
    assert_eq!(rejected, rate_limited + deadlines + other);

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
