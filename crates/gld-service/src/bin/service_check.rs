//! `gld-service-check` — client-side smoke check against a live
//! `gld-serviced`, used by CI's boot-the-binary job.
//!
//! Connects (retrying while the server boots), negotiates, round-trips
//! variables through both rule-based codecs, verifies every byte against a
//! direct in-process `Codec` run, exercises an error path, then asks the
//! server to shut down.  Any mismatch or refusal exits non-zero.
//!
//! With `--pipelined` it instead exercises the pipelined client mode:
//! many keepalive connections each keep several requests outstanding,
//! replies are matched back by request id (out-of-order allowed), the
//! pipelined compress bytes are checked bit-identical to a blocking
//! compress of the same variable, and the `Status` op's per-shard
//! counters are asserted against the negotiated topology.
//!
//! With `--verify-metrics HOST:PORT` the check additionally scrapes the
//! server's `--metrics-addr` Prometheus endpoint and cross-checks the
//! exposition against the wire `Status` summaries: the required metric
//! families must be present and every per-op count/p50/p99 must agree
//! exactly with the trailer (both read the same cumulative histograms).
//!
//! ```text
//! gld-service-check [--pipelined] [--verify-metrics HOST:PORT] [HOST:PORT]
//!                   (default 127.0.0.1:7171)
//! ```

use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_core::{Codec, CodecId, Container, ErrorTarget, StreamConfig};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_service::{Backoff, ClientError, Op, Reply, ServiceClient, Status};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn connect_with_retry(addr: &str) -> ServiceClient {
    // The same jittered exponential backoff `ResilientClient` uses, seeded
    // per process so parallel checks against one booting server do not
    // busy-dial in lockstep.
    let mut backoff = Backoff::new(
        Duration::from_millis(50),
        Duration::from_secs(2),
        std::process::id() as u64,
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match ServiceClient::connect(addr) {
            Ok(client) => return client,
            Err(e) if Instant::now() < deadline => {
                gld_obs::log_debug!("service-check", addr = addr, err = e; "waiting for server");
                backoff.sleep();
            }
            Err(e) => panic!("could not reach {addr} within 20s: {e}"),
        }
    }
}

/// Pipelined smoke check: 32 keepalive connections, each with a mixed
/// window of ping/compress/status/decompress submits matched back by
/// request id, verified bit-identical against one blocking compress.
fn pipelined_check(addr: &str) {
    let mut blocking = connect_with_retry(addr);
    let info = blocking
        .hello(&[CodecId::SzLike, CodecId::ZfpLike])
        .expect("hello negotiation");
    gld_obs::log_info!(
        "service-check",
        shards = info.shards,
        window = info.shard_window;
        "pipelined check: negotiated"
    );

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(2, 24, 16, 16), 71);
    let variable = &ds.variables[0];
    let reference = blocking
        .compress(&variable.name, variable, 8, None)
        .expect("blocking compress reference");
    let codec = SzCompressor::new();
    let local_blocks = codec
        .decompress_container(&Container::decode(&reference).expect("container decodes"))
        .expect("local decompress");

    const CONNS: usize = 32;
    for conn in 0..CONNS {
        let mut setup = connect_with_retry(addr);
        setup
            .hello(&[CodecId::SzLike, CodecId::ZfpLike])
            .expect("hello negotiation");
        let mut pipe = setup.into_pipelined();

        let mut expected = HashMap::new();
        expected.insert(pipe.submit_ping().expect("submit ping"), "ping");
        expected.insert(
            pipe.submit_compress(&variable.name, variable, 8, None)
                .expect("submit compress"),
            "compress",
        );
        expected.insert(pipe.submit_status().expect("submit status"), "status");
        expected.insert(
            pipe.submit_decompress(&variable.name, &reference)
                .expect("submit decompress"),
            "decompress",
        );
        expected.insert(pipe.submit_ping().expect("submit ping"), "ping");
        assert_eq!(pipe.outstanding(), 5);

        for (id, reply) in pipe.drain().expect("drain pipelined replies") {
            let kind = expected
                .remove(&id)
                .expect("reply id matches an outstanding submit");
            match (kind, reply) {
                ("ping", Reply::Pong) => {}
                ("compress", Reply::Compressed(bytes)) => assert_eq!(
                    bytes, reference,
                    "pipelined compress differs from blocking compress"
                ),
                ("status", Reply::ServerStatus(status)) => {
                    assert_eq!(
                        status.shards.len(),
                        info.shards as usize,
                        "Status shard count differs from hello topology"
                    );
                    assert!(status.connections_active >= 1, "we are connected");
                }
                ("decompress", Reply::Decompressed(blocks)) => {
                    assert_eq!(blocks.len(), local_blocks.len());
                    for (a, b) in blocks.iter().zip(&local_blocks) {
                        assert_eq!(a.data(), b.data(), "pipelined decompress differs");
                    }
                }
                (kind, other) => panic!("conn {conn}: {kind} answered with {other:?}"),
            }
        }
        assert!(expected.is_empty(), "every submit answered exactly once");
    }

    let status = blocking.status().expect("status op");
    let completed = status.completed();
    assert!(
        completed as usize >= CONNS,
        "per-shard completed counters should cover the pipelined compresses"
    );
    gld_obs::log_info!(
        "service-check",
        connections = CONNS,
        completed = completed;
        "pipelined connections OK"
    );

    blocking.shutdown_server().expect("shutdown request");
    gld_obs::log_info!("service-check", "pipelined service check OK");
}

/// One HTTP/1.0 GET against the `--metrics-addr` endpoint, returning the
/// exposition body (the same scrape CI performs with curl).
fn scrape_metrics(metrics_addr: &str) -> String {
    let mut stream = TcpStream::connect(metrics_addr).expect("connect metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP header/body split");
    assert!(
        head.starts_with("HTTP/1.0 200"),
        "metrics endpoint refused the scrape: {head}"
    );
    body.to_string()
}

/// Scrapes the metrics endpoint and cross-checks it against the wire
/// `Status` summaries.  The status request is the only traffic between the
/// trailer build and the scrape, so every non-status op row must agree
/// exactly (the status op's own total lands in the histogram *after* its
/// summaries were built, so that one row lags by design).
fn verify_metrics_endpoint(client: &mut ServiceClient, metrics_addr: &str) {
    let status = client.status().expect("status with summaries");
    let summaries = status
        .summaries
        .expect("server echoes the negotiated summaries trailer");
    let body = scrape_metrics(metrics_addr);

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

    let mut rows_checked = 0u32;
    for row in &summaries.ops {
        let op = Op::from_u8(row.op).expect("summary rows carry valid ops");
        if op == Op::Status {
            continue;
        }
        let name = op.name();
        let needle = format!("op=\"{name}\"");
        let count = gld_obs::registry::scrape_value(
            &body,
            "glds_request_duration_ns",
            "_count",
            &[&needle],
        )
        .unwrap_or_else(|| panic!("endpoint misses the {name} histogram"));
        assert_eq!(count as u64, row.count, "{name}: count disagrees");
        for (q, expected) in [("0.5", row.p50_ns), ("0.99", row.p99_ns)] {
            let got = gld_obs::registry::scrape_value(
                &body,
                "glds_request_duration_ns",
                "_quantile",
                &[&needle, &format!("q=\"{q}\"")],
            )
            .unwrap_or_else(|| panic!("endpoint misses the {name} q={q} gauge"));
            assert_eq!(got as u64, expected, "{name}: q={q} disagrees");
        }
        rows_checked += 1;
    }
    assert!(rows_checked > 0, "served ops produce summary rows");

    let value = |family| {
        gld_obs::registry::scrape_value(&body, family, "", &[])
            .unwrap_or_else(|| panic!("{family} missing"))
    };
    let rejected = value("glds_requests_rejected_total");
    let rate_limited = value("glds_requests_rate_limited_total");
    let deadlines = value("glds_deadlines_exceeded_total");
    let other = value("glds_rejected_other_total");
    assert_eq!(
        rejected,
        rate_limited + deadlines + other,
        "rejection roll-up must equal the sum of its disjoint causes"
    );
    assert_eq!(other as u64, summaries.rejected_other);

    // The per-shard profile memo, summed over shards: this check's four v4
    // compress requests each were a hit or a miss.
    let memo = |event: &str| -> f64 {
        let prefix = format!("glds_profile_memo_{event}_total{{");
        let series = body.lines().filter(|line| line.starts_with(&prefix));
        series
            .filter_map(|line| line.rsplit_once(' ')?.1.parse::<f64>().ok())
            .sum()
    };
    let (hits, misses, evictions) = (memo("hits"), memo("misses"), memo("evictions"));
    assert!(
        hits + misses >= 4.0,
        "memo counters miss v4 compress requests"
    );

    gld_obs::log_info!(
        "service-check",
        ops = rows_checked,
        rejected = rejected,
        memo_hits = hits,
        memo_misses = misses,
        memo_evictions = evictions;
        "metrics endpoint agrees with Status summaries"
    );
}

fn main() {
    let mut pipelined = false;
    let mut addr = "127.0.0.1:7171".to_string();
    let mut verify_metrics: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pipelined" => pipelined = true,
            "--verify-metrics" => {
                verify_metrics = Some(args.next().expect("--verify-metrics takes HOST:PORT"))
            }
            other => addr = other.to_string(),
        }
    }
    if pipelined {
        pipelined_check(&addr);
        return;
    }
    let mut client = connect_with_retry(&addr);

    let info = client
        .hello(&[CodecId::SzLike, CodecId::ZfpLike])
        .expect("hello negotiation");
    gld_obs::log_info!(
        "service-check",
        codec = format!("{:?}", info.codec),
        shards = info.shards,
        window = info.shard_window,
        queue_depth = info.queue_depth;
        "negotiated"
    );
    assert_eq!(info.codec, CodecId::SzLike, "first preference wins");
    assert!(
        info.profiles,
        "default hello advertises shared profiles and the server knows them"
    );
    client.ping().expect("ping");

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(2, 24, 16, 16), 71);
    let codecs: [(&str, &dyn Codec); 2] = [
        ("SZ3-like", &SzCompressor::new()),
        ("ZFP-like", &ZfpLikeCompressor::new()),
    ];
    for (name, codec) in codecs {
        for (variable, target) in ds
            .variables
            .iter()
            .zip([None, Some(ErrorTarget::Nrmse(1e-2))])
        {
            let remote = client
                .compress_as(codec.id(), &variable.name, variable, 8, target)
                .expect("remote compress");
            // The default hello negotiated shared profiles, so the session's
            // compress responses are v4 containers — the local oracle is the
            // profiled path, not the per-frame-staged `compress_variable`.
            let (local, stats, _) =
                codec.compress_variable_profiled(variable, 8, target, StreamConfig::default());
            assert_eq!(
                remote,
                local.encode(),
                "{name}: remote container differs from direct Codec output"
            );
            gld_obs::log_info!(
                "service-check",
                codec = name,
                variable = variable.name,
                blocks = stats.blocks,
                bytes = stats.compressed_bytes;
                "round trip bit-identical to local"
            );

            let blocks = client
                .decompress(&variable.name, &remote)
                .expect("remote decompress");
            let reference = codec
                .decompress_container(&Container::decode(&remote).expect("container decodes"))
                .expect("local decompress");
            assert_eq!(blocks.len(), reference.len());
            for (a, b) in blocks.iter().zip(&reference) {
                assert_eq!(a.dims(), b.dims(), "{name}: block dims differ");
                assert_eq!(a.data(), b.data(), "{name}: block data differs");
            }
        }
    }

    // Error path: a variable too short for one block must come back as a
    // typed refusal, not a hung or dead connection.
    let refusal = client.compress_as(CodecId::SzLike, "too-short", &ds.variables[0], 1_000, None);
    match refusal {
        Err(ClientError::Server { status, .. }) => assert_eq!(status, Status::Malformed),
        other => panic!("expected a Malformed refusal, got {other:?}"),
    }
    client
        .ping()
        .expect("connection still serves after a refusal");

    if let Some(metrics_addr) = &verify_metrics {
        verify_metrics_endpoint(&mut client, metrics_addr);
    }

    client.shutdown_server().expect("shutdown request");
    gld_obs::log_info!("service-check", "service check OK");
}
