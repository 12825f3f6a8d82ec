//! Service throughput benchmark: requests per second and p50/p99 latency
//! through a live in-process sharded compression server.
//!
//! Three sections, each swept over client counts:
//!
//! 1. **ping** — protocol + dispatch floor (no codec work);
//! 2. **compress** — SZ3-like containers streamed back from the per-shard
//!    executors, once per negotiated container feature level (stage-off
//!    v2, stage-on v3, shared-profile v4);
//! 3. **decompress** — each of those containers back into frames.
//!
//! Every client thread uses its own connection and key (hash-sharded), so
//! higher client counts genuinely spread across shards.  Results land in
//! `results/service_throughput.csv`; next to the client-observed p50/p99
//! each row carries the **server-side** per-op p50/p99, scraped from the
//! live `--metrics-addr` Prometheus endpoint after the section's requests
//! (cumulative per op — the gap between the columns is the wire plus
//! client-side time).
//!
//! A fourth **pipelined** section drives `--pipelined-clients N` (default
//! 4) keepalive connections, each keeping a window of requests in flight
//! over the [`PipelinedClient`], with per-request latency matched back by
//! request id and every compress verified bit-identical to a blocking
//! response for the same key.  `--check` enforces the floor: deep-window
//! pipelined ping throughput must be at least 2x the one-outstanding
//! baseline — the same connections and machinery, window clamped to 1 —
//! from the same run.

use gld_bench::write_result;
use gld_core::CodecId;
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_service::{CodecRegistry, PipelinedClient, Reply, Server, ServiceClient, ServiceConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Latency percentile over a sorted sample, nearest-rank.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    assert!(!sorted_ms.is_empty());
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// One HTTP/1.0 GET against the live server's `--metrics-addr` endpoint,
/// returning the Prometheus exposition body — the same scrape CI's smoke
/// job performs.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write metrics request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read metrics response");
    let (_, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP header/body split");
    body.to_string()
}

/// Server-side `(p50_ms, p99_ms)` for one op, scraped from the endpoint's
/// derived `glds_request_duration_ns_quantile` gauges.  Cumulative over the
/// whole run so far (histograms never reset), which is why each section
/// scrapes immediately after its own requests.
fn server_latency_ms(addr: std::net::SocketAddr, op: &str) -> (f64, f64) {
    let body = scrape_metrics(addr);
    let needle = format!("op=\"{op}\"");
    let quantile = |q: &str| {
        gld_obs::registry::scrape_value(
            &body,
            "glds_request_duration_ns",
            "_quantile",
            &[&needle, &format!("q=\"{q}\"")],
        )
        .unwrap_or_else(|| panic!("endpoint serves a {op} {q} quantile"))
            / 1e6
    };
    (quantile("0.5"), quantile("0.99"))
}

/// One container feature level the session can negotiate: which `Hello`
/// bits to advertise, and the container version an SZ3-like compress
/// response comes back as.
#[derive(Clone, Copy)]
struct FeatureLeg {
    label: &'static str,
    stage: bool,
    profiles: bool,
    notes: &'static str,
}

const FEATURE_LEGS: [FeatureLeg; 3] = [
    FeatureLeg {
        label: "stage-off",
        stage: false,
        profiles: false,
        notes: "v2 containers (pre-stage client)",
    },
    FeatureLeg {
        label: "stage-on",
        stage: true,
        profiles: false,
        notes: "v3 containers (per-frame stage)",
    },
    FeatureLeg {
        label: "profiles",
        stage: true,
        profiles: true,
        notes: "v4 containers (shared profiles + warm stage)",
    },
];

struct RunStats {
    elapsed_s: f64,
    req_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Runs `requests_per_client` requests on each of `clients` threads and
/// merges the per-request latencies.  `setup` runs once per connection
/// before timing starts (feature negotiation lives there, not in the
/// measured window).
fn run(
    addr: std::net::SocketAddr,
    clients: usize,
    requests_per_client: usize,
    setup: impl Fn(&mut ServiceClient) + Sync,
    request: impl Fn(&mut ServiceClient, &str, usize) + Sync,
) -> RunStats {
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let setup = &setup;
        let request = &request;
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    setup(&mut client);
                    let key = format!("bench-client-{client_index}");
                    let mut samples = Vec::with_capacity(requests_per_client);
                    for i in 0..requests_per_client {
                        let t0 = Instant::now();
                        request(&mut client, &key, i);
                        samples.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench client thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    RunStats {
        elapsed_s,
        req_per_s: latencies.len() as f64 / elapsed_s,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
    }
}

/// Runs `requests_per_client` pipelined requests on each of `clients`
/// threads, keeping up to `window` outstanding per connection.  Latency is
/// submit-to-reply, matched by request id (so it includes pipeline
/// queueing — the price of the window is part of the number).
fn run_pipelined(
    addr: std::net::SocketAddr,
    clients: usize,
    requests_per_client: usize,
    window: usize,
    setup: impl Fn(&mut ServiceClient, &str) -> Option<Vec<u8>> + Sync,
    submit: impl Fn(&mut PipelinedClient, &str) -> u64 + Sync,
    verify: impl Fn(&str, Option<&[u8]>, &Reply) + Sync,
) -> RunStats {
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let setup = &setup;
        let submit = &submit;
        let verify = &verify;
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    let key = format!("bench-client-{client_index}");
                    let reference = setup(&mut client, &key);
                    let mut pipe = client.into_pipelined();
                    let mut submitted: HashMap<u64, Instant> = HashMap::new();
                    let mut sent = 0usize;
                    let mut samples = Vec::with_capacity(requests_per_client);
                    while samples.len() < requests_per_client {
                        // Refill in half-window bursts so submits batch into
                        // one write instead of degenerating to one write per
                        // reply in steady state.
                        if sent < requests_per_client && pipe.outstanding() <= window / 2 {
                            while sent < requests_per_client && pipe.outstanding() < window {
                                let id = submit(&mut pipe, &key);
                                submitted.insert(id, Instant::now());
                                sent += 1;
                            }
                        }
                        let (id, reply) = pipe.recv().expect("pipelined recv");
                        let t0 = submitted.remove(&id).expect("reply matches a submit");
                        samples.push(t0.elapsed().as_secs_f64() * 1e3);
                        verify(&key, reference.as_deref(), &reply);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pipelined bench client thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    RunStats {
        elapsed_s,
        req_per_s: latencies.len() as f64 / elapsed_s,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
    }
}

fn main() {
    let mut pipelined_clients = 4usize;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pipelined-clients" => {
                pipelined_clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--pipelined-clients takes a count");
            }
            "--check" => check = true,
            other => panic!("unknown flag {other:?} (see the crate docs)"),
        }
    }

    let shards = 4;
    let server = Server::start(
        ServiceConfig {
            shards,
            shard_window: 4,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
        CodecRegistry::rule_based(),
    )
    .expect("start in-process server");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint is up");
    println!(
        "service-throughput bench — {shards} shards on {addr}, {} pool workers\n",
        rayon::current_num_threads()
    );
    let mut csv = String::from(
        "section,clients,requests,elapsed_s,req_per_s,p50_ms,p99_ms,server_p50_ms,server_p99_ms,notes\n",
    );

    // One variable per client key; compress once per feature level up front
    // for the decompress section.
    let ds = generate(DatasetKind::S3d, &FieldSpec::new(1, 32, 32, 32), 61);
    let variable = &ds.variables[0];
    let containers: Vec<Vec<u8>> = FEATURE_LEGS
        .iter()
        .map(|leg| {
            let mut client = ServiceClient::connect(addr).expect("connect");
            client
                .hello_with_options(&[CodecId::SzLike], leg.stage, leg.profiles)
                .expect("warmup hello");
            client
                .compress_as(CodecId::SzLike, "bench-warmup", variable, 8, None)
                .expect("warmup compress")
        })
        .collect();

    let client_counts = [1usize, 2, 4];
    let requests = 32usize;
    // Pings are microseconds each: sample enough of them that the req/s
    // figures (and the `--check` floor below) are stable run to run.
    let ping_requests = 4096usize;

    for &clients in &client_counts {
        let stats = run(
            addr,
            clients,
            ping_requests,
            |client| {
                for _ in 0..32 {
                    client.ping().expect("warmup ping");
                }
            },
            |client, _key, _i| {
                client.ping().expect("ping");
            },
        );
        let (server_p50, server_p99) = server_latency_ms(metrics_addr, "ping");
        println!(
            "ping                  {clients} client(s): {:>8.0} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms   server p50 {server_p50:.3} p99 {server_p99:.3}",
            stats.req_per_s, stats.p50_ms, stats.p99_ms
        );
        csv.push_str(&format!(
            "ping,{clients},{},{:.4},{:.1},{:.4},{:.4},{server_p50:.4},{server_p99:.4},protocol floor\n",
            clients * ping_requests,
            stats.elapsed_s,
            stats.req_per_s,
            stats.p50_ms,
            stats.p99_ms
        ));
    }

    for leg in &FEATURE_LEGS {
        for &clients in &client_counts {
            let stats = run(
                addr,
                clients,
                requests,
                |client| {
                    client
                        .hello_with_options(&[CodecId::SzLike], leg.stage, leg.profiles)
                        .expect("hello");
                },
                |client, key, _i| {
                    let bytes = client
                        .compress_as(CodecId::SzLike, key, variable, 8, None)
                        .expect("compress");
                    assert!(!bytes.is_empty());
                },
            );
            let (server_p50, server_p99) = server_latency_ms(metrics_addr, "compress");
            println!(
                "compress   {:>9} {clients} client(s): {:>8.1} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms   server p50 {server_p50:.3} p99 {server_p99:.3}",
                leg.label, stats.req_per_s, stats.p50_ms, stats.p99_ms
            );
            csv.push_str(&format!(
                "compress/{},{clients},{},{:.4},{:.1},{:.4},{:.4},{server_p50:.4},{server_p99:.4},SZ3-like 32x32x32 via shard executors: {}\n",
                leg.label,
                clients * requests,
                stats.elapsed_s,
                stats.req_per_s,
                stats.p50_ms,
                stats.p99_ms,
                leg.notes
            ));
        }
    }

    for (leg, container) in FEATURE_LEGS.iter().zip(&containers) {
        for &clients in &client_counts {
            let container = &container[..];
            let stats = run(
                addr,
                clients,
                requests,
                |_client| {},
                move |client, key, _i| {
                    let blocks = client.decompress(key, container).expect("decompress");
                    assert_eq!(blocks.len(), 4);
                },
            );
            let (server_p50, server_p99) = server_latency_ms(metrics_addr, "decompress");
            println!(
                "decompress {:>9} {clients} client(s): {:>8.1} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms   server p50 {server_p50:.3} p99 {server_p99:.3}",
                leg.label, stats.req_per_s, stats.p50_ms, stats.p99_ms
            );
            csv.push_str(&format!(
                "decompress/{},{clients},{},{:.4},{:.1},{:.4},{:.4},{server_p50:.4},{server_p99:.4},4-block container to frames: {}\n",
                leg.label,
                clients * requests,
                stats.elapsed_s,
                stats.req_per_s,
                stats.p50_ms,
                stats.p99_ms,
                leg.notes
            ));
        }
    }

    // ── pipelined section ──────────────────────────────────────────────
    // Many keepalive connections, each a window of requests deep.  Ping
    // measures the event-loop dispatch ceiling; compress verifies every
    // pipelined response bit-identical to a blocking response for the same
    // key taken during setup.
    const PIPE_WINDOW: usize = 64;
    let pipelined_pings = 8192usize;

    // The one-outstanding baseline for the `--check` floor: identical
    // connections, threads and client machinery, window clamped to 1 —
    // what these exact clients achieve without pipelining.
    let baseline_stats = run_pipelined(
        addr,
        pipelined_clients,
        pipelined_pings / 8,
        1,
        |client, _key| {
            for _ in 0..32 {
                client.ping().expect("warmup ping");
            }
            None
        },
        |pipe, _key| pipe.submit_ping().expect("submit ping"),
        |_key, _reference, reply| assert!(matches!(reply, Reply::Pong)),
    );
    println!(
        "\npipelined ping        {pipelined_clients} conn(s) x 1 deep: {:>9.0} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms",
        baseline_stats.req_per_s, baseline_stats.p50_ms, baseline_stats.p99_ms
    );
    let (server_p50, server_p99) = server_latency_ms(metrics_addr, "ping");
    csv.push_str(&format!(
        "pipelined-ping-window1,{pipelined_clients},{},{:.4},{:.1},{:.4},{:.4},{server_p50:.4},{server_p99:.4},one-outstanding baseline\n",
        pipelined_clients * (pipelined_pings / 8),
        baseline_stats.elapsed_s,
        baseline_stats.req_per_s,
        baseline_stats.p50_ms,
        baseline_stats.p99_ms
    ));

    let ping_stats = run_pipelined(
        addr,
        pipelined_clients,
        pipelined_pings,
        PIPE_WINDOW,
        |client, _key| {
            for _ in 0..32 {
                client.ping().expect("warmup ping");
            }
            None
        },
        |pipe, _key| pipe.submit_ping().expect("submit ping"),
        |_key, _reference, reply| assert!(matches!(reply, Reply::Pong)),
    );
    println!(
        "pipelined ping        {pipelined_clients} conn(s) x {PIPE_WINDOW} deep: {:>8.0} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms",
        ping_stats.req_per_s, ping_stats.p50_ms, ping_stats.p99_ms
    );
    let (server_p50, server_p99) = server_latency_ms(metrics_addr, "ping");
    csv.push_str(&format!(
        "pipelined-ping,{pipelined_clients},{},{:.4},{:.1},{:.4},{:.4},{server_p50:.4},{server_p99:.4},window {PIPE_WINDOW} per conn\n",
        pipelined_clients * pipelined_pings,
        ping_stats.elapsed_s,
        ping_stats.req_per_s,
        ping_stats.p50_ms,
        ping_stats.p99_ms
    ));

    let compress_stats = run_pipelined(
        addr,
        pipelined_clients,
        16,
        8,
        |client, key| {
            client.hello(&[CodecId::SzLike]).expect("hello");
            Some(
                client
                    .compress_as(CodecId::SzLike, key, variable, 8, None)
                    .expect("blocking reference compress"),
            )
        },
        |pipe, key| {
            pipe.submit_compress(key, variable, 8, None)
                .expect("submit compress")
        },
        |key, reference, reply| match reply {
            Reply::Compressed(bytes) => assert_eq!(
                Some(bytes.as_slice()),
                reference,
                "{key}: pipelined compress differs from the blocking response"
            ),
            other => panic!("{key}: expected a compress reply, got {other:?}"),
        },
    );
    println!(
        "pipelined compress    {pipelined_clients} conn(s) x 8 deep: {:>8.1} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms",
        compress_stats.req_per_s, compress_stats.p50_ms, compress_stats.p99_ms
    );
    let (server_p50, server_p99) = server_latency_ms(metrics_addr, "compress");
    csv.push_str(&format!(
        "pipelined-compress,{pipelined_clients},{},{:.4},{:.1},{:.4},{:.4},{server_p50:.4},{server_p99:.4},SZ3-like 32x32x32 bit-identical to blocking\n",
        pipelined_clients * 16,
        compress_stats.elapsed_s,
        compress_stats.req_per_s,
        compress_stats.p50_ms,
        compress_stats.p99_ms
    ));

    if check {
        let floor = 2.0 * baseline_stats.req_per_s;
        assert!(
            ping_stats.req_per_s >= floor,
            "--check: pipelined ping {:.0} req/s is under the floor of 2x the one-outstanding \
             baseline ({:.0} req/s over the same connections)",
            ping_stats.req_per_s,
            floor
        );
        println!(
            "check OK: pipelined ping {:.0} req/s >= 2x one-outstanding baseline ({:.0} req/s)",
            ping_stats.req_per_s, baseline_stats.req_per_s
        );
    }

    let metrics = server.shutdown();
    csv.push_str(&format!(
        "meta,,,,,,,,,\"{} requests completed, {} rejected, peak in-flight per shard {:?}\"\n",
        metrics.completed(),
        metrics.requests_rejected,
        metrics
            .shards
            .iter()
            .map(|s| s.peak_in_flight)
            .collect::<Vec<_>>()
    ));
    write_result("service_throughput.csv", &csv);
}
