//! `gld-serviced` — the standalone sharded compression server.
//!
//! Serves the rule-based codec registry (SZ3-like, ZFP-like) until a wire
//! `Shutdown` request arrives, then drains in-flight work, joins every
//! thread it spawned, and — on Linux — verifies via `/proc/self/status`
//! that nothing leaked, exiting non-zero otherwise (CI's boot-the-binary
//! job keys off the exit codes).
//!
//! ```text
//! gld-serviced [--addr HOST:PORT] [--shards N] [--window N]
//!              [--queue-depth N] [--round-robin]
//!              [--max-outstanding N] [--rate-limit CAPACITY:PER_SEC]
//!              [--idle-timeout SECS] [--op-deadline MS]
//!              [--metrics-addr HOST:PORT] [--flight-dump PATH]
//! ```
//!
//! All diagnostics go through the `gld-obs` structured logger (stderr,
//! `GLD_LOG=level[,json]`).  `--metrics-addr` serves Prometheus text
//! exposition over HTTP/1.0; `--flight-dump PATH` routes flight-recorder
//! dumps (panic, fatal I/O) to a file instead of stderr.

use gld_service::{CodecRegistry, RateLimit, Server, ServiceConfig, ShardPolicy};

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let value = args
        .next()
        .unwrap_or_else(|| panic!("{flag} requires a value"));
    value
        .parse()
        .unwrap_or_else(|_| panic!("{flag}: cannot parse {value:?}"))
}

fn main() {
    gld_obs::flight::install_panic_hook();
    let mut config = ServiceConfig {
        addr: "127.0.0.1:7171".into(),
        ..ServiceConfig::default()
    };
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = parse_flag(&mut args, "--addr"),
            "--metrics-addr" => config.metrics_addr = Some(parse_flag(&mut args, "--metrics-addr")),
            "--flight-dump" => {
                gld_obs::flight::set_dump_path(Some(parse_flag(&mut args, "--flight-dump")))
            }
            "--shards" => config.shards = parse_flag(&mut args, "--shards"),
            "--window" => config.shard_window = parse_flag(&mut args, "--window"),
            "--queue-depth" => config.stream.queue_depth = parse_flag(&mut args, "--queue-depth"),
            "--round-robin" => config.policy = ShardPolicy::RoundRobin,
            "--max-outstanding" => {
                config.max_outstanding = parse_flag(&mut args, "--max-outstanding")
            }
            "--rate-limit" => {
                let spec: String = parse_flag(&mut args, "--rate-limit");
                let (capacity, per_sec) = spec
                    .split_once(':')
                    .expect("--rate-limit takes CAPACITY:PER_SEC");
                config.rate_limit = Some(RateLimit {
                    capacity: capacity.parse().expect("--rate-limit capacity"),
                    refill_per_sec: per_sec.parse().expect("--rate-limit per-second refill"),
                });
            }
            "--idle-timeout" => {
                config.idle_timeout = Some(std::time::Duration::from_secs(parse_flag(
                    &mut args,
                    "--idle-timeout",
                )));
            }
            "--op-deadline" => {
                config.op_deadline = Some(std::time::Duration::from_millis(parse_flag(
                    &mut args,
                    "--op-deadline",
                )));
            }
            other => panic!("unknown flag {other:?} (see the crate docs)"),
        }
    }

    let shards = config.shards.max(1);
    let window = config.shard_window.max(1);
    #[cfg(target_os = "linux")]
    let fds_at_boot = open_fds();
    // Resolve (and report) the kernel backend before accepting work so an
    // invalid `GLD_KERNEL_BACKEND` fails at boot, not mid-request.
    gld_obs::log_info!(
        "serviced",
        backend = gld_kernels::active(),
        cpu = gld_kernels::cpu_features();
        "kernel backend resolved"
    );
    let server = Server::start(config, CodecRegistry::rule_based()).expect("bind and start server");
    // The readiness line CI and scripts wait for (stdout, not the logger:
    // it is machine-scraped and must survive GLD_LOG=off).
    println!(
        "gld-serviced listening on {} ({shards} shards, window {window})",
        server.local_addr()
    );
    if let Some(metrics_addr) = server.metrics_addr() {
        println!("gld-serviced metrics on http://{metrics_addr}/metrics");
    }

    let status = server.wait();
    gld_obs::log_info!(
        "serviced",
        requests = status.completed(),
        blocks = status.blocks(),
        connections = status.connections_opened,
        rejected = status.requests_rejected,
        rate_limited = status.rate_limited,
        deadlines = status.deadlines_exceeded,
        rejected_other = status.rejected_other();
        "drained"
    );
    for (index, shard) in status.shards.iter().enumerate() {
        gld_obs::log_info!(
            "serviced",
            shard = index,
            completed = shard.completed,
            peak_in_flight = shard.peak_in_flight,
            peak_resident_blocks = shard.peak_resident_blocks;
            "shard drained"
        );
    }
    assert!(
        status.shards.iter().all(|s| s.in_flight == 0),
        "drained server still reports in-flight work"
    );

    #[cfg(target_os = "linux")]
    {
        // Everything the server spawned is joined; only the main thread and
        // the process-lifetime rayon pool may remain.
        let expected = 1 + rayon::current_num_threads();
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let threads: usize = status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if threads > expected {
            gld_obs::log_error!(
                "serviced",
                live = threads,
                expected = expected;
                "thread leak after shutdown"
            );
            std::process::exit(1);
        }
        gld_obs::log_info!(
            "serviced",
            live = threads,
            expected = expected;
            "no leaked threads"
        );

        // Every connection, the listener, the epoll instance and the waker
        // are closed by the drain; the fd table must be back to its boot
        // size (the probe itself opens one fd in both measurements).
        let fds_after = open_fds();
        if fds_after > fds_at_boot {
            gld_obs::log_error!(
                "serviced",
                open = fds_after,
                at_boot = fds_at_boot;
                "fd leak after shutdown"
            );
            std::process::exit(1);
        }
        gld_obs::log_info!(
            "serviced",
            open = fds_after,
            at_boot = fds_at_boot;
            "no leaked fds"
        );
    }
}

/// Counts `/proc/self/fd` entries (includes the readdir fd itself — equally
/// in both the boot and post-drain measurements, so the comparison holds).
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|entries| entries.count())
        .unwrap_or(0)
}
