//! The machine and build a result was measured on.

use crate::json::Json;

/// The env block every report carries.
pub fn block(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "RAYON_NUM_THREADS",
            std::env::var("RAYON_NUM_THREADS").map_or(Json::Null, Json::Str),
        ),
        (
            "rayon_threads",
            Json::Num(rayon::current_num_threads() as f64),
        ),
        ("kernel_backend", Json::str(gld_kernels::active().name())),
        ("cpu_features", Json::str(gld_kernels::cpu_features())),
        ("git_revision", Json::str(git_revision())),
        ("seed", Json::Num(seed as f64)),
        ("network", Json::str("loopback only, server in process")),
    ])
}

/// `HEAD` of the checkout the benchmark runs in; the driver's checkouts are
/// plain directories, where this reads "unknown".
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".into(), |rev| rev.trim().to_string())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
