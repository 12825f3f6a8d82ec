//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics.  `BENCHMARK.json` at the root of
//! the repository is `perf manifest` printed from these tables (a unit test
//! holds the two together), and README.md explains each entry.

use crate::json::Json;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const GLD_ENCODE: &str = "gld-encode";
pub const GLD_DECODE: &str = "gld-decode";
pub const SVC_CODEC: &str = "svc-codec";
pub const SVC_PING: &str = "svc-ping";

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: GLD_ENCODE,
        why: "paper codec, write side: compress_variable with no error target; VAE encoder, hyperprior range coder and the decode it runs on every block to account NRMSE; no PCA correction; one pool thread",
    },
    WorkloadSpec {
        name: GLD_DECODE,
        why: "paper codec, read side: NRMSE-bounded containers decoded by diffusion interpolation, about 85 % of the time in ConditionalDiffusion::generate",
    },
    WorkloadSpec {
        name: SVC_CODEC,
        why: "codec-bound service path: 2 closed-loop clients alternate SZ compress and decompress, 3 of 4 requests on hot keys, so shared work across requests shows, 1 of 4 on unseen keys",
    },
    WorkloadSpec {
        name: SVC_PING,
        why: "wire floor: pipelined pings carry no payload and run no codec, so event loop, parser and framing do all the work and codec changes must show no change",
    },
];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const REQ_PER_S: &str = "req_per_s";
pub const OP_P50_MS: &str = "op_p50_ms";
pub const COMPRESSED_BYTES_PER_OP: &str = "compressed_bytes_per_op";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Every workload reports every one of these, and none is ever zero.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: REQ_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: OP_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: COMPRESSED_BYTES_PER_OP,
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// A traced run reports every one of these; a layer the workload does not
/// cross reads 0 (README.md lists which workload measures which).
pub const PER_LAYER: [PerLayer; 58] = [
    layer("tensor.matmul_gflops", "GFLOP/s", Higher),
    layer("tensor.matmul_ops_per_byte", "FLOP/B", Higher),
    layer("tensor.conv2d_ms", "ms", Lower),
    layer("nn.tape_nodes_per_forward", "count", Lower),
    layer("vae.quantize_latent_ms", "ms", Lower),
    layer("vae.latent_compress_ms", "ms", Lower),
    layer("vae.keyframe_bytes", "B", Lower),
    layer("vae.latent_decompress_ms", "ms", Lower),
    layer("vae.decode_latent_ms", "ms", Lower),
    layer("entropy.gaussian_encode_msym_s", "Msym/s", Higher),
    layer("entropy.gaussian_decode_msym_s", "Msym/s", Higher),
    layer("entropy.histogram_encode_msym_s", "Msym/s", Higher),
    layer("entropy.histogram_decode_msym_s", "Msym/s", Higher),
    layer("diffusion.generate_ms", "ms", Lower),
    layer("diffusion.unet_forward_ms", "ms", Lower),
    layer("diffusion.unet_calls", "count", Lower),
    layer("core.block_encode_ms", "ms", Lower),
    layer("core.block_decode_ms", "ms", Lower),
    layer("core.executor.speedup_encode", "ratio", Higher),
    layer("core.error_bound.apply_ms", "ms", Lower),
    layer("core.error_bound.apply_from_aux_ms", "ms", Lower),
    layer("core.error_bound.aux_bytes", "B", Lower),
    layer("core.nrmse_max", "ratio", Lower),
    layer("core.profile_fit_ms", "ms", Lower),
    layer("core.stream_compress_ms", "ms", Lower),
    layer("core.container.encode_ms", "ms", Lower),
    layer("core.container.bytes", "B", Lower),
    layer("core.container.profile_table_bytes", "B", Lower),
    layer("core.container.decode_ms", "ms", Lower),
    layer("core.decompress_container_ms", "ms", Lower),
    layer("core.train_s", "s", Lower),
    layer("baselines.sz_compress_ms", "ms", Lower),
    layer("baselines.sz_decompress_ms", "ms", Lower),
    layer("kernels.sz_scalar_ratio", "ratio", Higher),
    layer("lz.compress_mb_s", "MB/s", Higher),
    layer("lz.warm_compress_mb_s", "MB/s", Higher),
    layer("lz.decompress_mb_s", "MB/s", Higher),
    layer("lz.ratio", "ratio", Higher),
    layer("service.connect_hello_ms", "ms", Lower),
    layer("service.protocol.ping_frame_ns", "ns", Lower),
    layer("service.ping_rtt_us", "us", Lower),
    layer("service.server_ping_p50_us", "us", Lower),
    layer("service.protocol.compress_frame_us", "us", Lower),
    layer("service.blocks_body_us", "us", Lower),
    layer("service.compress_p50_ms", "ms", Lower),
    layer("service.decompress_p50_ms", "ms", Lower),
    layer("service.server_compress_p50_ms", "ms", Lower),
    layer("service.server_decompress_p50_ms", "ms", Lower),
    layer("service.wire_overhead_ms", "ms", Lower),
    layer("service.compress_hot_p50_ms", "ms", Lower),
    layer("service.compress_cold_p50_ms", "ms", Lower),
    layer("service.compress_p99_ms", "ms", Lower),
    layer("service.decompress_p99_ms", "ms", Lower),
    layer("service.rejected", "count", Lower),
    layer("service.peak_inflight", "count", Lower),
    layer("datasets.generate_ms", "ms", Lower),
    layer("trace.layer_coverage", "ratio", Higher),
    layer("trace_overhead_frac", "ratio", Lower),
];

/// Seconds one run measures for, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json`, built from the tables above.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["perf"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        assert!(!name_ok("-x") && !name_ok("a b") && !name_ok("") && name_ok("a.b_c-1"));
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_is_the_printed_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
