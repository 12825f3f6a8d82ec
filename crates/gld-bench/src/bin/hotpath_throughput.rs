//! Hot-path throughput benchmark: per-block compress/decompress speed of
//! the rule-based codecs, optimized path vs the frozen pre-optimisation
//! reference, single- and multi-thread, per kernel backend.
//!
//! Sections:
//!
//! 1. **single-thread** — `Codec::encode` (reused scratch) / `decompress`
//!    over a `[8, 64, 64]` E3SM-like window, against
//!    `gld_baselines::reference` driven by the pre-optimisation arithmetic
//!    back end (the exact pre-PR coding path), reporting blocks/s, MB/s and
//!    p50/p99 latency plus the speedup — measured once per kernel backend
//!    (scalar, SSE2, AVX2 — whatever the host supports);
//! 2. **multi-thread** — `compress_variable_streaming` over a long variable
//!    on the shared pool (the arena-reusing executor path), on the headline
//!    backend.
//!
//! Results land in `results/hotpath.csv` and `BENCH_hotpath.json` (repo
//! root); both record the active backend and detected CPU features so
//! throughput numbers are attributable to the hardware.  Flags:
//!
//! * `--quick` — short measurement windows (CI mode);
//! * `--backend <scalar|sse2|avx2|simd|auto>` — pin the benchmark to one
//!   backend (`simd`/`auto` resolve to the best the host supports); without
//!   it every available backend is measured;
//! * `--check <baseline.json>` — exit non-zero if the **scalar** compress
//!   speedup-vs-reference ratio regresses more than 20% against the
//!   committed baseline (speedups are machine-relative, so the gate is
//!   stable across runner hardware), or if a SIMD backend is available but
//!   fails to reach [`SIMD_SZ_COMPRESS_FLOOR`]x the scalar row on SZ
//!   compress.

use gld_baselines::{reference, ErrorBoundedCompressor, SzCompressor, ZfpLikeCompressor};
use gld_bench::{write_result, write_root_result};
use gld_core::{BlockJob, Codec, CodecScratch, StreamConfig};
use gld_datasets::{generate, DatasetKind, FieldSpec, Variable};
use gld_entropy::ArithmeticBackend;
use gld_kernels::Backend;
use gld_tensor::Tensor;
use std::time::Instant;

/// How much a speedup ratio may shrink vs the committed baseline before
/// `--check` fails the run.
const REGRESSION_TOLERANCE: f64 = 0.8;

/// Minimum SZ single-thread compress advantage the best SIMD backend must
/// hold over the same-run scalar row for `--check` to pass on SIMD hosts.
const SIMD_SZ_COMPRESS_FLOOR: f64 = 1.5;

struct Sample {
    blocks_per_s: f64,
    mb_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    assert!(!sorted_ms.is_empty());
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// Runs `op` repeatedly for ~`window_s` seconds and reports throughput and
/// latency percentiles.
fn measure(window_s: f64, bytes_per_block: usize, mut op: impl FnMut()) -> Sample {
    // Warm up: caches, lazy statics, the shared pool.
    op();
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    while start.elapsed().as_secs_f64() < window_s {
        let t0 = Instant::now();
        op();
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = lat_ms.len() as f64;
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Sample {
        blocks_per_s: n / elapsed,
        mb_per_s: n * bytes_per_block as f64 / 1e6 / elapsed,
        p50_ms: percentile(&lat_ms, 50.0),
        p99_ms: percentile(&lat_ms, 99.0),
    }
}

/// One single-thread section: the frozen reference measured once, the
/// optimized path measured once per kernel backend.
struct Section {
    reference: Sample,
    per_backend: Vec<(Backend, Sample)>,
}

impl Section {
    fn speedup(&self, backend: Backend) -> f64 {
        self.sample(backend).blocks_per_s / self.reference.blocks_per_s
    }

    fn sample(&self, backend: Backend) -> &Sample {
        &self
            .per_backend
            .iter()
            .find(|(b, _)| *b == backend)
            .expect("backend was measured")
            .1
    }
}

fn bench_section(
    window_s: f64,
    backends: &[Backend],
    block: &Tensor,
    mut optimized: impl FnMut(),
    mut reference_op: impl FnMut(),
) -> Section {
    let bytes = block.numel() * std::mem::size_of::<f32>();
    let per_backend = backends
        .iter()
        .map(|&b| {
            gld_kernels::force(b).expect("measured backends are available");
            (b, measure(window_s, bytes, &mut optimized))
        })
        .collect();
    let reference = measure(window_s, bytes, &mut reference_op);
    Section {
        reference,
        per_backend,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a path").clone());
    let backend_arg = args
        .iter()
        .position(|a| a == "--backend")
        .map(|i| args.get(i + 1).expect("--backend needs a value").clone());
    let window_s = if quick { 0.35 } else { 2.0 };

    // Which backends to measure: all the host supports, or just the pinned
    // one.  The headline backend (JSON top-level fields, streaming section)
    // is the pinned backend or the strongest available.
    let backends: Vec<Backend> = match backend_arg.as_deref() {
        None => gld_kernels::available_backends(),
        Some(sel) => {
            let b = Backend::parse_selection(sel)
                .unwrap_or_else(|| panic!("--backend: unknown selection {sel:?}"));
            assert!(b.is_available(), "--backend {b} not available on this host");
            vec![b]
        }
    };
    let headline = *backends.last().expect("at least one backend");

    // The workload: one streaming-executor window of an E3SM-like field —
    // the same shape the service compresses per block.
    let spec = FieldSpec::new(1, 8, 64, 64);
    let ds = generate(DatasetKind::E3sm, &spec, 16);
    let frames = &ds.variables[0].frames;
    let range = frames.max() - frames.min();
    let eb = 1e-3 * range;
    let block_bytes = frames.numel() * std::mem::size_of::<f32>();

    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();

    let cpu = gld_kernels::cpu_features();
    println!(
        "hotpath_throughput: block [8, 64, 64] ({:.2} MB), eb {eb:.3e}, window {window_s}s, RAYON_NUM_THREADS={}",
        block_bytes as f64 / 1e6,
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "default".into()),
    );
    println!(
        "  backends: {} (headline {headline}), cpu: {cpu}",
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(" "),
    );

    // --- single-thread compress ---------------------------------------
    // Re-runnable per backend so the regression gate can re-measure with a
    // longer window before concluding a speedup really regressed.
    let run_sz_compress = |w: f64, bs: &[Backend]| {
        let mut scratch = CodecScratch::new();
        bench_section(
            w,
            bs,
            frames,
            || {
                let job = BlockJob::new(frames, None, 0);
                std::hint::black_box(sz.encode(&job, &mut scratch).expect("a rank-3 block"));
            },
            || {
                std::hint::black_box(reference::sz_compress::<ArithmeticBackend>(frames, eb));
            },
        )
    };
    let run_zfp_compress = |w: f64, bs: &[Backend]| {
        let mut scratch = CodecScratch::new();
        bench_section(
            w,
            bs,
            frames,
            || {
                let job = BlockJob::new(frames, None, 0);
                std::hint::black_box(zfp.encode(&job, &mut scratch).expect("a rank-3 block"));
            },
            || {
                std::hint::black_box(reference::zfp_compress::<ArithmeticBackend>(frames, eb));
            },
        )
    };
    let sz_compress = run_sz_compress(window_s, &backends);
    let zfp_compress = run_zfp_compress(window_s, &backends);

    // --- single-thread decompress -------------------------------------
    let sz_frame = sz.compress(frames, eb);
    let sz_ref_frame = reference::sz_compress::<ArithmeticBackend>(frames, eb);
    let sz_decompress = bench_section(
        window_s,
        &backends,
        frames,
        || {
            std::hint::black_box(ErrorBoundedCompressor::decompress(&sz, &sz_frame));
        },
        || {
            std::hint::black_box(reference::sz_decompress::<ArithmeticBackend>(&sz_ref_frame));
        },
    );
    let zfp_frame = zfp.compress(frames, eb);
    let zfp_ref_frame = reference::zfp_compress::<ArithmeticBackend>(frames, eb);
    let zfp_decompress = bench_section(
        window_s,
        &backends,
        frames,
        || {
            std::hint::black_box(ErrorBoundedCompressor::decompress(&zfp, &zfp_frame));
        },
        || {
            std::hint::black_box(reference::zfp_decompress::<ArithmeticBackend>(
                &zfp_ref_frame,
            ));
        },
    );

    // --- multi-thread streaming executor (headline backend) ------------
    gld_kernels::force(headline).expect("headline backend is available");
    let long = generate(DatasetKind::E3sm, &FieldSpec::new(1, 48, 64, 64), 17);
    let variable: &Variable = &long.variables[0];
    let var_bytes = variable.frames.numel() * std::mem::size_of::<f32>();
    let mt_blocks = variable.timesteps() / 8;
    let mt = measure(window_s, var_bytes, || {
        std::hint::black_box(sz.compress_variable_streaming(
            variable,
            8,
            None,
            StreamConfig::default(),
        ));
    });

    // --- report ---------------------------------------------------------
    let mut csv = String::from(
        "section,codec,backend,path,blocks_per_s,mb_per_s,p50_ms,p99_ms,speedup_vs_reference\n",
    );
    let mut row =
        |section: &str, codec: &str, backend: &str, path: &str, s: &Sample, speedup: f64| {
            csv.push_str(&format!(
                "{section},{codec},{backend},{path},{:.2},{:.2},{:.4},{:.4},{:.3}\n",
                s.blocks_per_s, s.mb_per_s, s.p50_ms, s.p99_ms, speedup
            ));
        };
    for (codec, section, name) in [
        ("sz", &sz_compress, "compress"),
        ("zfp", &zfp_compress, "compress"),
        ("sz", &sz_decompress, "decompress"),
        ("zfp", &zfp_decompress, "decompress"),
    ] {
        for &(b, ref s) in &section.per_backend {
            row(name, codec, b.name(), "optimized", s, section.speedup(b));
            println!(
                "{name:>10} {codec:>4} [{:>6}]: {:8.1} blk/s ({:6.1} MB/s, p50 {:.3} ms) vs reference {:8.1} blk/s -> {:.2}x",
                b.name(),
                s.blocks_per_s,
                s.mb_per_s,
                s.p50_ms,
                section.reference.blocks_per_s,
                section.speedup(b)
            );
        }
        row(name, codec, "-", "reference", &section.reference, 1.0);
    }
    row(
        "compress-variable",
        "sz",
        headline.name(),
        "streaming-pool",
        &mt,
        0.0,
    );
    println!(
        "  variable  sz: streaming executor {:6.1} vars/s ({:6.1} MB/s, {} blocks/var) on {headline}",
        mt.blocks_per_s, mt.mb_per_s, mt_blocks
    );
    write_result("hotpath.csv", &csv);

    let backend_json = backends
        .iter()
        .map(|&b| {
            format!(
                concat!(
                    "    \"{name}\": {{\"sz_compress_blocks_per_s\": {sc:.2}, \"sz_compress_speedup\": {scs:.3},",
                    " \"zfp_compress_blocks_per_s\": {zc:.2}, \"zfp_compress_speedup\": {zcs:.3},",
                    " \"sz_decompress_speedup\": {sds:.3}, \"zfp_decompress_speedup\": {zds:.3}}}"
                ),
                name = b.name(),
                sc = sz_compress.sample(b).blocks_per_s,
                scs = sz_compress.speedup(b),
                zc = zfp_compress.sample(b).blocks_per_s,
                zcs = zfp_compress.speedup(b),
                sds = sz_decompress.speedup(b),
                zds = zfp_decompress.speedup(b),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"block_dims\": [8, 64, 64],\n",
            "  \"quick\": {quick},\n",
            "  \"backend\": \"{backend}\",\n",
            "  \"cpu_features\": \"{cpu}\",\n",
            "  \"single_thread\": {{\n",
            "    \"sz\": {{\"compress_blocks_per_s\": {sc:.2}, \"compress_speedup\": {scs:.3},",
            " \"decompress_blocks_per_s\": {sd:.2}, \"decompress_speedup\": {sds:.3}}},\n",
            "    \"zfp\": {{\"compress_blocks_per_s\": {zc:.2}, \"compress_speedup\": {zcs:.3},",
            " \"decompress_blocks_per_s\": {zd:.2}, \"decompress_speedup\": {zds:.3}}}\n",
            "  }},\n",
            "  \"backends\": {{\n{backend_json}\n  }},\n",
            "  \"streaming_pool\": {{\"sz_vars_per_s\": {mv:.2}, \"sz_mb_per_s\": {mm:.2}}}\n",
            "}}\n"
        ),
        quick = quick,
        backend = headline.name(),
        cpu = cpu,
        sc = sz_compress.sample(headline).blocks_per_s,
        scs = sz_compress.speedup(headline),
        sd = sz_decompress.sample(headline).blocks_per_s,
        sds = sz_decompress.speedup(headline),
        zc = zfp_compress.sample(headline).blocks_per_s,
        zcs = zfp_compress.speedup(headline),
        zd = zfp_decompress.sample(headline).blocks_per_s,
        zds = zfp_decompress.speedup(headline),
        backend_json = backend_json,
        mv = mt.blocks_per_s,
        mm = mt.mb_per_s,
    );
    write_root_result("BENCH_hotpath.json", &json);

    // --- regression gate -------------------------------------------------
    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failures = Vec::new();

        // Scalar speedups vs the committed baseline: the SIMD backends must
        // never be bought by letting the portable path rot.  When the run is
        // pinned to a non-scalar backend the scalar rows don't exist and the
        // check is skipped (CI's scalar leg pins scalar explicitly).
        if backends.contains(&Backend::Scalar) {
            type Rerun<'a> = &'a dyn Fn(f64, &[Backend]) -> Section;
            let checks: [(&str, f64, Rerun); 2] = [
                (
                    "sz_compress_speedup",
                    sz_compress.speedup(Backend::Scalar),
                    &run_sz_compress,
                ),
                (
                    "zfp_compress_speedup",
                    zfp_compress.speedup(Backend::Scalar),
                    &run_zfp_compress,
                ),
            ];
            for (key, measured, rerun) in checks {
                let expected = json_number(&baseline, key)
                    .unwrap_or_else(|| panic!("baseline {path} missing {key}"));
                let floor = expected * REGRESSION_TOLERANCE;
                let mut value = measured;
                if value < floor {
                    // A quick window on a noisy shared runner can dip a ratio
                    // spuriously; re-measure once with a longer window before
                    // declaring a regression.
                    let retry = rerun(window_s.max(1.5), &[Backend::Scalar]);
                    println!(
                        "check {key}: quick measurement {value:.3} below floor, re-measured {:.3}",
                        retry.speedup(Backend::Scalar)
                    );
                    value = value.max(retry.speedup(Backend::Scalar));
                }
                println!(
                    "check {key} [scalar]: measured {value:.3}, baseline {expected:.3}, floor {floor:.3}"
                );
                if value < floor {
                    failures.push(format!(
                        "{key} regressed: {value:.3} < {floor:.3} (baseline {expected:.3} - 20%)"
                    ));
                }
            }
        } else {
            println!("check: scalar not measured (pinned to {headline}), baseline gate skipped");
        }

        // SIMD must actually pay for itself on the flagship loop.
        let best = gld_kernels::best_available();
        if best != Backend::Scalar
            && backends.contains(&best)
            && backends.contains(&Backend::Scalar)
        {
            let ratio = sz_compress.sample(best).blocks_per_s
                / sz_compress.sample(Backend::Scalar).blocks_per_s;
            let mut value = ratio;
            if value < SIMD_SZ_COMPRESS_FLOOR {
                let retry = run_sz_compress(window_s.max(1.5), &[Backend::Scalar, best]);
                let retry_ratio =
                    retry.sample(best).blocks_per_s / retry.sample(Backend::Scalar).blocks_per_s;
                println!(
                    "check simd_sz_compress_ratio: quick measurement {value:.3} below floor, re-measured {retry_ratio:.3}"
                );
                value = value.max(retry_ratio);
            }
            println!(
                "check simd_sz_compress_ratio [{best} vs scalar]: measured {value:.3}, floor {SIMD_SZ_COMPRESS_FLOOR:.2}"
            );
            if value < SIMD_SZ_COMPRESS_FLOOR {
                failures.push(format!(
                    "{best} sz compress only {value:.3}x scalar (< {SIMD_SZ_COMPRESS_FLOOR:.2}x)"
                ));
            }
        } else {
            println!(
                "check simd_sz_compress_ratio: skipped (no SIMD backend measured alongside scalar)"
            );
        }

        if !failures.is_empty() {
            eprintln!(
                "hotpath throughput regression:\n  {}",
                failures.join("\n  ")
            );
            std::process::exit(1);
        }
        println!("regression gate passed");
    }
}

/// Minimal `"key": number` extractor — the baseline file is a flat JSON
/// object we write ourselves, so a full parser would be overkill.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
