//! Container entropy-stage benchmark: compression-ratio and throughput
//! accounting for the `gld-lz` lossless stage — stage-on (v3) vs stage-off
//! (v2), and optionally the shared-profile warm path (v4) — over the
//! synthetic-field corpus.
//!
//! For every dataset kind × codec the binary compresses each variable,
//! encodes the container both ways, verifies the staged stream round-trips
//! **bit-identically** back to the unstaged frames, and measures the stage
//! codec's own compress/decompress throughput over the real frame payloads.
//! With `--profiles` it adds the container-v4 shared-profile leg: every
//! variable is also encoded against its fitted [`gld_core::WarmProfile`] (shared
//! entropy model + stage warm-start + seed dictionary), the profile-table
//! bytes are accounted separately, and warm stage-compress throughput is
//! measured against the cold rate.
//!
//! Results land in `results/entropy_stage.csv` and
//! `BENCH_entropy_stage.json` (repo root).  Flags:
//!
//! * `--quick` — short measurement windows (CI mode);
//! * `--profiles` — add the shared-profile (container v4) leg;
//! * `--backend <scalar|sse2|avx2|simd|auto>` — pin the kernel backend the
//!   stage (and the codecs feeding it) runs on;
//! * `--check` — exit non-zero unless the stage-on container total is at
//!   least [`REQUIRED_REDUCTION`] smaller than stage-off on the corpus and
//!   every staged container round-trips bit-identically; with `--profiles`
//!   the gate additionally requires the shared-profile total to not exceed
//!   the per-frame total and warm stage compression to run at least
//!   [`REQUIRED_WARM_SPEEDUP`]× the cold rate (the CI gate).

use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_bench::{write_result, write_root_result};
use gld_core::{Codec, Container, ErrorTarget};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_lz::{LzProfile, LzScratch};
use std::time::Instant;

/// The gate: stage-on containers must shave at least this fraction off the
/// stage-off total on the synthetic-field corpus.
const REQUIRED_REDUCTION: f64 = 0.10;

/// The warm-path gate: shared-profile stage compression must run at least
/// this many times faster than cold per-frame staging (the fit it skips).
const REQUIRED_WARM_SPEEDUP: f64 = 1.5;

/// One corpus leg's accounting.
struct Leg {
    dataset: &'static str,
    codec: &'static str,
    off_bytes: usize,
    on_bytes: usize,
    staged_frames: usize,
    total_frames: usize,
    roundtrip_ok: bool,
    /// Shared-profile (v4) accounting, present with `--profiles`.
    shared: Option<SharedLeg>,
}

/// The shared-profile leg of one dataset × codec cell.
struct SharedLeg {
    bytes: usize,
    profile_table_bytes: usize,
    staged_frames: usize,
    roundtrip_ok: bool,
}

impl Leg {
    fn reduction(&self) -> f64 {
        1.0 - self.on_bytes as f64 / self.off_bytes.max(1) as f64
    }
}

/// One variable's warm-staging workload: the v4 frames plus the profile and
/// seed dictionary they stage under.
struct WarmWork {
    frames: Vec<Vec<u8>>,
    dict: Vec<u8>,
    lz: LzProfile,
}

/// Measures gld-lz compress and decompress MB/s over real frame payloads.
fn measure_stage_throughput(frames: &[Vec<u8>], window_s: f64) -> (f64, f64) {
    let mut scratch = LzScratch::new();
    let total_bytes: usize = frames.iter().map(Vec::len).sum();
    let staged: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| gld_lz::compress(f, &mut scratch))
        .collect();

    let run = |mut op: Box<dyn FnMut() + '_>| -> f64 {
        op(); // warm-up
        let start = Instant::now();
        let mut passes = 0usize;
        while start.elapsed().as_secs_f64() < window_s {
            op();
            passes += 1;
        }
        passes as f64 * total_bytes as f64 / 1e6 / start.elapsed().as_secs_f64()
    };

    let compress_mb_s = {
        let mut scratch = LzScratch::new();
        run(Box::new(|| {
            for frame in frames {
                std::hint::black_box(gld_lz::compress(frame, &mut scratch));
            }
        }))
    };
    let decompress_mb_s = run(Box::new(|| {
        for (stream, frame) in staged.iter().zip(frames) {
            std::hint::black_box(gld_lz::decompress(stream, frame.len()).expect("valid stream"));
        }
    }));
    (compress_mb_s, decompress_mb_s)
}

/// Measures warm (shared-profile) stage compression MB/s: every frame is
/// staged under its variable's fitted profile and seed dictionary — the
/// per-frame model fit the cold path pays is skipped entirely.
fn measure_warm_stage_throughput(work: &[WarmWork], window_s: f64) -> f64 {
    let total_bytes: usize = work
        .iter()
        .map(|w| w.frames.iter().map(Vec::len).sum::<usize>())
        .sum();
    let mut scratch = LzScratch::new();
    let mut pass = || {
        for w in work {
            for (index, frame) in w.frames.iter().enumerate() {
                let dict = if index == 0 {
                    &[][..]
                } else {
                    w.dict.as_slice()
                };
                std::hint::black_box(gld_lz::compress_profiled(frame, dict, &w.lz, &mut scratch));
            }
        }
    };
    pass(); // warm-up
    let start = Instant::now();
    let mut passes = 0usize;
    while start.elapsed().as_secs_f64() < window_s {
        pass();
        passes += 1;
    }
    passes as f64 * total_bytes as f64 / 1e6 / start.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let profiles = args.iter().any(|a| a == "--profiles");
    if let Some(i) = args.iter().position(|a| a == "--backend") {
        let sel = args.get(i + 1).expect("--backend needs a value");
        let b = gld_kernels::Backend::parse_selection(sel)
            .unwrap_or_else(|| panic!("--backend: unknown selection {sel:?}"));
        gld_kernels::force(b).unwrap_or_else(|e| panic!("--backend: {e}"));
    }
    println!(
        "entropy_stage: kernel backend {} (cpu: {})",
        gld_kernels::active(),
        gld_kernels::cpu_features()
    );
    let window_s = if quick { 0.25 } else { 1.5 };

    // The synthetic-field corpus: every generator kind, the figure-binary
    // field shape (2 variables × 32 frames of 16×16, four 8-frame windows
    // each), the paper's mid-curve NRMSE target.
    let spec = FieldSpec::new(2, 32, 16, 16);
    let block_frames = 8;
    let target = Some(ErrorTarget::Nrmse(1e-3));
    let kinds = [
        (DatasetKind::E3sm, "e3sm"),
        (DatasetKind::S3d, "s3d"),
        (DatasetKind::Jhtdb, "jhtdb"),
    ];
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    let codecs: [(&str, &dyn Codec); 2] = [("sz", &sz), ("zfp", &zfp)];

    let mut legs = Vec::new();
    let mut all_frames: Vec<Vec<u8>> = Vec::new();
    let mut warm_work: Vec<WarmWork> = Vec::new();
    for (kind, kind_name) in kinds {
        let ds = generate(kind, &spec, 29);
        for (codec_name, codec) in codecs {
            let mut off_bytes = 0usize;
            let mut on_bytes = 0usize;
            let mut staged_frames = 0usize;
            let mut total_frames = 0usize;
            let mut roundtrip_ok = true;
            let mut shared = profiles.then_some(SharedLeg {
                bytes: 0,
                profile_table_bytes: 0,
                staged_frames: 0,
                roundtrip_ok: true,
            });
            for variable in &ds.variables {
                let (container, _) = codec.compress_variable(variable, block_frames, target);
                let off = container.encode_v2();
                let on = container.encode();
                off_bytes += off.len();
                on_bytes += on.len();
                total_frames += container.blocks().len();
                staged_frames += container.staged_frames();
                // Bit-identical round trip: the staged stream must decode to
                // exactly the unstaged frames (and the v2 stream to the
                // same).
                let decoded = Container::decode(&on).expect("staged container decodes");
                roundtrip_ok &= decoded == container;
                roundtrip_ok &= Container::decode(&off).expect("v2 decodes") == container;
                all_frames.extend(container.blocks().iter().cloned());
                if let Some(sh) = shared.as_mut() {
                    let (warm, _) =
                        codec.compress_variable_profiled_sequential(variable, block_frames, target);
                    let v4 = warm.encode();
                    sh.bytes += v4.len();
                    sh.profile_table_bytes += warm.profile_table_bytes();
                    sh.staged_frames += warm.staged_frames();
                    // The v4 stream must round-trip to the same container
                    // state and re-encode bit-identically.
                    let decoded = Container::decode(&v4).expect("v4 container decodes");
                    sh.roundtrip_ok &= decoded == warm;
                    sh.roundtrip_ok &= decoded.encode() == v4;
                    let entry = &warm.profiles()[0];
                    if let Some(lz) = entry.lz.clone() {
                        warm_work.push(WarmWork {
                            frames: warm.blocks().to_vec(),
                            dict: warm.blocks()[0].clone(),
                            lz,
                        });
                    }
                }
            }
            legs.push(Leg {
                dataset: kind_name,
                codec: codec_name,
                off_bytes,
                on_bytes,
                staged_frames,
                total_frames,
                roundtrip_ok,
                shared,
            });
        }
    }

    let (compress_mb_s, decompress_mb_s) = measure_stage_throughput(&all_frames, window_s);
    let warm_compress_mb_s =
        (!warm_work.is_empty()).then(|| measure_warm_stage_throughput(&warm_work, window_s));

    let off_total: usize = legs.iter().map(|l| l.off_bytes).sum();
    let on_total: usize = legs.iter().map(|l| l.on_bytes).sum();
    let total_reduction = 1.0 - on_total as f64 / off_total.max(1) as f64;
    let all_roundtrip = legs.iter().all(|l| l.roundtrip_ok);
    let shared_total: usize = legs
        .iter()
        .filter_map(|l| l.shared.as_ref().map(|s| s.bytes))
        .sum();
    let shared_table_total: usize = legs
        .iter()
        .filter_map(|l| l.shared.as_ref().map(|s| s.profile_table_bytes))
        .sum();
    let shared_roundtrip = legs
        .iter()
        .filter_map(|l| l.shared.as_ref())
        .all(|s| s.roundtrip_ok);

    let mut csv = String::from(
        "dataset,codec,mode,stage_off_bytes,stage_on_bytes,profile_table_bytes,reduction,staged_frames,total_frames,roundtrip_ok\n",
    );
    for leg in &legs {
        println!(
            "{:>6} {:>4}: stage-off {:7} B, stage-on {:7} B  ({:5.1}% smaller, {}/{} frames staged, roundtrip {})",
            leg.dataset,
            leg.codec,
            leg.off_bytes,
            leg.on_bytes,
            leg.reduction() * 100.0,
            leg.staged_frames,
            leg.total_frames,
            if leg.roundtrip_ok { "ok" } else { "FAILED" },
        );
        csv.push_str(&format!(
            "{},{},per-frame,{},{},0,{:.4},{},{},{}\n",
            leg.dataset,
            leg.codec,
            leg.off_bytes,
            leg.on_bytes,
            leg.reduction(),
            leg.staged_frames,
            leg.total_frames,
            leg.roundtrip_ok
        ));
        if let Some(sh) = &leg.shared {
            let reduction = 1.0 - sh.bytes as f64 / leg.off_bytes.max(1) as f64;
            println!(
                "{:>6} {:>4}: shared-profile {:5} B (table {:4} B, {:5.1}% smaller than off, {}/{} frames staged, roundtrip {})",
                leg.dataset,
                leg.codec,
                sh.bytes,
                sh.profile_table_bytes,
                reduction * 100.0,
                sh.staged_frames,
                leg.total_frames,
                if sh.roundtrip_ok { "ok" } else { "FAILED" },
            );
            csv.push_str(&format!(
                "{},{},shared,{},{},{},{:.4},{},{},{}\n",
                leg.dataset,
                leg.codec,
                leg.off_bytes,
                sh.bytes,
                sh.profile_table_bytes,
                reduction,
                sh.staged_frames,
                leg.total_frames,
                sh.roundtrip_ok
            ));
        }
    }
    let staged_total: usize = legs.iter().map(|l| l.staged_frames).sum();
    let frames_total: usize = legs.iter().map(|l| l.total_frames).sum();
    csv.push_str(&format!(
        "total,all,per-frame,{off_total},{on_total},0,{total_reduction:.4},{staged_total},{frames_total},{all_roundtrip}\n"
    ));
    if profiles {
        let shared_reduction = 1.0 - shared_total as f64 / off_total.max(1) as f64;
        let shared_staged: usize = legs
            .iter()
            .filter_map(|l| l.shared.as_ref().map(|s| s.staged_frames))
            .sum();
        csv.push_str(&format!(
            "total,all,shared,{off_total},{shared_total},{shared_table_total},{shared_reduction:.4},{shared_staged},{frames_total},{shared_roundtrip}\n"
        ));
    }
    println!(
        "  total: {off_total} -> {on_total} B ({:.1}% smaller); stage throughput {compress_mb_s:.1} MB/s compress, {decompress_mb_s:.1} MB/s decompress",
        total_reduction * 100.0
    );
    if let Some(warm) = warm_compress_mb_s {
        println!(
            "  shared-profile total: {shared_total} B (tables {shared_table_total} B); warm stage compress {warm:.1} MB/s ({:.2}x cold)",
            warm / compress_mb_s.max(1e-9)
        );
    }
    write_result("entropy_stage.csv", &csv);

    let (mode, shared_json) = if profiles {
        let warm = warm_compress_mb_s.unwrap_or(0.0);
        (
            "shared",
            format!(
                concat!(
                    "  \"shared_bytes\": {shared},\n",
                    "  \"profile_table_bytes\": {table},\n",
                    "  \"shared_roundtrip_bit_identical\": {roundtrip},\n",
                    "  \"warm_stage_compress_mb_per_s\": {warm:.2},\n",
                    "  \"warm_speedup\": {speedup:.2},\n",
                    "  \"required_warm_speedup\": {required:.2},\n",
                ),
                shared = shared_total,
                table = shared_table_total,
                roundtrip = shared_roundtrip,
                warm = warm,
                speedup = warm / compress_mb_s.max(1e-9),
                required = REQUIRED_WARM_SPEEDUP,
            ),
        )
    } else {
        ("per-frame", String::new())
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"quick\": {quick},\n",
            "  \"backend\": \"{backend}\",\n",
            "  \"profile_mode\": \"{mode}\",\n",
            "  \"stage_off_bytes\": {off},\n",
            "  \"stage_on_bytes\": {on},\n",
            "{shared_json}",
            "  \"reduction\": {reduction:.4},\n",
            "  \"required_reduction\": {required:.2},\n",
            "  \"roundtrip_bit_identical\": {roundtrip},\n",
            "  \"stage_compress_mb_per_s\": {cmbs:.2},\n",
            "  \"stage_decompress_mb_per_s\": {dmbs:.2}\n",
            "}}\n"
        ),
        quick = quick,
        backend = gld_kernels::active(),
        mode = mode,
        off = off_total,
        on = on_total,
        shared_json = shared_json,
        reduction = total_reduction,
        required = REQUIRED_REDUCTION,
        roundtrip = all_roundtrip,
        cmbs = compress_mb_s,
        dmbs = decompress_mb_s,
    );
    write_root_result("BENCH_entropy_stage.json", &json);

    if check {
        let mut failures = Vec::new();
        if !all_roundtrip {
            failures.push("staged containers did not round-trip bit-identically".to_string());
        }
        if total_reduction < REQUIRED_REDUCTION {
            failures.push(format!(
                "stage-on total only {:.1}% smaller than stage-off (gate: {:.0}%)",
                total_reduction * 100.0,
                REQUIRED_REDUCTION * 100.0
            ));
        }
        if profiles {
            if !shared_roundtrip {
                failures
                    .push("shared-profile containers did not round-trip bit-identically".into());
            }
            if shared_total > on_total {
                failures.push(format!(
                    "shared-profile total {shared_total} B exceeds per-frame total {on_total} B"
                ));
            }
            let warm = warm_compress_mb_s.unwrap_or(0.0);
            if warm < REQUIRED_WARM_SPEEDUP * compress_mb_s {
                failures.push(format!(
                    "warm stage compress {warm:.1} MB/s is under {REQUIRED_WARM_SPEEDUP}x the cold {compress_mb_s:.1} MB/s"
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("entropy-stage gate failed:\n  {}", failures.join("\n  "));
            std::process::exit(1);
        }
        println!("entropy-stage gate passed");
    }
}
