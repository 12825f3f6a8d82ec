//! Golden block frames: every codec's bytes, measured error and decoded
//! floats for one fixed set of blocks, pinned across commits on every
//! kernel backend.
//!
//! `container_golden.rs` pins whole containers written by an older encoder
//! and `lz_golden.rs` pins the lossless stage; this table pins the codec
//! layer under both of them.  Five codecs — SZ3-like, ZFP-like, VAE-SR,
//! CDC-X (untrained tiny VAE) and an untrained seeded `GldCompressor` on
//! `GldConfig::tiny()` — code two `[8, 16, 16]` blocks of the S3D and E3SM
//! generators, at window indices 0 and 3, under no target, an NRMSE target
//! and a point-wise target.  The rule-based codecs code each case twice:
//! cold, and under the shared model `fit_variable_profile` fits for the
//! variable.  Each case records the frame's length and FNV-1a-64, the bits
//! of the squared error the executor accounts for it, and the FNV-1a-64 of
//! the decoded tensor's bits.
//!
//! SZ's integer-only pipeline pins everywhere.  The other codecs run
//! transcendental floats (`expf`, `tanhf`, `sqrt` on PCA residuals), so
//! they pin exactly only where the table was recorded — x86-64 Linux with
//! glibc, the gate `gld_inference_equivalence.rs` uses — and elsewhere are
//! checked only to round-trip to the block's shape.
//!
//! The table was recorded once and is never regenerated: a diff in it is a
//! format change.  There is exactly one `#[test]` here because it forces
//! each backend process-wide in turn.

use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_core::{
    fit_variable_profile, BlockJob, Codec, CodecId, CodecScratch, EncodedBlock, ErrorTarget,
    GldCompressor, GldConfig, LearnedBaseline, LearnedBaselineKind,
};
use gld_datasets::blocks::temporal_window_at;
use gld_datasets::{generate, DatasetKind, FieldSpec, Variable};
use gld_diffusion::ConditionalDiffusion;
use gld_entropy::HistogramModel;
use gld_tensor::Tensor;
use gld_vae::{Vae, VaeConfig};

const BLOCK_FRAMES: usize = 8;

/// Frame length, frame FNV, squared-error bits, decoded-tensor FNV.
type Row = (usize, u64, u64, u64);

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn tensor_fnv(t: &Tensor) -> u64 {
    fnv1a64(t.data().iter().flat_map(|v| v.to_le_bytes()))
}

/// Σ(a − b)² the way the executor sums it: `f32` subtract, widen, square,
/// add in index order.
fn squared_error(original: &Tensor, recon: &Tensor) -> f64 {
    let mut sum = 0.0f64;
    for (a, b) in original.data().iter().zip(recon.data()) {
        let d = (*a - *b) as f64;
        sum += d * d;
    }
    sum
}

/// Where the float-heavy codecs were recorded.
const EXACT_FLOATS: bool = cfg!(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu"
));

fn variables() -> Vec<(&'static str, Variable)> {
    [("s3d", DatasetKind::S3d), ("e3sm", DatasetKind::E3sm)]
        .into_iter()
        .map(|(name, kind)| {
            let spec = FieldSpec::new(1, 4 * BLOCK_FRAMES, 16, 16);
            (name, generate(kind, &spec, 29).variables.remove(0))
        })
        .collect()
}

const TARGETS: [(&str, Option<ErrorTarget>); 3] = [
    ("none", None),
    ("nrmse 1e-2", Some(ErrorTarget::Nrmse(1e-2))),
    ("pointwise 2e-2", Some(ErrorTarget::PointwiseAbs(2e-2))),
];

/// The frame and the squared error the executor accounts for it: the
/// codec's own measurement, or the sum against the decoded frame.
fn encode_measured(
    codec: &dyn Codec,
    block: &Tensor,
    target: Option<ErrorTarget>,
    index: u64,
    model: Option<&HistogramModel>,
) -> (Vec<u8>, f64) {
    let job = BlockJob {
        model,
        measure: true,
        ..BlockJob::new(block, target, index)
    };
    let encoded = codec.encode(&job, &mut CodecScratch::new());
    let EncodedBlock { frame, sq_err } = encoded.expect("a rank-3 block");
    let sq_err = sq_err.unwrap_or_else(|| squared_error(block, &decode(codec, &frame, model)));
    (frame, sq_err)
}

fn decode(codec: &dyn Codec, frame: &[u8], model: Option<&HistogramModel>) -> Tensor {
    codec.decode(frame, model).expect("frame decodes")
}

/// Codes every case on the active backend and returns `(label, pinned,
/// row)` in table order.
fn record(codecs: &[(&str, &dyn Codec)]) -> Vec<(String, bool, Row)> {
    let variables = variables();
    let mut rows = Vec::new();
    for &(codec_name, codec) in codecs {
        let rule_based = matches!(codec.id(), CodecId::SzLike | CodecId::ZfpLike);
        let pinned = codec.id() == CodecId::SzLike || EXACT_FLOATS;
        for (variable_name, variable) in &variables {
            for (target_name, target) in TARGETS {
                let shared = rule_based
                    .then(|| fit_variable_profile(codec, variable, BLOCK_FRAMES, target))
                    .and_then(|warm| warm.profile.model);
                let models = [("cold", None), ("shared", shared.as_ref())];
                let models = if rule_based {
                    &models[..]
                } else {
                    &models[..1]
                };
                for index in [0u64, 3] {
                    let block = temporal_window_at(variable, BLOCK_FRAMES, index as usize).data;
                    for &(model_name, model) in models {
                        let (frame, sq_err) = encode_measured(codec, &block, target, index, model);
                        let decoded = decode(codec, &frame, model);
                        assert_eq!(decoded.dims(), block.dims());
                        if model.is_none() {
                            // The forms `perf/` calls name the same bytes.
                            assert_eq!(codec.compress_block_at(&block, target, index), frame);
                            assert_eq!(
                                tensor_fnv(&codec.decompress_block(&frame)),
                                tensor_fnv(&decoded)
                            );
                        }
                        let label = format!(
                            "{codec_name} {variable_name} block {index} {target_name} {model_name}"
                        );
                        let row = (
                            frame.len(),
                            fnv1a64(frame.iter().copied()),
                            sq_err.to_bits(),
                            tensor_fnv(&decoded),
                        );
                        rows.push((label, pinned, row));
                    }
                }
            }
        }
    }
    rows
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (1452, 0x5916274c15f8697e, 0x3e20d460aeea0000, 0xefa6113829319dc5), // sz s3d block 0 none cold
    (981, 0x78165c3249c29d79, 0x3e20d460aeea0000, 0xefa6113829319dc5), // sz s3d block 0 none shared
    (1334, 0x1d4de789c8bc5b69, 0x3e0ec7daa5780000, 0x2a058f958a3db772), // sz s3d block 3 none cold
    (889, 0x1d085fd758806910, 0x3e0ec7daa5780000, 0x2a058f958a3db772), // sz s3d block 3 none shared
    (678, 0x0fd752a7af82c69b, 0x3e8a589d18c2f000, 0x88b24ee0755d5946), // sz s3d block 0 nrmse 1e-2 cold
    (538, 0x90894619b30dc2aa, 0x3e8a589d18c2f000, 0x88b24ee0755d5946), // sz s3d block 0 nrmse 1e-2 shared
    (617, 0xbe9cac5f47fc35e3, 0x3e7837e000130000, 0xbd801b9b65da01fe), // sz s3d block 3 nrmse 1e-2 cold
    (526, 0xcb736934335d403f, 0x3e7837e000130000, 0xbd801b9b65da01fe), // sz s3d block 3 nrmse 1e-2 shared
    (51, 0x4b77a88e763a69a0, 0x3f9793e30cab89da, 0xb9d103fd6854a325), // sz s3d block 0 pointwise 2e-2 cold
    (36, 0xf53262c476c8a991, 0x3f9793e30cab89da, 0xb9d103fd6854a325), // sz s3d block 0 pointwise 2e-2 shared
    (51, 0x4b77a88e763a69a0, 0x3f9a6c0731a41374, 0xb9d103fd6854a325), // sz s3d block 3 pointwise 2e-2 cold
    (36, 0xf53262c476c8a991, 0x3f9a6c0731a41374, 0xb9d103fd6854a325), // sz s3d block 3 pointwise 2e-2 shared
    (2890, 0x4891658f233bd185, 0x3feb77db88000000, 0x55f353d040ae00cd), // sz e3sm block 0 none cold
    (1514, 0x0701815dfae6c47d, 0x3feb77db88000000, 0x55f353d040ae00cd), // sz e3sm block 0 none shared
    (2886, 0x728a26383b5a830c, 0x3fec6fb87c800000, 0x150a63f6f0768894), // sz e3sm block 3 none cold
    (1508, 0x7e5c35628d0e2e72, 0x3fec6fb87c800000, 0x150a63f6f0768894), // sz e3sm block 3 none shared
    (1069, 0x1efa787d856f0106, 0x40553a7c31ad0000, 0xc1168dc5f9e2920a), // sz e3sm block 0 nrmse 1e-2 cold
    (778, 0x2054ccaeb3932522, 0x40553a7c31ad0000, 0xc1168dc5f9e2920a), // sz e3sm block 0 nrmse 1e-2 shared
    (1043, 0x2d3796ebb08d9b09, 0x4057360cca800000, 0xec0f51ee2941aa21), // sz e3sm block 3 nrmse 1e-2 cold
    (776, 0x64e618e7eeb0eba5, 0x4057360cca800000, 0xec0f51ee2941aa21), // sz e3sm block 3 nrmse 1e-2 shared
    (3672, 0x91e03c8ceb2ed4ca, 0x3fd13b0040000000, 0x90e51f2bbde216c4), // sz e3sm block 0 pointwise 2e-2 cold
    (1724, 0x8f581d27f1702178, 0x3fd13b0040000000, 0x90e51f2bbde216c4), // sz e3sm block 0 pointwise 2e-2 shared
    (3597, 0xd04fb35e5c28d48c, 0x3fd1685e71000000, 0xef8bf65b9f2b7525), // sz e3sm block 3 pointwise 2e-2 cold
    (1729, 0x77f875aa52245fae, 0x3fd1685e71000000, 0xef8bf65b9f2b7525), // sz e3sm block 3 pointwise 2e-2 shared
    (6143, 0x5719f3aa0bbcc21d, 0x3d9fe60738000000, 0xe1215ffd658c28ef), // zfp s3d block 0 none cold
    (2088, 0x66d97425b2b031f0, 0x3d9fe60738000000, 0xe1215ffd658c28ef), // zfp s3d block 0 none shared
    (5946, 0x962591683ee78786, 0x3d8d4a0780000000, 0xcf54b2ba8f4abc8e), // zfp s3d block 3 none cold
    (2002, 0xa7bbe76395140173, 0x3d8d4a0780000000, 0xcf54b2ba8f4abc8e), // zfp s3d block 3 none shared
    (3157, 0xff3fc26d92254cf1, 0x3e052b0293680000, 0xefae2491ea9aef7a), // zfp s3d block 0 nrmse 1e-2 cold
    (1340, 0x1211f84ede9f1b99, 0x3e052b0293680000, 0xefae2491ea9aef7a), // zfp s3d block 0 nrmse 1e-2 shared
    (2853, 0x27d8a431a5c45137, 0x3df2f4c11f700000, 0x36caa46cdf5b2db9), // zfp s3d block 3 nrmse 1e-2 cold
    (1284, 0x175596ddd0ba8dc2, 0x3df2f4c11f700000, 0x36caa46cdf5b2db9), // zfp s3d block 3 nrmse 1e-2 shared
    (159, 0xcda66bb10b2a9833, 0x3f0c0d37db56a900, 0x7d4041b03a547645), // zfp s3d block 0 pointwise 2e-2 cold
    (91, 0x82b62725b6a2038f, 0x3f0c0d37db56a900, 0x7d4041b03a547645), // zfp s3d block 0 pointwise 2e-2 shared
    (119, 0x7d0ab0d80d91c256, 0x3f084327f0280f08, 0x8d350395c9959e25), // zfp s3d block 3 pointwise 2e-2 cold
    (74, 0x2693d374a10148f0, 0x3f084327f0280f08, 0x8d350395c9959e25), // zfp s3d block 3 pointwise 2e-2 shared
    (9673, 0x65de2a7996f315a1, 0x3f6ab1f800000000, 0xa4c1fe1d48f8af0c), // zfp e3sm block 0 none cold
    (2561, 0x4411ee587c47ad98, 0x3f6ab1f800000000, 0xa4c1fe1d48f8af0c), // zfp e3sm block 0 none shared
    (9614, 0xe17e978b05b05211, 0x3f6c016400000000, 0x60333a1d2927b596), // zfp e3sm block 3 none cold
    (2539, 0xe2459e96a8b6fc92, 0x3f6c016400000000, 0x60333a1d2927b596), // zfp e3sm block 3 none shared
    (5144, 0x497a76b88a84915a, 0x3fd3816576000000, 0xcbe6f4579cac9a8c), // zfp e3sm block 0 nrmse 1e-2 cold
    (1842, 0x5665a2a83f04c2eb, 0x3fd3816576000000, 0xcbe6f4579cac9a8c), // zfp e3sm block 0 nrmse 1e-2 shared
    (5101, 0x0f098e62ecb1312c, 0x3fd443bfa1000000, 0x79a69e3b22c819fd), // zfp e3sm block 3 nrmse 1e-2 cold
    (1824, 0x5c1c41ba168c7416, 0x3fd443bfa1000000, 0x79a69e3b22c819fd), // zfp e3sm block 3 nrmse 1e-2 shared
    (10844, 0x1c0a9b3bdce95381, 0x3f514e6000000000, 0x34742cee085ed2ad), // zfp e3sm block 0 pointwise 2e-2 cold
    (2777, 0xccc817d1702eea26, 0x3f514e6000000000, 0x34742cee085ed2ad), // zfp e3sm block 0 pointwise 2e-2 shared
    (10727, 0x2d3e0a0b28646bf7, 0x3f51591d00000000, 0xbd870cd8cd8be11d), // zfp e3sm block 3 pointwise 2e-2 cold
    (2789, 0xfbd72c7c5094fd2e, 0x3f51591d00000000, 0xbd870cd8cd8be11d), // zfp e3sm block 3 pointwise 2e-2 shared
    (1148, 0x48670c99f31ed21f, 0x3f59cace602c026b, 0xf5a051b2cee4d8aa), // vae-sr s3d block 0 none cold
    (1248, 0x8e10b42d4238e573, 0x3f3ce596250850b4, 0x1398c0ce8bac97de), // vae-sr s3d block 3 none cold
    (6380, 0xec2bdbfa960c4aa3, 0x3e93cd4a38426000, 0x4b244b35e63f3499), // vae-sr s3d block 0 nrmse 1e-2 cold
    (5869, 0xd06f181fffbd0984, 0x3e828f03c912a800, 0x25ab3b27e6e76507), // vae-sr s3d block 3 nrmse 1e-2 cold
    (1237, 0x679662a15151f1ad, 0x3f59cace602c026b, 0xf5a051b2cee4d8aa), // vae-sr s3d block 0 pointwise 2e-2 cold
    (1337, 0x44f0c8564355f08f, 0x3f3ce596250850b4, 0x1398c0ce8bac97de), // vae-sr s3d block 3 pointwise 2e-2 cold
    (1166, 0xce4ea460814e1410, 0x4129aa1cd573af9c, 0x9065047c9ede51c7), // vae-sr e3sm block 0 none cold
    (1426, 0x75fd016ba88c210f, 0x412acbc2b60bc3d2, 0xd8600e18cc088eea), // vae-sr e3sm block 3 none cold
    (6622, 0xb14f4a7f8a37c9de, 0x405bbfaed9240000, 0x92d6294f48591233), // vae-sr e3sm block 0 nrmse 1e-2 cold
    (6922, 0x25f3be36b088c808, 0x40597756074e0000, 0xa87d55fbbd625eca), // vae-sr e3sm block 3 nrmse 1e-2 cold
    (16139, 0x5d9ddafe3c827602, 0x3fb6d5241c000000, 0xc7a21e6b38769ff4), // vae-sr e3sm block 0 pointwise 2e-2 cold
    (17130, 0xd838a462e46dfbb4, 0x3fb316c398000000, 0x98a8ab5f3ab80083), // vae-sr e3sm block 3 pointwise 2e-2 cold
    (925, 0xb6f6ca8e46dd4c54, 0x3f59cace602c026b, 0xf5a051b2cee4d8aa), // cdc-x s3d block 0 none cold
    (859, 0xd2199633c0752a31, 0x3f3ce596250850b4, 0x1398c0ce8bac97de), // cdc-x s3d block 3 none cold
    (6157, 0x99424118173797f4, 0x3e93cd4a38426000, 0x4b244b35e63f3499), // cdc-x s3d block 0 nrmse 1e-2 cold
    (5480, 0xad99d870ba03ab42, 0x3e828f03c912a800, 0x25ab3b27e6e76507), // cdc-x s3d block 3 nrmse 1e-2 cold
    (1014, 0x47e5bb7ef0d547a8, 0x3f59cace602c026b, 0xf5a051b2cee4d8aa), // cdc-x s3d block 0 pointwise 2e-2 cold
    (948, 0x310c63b3ca12d541, 0x3f3ce596250850b4, 0x1398c0ce8bac97de), // cdc-x s3d block 3 pointwise 2e-2 cold
    (796, 0x141e014463cb0048, 0x4129aa1cd573af9c, 0x9065047c9ede51c7), // cdc-x e3sm block 0 none cold
    (829, 0x868ad72d93b7df91, 0x412acbc2b60bc3d2, 0xd8600e18cc088eea), // cdc-x e3sm block 3 none cold
    (6252, 0xb18aefef220771d6, 0x405bbfaed9240000, 0x92d6294f48591233), // cdc-x e3sm block 0 nrmse 1e-2 cold
    (6325, 0x3c3df9023fab2e62, 0x40597756074e0000, 0xa87d55fbbd625eca), // cdc-x e3sm block 3 nrmse 1e-2 cold
    (15769, 0xa283bcd677bfb39a, 0x3fb6d5241c000000, 0xc7a21e6b38769ff4), // cdc-x e3sm block 0 pointwise 2e-2 cold
    (16533, 0x4afdd1449900affa, 0x3fb316c398000000, 0x98a8ab5f3ab80083), // cdc-x e3sm block 3 pointwise 2e-2 cold
    (763, 0xaa9a48551b3766e7, 0x3f55de3aa4ffb7a9, 0xf3b6c076ddc700c6), // gld s3d block 0 none cold
    (806, 0x057691243fc6b42c, 0x3f361d37e69da73e, 0xd16b167c110146cc), // gld s3d block 3 none cold
    (5799, 0xee5a526b8b45258e, 0x3e9350f0192e0000, 0x89f44fc758d18cda), // gld s3d block 0 nrmse 1e-2 cold
    (5241, 0x6b91cf1613f0a392, 0x3e847ffebc6e0000, 0x2b16cc2e08d8f97b), // gld s3d block 3 nrmse 1e-2 cold
    (852, 0xfb44a0894ae4c295, 0x3f55de3aa4ffb7a9, 0xf3b6c076ddc700c6), // gld s3d block 0 pointwise 2e-2 cold
    (895, 0x046a16d8634b42fa, 0x3f361d37e69da73e, 0xd16b167c110146cc), // gld s3d block 3 pointwise 2e-2 cold
    (745, 0xb31ce49e76d76b68, 0x412b3161ecbf3e92, 0x3e23ab4a65a254f8), // gld e3sm block 0 none cold
    (890, 0x281b1276e6519f83, 0x41256fdd122f3640, 0x2ef4cba6f4a6052e), // gld e3sm block 3 none cold
    (6250, 0x54a2a672fee22105, 0x405b5bba3f6f0000, 0x12af44b70ce8f9a9), // gld e3sm block 0 nrmse 1e-2 cold
    (6104, 0xe4a966899cc26a1e, 0x405a5f53bb1a0000, 0xe8831ff129fafe55), // gld e3sm block 3 nrmse 1e-2 cold
    (15791, 0x3ca9e71a06c623c2, 0x3fb99039cc000000, 0xa7fd0a05fd6bb428), // gld e3sm block 0 pointwise 2e-2 cold
    (16212, 0xd13019b6f5c9b19a, 0x3fb59c8f0c000000, 0xeec67faeb5e6c951), // gld e3sm block 3 pointwise 2e-2 cold
];

#[test]
fn codec_block_bytes_match_the_recorded_table_on_every_backend() {
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    let vae = Vae::new(VaeConfig::tiny());
    let vaesr = LearnedBaseline::new(LearnedBaselineKind::VaeSr, &vae, None);
    let cdcx = LearnedBaseline::new(LearnedBaselineKind::CdcX, &vae, None);
    let config = GldConfig::tiny();
    let gld = GldCompressor::from_parts(
        config,
        Vae::new(config.vae),
        ConditionalDiffusion::new(config.diffusion),
    );
    let codecs: [(&str, &dyn Codec); 5] = [
        ("sz", &sz),
        ("zfp", &zfp),
        ("vae-sr", &vaesr),
        ("cdc-x", &cdcx),
        ("gld", &gld),
    ];
    for backend in gld_kernels::available_backends() {
        gld_kernels::force(backend).expect("available");
        let rows = record(&codecs);
        gld_kernels::clear_force();
        assert_eq!(rows.len(), GOLDEN.len(), "case count");
        let diffs: Vec<String> = rows
            .iter()
            .zip(GOLDEN)
            .filter(|((_, pinned, got), want)| *pinned && got != *want)
            .map(|((label, _, got), want)| format!("{label}: got {got:?}, recorded {want:?}"))
            .collect();
        assert!(
            diffs.is_empty(),
            "backend {backend}: {} of {} cases changed\n{}",
            diffs.len(),
            rows.len(),
            diffs.join("\n")
        );
    }
}
