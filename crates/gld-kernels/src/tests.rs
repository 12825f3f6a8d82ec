//! Per-kernel bit-identity: every backend the host supports must agree
//! with the scalar reference to the last bit, including NaN/infinity
//! escapes, round-to-half ties and values near the `2^23` rint guard.

use crate::*;
use proptest::prelude::*;

fn simd_backends() -> Vec<&'static dyn KernelBackend> {
    available_backends()
        .into_iter()
        .filter(|&b| b != Backend::Scalar)
        .map(kernels_for)
        .collect()
}

/// Tiny deterministic generator so the crate stays dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    /// Mostly smooth values with occasional outliers and non-finite lanes.
    fn field_value(&mut self, spiky: bool) -> f32 {
        let v = self.f32() * 4.0;
        if !spiky {
            return v;
        }
        match self.next_u64() % 19 {
            0 => v * 1e20,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => f32::NAN,
            _ => v,
        }
    }
}

fn random_plane(seed: u64, d1: usize, d2: usize, spiky: bool) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = Rng::new(seed);
    let n = d1 * d2;
    let src: Vec<f32> = (0..n).map(|_| rng.field_value(spiky)).collect();
    let prev: Vec<f32> = (0..n).map(|_| rng.field_value(spiky)).collect();
    // Boundary row/column prefilled, interior poisoned so a lane that
    // skips a cell cannot silently agree.
    let mut recon = vec![f32::NAN; n];
    for slot in recon.iter_mut().take(d2) {
        *slot = rng.f32();
    }
    for j in 1..d1 {
        recon[j * d2] = rng.f32();
    }
    (src, prev, recon)
}

fn run_sz_plane(
    backend: &dyn KernelBackend,
    src: &[f32],
    prev: &[f32],
    recon_init: &[f32],
    d1: usize,
    d2: usize,
    two_eb: f32,
) -> (Vec<f32>, Vec<i32>) {
    let mut recon = recon_init.to_vec();
    let mut codes = vec![i32::MIN; recon.len()];
    let mut plane = SzPlane {
        src,
        prev,
        recon: &mut recon,
        codes: &mut codes,
        d1,
        d2,
        two_eb,
        abs_error: two_eb / 2.0,
    };
    backend.sz_quantize_plane(&mut plane);
    (recon, codes)
}

fn random_basis(seed: u64) -> [[f32; 4]; 4] {
    let mut rng = Rng::new(seed);
    let mut basis = [[0.0f32; 4]; 4];
    for row in &mut basis {
        for v in row {
            *v = rng.f32();
        }
    }
    basis
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sz_plane_backends_are_bit_identical(
        seed in 0u64..1_000_000,
        d1 in 1usize..24,
        d2 in 1usize..40,
        eb_exp in -5i32..1,
        spiky_pick in 0u32..2,
    ) {
        let spiky = spiky_pick == 1;
        let (src, prev, recon_init) = random_plane(seed, d1, d2, spiky);
        let two_eb = 2.0 * 10f32.powi(eb_exp);
        let (rec_ref, codes_ref) = run_sz_plane(
            kernels_for(Backend::Scalar), &src, &prev, &recon_init, d1, d2, two_eb,
        );
        for backend in simd_backends() {
            let (rec, codes) = run_sz_plane(backend, &src, &prev, &recon_init, d1, d2, two_eb);
            prop_assert_eq!(
                rec.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rec_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(&codes, &codes_ref);
        }
    }

    #[test]
    fn zfp_transform_backends_are_bit_identical(
        seed in 0u64..1_000_000,
        inverse_pick in 0u32..2,
        spiky_pick in 0u32..2,
    ) {
        let (inverse, spiky) = (inverse_pick == 1, spiky_pick == 1);
        let mut rng = Rng::new(seed);
        let basis = random_basis(seed ^ 0xA5A5);
        let mut reference = [0.0f32; 64];
        for v in &mut reference {
            *v = rng.field_value(spiky);
        }
        let mut expected = reference;
        kernels_for(Backend::Scalar).zfp_transform(&mut expected, &basis, inverse);
        for backend in simd_backends() {
            let mut block = reference;
            backend.zfp_transform(&mut block, &basis, inverse);
            prop_assert_eq!(
                block.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn zfp_quantize_backends_are_bit_identical(
        seed in 0u64..1_000_000,
        step in 1e-6f32..10.0,
        spiky_pick in 0u32..2,
    ) {
        let spiky = spiky_pick == 1;
        let mut rng = Rng::new(seed);
        let mut block = [0.0f32; 64];
        for v in &mut block {
            *v = rng.field_value(spiky) * 100.0;
        }
        let mut codes_ref = [0i32; 64];
        let mut escapes_ref = vec![7; 3]; // dirty prefix must be preserved
        kernels_for(Backend::Scalar).zfp_quantize(&block, step, &mut codes_ref, &mut escapes_ref);
        for backend in simd_backends() {
            let mut codes = [0i32; 64];
            let mut escapes = vec![7; 3];
            backend.zfp_quantize(&block, step, &mut codes, &mut escapes);
            prop_assert_eq!(&codes[..], &codes_ref[..]);
            prop_assert_eq!(&escapes, &escapes_ref);
        }
    }

    #[test]
    fn find_bin_backends_are_bit_identical(
        freqs in prop::collection::vec(0u32..50, 1..600),
        target_pick in 0u32..u32::MAX,
    ) {
        let mut cdf = Vec::with_capacity(freqs.len() + 1);
        let mut acc = 1u32; // every model's cdf starts at 0 < total
        cdf.push(0);
        for f in &freqs {
            acc += f;
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        let target = target_pick % total;
        let expected = kernels_for(Backend::Scalar).find_bin(&cdf, 0, target);
        for backend in simd_backends() {
            prop_assert_eq!(backend.find_bin(&cdf, 0, target), expected);
            // Starting from the answer must be a no-op scan on every backend.
            prop_assert_eq!(backend.find_bin(&cdf, expected, target), expected);
        }
    }

    #[test]
    fn match_len_backends_are_bit_identical(
        common in prop::collection::vec(0u32..256, 0..200),
        tail_a in prop::collection::vec(0u32..256, 0..40),
        tail_b in prop::collection::vec(0u32..256, 0..40),
    ) {
        let a: Vec<u8> = common.iter().chain(tail_a.iter()).map(|&v| v as u8).collect();
        let b: Vec<u8> = common.iter().chain(tail_b.iter()).map(|&v| v as u8).collect();
        let expected = kernels_for(Backend::Scalar).match_len(&a, &b);
        for backend in simd_backends() {
            prop_assert_eq!(backend.match_len(&a, &b), expected);
        }
    }

    #[test]
    fn hash4_batch_backends_are_bit_identical(
        input in prop::collection::vec(0u32..256, 0..300),
        bits in 8u32..22,
    ) {
        let input: Vec<u8> = input.iter().map(|&v| v as u8).collect();
        let n = input.len().saturating_sub(3);
        let mut expected = vec![0u32; n];
        kernels_for(Backend::Scalar).hash4_batch(&input, bits, &mut expected);
        for backend in simd_backends() {
            let mut out = vec![0u32; n];
            backend.hash4_batch(&input, bits, &mut out);
            prop_assert_eq!(&out, &expected);
        }
    }
}

/// Deterministic worst cases for the round emulation: exact ties, the
/// double-rounding trap, the `2^23` rint guard and non-finite inputs.
#[test]
fn round_edge_cases_survive_quantisation() {
    let tricky = [
        0.5f32,
        -0.5,
        1.5,
        -1.5,
        2.5,
        -2.5,
        0.499_999_97,
        -0.499_999_97,
        4095.5,
        4096.5,
        8_388_607.5,
        8_388_608.0,
        16_777_216.0,
        -16_777_216.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        -0.0,
        0.0,
    ];
    let mut block = [0.0f32; 64];
    block[..tricky.len()].copy_from_slice(&tricky);
    for step in [1.0f32, 0.5, 1e-3] {
        let mut codes_ref = [0i32; 64];
        let mut escapes_ref = Vec::new();
        kernels_for(Backend::Scalar).zfp_quantize(&block, step, &mut codes_ref, &mut escapes_ref);
        for backend in simd_backends() {
            let mut codes = [0i32; 64];
            let mut escapes = Vec::new();
            backend.zfp_quantize(&block, step, &mut codes, &mut escapes);
            assert_eq!(
                codes[..],
                codes_ref[..],
                "step {step} on {}",
                backend.backend()
            );
            assert_eq!(escapes, escapes_ref, "step {step} on {}", backend.backend());
        }
    }
}

/// GEMM operands by `class`: ordinary values; softmax-like rows (zeros,
/// subnormals, tiny normals and probabilities, all within `[0, 1]`); both
/// signs through the subnormal range; magnitudes that break the lifted
/// kernels' headroom; and non-finite values.  Every class mixes in `±0`.
fn gemm_operand(rng: &mut Rng, len: usize, class: u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let v = rng.f32();
            let pick = rng.next_u64() % 16;
            match (class, pick) {
                (_, 0) => 0.0,
                (_, 1) => -0.0,
                (1, 2..=5) => f32::from_bits((rng.next_u64() % 0x0080_0000) as u32),
                (1, 6..=8) => v.abs() * 1e-36,
                (1, _) => v.abs(),
                (2, _) => v * 2f32.powi(-(120 + (rng.next_u64() % 30) as i32)),
                (3, 2..=4) => v * 1e30,
                (3, 5) => v * 3e38,
                (4, 2) => f32::INFINITY,
                (4, 3) => f32::NEG_INFINITY,
                (4, 4) => f32::NAN,
                _ => v * 4.0,
            }
        })
        .collect()
}

/// Bit patterns with every NaN mapped to one: which NaN an operation
/// returns is not specified, that it is one is.
fn nan_bits(values: &[f32]) -> Vec<u32> {
    let canonical = |v: &f32| if v.is_nan() { f32::NAN } else { *v }.to_bits();
    values.iter().map(canonical).collect()
}

/// The definition: `p` in order, zero `a[i,p]` skipped, nothing else.
fn gemm_by_definition(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in (0..k).filter(|&p| a[i * k + p] != 0.0) {
            for j in 0..n {
                out[i * n + j] += a[i * k + p] * b[p * n + j];
            }
        }
    }
    out
}

/// Every backend, with and without a bound on `a`, against the definition.
fn assert_gemm_backends_agree(dims: (usize, usize, usize), a_class: u64, b_class: u64, seed: u64) {
    let (m, k, n) = dims;
    let mut rng = Rng::new(seed);
    let a = gemm_operand(&mut rng, m * k, a_class);
    let b = gemm_operand(&mut rng, k * n, b_class);
    let expected = nan_bits(&gemm_by_definition(&a, &b, dims));
    // Class 1 keeps `a` within [0, 1], as attention's probabilities are.
    let bounds = [None, Some(1.0)];
    for a_max in &bounds[..if a_class == 1 { 2 } else { 1 }] {
        for backend in available_backends() {
            let mut out = vec![f32::NAN; m * n];
            kernels_for(backend).gemm_f32(&a, &b, &mut out, dims, *a_max);
            assert_eq!(
                nan_bits(&out),
                expected,
                "{backend}: {dims:?}, classes {a_class}/{b_class}, seed {seed}, a_max {a_max:?}"
            );
        }
    }
}

#[test]
fn gemm_backends_are_bit_identical_on_every_small_shape() {
    let mut seed = 0;
    for m in 0..=20 {
        for k in 0..=20 {
            for n in 0..=20 {
                for (a_class, b_class) in [
                    (0, 0),
                    (1, 0),
                    (2, 2),
                    (1, 2),
                    (3, 0),
                    (0, 3),
                    (4, 0),
                    (0, 4),
                ] {
                    seed += 1;
                    assert_gemm_backends_agree((m, k, n), a_class, b_class, seed);
                }
            }
        }
    }
}

#[test]
fn gemm_backends_are_bit_identical_on_the_network_shapes() {
    // Bench UNet: q/k/v/o projections, 3x3 conv, q·kᵀ and attn·v of the
    // temporal and spatial passes.
    let shapes = [
        (1024, 12, 12),
        (12, 108, 64),
        (16, 6, 16),
        (64, 6, 64),
        (16, 16, 6),
        (64, 64, 6),
    ];
    for (s, dims) in shapes.into_iter().enumerate() {
        for seed in 0..4 {
            for (a_class, b_class) in [(0, 0), (1, 0), (1, 2), (2, 0), (3, 0), (4, 4)] {
                assert_gemm_backends_agree(dims, a_class, b_class, 1000 * s as u64 + seed);
            }
        }
    }
}

#[test]
#[should_panic(expected = "gemm_f32: slices of")]
fn gemm_rejects_mismatched_lengths() {
    let mut out = [0.0f32; 4];
    kernels().gemm_f32(&[0.0; 4], &[0.0; 3], &mut out, (2, 2, 2), None);
}

#[test]
fn selection_parsing_and_forcing() {
    assert_eq!(Backend::parse_selection("scalar"), Some(Backend::Scalar));
    assert_eq!(Backend::parse_selection("SSE2"), Some(Backend::Sse2));
    assert_eq!(Backend::parse_selection(" avx2 "), Some(Backend::Avx2));
    assert_eq!(Backend::parse_selection("auto"), Some(best_available()));
    assert_eq!(Backend::parse_selection("simd"), Some(best_available()));
    assert_eq!(Backend::parse_selection("neon"), None);

    assert!(Backend::Scalar.is_available());
    let backends = available_backends();
    assert_eq!(backends.first(), Some(&Backend::Scalar));
    assert_eq!(best_available(), *backends.last().unwrap());

    force(Backend::Scalar).unwrap();
    assert_eq!(active(), Backend::Scalar);
    assert_eq!(kernels().backend(), Backend::Scalar);
    force(best_available()).unwrap();
    assert_eq!(active(), best_available());
    clear_force();

    for b in backends {
        assert_eq!(kernels_for(b).backend(), b);
    }
    assert!(!cpu_features().is_empty());
}

// ----------------------------------------------------------------------
// expf
// ----------------------------------------------------------------------

/// `(x, f32::exp(x))` as bit patterns, read from glibc 2.36's libm on a CPU
/// with FMA and AVX2: the input the reduction must not round (`-63.09946`),
/// the overflow and underflow thresholds and the one where the result stops
/// being subnormal, each with its neighbours, signed zeros, infinities,
/// quiet and signalling NaNs, subnormal inputs, the largest finite values
/// and a stride through the softmax's range `[-104, 0]`.
#[rustfmt::skip]
const EXPF_KNOWN: [(u32, u32); 362] = [
    (0xc27c65d9, 0x11fa2993), (0x4202422f, 0x56fc9f1c), (0x42b17216, 0x7f7fff04), (0x42b17217, 0x7f7fff84),
    (0x42b17218, 0x7f800000), (0xc2cff1b3, 0x00000001), (0xc2cff1b4, 0x00000001), (0xc2cff1b5, 0x00000000),
    (0xc2ce8ece, 0x00000001), (0xc2ce8ecf, 0x00000001), (0xc2ce8ed0, 0x00000001), (0x00000000, 0x3f800000),
    (0x80000000, 0x3f800000), (0x7f800000, 0x7f800000), (0xff800000, 0x00000000), (0x7fc00000, 0x7fc00000),
    (0xffc00000, 0xffc00000), (0x7f800001, 0x7fc00001), (0xffa00001, 0xffe00001), (0x00000001, 0x3f800000),
    (0x00400000, 0x3f800000), (0x007fffff, 0x3f800000), (0x80000001, 0x3f800000), (0x80400000, 0x3f800000),
    (0x807fffff, 0x3f800000), (0x7f7fffff, 0x7f800000), (0xff7fffff, 0x00000000), (0x3f800000, 0x402df854),
    (0xbf800000, 0x3ebc5ab2), (0x3f000000, 0x3fd3094c), (0x42b00000, 0x7ef882b7), (0xc2b00000, 0x0041edc4),
    (0xc2aeac50, 0x007fffe6), (0xc2aeac4f, 0x00800026), (0xc2d00000, 0x00000000), (0xc2cf5d8b, 0x00000001),
    (0xc2cebb16, 0x00000001), (0xc2ce18a1, 0x00000001), (0xc2cd762c, 0x00000002), (0xc2ccd3b7, 0x00000002),
    (0xc2cc3142, 0x00000003), (0xc2cb8ecd, 0x00000004), (0xc2caec58, 0x00000006), (0xc2ca49e3, 0x00000008),
    (0xc2c9a76e, 0x0000000c), (0xc2c904f9, 0x00000010), (0xc2c86284, 0x00000016), (0xc2c7c00f, 0x0000001e),
    (0xc2c71d9a, 0x00000029), (0xc2c67b25, 0x00000039), (0xc2c5d8b0, 0x0000004e), (0xc2c5363b, 0x0000006b),
    (0xc2c493c6, 0x00000093), (0xc2c3f151, 0x000000ca), (0xc2c34edc, 0x00000115), (0xc2c2ac67, 0x0000017d),
    (0xc2c209f2, 0x0000020b), (0xc2c1677d, 0x000002ce), (0xc2c0c508, 0x000003da), (0xc2c02293, 0x0000054b),
    (0xc2bf801e, 0x00000745), (0xc2bedda9, 0x000009fb), (0xc2be3b34, 0x00000db6), (0xc2bd98bf, 0x000012d4),
    (0xc2bcf64a, 0x000019dc), (0xc2bc53d5, 0x00002384), (0xc2bbb160, 0x000030c8), (0xc2bb0eeb, 0x000042ff),
    (0xc2ba6c76, 0x00005c03), (0xc2b9ca01, 0x00007e5f), (0xc2b9278c, 0x0000ad8f), (0xc2b88517, 0x0000ee5e),
    (0xc2b7e2a2, 0x00014760), (0xc2b7402d, 0x0001c19f), (0xc2b69db8, 0x00026985), (0xc2b5fb43, 0x0003501b),
    (0xc2b558ce, 0x00048ccd), (0xc2b4b659, 0x00063fc1), (0xc2b413e4, 0x0008951f), (0xc2b3716f, 0x000bc98e),
    (0xc2b2cefa, 0x0010305a), (0xc2b22c85, 0x00163be8), (0xc2b18a10, 0x001e8956), (0xc2b0e79b, 0x0029f06e),
    (0xc2b04526, 0x0039998e), (0xc2afa2b1, 0x004f1bbc), (0xc2af003c, 0x006ca5ff), (0xc2ae5dc7, 0x0095381b),
    (0xc2adbb52, 0x00ccf086), (0xc2ad18dd, 0x010cbbbb), (0xc2ac7668, 0x014148f4), (0xc2abd3f3, 0x0184bae4),
    (0xc2ab317e, 0x01b64b0d), (0xc2aa8f09, 0x01fa5d23), (0xc2a9ec94, 0x022bed2c), (0xc2a94a1f, 0x026c2044),
    (0xc2a8a7aa, 0x02a22638), (0xc2a80535, 0x02deb2ac), (0xc2a762c0, 0x0318ed99), (0xc2a6c04b, 0x03520892),
    (0xc2a61dd6, 0x03903b3a), (0xc2a57b61, 0x03c616d7), (0xc2a4d8ec, 0x04080776), (0xc2a43677, 0x043ad2ff),
    (0xc2a39402, 0x04804b1c), (0xc2a2f18d, 0x04b03328), (0xc2a24f18, 0x04f1fec1), (0xc2a1aca3, 0x05262dfc),
    (0xc2a10a2e, 0x05643bb7), (0xc2a067b9, 0x059cbab1), (0xc29fc544, 0x05d74107), (0xc29f22cf, 0x0613d0fb),
    (0xc29e805a, 0x064b034c), (0xc29ddde5, 0x068b6907), (0xc29d3b70, 0x06bf77c6), (0xc29c98fb, 0x07037b73),
    (0xc29bf686, 0x07349454), (0xc29b5411, 0x07780296), (0xc29ab19c, 0x07aa4f66), (0xc29a0f27, 0x07e9e7fb),
    (0xc2996cb2, 0x08209ff9), (0xc298ca3d, 0x085c9ab4), (0xc29827c8, 0x08977d8c), (0xc2978553, 0x08d00f15),
    (0xc296e2de, 0x090ee01b), (0xc2964069, 0x09443a19), (0xc2959df4, 0x0986c015), (0xc294fb7f, 0x09b9115e),
    (0xc294590a, 0x09fe2cb1), (0xc293b695, 0x0a2e8b18), (0xc2931420, 0x0a6fb858), (0xc29271ab, 0x0aa49e0a),
    (0xc291cf36, 0x0ae2166d), (0xc2912cc1, 0x0b1b417e), (0xc2908a4c, 0x0b553afa), (0xc28fe7d7, 0x0b926d3b),
    (0xc28f4562, 0x0bc91ab4), (0xc28ea2ed, 0x0c0a1982), (0xc28e0078, 0x0c3daaf8), (0xc28d5e03, 0x0c823f03),
    (0xc28cbb8e, 0x0cb2e1ba), (0xc28c1919, 0x0cf5adb3), (0xc28b76a4, 0x0d28b583), (0xc28ad42f, 0x0d67b50a),
    (0xc28a31ba, 0x0d9f1d65), (0xc2898f45, 0x0dda87c7), (0xc288ecd0, 0x0e1610f4), (0xc2884a5b, 0x0e4e1a58),
    (0xc287a7e6, 0x0e8d883f), (0xc2870571, 0x0ec261d6), (0xc28662fc, 0x0f057bc7), (0xc285c087, 0x0f3753f7),
    (0xc2851e12, 0x0f7bc8f8), (0xc2847b9d, 0x0face705), (0xc283d928, 0x0fed7768), (0xc28336b3, 0x102311db),
    (0xc282943e, 0x105ff64d), (0xc281f1c9, 0x1099cbd6), (0xc2814f54, 0x10d339cb), (0xc280acdf, 0x11110cd3),
    (0xc2800a6a, 0x114736b5), (0xc27ecfea, 0x1188cd25), (0xc27d8b00, 0x11bbe27e), (0xc27c4616, 0x1201058c),
    (0xc27b012c, 0x12313336), (0xc279bc42, 0x12735e6d), (0xc2787758, 0x12a71f7b), (0xc277326e, 0x12e58763),
    (0xc275ed84, 0x131d9e74), (0xc274a89a, 0x135879d7), (0xc27363b0, 0x1394a7ca), (0xc2721ec6, 0x13cc2a51),
    (0xc270d9dc, 0x140c339f), (0xc26f94f2, 0x14408e05), (0xc26e5008, 0x14843a86), (0xc26d0b1e, 0x14b59ac0),
    (0xc26bc634, 0x14f96b00), (0xc26a814a, 0x152b46e5), (0xc2693c60, 0x156b3be6), (0xc267f776, 0x15a18965),
    (0xc266b28c, 0x15dddb4a), (0xc2656da2, 0x161859b2), (0xc26428b8, 0x16513d70), (0xc262e3ce, 0x168fafbc),
    (0xc2619ee4, 0x16c55742), (0xc26059fa, 0x170783e7), (0xc25f1510, 0x173a1e50), (0xc25dd026, 0x177f9e10),
    (0xc25c8b3c, 0x17af88be), (0xc25b4652, 0x17f114b5), (0xc25a0168, 0x18258d44), (0xc258bc7e, 0x18635efb),
    (0xc2577794, 0x189c231d), (0xc25632aa, 0x18d670d8), (0xc254edc0, 0x19134205), (0xc253a8d6, 0x194a3ef4),
    (0xc25263ec, 0x198ae232), (0xc2511f02, 0x19bebe99), (0xc24fda18, 0x1a02fc4a), (0xc24e952e, 0x1a33e5ae),
    (0xc24d5044, 0x1a7712b9), (0xc24c0b5a, 0x1aa9aaaf), (0xc24ac670, 0x1ae905c2), (0xc2498186, 0x1b2004a0),
    (0xc2483c9c, 0x1b5bc559), (0xc246f7b2, 0x1b96eb09), (0xc245b2c8, 0x1bcf45dc), (0xc2446dde, 0x1c0e55ec),
    (0xc24328f4, 0x1c437c51), (0xc241e40a, 0x1c863dc2), (0xc2409f20, 0x1cb85e61), (0xc23f5a36, 0x1cfd36de),
    (0xc23e154c, 0x1d2de249), (0xc23cd062, 0x1d6ed080), (0xc23b8b78, 0x1da3fed5), (0xc23a468e, 0x1de13bc4),
    (0xc23901a4, 0x1e1aab56), (0xc237bcba, 0x1e546cc0), (0xc23677d0, 0x1e91df9d), (0xc23532e6, 0x1ec85835),
    (0xc233edfc, 0x1f0993f2), (0xc232a912, 0x1f3cf388), (0xc2316428, 0x1f81c10c), (0xc2301f3e, 0x1fb234b9),
    (0xc22eda54, 0x1ff4c018), (0xc22d956a, 0x20281259), (0xc22c5080, 0x2066d4f2), (0xc22b0b96, 0x209e8382),
    (0xc229c6ac, 0x20d9b46d), (0xc22881c2, 0x21157fd2), (0xc2273cd8, 0x214d5304), (0xc225f7ee, 0x218cff5d),
    (0xc224b304, 0x21c1a5d8), (0xc2236e1a, 0x2204faae), (0xc2222930, 0x2236a2a9), (0xc220e446, 0x227ad575),
    (0xc21f9f5c, 0x22ac3fcc), (0xc21e5a72, 0x22ec91be), (0xc21d1588, 0x23227425), (0xc21bd09e, 0x235f1db2),
    (0xc21a8bb4, 0x23993718), (0xc21946ca, 0x23d26d82), (0xc21801e0, 0x2410808b), (0xc216bcf6, 0x2446760a),
    (0xc215780c, 0x248848d6), (0xc2143322, 0x24bb2cc8), (0xc212ee38, 0x250088c4), (0xc211a94e, 0x253087d5),
    (0xc2106464, 0x2572730d), (0xc20f1f7a, 0x25a67dd9), (0xc20dda90, 0x25e4a967), (0xc20c95a6, 0x261d0604),
    (0xc20b50bc, 0x2657a87a), (0xc20a0bd2, 0x26941805), (0xc208c6e8, 0x26cb64dc), (0xc20781fe, 0x270bac06),
    (0xc2063d14, 0x273fd3ca), (0xc204f82a, 0x2783baa3), (0xc203b340, 0x27b4eb1c), (0xc2026e56, 0x27f879c6),
    (0xc201296c, 0x282aa13f), (0xc1ffc903, 0x286a5882), (0xc1fd3f2e, 0x28a0ed53), (0xc1fab559, 0x28dd050c),
    (0xc1f82b84, 0x2917c6a6), (0xc1f5a1af, 0x29507394), (0xc1f317da, 0x298f2530), (0xc1f08e05, 0x29c49913),
    (0xc1ee0430, 0x2a07015e), (0xc1eb7a5b, 0x2a396b1f), (0xc1e8f086, 0x2a7ea816), (0xc1e666b1, 0x2aaedfeb),
    (0xc1e3dcdc, 0x2af02cf5), (0xc1e15307, 0x2b24ee33), (0xc1dec932, 0x2b6284a1), (0xc1dc3f5d, 0x2b9b8d3f),
    (0xc1d9b588, 0x2bd5a31f), (0xc1d72bb3, 0x2c12b4d2), (0xc1d4a1de, 0x2c497d1f), (0xc1d21809, 0x2c8a5d29),
    (0xc1cf8e34, 0x2cbe07f9), (0xc1cd045f, 0x2d027ef2), (0xc1ca7a8a, 0x2d33399f), (0xc1c7f0b5, 0x2d762688),
    (0xc1c566e0, 0x2da90892), (0xc1c2dd0b, 0x2de8273a), (0xc1c05336, 0x2e1f6be3), (0xc1bdc961, 0x2e5af3af),
    (0xc1bb3f8c, 0x2e965b21), (0xc1b8b5b7, 0x2ece8052), (0xc1b62be2, 0x2f0dce57), (0xc1b3a20d, 0x2f42c234),
    (0xc1b11838, 0x2f85be04), (0xc1ae8e63, 0x2fb7af07), (0xc1ac048e, 0x2ffc4629), (0xc1a97ab9, 0x302d3d13),
    (0xc1a6f0e4, 0x306dedb7), (0xc1a4670f, 0x30a3632d), (0xc1a1dd3a, 0x30e06619), (0xc19f5365, 0x311a18af),
    (0xc19cc990, 0x3153a370), (0xc19a3fbb, 0x31915572), (0xc197b5e6, 0x31c79a8a), (0xc1952c11, 0x320911c4),
    (0xc192a23c, 0x323c40d5), (0xc1901867, 0x32814665), (0xc18d8e92, 0x32b18c5c), (0xc18b04bd, 0x32f3d8fb),
    (0xc1887ae8, 0x332773b9), (0xc185f113, 0x3365fb33), (0xc183673e, 0x339dee0f), (0xc180dd69, 0x33d8e746),
    (0xc17ca729, 0x3414f2fa), (0xc1779380, 0x344c91a1), (0xc1727fd7, 0x348c7a9a), (0xc16d6c2e, 0x34c0ef8d),
    (0xc1685885, 0x35047d88), (0xc16344dc, 0x3535f6d2), (0xc15e3133, 0x3579e984), (0xc1591d8a, 0x35ab9dd1),
    (0xc15409e1, 0x35ebb356), (0xc14ef638, 0x3621db74), (0xc149e28f, 0x365e4c0b), (0xc144cee6, 0x3698a729),
    (0xc13fbb3d, 0x36d1a7e1), (0xc13aa794, 0x370ff8dd), (0xc13593eb, 0x3745bbbf), (0xc1308042, 0x3787c8f1),
    (0xc12b6c99, 0x37ba7d2d), (0xc12658f0, 0x38001035), (0xc1214547, 0x382fe24c), (0xc11c319e, 0x38718fc3),
    (0xc1171df5, 0x38a5e1cf), (0xc1120a4c, 0x38e3d326), (0xc10cf6a3, 0x391c72ec), (0xc107e2fa, 0x3956de83),
    (0xc102cf51, 0x39938d5e), (0xc0fb7750, 0x39caa67b), (0xc0f14ffe, 0x3a0b2953), (0xc0e728ac, 0x3a3f2055),
    (0xc0dd015a, 0x3a833f6f), (0xc0d2da08, 0x3ab441f2), (0xc0c8b2b6, 0x3af79180), (0xc0be8b64, 0x3b2a01c9),
    (0xc0b46412, 0x3b697d71), (0xc0aa3cc0, 0x3ba056da), (0xc0a0156e, 0x3bdc3655), (0xc095ee1c, 0x3c1738a8),
    (0xc08bc6ca, 0x3c4fb085), (0xc0819f78, 0x3c8e9f34), (0xc06ef04b, 0x3cc3e105), (0xc05aa1a6, 0x3d0682f4),
    (0xc0465301, 0x3d38bd78), (0xc032045c, 0x3d7db98a), (0xc01db5b7, 0x3dae3c12), (0xc0096712, 0x3def4be3),
    (0xbfea30db, 0x3e24539b), (0xbfc19392, 0x3e61b043), (0xbf98f649, 0x3e9afb60), (0xbf60b200, 0x3ed4dabd),
    (0xbf0f776e, 0x3f122b2f), (0xbe78f36e, 0x3f48c00d),
];

fn expf_inputs() -> Vec<f32> {
    EXPF_KNOWN.iter().map(|&(x, _)| f32::from_bits(x)).collect()
}

#[test]
fn exp_f32_reproduces_libm_on_every_backend() {
    for backend in available_backends() {
        let mut out = expf_inputs();
        kernels_for(backend).exp_f32(&mut out);
        for (&(x, want), got) in EXPF_KNOWN.iter().zip(&out) {
            assert_eq!(
                got.to_bits(),
                want,
                "{backend}: exp({:e}) ({x:#010x})",
                f32::from_bits(x)
            );
        }
    }
}

#[test]
fn exp_f32_simd_equals_scalar_at_every_length_and_offset() {
    const GUARD: f32 = 12345.0;
    let inputs = expf_inputs();
    for backend in simd_backends() {
        for len in 0..=17 {
            for offset in 0..8 {
                let mut got = vec![GUARD; offset + len + 8];
                got[offset..offset + len].copy_from_slice(&inputs[offset * 11..][..len]);
                let mut want = got.clone();
                kernels_for(Backend::Scalar).exp_f32(&mut want[offset..offset + len]);
                backend.exp_f32(&mut got[offset..offset + len]);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} at length {len}, offset {offset}",
                    backend.backend()
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// exp (f64) and erf
// ----------------------------------------------------------------------

/// `(x, f64::exp(x))` as bit patterns, read from glibc 2.36's libm on a CPU
/// with FMA and AVX2, over the `|x| < 512` the replica covers: signed zeros,
/// the smallest normal and subnormal inputs, and each with its neighbours
/// the tiny-argument bound `2⁻⁵⁴`, the domain's end 512, `±38.5` and
/// `±37.43`; then a stride through `[−38.5, 0]`.  The first four are inputs
/// on which the replica would differ from libm if its
/// `r² · (C2 + r·C3) + (T + r)` or its final `scale + scale · tmp` were
/// rounded twice instead of fused.
#[rustfmt::skip]
const EXP_F64_KNOWN: [(u64, u64); 131] = [
    (0xc042f67bda9ffff2, 0x3c837e1365c0db22), (0xc04220e15a4fffc8, 0x3ca9daeef20bdc23),
    (0xc0433fef14bfffc8, 0x3c75f675cf018213), (0xc0433fe354efffac, 0x3c75f879fe46092b),
    (0x0000000000000000, 0x3ff0000000000000), (0x8000000000000000, 0x3ff0000000000000),
    (0x0000000000000001, 0x3ff0000000000000), (0x8000000000000001, 0x3ff0000000000000),
    (0x0010000000000000, 0x3ff0000000000000), (0x8010000000000000, 0x3ff0000000000000),
    (0x3ff0000000000000, 0x4005bf0a8b145769), (0xbff0000000000000, 0x3fd78b56362cef38),
    (0x3fe0000000000000, 0x3ffa61298e1e069c), (0x3c8fffffffffffff, 0x3ff0000000000000),
    (0x3c90000000000000, 0x3ff0000000000000), (0x3c90000000000001, 0x3ff0000000000000),
    (0xbc90000000000001, 0x3fefffffffffffff), (0xbc90000000000000, 0x3ff0000000000000),
    (0xbc8fffffffffffff, 0x3ff0000000000000), (0x407fffffffffffff, 0x6e19476504ba839a),
    (0xc07fffffffffffff, 0x11c44109edb20a75), (0xc043400000000001, 0x3c75f38ed3eb9baf),
    (0xc043400000000000, 0x3c75f38ed3eb9bdb), (0xc0433fffffffffff, 0x3c75f38ed3eb9c07),
    (0x40433fffffffffff, 0x436753025a61bfb6), (0x4043400000000000, 0x436753025a61bfe5),
    (0x4043400000000001, 0x436753025a61c013), (0xc042b70a3d70a3d8, 0x3c8fff926d5adcf4),
    (0xc042b70a3d70a3d7, 0x3c8fff926d5add34), (0xc042b70a3d70a3d6, 0x3c8fff926d5add74),
    (0x4042b70a3d70a3d6, 0x43500036ca0e2c9b), (0x4042b70a3d70a3d7, 0x43500036ca0e2cbb),
    (0x4042b70a3d70a3d8, 0x43500036ca0e2cdb), (0xbf762e42fef9fff6, 0x3fefd3c22b8f7264),
    (0xc043400000000000, 0x3c75f38ed3eb9bdb), (0xc0430caaa9d3eb16, 0x3c80641112e4e7a0),
    (0xc042d95553a7d62b, 0x3c887a52110be7fa), (0xc042a5fffd7bc141, 0x3c9246ff6eadce71),
    (0xc04272aaa74fac58, 0x3c9b4b852082aaa9), (0xc0423f555123976d, 0x3ca46182943317c3),
    (0xc0420bfffaf78283, 0x3cae6fb92b752a55), (0xc041d8aaa4cb6d99, 0x3cb6ba001fd15928),
    (0xc041a5554e9f58ae, 0x3cc0f83de27e8337), (0xc04171fff87343c4, 0x3cc9579a2776c797),
    (0xc0413eaaa2472edb, 0x3cd2ec39fb902d4c), (0xc0410b554c1b19f0, 0x3cdc4244ebbf2e97),
    (0xc040d7fff5ef0506, 0x3ce519c153dc1d39), (0xc040a4aa9fc2f01c, 0x3cef82df082d58ad),
    (0xc04071554996db31, 0x3cf787735be410a4), (0xc0403dfff36ac647, 0x3d0191a636083242),
    (0xc0400aaa9d3eb15e, 0x3d0a3cb2a58fb9e5), (0xc03faeaa8e2538e6, 0x3d13974a370d6084),
    (0xc03f47ffe1cd0f12, 0x3d1d41bb59615166), (0xc03ee1553574e53d, 0x3d25d881ab109a5e),
    (0xc03e7aaa891cbb69, 0x3d304fde20ac9d45), (0xc03e13ffdcc49195, 0x3d385c27e17f8b4a),
    (0xc03dad55306c67c0, 0x3d4230795ad81c25), (0xc03d46aa84143dec, 0x3d4b29e22f2cedef),
    (0xc03cdfffd7bc1418, 0x3d544864e029b07d), (0xc03c79552b63ea43, 0x3d5e4a372e8a6d94),
    (0xc03c12aa7f0bc06f, 0x3d669dfe6ae98547), (0xc03babffd2b3969b, 0x3d70e3545677a702),
    (0xc03b4555265b6cc6, 0x3d79385f46adeafb), (0xc03adeaa7a0342f2, 0x3d82d4e849e1df04),
    (0xc03a77ffcdab191e, 0x3d8c1f71e6bc09af), (0xc03a11552152ef49, 0x3d94ffc092bddae7),
    (0xc039aaaa74fac575, 0x3d9f5c09f87268e8), (0xc03943ffc8a29ba1, 0x3da76a7478354fb0),
    (0xc038dd551c4a71cc, 0x3db17bff9d7892a4), (0xc03876aa6ff247f8, 0x3dba1c5d7260befc),
    (0xc0380fffc39a1e24, 0x3dc37f25b6d03d70), (0xc037a9551741f44f, 0x3dcd1dad83cf18ee),
    (0xc03742aa6ae9ca7a, 0x3dd5bd95d84da754), (0xc036dbffbe91a0a7, 0x3de03bc412c6860a),
    (0xc0367555123976d2, 0x3de83e22de3e98b9), (0xc0360eaa65e14cfd, 0x3df21a0f08bacf1d),
    (0xc035a7ffb989232a, 0x3dfb0868b160eca6), (0xc03541550d30f955, 0x3e042f661fa74e1e),
    (0xc034daaa60d8cf80, 0x3e0e24e36a75546c), (0xc03473ffb480a5ad, 0x3e16821f3976b500),
    (0xc0340d5508287bd8, 0x3e20ce848fc95590), (0xc033a6aa5bd05203, 0x3e29194ae23c9ba4),
    (0xc0333fffaf782830, 0x3e32bdb354d84b74), (0xc032d955031ffe5b, 0x3e3bfcc9cbfbdc8a),
    (0xc03272aa56c7d486, 0x3e44e5dfdcf3ff68), (0xc0320bffaa6faab3, 0x3e4f3564c366f946),
    (0xc031a554fe1780de, 0x3e574d994ffce132), (0xc0313eaa51bf5709, 0x3e616673b33a138d),
    (0xc030d7ffa5672d36, 0x3e69fc3017735a34), (0xc0307154f90f0361, 0x3e73671ef7008914),
    (0xc0300aaa4cb6d98c, 0x3e7cf9cc1c749ccf), (0xc02f47ff40bd5f71, 0x3e85a2cb328dece1),
    (0xc02e7aa9e80d0bc8, 0x3e9027c2ca85d1cb), (0xc02dad548f5cb81f, 0x3e982042d979d4ae),
    (0xc02cdfff36ac6477, 0x3ea203c056214c60), (0xc02c12a9ddfc10ce, 0x3eaae7187409b7bb),
    (0xc02b4554854bbd25, 0x3eb416862c878677), (0xc02a77ff2c9b697d, 0x3ebdffbda63fe46e),
    (0xc029aaa9d3eb15d4, 0x3ec6666260f0b1aa), (0xc028dd547b3ac22b, 0x3ed0b9ce6eb17054),
    (0xc0280fff228a6e83, 0x3ed8fa5ccab57ec5), (0xc02742a9c9da1ada, 0x3ee2a69af9099f92),
    (0xc02675547129c731, 0x3eebda4c669beef8), (0xc025a7ff18797389, 0x3ef4cc1f0b015161),
    (0xc024daa9bfc91fe0, 0x3eff0eef2e122167), (0xc0240d546718cc37, 0x3f0730e1b7320fb1),
    (0xc0233fff0e68788f, 0x3f115102566b7d6f), (0xc02272a9b5b824e6, 0x3f19dc2a63ad7263),
    (0xc021a5545d07d13d, 0x3f234f35d2f44c33), (0xc020d7ff04577d95, 0x3f2cd616ec910da2),
    (0xc0200aa9aba729ec, 0x3f35882190ef35bd), (0xc01e7aa8a5edac85, 0x3f4013da29637d76),
    (0xc01cdffdf48d0537, 0x3f480287a59a779e), (0xc01b4553432c5de4, 0x3f51ed8d2101205b),
    (0xc019aaa891cbb691, 0x3f5ac5f1445152c8), (0xc0180ffde06b0f43, 0x3f63fdc4e0d4f071),
    (0xc01675532f0a67ec, 0x3f6ddac5a93a5598), (0xc014daa87da9c09d, 0x3f764ac7b703ae36),
    (0xc0133ffdcc49194f, 0x3f80a531d394fbe7), (0xc011a5531ae871f8, 0x3f88db94d0e5ac52),
    (0xc0100aa86987caa9, 0x3f928f9f1337ac1b), (0xc00cdffb704e46b5, 0x3f9bb7f981fab51f),
    (0xc009aaa60d8cf808, 0x3fa4b27df59941ca), (0xc0067550aacba96a, 0x3faee8a8fdc3a4ef),
    (0xc0033ffb480a5acd, 0x3fb7144d820269a2), (0xc0000aa5e5490c1f, 0x3fc13bab66541df8),
    (0xbff9aaa1050f7b04, 0x3fc9bc4c2631707b), (0xbff33ff63f8cddc9, 0x3fd3376a262ebe4e),
    (0xbfe9aa96f41480dd, 0x3fdcb28dbda715ef), (0xbfd9aa82d21e8cd0, 0x3fe56d98cac1ae2e),
    (0x3ee421f5f40d8376, 0x3ff0000a10fe24ad),
];

/// `(x, erf(x))` as bit patterns, `erf` as the Gaussian model computed it
/// before the `exp` replica: the Abramowitz & Stegun formula over glibc
/// 2.36's libm `exp` on a CPU with FMA and AVX2.  Signed zeros, infinities,
/// the largest finite values, subnormal and tiny inputs, the edge of `exp`'s
/// saturation near `±6.2`, and a stride through `[−7, 7]`.
#[rustfmt::skip]
const ERF_KNOWN: [(u64, u64); 99] = [
    (0x0000000000000000, 0x3e112e0be0000000), (0x8000000000000000, 0x3e112e0be0000000),
    (0x7ff0000000000000, 0x3ff0000000000000), (0xfff0000000000000, 0xbff0000000000000),
    (0x7fefffffffffffff, 0x3ff0000000000000), (0xffefffffffffffff, 0xbff0000000000000),
    (0x0000000000000001, 0x3e112e0be0000000), (0x8000000000000001, 0xbe112e0be0000000),
    (0x3e112e0be826d695, 0x3e22485ef0000000), (0xbe112e0be826d695, 0xbe22485ef0000000),
    (0x3e40000000000000, 0x3e4433a04c000000), (0xbe40000000000000, 0xbe4433a04c000000),
    (0x4018d1b71758e219, 0x3ff0000000000000), (0xc018d1b71758e219, 0xbff0000000000000),
    (0x4018666666666666, 0x3ff0000000000000), (0x4018cccccccccccd, 0x3ff0000000000000),
    (0x4019333333333333, 0x3ff0000000000000), (0x4202a05f20000000, 0x3ff0000000000000),
    (0xc01c000000000000, 0xbff0000000000000), (0xc01b4ccc89b0ee4a, 0xbff0000000000000),
    (0xc01a99991361dc94, 0xbff0000000000000), (0xc019e6659d12cadd, 0xbff0000000000000),
    (0xc019333226c3b928, 0xbff0000000000000), (0xc0187ffeb074a772, 0xbff0000000000000),
    (0xc017cccb3a2595bc, 0xbff0000000000000), (0xc0171997c3d68406, 0xbfeffffffffffffd),
    (0xc01666644d87724f, 0xbfefffffffffffea), (0xc015b330d7386099, 0xbfefffffffffff66),
    (0xc014fffd60e94ee4, 0xbfeffffffffffbfd), (0xc0144cc9ea9a3d2e, 0xbfefffffffffe6c6),
    (0xc0139996744b2b78, 0xbfefffffffff6a9d), (0xc012e662fdfc19c1, 0xbfeffffffffcbef4),
    (0xc012332f87ad080c, 0xbfefffffffeee911), (0xc0117ffc115df655, 0xbfefffffffab77c5),
    (0xc010ccc89b0ee4a0, 0xbfeffffffe76242a), (0xc010199524bfd2ea, 0xbfeffffff93f3fe3),
    (0xc00eccc35ce18267, 0xbfefffffe412f82e), (0xc00d665c70435efb, 0xbfefffff932ea0ca),
    (0xc00bfff583a53b8e, 0xbfeffffe7064b6fb), (0xc00a998e97071823, 0xbfeffffa98d68864),
    (0xc0093327aa68f4b7, 0xbfefffee5ea8998e), (0xc007ccc0bdcad14b, 0xbfefffc9c171fda3),
    (0xc0066659d12cade0, 0xbfefff62983396de), (0xc004fff2e48e8a72, 0xbfeffe511c82e39a),
    (0xc003998bf7f06706, 0xbfeffba6f1b0d1e3), (0xc00233250b52439a, 0xbfeff565ee330325),
    (0xc000ccbe1eb4202f, 0xbfefe79682cadf9e), (0xbffeccae642bf986, 0xbfefcae4ed1ad9de),
    (0xbffbffe08aefb2ab, 0xbfef92cd1bb38d2e), (0xbff93312b1b36bd4, 0xbfef2ba0caf3ef4d),
    (0xbff66644d87724fc, 0xbfee7914445ee3ff), (0xbff39976ff3ade25, 0xbfed565b10a3abdf),
    (0xbff0cca925fe974d, 0xbfeb98f8bf13d336), (0xbfebffb69984a0e4, 0xbfe916fdc78dfd8c),
    (0xbfe6661ae70c1335, 0xbfe5b057e9d44f58), (0xbfe0cc7f34938587, 0xbfe1596221511d50),
    (0xbfd665c70435efb0, 0xbfd8472c8ab99ff0), (0xbfc6651f3e89a8a4, 0xbfc903b95e37e3cc),
    (0x3f04f8b588e368f0, 0x3f07aa1cc10b4000), (0x3fc667be553ac4f2, 0x3fc90697c5333e38),
    (0x3fd667168f8e7dd6, 0x3fd8487b82a76aae), (0x3fe0cd26fa3fcc9a, 0x3fe159f1d5ba6443),
    (0x3fe666c2acb85a49, 0x3fe5b0cbe3a50caa), (0x3fec005e5f30e7f7, 0x3fe91755d0faad3f),
    (0x3ff0ccfd08d4bad3, 0x3feb99379abb4cc5), (0x3ff399cae21101ae, 0x3fed568547663c72),
    (0x3ff66698bb4d4882, 0x3fee792eeeb6525c), (0x3ff9336694898f5d, 0x3fef2bb0a2c541d4),
    (0x3ffc00346dc5d639, 0x3fef92d5f643e04d), (0x3ffecd0247021d0c, 0x3fefcae99481f48c),
    (0x4000cce8101f31f4, 0x3fefe798cfd7f5df), (0x4002334efcbd555d, 0x3feff56700236b6a),
    (0x400399b5e95b78cb, 0x3feffba769853c74), (0x4005001cd5f99c39, 0x3feffe514dd0e0b7),
    (0x40066683c297bfa2, 0x3fefff62ab489b6b), (0x4007cceaaf35e310, 0x3fefffc9c8645c50),
    (0x400933519bd4067a, 0x3fefffee6109927d), (0x400a99b8887229e7, 0x3feffffa999aaf7f),
    (0x400c001f75104d55, 0x3feffffe70a02558), (0x400d668661ae70bf, 0x3fefffff933f90dd),
    (0x400ecced4e4c942c, 0x3fefffffe417829a), (0x401019aa1d755bcb, 0x3feffffff9406503),
    (0x4010ccdd93c46d82, 0x3feffffffe7669b2), (0x401180110a137f39, 0x3fefffffffab8748),
    (0x40123344806290ee, 0x3fefffffffeeec52), (0x4012e677f6b1a2a4, 0x3feffffffffcbf99),
    (0x401399ab6d00b459, 0x3fefffffffff6abb), (0x40144cdee34fc610, 0x3fefffffffffe6cb),
    (0x40150012599ed7c7, 0x3feffffffffffbfe), (0x4015b345cfede97c, 0x3fefffffffffff66),
    (0x40166679463cfb33, 0x3fefffffffffffea), (0x401719acbc8c0ce8, 0x3feffffffffffffd),
    (0x4017cce032db1e9e, 0x3ff0000000000000), (0x40188013a92a3055, 0x3ff0000000000000),
    (0x401933471f79420a, 0x3ff0000000000000), (0x4019e67a95c853c1, 0x3ff0000000000000),
    (0x401a99ae0c176576, 0x3ff0000000000000), (0x401b4ce18266772d, 0x3ff0000000000000),
    (0x401c0014f8b588e3, 0x3ff0000000000000),
];

#[test]
fn exp_f64_reproduces_libm_on_every_backend() {
    for backend in available_backends() {
        let mut out: Vec<f64> = EXP_F64_KNOWN
            .iter()
            .map(|&(x, _)| f64::from_bits(x))
            .collect();
        kernels_for(backend).exp_f64(&mut out);
        for (&(x, want), got) in EXP_F64_KNOWN.iter().zip(&out) {
            assert_eq!(
                got.to_bits(),
                want,
                "{backend}: exp({:e}) ({x:#018x})",
                f64::from_bits(x)
            );
        }
    }
}

#[test]
fn erf_f64_reproduces_the_libm_formula_on_every_backend() {
    for backend in available_backends() {
        let mut out: Vec<f64> = ERF_KNOWN.iter().map(|&(x, _)| f64::from_bits(x)).collect();
        kernels_for(backend).erf_f64(&mut out);
        for (&(x, want), got) in ERF_KNOWN.iter().zip(&out) {
            assert_eq!(
                got.to_bits(),
                want,
                "{backend}: erf({:e}) ({x:#018x})",
                f64::from_bits(x)
            );
            assert_eq!(erf(f64::from_bits(x)).to_bits(), want, "scalar erf");
        }
    }
    // NaN stays NaN (its sign and payload are not pinned).
    for backend in available_backends() {
        let mut nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)];
        kernels_for(backend).erf_f64(&mut nans);
        assert!(nans.iter().all(|x| x.is_nan()), "{backend}: {nans:?}");
    }
}

#[test]
fn exp_and_erf_simd_equal_scalar_at_every_length_and_offset() {
    const GUARD: f64 = 12345.0;
    let inputs: Vec<f64> = EXP_F64_KNOWN
        .iter()
        .map(|&(x, _)| f64::from_bits(x))
        .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let scalar = kernels_for(Backend::Scalar);
    for backend in simd_backends() {
        for len in 0..=9 {
            for offset in 0..4 {
                let mut got = vec![GUARD; offset + len + 4];
                got[offset..offset + len].copy_from_slice(&inputs[offset * 13..][..len]);
                let mut want = got.clone();
                scalar.exp_f64(&mut want[offset..offset + len]);
                backend.exp_f64(&mut got[offset..offset + len]);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "exp on {} at length {len}, offset {offset}",
                    backend.backend()
                );
                got[offset..offset + len].copy_from_slice(&inputs[offset * 13..][..len]);
                want.copy_from_slice(&got);
                scalar.erf_f64(&mut want[offset..offset + len]);
                backend.erf_f64(&mut got[offset..offset + len]);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "erf on {} at length {len}, offset {offset}: {g:e} vs {w:e}",
                        backend.backend()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exp_and_erf_backends_are_bit_identical(seed in 0u64..1_000_000, n in 1usize..64) {
        let mut rng = Rng::new(seed);
        let xs: Vec<f64> = (0..n)
            .map(|_| match rng.next_u64() % 4 {
                0 => f64::from_bits(rng.next_u64()),
                1 => -38.5 * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64,
                _ => 16.0 * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 8.0,
            })
            .collect();
        let scalar = kernels_for(Backend::Scalar);
        for backend in simd_backends() {
            for kernel in [KernelBackend::exp_f64, KernelBackend::erf_f64] {
                let (mut got, mut want) = (xs.clone(), xs.clone());
                kernel(scalar, &mut want);
                kernel(backend, &mut got);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()));
                }
            }
        }
    }
}
