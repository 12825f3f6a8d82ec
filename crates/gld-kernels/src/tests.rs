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
