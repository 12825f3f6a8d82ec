//! Sweep of `KernelBackend::exp_f64` and `KernelBackend::erf_f64`, bit for
//! bit: the AVX2 kernels against the scalar replicas, the scalar `exp`
//! replica against the host libm's `f64::exp`, and the scalar `erf` against
//! the Abramowitz & Stegun formula over libm's `exp` that it replaces.
//!
//! Inputs: 2³² evenly strided values in `[−38.5, 0)` (every multiple of
//! `77·2⁻³³` there, the range the Gaussian entropy model's `erf` asks `exp`
//! about), the doubles around both ends of every table interval in that
//! range, `±0`, NaNs, infinities, tiny and subnormal values, the ends of
//! `exp`'s domain `|x| < 512`, and a coarse stride through every `f64` bit
//! pattern.  `exp` is compared on the inputs inside its domain, `erf` on
//! all of them; where `erf` returns NaN
//! any NaN matches, since the sign and payload of a NaN computed from a NaN
//! are not fixed by the language (the compiler may commute the operands of
//! a product of two NaNs), and the entropy model reads a NaN bin edge only
//! through `max`, which drops it.
//!
//! The replica copies glibc 2.36's `__exp_fma`, which glibc selects on CPUs
//! with FMA and AVX2, so the libm comparisons run only on such a CPU; the
//! AVX2 comparisons run wherever that backend is available.  Run it in
//! release mode (a few minutes on two threads):
//!
//! ```text
//! cargo run --release -p gld-kernels --example exp_erf_sweep
//! ```
//!
//! Exits non-zero on any mismatch, after printing the first few.

use gld_kernels::{kernels_for, Backend, KernelBackend};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const CHUNK: usize = 1 << 16;
const STRIDED: u64 = 1 << 32;
/// `38.5 / 2³²`, exact.
const STEP: f64 = 38.5 / STRIDED as f64;

/// The error function as the Gaussian model computed it before the `exp`
/// replica: the same formula over the host libm's `exp`.
fn libm_erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Inputs on which `exp_f64` promises libm's bits.
fn in_exp_domain(x: f64) -> bool {
    x.abs() < 512.0
}

/// Equal bits, or both NaN.
fn same_erf(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[derive(Default)]
struct Counts {
    exp_simd: u64,
    exp_libm: u64,
    erf_simd: u64,
    erf_libm: u64,
    printed: u64,
}

struct Sweep {
    scalar: &'static dyn KernelBackend,
    avx2: Option<&'static dyn KernelBackend>,
    libm: bool,
    counts: Mutex<Counts>,
}

impl Sweep {
    fn check(&self, inputs: &[f64]) {
        let mut exp = inputs.to_vec();
        self.scalar.exp_f64(&mut exp);
        let mut erf = inputs.to_vec();
        self.scalar.erf_f64(&mut erf);
        let mut local = Counts::default();
        let mut lines = Vec::new();
        let mut mismatch = |count: &mut u64, what: &str, x: f64, got: f64, want: f64| {
            *count += 1;
            lines.push(format!(
                "{what}: x = {x:e} ({:#018x}): {:#018x}, want {:#018x}",
                x.to_bits(),
                got.to_bits(),
                want.to_bits()
            ));
        };
        if let Some(avx2) = self.avx2 {
            let mut simd = inputs.to_vec();
            avx2.exp_f64(&mut simd);
            for ((&x, &r), &s) in inputs.iter().zip(&exp).zip(&simd) {
                if in_exp_domain(x) && r.to_bits() != s.to_bits() {
                    mismatch(&mut local.exp_simd, "exp avx2/scalar", x, s, r);
                }
            }
            simd.copy_from_slice(inputs);
            avx2.erf_f64(&mut simd);
            for ((&x, &r), &s) in inputs.iter().zip(&erf).zip(&simd) {
                if !same_erf(r, s) {
                    mismatch(&mut local.erf_simd, "erf avx2/scalar", x, s, r);
                }
            }
        }
        if self.libm {
            for (&x, &r) in inputs.iter().zip(&exp) {
                let e = x.exp();
                if in_exp_domain(x) && r.to_bits() != e.to_bits() {
                    mismatch(&mut local.exp_libm, "exp scalar/libm", x, r, e);
                }
            }
            for (&x, &r) in inputs.iter().zip(&erf) {
                let e = libm_erf(x);
                if !same_erf(r, e) {
                    mismatch(&mut local.erf_libm, "erf scalar/libm", x, r, e);
                }
            }
        }
        if !lines.is_empty() {
            let mut counts = self.counts.lock().expect("counts");
            for line in lines {
                if counts.printed < 8 {
                    counts.printed += 1;
                    println!("{line}");
                }
            }
            counts.exp_simd += local.exp_simd;
            counts.exp_libm += local.exp_libm;
            counts.erf_simd += local.erf_simd;
            counts.erf_libm += local.erf_libm;
        }
    }
}

/// The inputs outside the strided range, and the ends of the table
/// intervals inside it.
fn edge_inputs() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff4_0000_0000_0000),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        -38.5,
    ];
    // Subnormals, and the tiny-argument threshold 2⁻⁵⁴ and its neighbours.
    for bits in [1u64, 2, 0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000] {
        xs.extend([f64::from_bits(bits), -f64::from_bits(bits)]);
    }
    // The ends of `exp`'s domain and the saturation of `erf`'s argument,
    // each with neighbours.
    for centre in [2f64.powi(-54), 2f64.powi(-27), 512.0, 37.43, 38.5, 6.2048] {
        for x in [centre, -centre] {
            let mut up = x;
            let mut down = x;
            for _ in 0..4 {
                xs.extend([up, down]);
                up = up.next_up();
                down = down.next_down();
            }
        }
    }
    // Both ends of every table interval in [−38.5, 0]: `x·128/ln 2` at a
    // half-integer is where the rounded `k` steps.
    let inv_ln2_n = 128.0 / std::f64::consts::LN_2;
    let first = (-38.5 * inv_ln2_n).floor() as i64 - 1;
    for k in first..=0 {
        let boundary = (k as f64 + 0.5) / inv_ln2_n;
        let (mut up, mut down) = (boundary, boundary);
        for _ in 0..4 {
            xs.extend([up, down]);
            up = up.next_up();
            down = down.next_down();
        }
    }
    // A coarse stride through every bit pattern: the top 20 bits (sign,
    // exponent, leading mantissa) counted, the rest scrambled.
    xs.extend(
        (0..1u64 << 20)
            .map(|i| f64::from_bits(i << 44 | i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20)),
    );
    xs
}

fn main() {
    let started = Instant::now();
    let avx2 = Backend::Avx2
        .is_available()
        .then(|| kernels_for(Backend::Avx2));
    let libm = is_fma_host();
    if avx2.is_none() {
        println!("AVX2 is not available: AVX2 against scalar skipped");
    }
    if !libm {
        println!("no FMA and AVX2: libm is not __exp_fma here, scalar against libm skipped");
    }
    let sweep = Sweep {
        scalar: kernels_for(Backend::Scalar),
        avx2,
        libm,
        counts: Mutex::new(Counts::default()),
    };
    let edges = edge_inputs();
    for chunk in edges.chunks(CHUNK) {
        sweep.check(chunk);
    }
    let next = AtomicU64::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut inputs = vec![0.0f64; CHUNK];
                loop {
                    let start = next.fetch_add(CHUNK as u64, Ordering::Relaxed);
                    if start >= STRIDED {
                        break;
                    }
                    for (i, x) in inputs.iter_mut().enumerate() {
                        *x = -38.5 + (start + i as u64) as f64 * STEP;
                    }
                    sweep.check(&inputs);
                }
            });
        }
    });
    let counts = sweep.counts.into_inner().expect("counts");
    let total = counts.exp_simd + counts.exp_libm + counts.erf_simd + counts.erf_libm;
    println!(
        "exact exp and erf over 2^32 strided and {} edge inputs: exp {} avx2/scalar and {} \
         scalar/libm mismatches, erf {} avx2/scalar and {} scalar/libm mismatches, \
         {threads} threads, {:.1} s",
        edges.len(),
        counts.exp_simd,
        counts.exp_libm,
        counts.erf_simd,
        counts.erf_libm,
        started.elapsed().as_secs_f64()
    );
    if total > 0 {
        std::process::exit(1);
    }
}

fn is_fma_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
