//! Exhaustive check of `KernelBackend::exp_f32` over all 2³² `f32` inputs:
//! the AVX2 kernel against the scalar replica, and the scalar replica
//! against the host libm's `f32::exp`, bit for bit.
//!
//! The replica copies glibc's `__expf_fma`, which glibc selects on CPUs
//! with FMA and AVX2, so the libm comparison runs only on such a CPU; the
//! AVX2 comparison runs wherever that backend is available.  Run it in
//! release mode (about 40 s, one thread):
//!
//! ```text
//! cargo run --release -p gld-kernels --example expf_exhaustive
//! ```
//!
//! Exits non-zero on any mismatch, after printing the first few.

use gld_kernels::{kernels_for, Backend};
use std::time::Instant;

const CHUNK: usize = 1 << 16;

fn main() {
    let started = Instant::now();
    let scalar = kernels_for(Backend::Scalar);
    let avx2 = Backend::Avx2
        .is_available()
        .then(|| kernels_for(Backend::Avx2));
    let libm = is_fma_host();
    if avx2.is_none() {
        println!("AVX2 is not available: AVX2 against scalar skipped");
    }
    if !libm {
        println!("no FMA and AVX2: libm is not __expf_fma here, scalar against libm skipped");
    }
    let (mut simd_mismatches, mut libm_mismatches) = (0u64, 0u64);
    let mut inputs = vec![0.0f32; CHUNK];
    let (mut replica, mut simd) = (inputs.clone(), inputs.clone());
    for start in (0..1u64 << 32).step_by(CHUNK) {
        for (i, x) in inputs.iter_mut().enumerate() {
            *x = f32::from_bits((start + i as u64) as u32);
        }
        replica.copy_from_slice(&inputs);
        scalar.exp_f32(&mut replica);
        if let Some(avx2) = avx2 {
            simd.copy_from_slice(&inputs);
            avx2.exp_f32(&mut simd);
            for ((x, r), s) in inputs.iter().zip(&replica).zip(&simd) {
                if r.to_bits() != s.to_bits() {
                    report(&mut simd_mismatches, "avx2", *x, *s, "scalar", *r);
                }
            }
        }
        if libm {
            for (x, r) in inputs.iter().zip(&replica) {
                let e = x.exp();
                if r.to_bits() != e.to_bits() {
                    report(&mut libm_mismatches, "scalar", *x, *r, "libm", e);
                }
            }
        }
    }
    println!(
        "exact expf over 2^32 inputs: {simd_mismatches} avx2/scalar mismatches, \
         {libm_mismatches} scalar/libm mismatches, {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if simd_mismatches + libm_mismatches > 0 {
        std::process::exit(1);
    }
}

fn report(count: &mut u64, name: &str, x: f32, got: f32, other: &str, want: f32) {
    *count += 1;
    if *count <= 8 {
        println!(
            "x = {x:e} ({:#010x}): {name} {:#010x}, {other} {:#010x}",
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
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
