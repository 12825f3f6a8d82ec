//! # gld-kernels
//!
//! Runtime-dispatched CPU kernels for the per-block inner loops of the GLD
//! compression stack: the SZ Lorenzo predict/quantise walk, the ZFP-like
//! DCT tile transform and coefficient quantiser, the histogram model's
//! decode-side bin search, the `gld-lz` match finder's prefix scan and
//! hash precomputation, the `f32` GEMM ([`KernelBackend::gemm_f32`])
//! under every `gld-tensor` matrix product — `Linear`, `conv2d`, attention
//! and the backward rules of the learned codec's networks — the
//! exponential ([`KernelBackend::exp_f32`]) under softmax, sigmoid and SiLU,
//! and the `f64` exponential and error function
//! ([`KernelBackend::exp_f64`], [`KernelBackend::erf_f64`]) under the
//! Gaussian conditional entropy model's bin edges.
//!
//! The design follows the device/backend split used by tensor frameworks:
//! consumers call through the [`KernelBackend`] trait (or the convenience
//! [`kernels`] accessor) and never see dispatch; the backend is selected
//! **once** per process from CPU feature detection, overridable with the
//! `GLD_KERNEL_BACKEND` environment variable (`auto`, `simd`, `scalar`,
//! `sse2`, `avx2`) or programmatically with [`force`] (used by the bench
//! `--backend` flags and the equivalence suite).
//!
//! ## Bit-identity contract
//!
//! Every backend produces **bit-identical** results to the scalar reference
//! for every kernel — same reconstructed floats, same quantisation codes,
//! same bins, same match lengths.  This is what lets the compressors keep
//! their byte-for-byte equivalence against `gld_baselines::reference`
//! regardless of the host CPU, and what makes switching backends mid-process
//! safe (a cached backend handle can never change observable output).  The
//! SIMD paths therefore avoid every value-changing shortcut:
//!
//! * no FMA contraction (separate multiply and add, exactly like scalar);
//!   the fused multiply-adds of [`KernelBackend::exp_f32`] and
//!   [`KernelBackend::exp_f64`] are the scalar replicas' own
//!   `f64::mul_add`s;
//! * `f32::round` (half away from zero) is emulated exactly on top of
//!   round-to-nearest-even plus an exact tie fix-up (the difference
//!   `x - rint(x)` is exact by Sterbenz's lemma, so ties are detected
//!   without double rounding);
//! * accumulation order in the DCT matches the scalar loop term by term,
//!   including the leading `0.0 +` step (signed-zero behaviour);
//! * the GEMM puts output columns (or, for outputs narrower than a vector,
//!   output rows) in the lanes, so each lane runs the scalar loop over
//!   `p = 0..k` in order, skips a zero `a[i,p]` as scalar does, and carries
//!   thin outputs times 2⁶⁴ with the same hand rounding of products below
//!   2⁻¹²⁶ (see `scalar::matmul_thin`);
//! * comparisons use ordered (quiet) predicates so NaN propagates to the
//!   same escape decisions as scalar.
//!
//! The crate-level tests cross-check every kernel against the scalar
//! implementation on every backend the host supports; the workspace
//! equivalence suite (`tests/hotpath_equivalence.rs`) proves the same
//! property end-to-end through the compressors.
//!
//! This is the only crate in the workspace allowed to use `unsafe` (for
//! `std::arch` intrinsics); everything it exports is a safe API.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use scalar::{erf, sz_quantize_cell};

/// Largest representable SZ quantisation code; residuals beyond this are
/// stored as raw floats.  Mirrored by `gld-baselines::szlike`.
pub const SZ_MAX_CODE: i32 = 4096;
/// Sentinel SZ code marking an unpredictable (verbatim) value.
pub const SZ_UNPREDICTABLE: i32 = SZ_MAX_CODE + 1;
/// Largest histogram-coded ZFP quantisation code; larger magnitudes escape
/// to raw 32-bit storage.  Mirrored by `gld-baselines::zfplike`.
pub const ZFP_MAX_CODE: i32 = 8191;
/// Sentinel marking an escaped ZFP coefficient.
pub const ZFP_ESCAPE: i32 = ZFP_MAX_CODE + 1;

/// One plane of the SZ Lorenzo walk, handed to
/// [`KernelBackend::sz_quantize_plane`].
///
/// All slices have length `d1 * d2`.  On entry `recon`'s row `j == 0` and
/// column `k == 0` hold the already-reconstructed boundary cells and `prev`
/// holds the fully reconstructed previous plane; the kernel fills the
/// interior (`j >= 1 && k >= 1`) entries of `recon` and `codes` and leaves
/// everything else untouched.
pub struct SzPlane<'a> {
    /// Source values for this plane.
    pub src: &'a [f32],
    /// Reconstructed previous plane (`i - 1`).
    pub prev: &'a [f32],
    /// Reconstruction of this plane; boundary row/column prefilled.
    pub recon: &'a mut [f32],
    /// Quantisation codes for this plane; interior entries are written.
    pub codes: &'a mut [i32],
    /// Number of rows in the plane.
    pub d1: usize,
    /// Number of columns in the plane.
    pub d2: usize,
    /// Quantisation bin width (`2 * abs_error`).
    pub two_eb: f32,
    /// Point-wise absolute error bound.
    pub abs_error: f32,
}

/// The swappable kernel set.  Default methods are the scalar reference;
/// SIMD backends override whichever loops they accelerate (anything left
/// unimplemented silently keeps the — bit-identical — scalar path, which is
/// how the SSE2 backend handles the gather-hungry Lorenzo walk).
pub trait KernelBackend: Send + Sync {
    /// Which [`Backend`] this kernel set implements.
    fn backend(&self) -> Backend;

    /// Quantises the interior of one plane of the SZ Lorenzo walk (see
    /// [`SzPlane`] for the contract).
    fn sz_quantize_plane(&self, plane: &mut SzPlane<'_>) {
        scalar::sz_plane(plane);
    }

    /// Applies the separable 4-point transform to a `4x4x4` tile: axes
    /// `0,1,2` with `basis` rows forward, axes `2,1,0` with the transpose
    /// when `inverse`.
    fn zfp_transform(&self, block: &mut [f32; 64], basis: &[[f32; 4]; 4], inverse: bool) {
        scalar::zfp_transform(block, basis, inverse);
    }

    /// Quantises the 64 coefficients of one transformed tile with bin width
    /// `step`, writing one code per coefficient and appending the clamped
    /// raw value of every escaped coefficient to `escapes` in tile order.
    fn zfp_quantize(
        &self,
        block: &[f32; 64],
        step: f32,
        codes: &mut [i32; 64],
        escapes: &mut Vec<i32>,
    ) {
        scalar::zfp_quantize(block, step, codes, escapes);
    }

    /// Resolves the histogram decode bin by scanning forward from `bin`
    /// until `cdf[bin + 1] > target` (the caller guarantees a terminator:
    /// `target < cdf.last()`).
    fn find_bin(&self, cdf: &[u32], bin: usize, target: u32) -> usize {
        scalar::find_bin(cdf, bin, target)
    }

    /// Length of the longest common prefix of `a` and `b` — the LZ match
    /// extension loop.
    fn match_len(&self, a: &[u8], b: &[u8]) -> usize {
        scalar::match_len(a, b)
    }

    /// Computes the LZ 4-byte rolling hash (`u32_le * 0x9E37_79B1 >>
    /// (32 - bits)`) for positions `0..out.len()` of `input`
    /// (`out.len() <= input.len() - 3`).
    fn hash4_batch(&self, input: &[u8], bits: u32, out: &mut [u32]) {
        scalar::hash4_batch(input, bits, out);
    }

    /// Dense row-major `[m,k] · [k,n]` product into `out` (`[m,n]`): each
    /// element is the sum over `p = 0..k`, in that order, of the products
    /// `a[i,p] · b[p,j]` whose `a[i,p]` is not zero, every product and
    /// partial sum rounded to `f32`.  `a_max`, when the caller has one, is
    /// a bound on the magnitude of every finite element of `a` (it saves
    /// the thin-output kernels a scan; the result does not depend on it).
    ///
    /// # Panics
    /// Panics if a slice length does not match `dims`.
    fn gemm_f32(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        dims: (usize, usize, usize),
        a_max: Option<f32>,
    ) {
        check_gemm_dims(a, b, out, dims);
        scalar::gemm_f32(a, b, out, dims, a_max);
    }

    /// Replaces every element `x` of `xs` by `eˣ`, bit for bit as glibc
    /// 2.36's `expf` computes it on a CPU with FMA — its `__expf_fma`
    /// variant, replicated in plain `f64` fused multiply-adds and a 32-entry
    /// table, so the result does not depend on the host's libm.  NaN stays
    /// NaN (`x + x`), above `ln 2¹²⁸` is `+∞`, below `ln 2⁻¹⁵⁰` is `+0`.
    fn exp_f32(&self, xs: &mut [f32]) {
        xs.iter_mut().for_each(|x| *x = scalar::expf(*x));
    }

    /// Replaces every element `x` of `xs` with `|x| < 512` by `eˣ`, bit for
    /// bit as glibc 2.36's `exp` computes it on a CPU with FMA — its
    /// `__exp_fma` variant, replicated in plain `f64` fused multiply-adds
    /// and a 128-entry table, so the result does not depend on the host's
    /// libm.  That covers the `[−38.5, 0]` that [`KernelBackend::erf_f64`]
    /// asks about.  For larger `|x|`, NaN and `±∞` the result is
    /// unspecified, though the same on every backend up to a NaN's payload.
    fn exp_f64(&self, xs: &mut [f64]) {
        xs.iter_mut().for_each(|x| *x = scalar::exp(*x));
    }

    /// Replaces every element `x` of `xs` by [`erf`]`(x)`: the Abramowitz &
    /// Stegun 7.1.26 formula over [`KernelBackend::exp_f64`]'s exponential,
    /// with the same operations in the same order on every backend.
    fn erf_f64(&self, xs: &mut [f64]) {
        xs.iter_mut().for_each(|x| *x = scalar::erf(*x));
    }
}

fn check_gemm_dims(a: &[f32], b: &[f32], out: &[f32], (m, k, n): (usize, usize, usize)) {
    assert!(
        a.len() == m * k && b.len() == k * n && out.len() == m * n,
        "gemm_f32: slices of {}, {} and {} elements are not [{m},{k}] x [{k},{n}] -> [{m},{n}]",
        a.len(),
        b.len(),
        out.len()
    );
}

/// Backend selector.  `Sse2`/`Avx2` exist on every platform so selection
/// code is portable, but are only *available* on x86-64 (and `Avx2` only
/// when the CPU reports the feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar reference kernels (always available).
    Scalar,
    /// x86-64 baseline vector kernels (SSE2 is part of the x86-64 ABI).
    Sse2,
    /// AVX2 kernels, runtime-detected.
    Avx2,
}

impl Backend {
    /// All selectable backends, strongest last.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Sse2, Backend::Avx2];

    /// Stable lowercase name (`scalar`, `sse2`, `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Whether this backend can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Parses a backend *selection*: a concrete backend name, or
    /// `auto`/`simd` (both meaning [`best_available`]).  Returns `None` for
    /// anything else.
    pub fn parse_selection(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" | "simd" => Some(best_available()),
            "scalar" => Some(Backend::Scalar),
            "sse2" => Some(Backend::Sse2),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    fn to_code(self) -> u8 {
        match self {
            Backend::Scalar => 1,
            Backend::Sse2 => 2,
            Backend::Avx2 => 3,
        }
    }

    fn from_code(code: u8) -> Option<Backend> {
        match code {
            1 => Some(Backend::Scalar),
            2 => Some(Backend::Sse2),
            3 => Some(Backend::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`force`] for a backend the host cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendUnavailable(pub Backend);

impl std::fmt::Display for BackendUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel backend {} is not available on this CPU", self.0)
    }
}

impl std::error::Error for BackendUnavailable {}

/// Every backend the current host can run, weakest first.
pub fn available_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// The strongest backend the current host can run.
pub fn best_available() -> Backend {
    *available_backends()
        .last()
        .expect("scalar is always available")
}

/// Detected CPU SIMD features as a space-separated list (recorded in bench
/// artifacts so throughput numbers are attributable to the hardware).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = vec!["sse2"]; // part of the x86-64 ABI
        let probes: [(&str, bool); 7] = [
            ("ssse3", std::arch::is_x86_feature_detected!("ssse3")),
            ("sse4.1", std::arch::is_x86_feature_detected!("sse4.1")),
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ];
        feats.extend(probes.iter().filter(|(_, hit)| *hit).map(|(name, _)| *name));
        feats.join(" ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".to_string()
    }
}

/// `0` = not yet resolved; otherwise a `Backend::to_code`.
static RESOLVED: AtomicU8 = AtomicU8::new(0);
/// `0` = no override; otherwise a `Backend::to_code` set via [`force`].
static FORCED: AtomicU8 = AtomicU8::new(0);

fn resolve_from_env() -> Backend {
    match std::env::var("GLD_KERNEL_BACKEND") {
        Ok(v) => {
            let sel = Backend::parse_selection(&v).unwrap_or_else(|| {
                panic!(
                    "GLD_KERNEL_BACKEND={v:?} is not a valid backend \
                     (expected auto, simd, scalar, sse2 or avx2)"
                )
            });
            assert!(
                sel.is_available(),
                "GLD_KERNEL_BACKEND={v:?} requests a backend this CPU cannot run"
            );
            sel
        }
        Err(_) => best_available(),
    }
}

/// The backend in effect: a [`force`]d override if set, else the selection
/// resolved once from `GLD_KERNEL_BACKEND` / CPU detection.
pub fn active() -> Backend {
    if let Some(b) = Backend::from_code(FORCED.load(Ordering::Relaxed)) {
        return b;
    }
    if let Some(b) = Backend::from_code(RESOLVED.load(Ordering::Relaxed)) {
        return b;
    }
    let b = resolve_from_env();
    RESOLVED.store(b.to_code(), Ordering::Relaxed);
    b
}

/// Forces `backend` process-wide until [`clear_force`].  Because every
/// backend is bit-identical, flipping the backend mid-run can never change
/// the bytes other threads produce — the override exists so benches and
/// tests can attribute *time*, not output, to a backend.
pub fn force(backend: Backend) -> Result<(), BackendUnavailable> {
    if !backend.is_available() {
        return Err(BackendUnavailable(backend));
    }
    FORCED.store(backend.to_code(), Ordering::Relaxed);
    Ok(())
}

/// Removes a [`force`] override, returning to env/auto selection.
pub fn clear_force() {
    FORCED.store(0, Ordering::Relaxed);
}

/// The kernel set for the [`active`] backend.
pub fn kernels() -> &'static dyn KernelBackend {
    kernels_for(active())
}

/// The kernel set for a specific backend (callers must check
/// [`Backend::is_available`]; an unavailable backend falls back to scalar
/// rather than faulting).
pub fn kernels_for(backend: Backend) -> &'static dyn KernelBackend {
    static SCALAR: ScalarKernels = ScalarKernels;
    if !backend.is_available() {
        return &SCALAR;
    }
    match backend {
        Backend::Scalar => &SCALAR,
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => {
            static SSE2: x86::Sse2Kernels = x86::Sse2Kernels;
            &SSE2
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            static AVX2: x86::Avx2Kernels = x86::Avx2Kernels;
            &AVX2
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => &SCALAR,
    }
}

/// The portable scalar reference kernels.
pub struct ScalarKernels;

impl KernelBackend for ScalarKernels {
    fn backend(&self) -> Backend {
        Backend::Scalar
    }
}

#[cfg(test)]
mod tests;
