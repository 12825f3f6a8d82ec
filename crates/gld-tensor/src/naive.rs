//! Test-only oracles: the per-element kernels the run-based ones replaced,
//! and the properties that hold the two bit-identical.  The learned codec's
//! decoder regenerates frames with the same network the encoder used, so a
//! kernel may get faster but may never round differently.

use crate::conv::{im2col, nchw, Conv2dGeometry};
use crate::shape::{broadcast_shapes, Shape};
use crate::tensor::{matmul_block, Tensor};
use proptest::prelude::*;

/// Source offset of every output element from one div/mod chain per axis.
fn broadcast_to_naive(t: &Tensor, dims: &[usize]) -> Tensor {
    let target = Shape::new(dims);
    let src_dims = t.dims();
    let src_strides = t.shape().strides();
    let out_strides = target.strides();
    let offset = target.rank() - t.rank();
    let out = (0..target.numel())
        .map(|flat| {
            let mut rem = flat;
            let mut src = 0usize;
            for (axis, &stride) in out_strides.iter().enumerate() {
                let coord = rem / stride;
                rem %= stride;
                if axis >= offset && src_dims[axis - offset] != 1 {
                    src += coord * src_strides[axis - offset];
                }
            }
            t.data()[src]
        })
        .collect();
    Tensor::from_vec(out, dims)
}

/// Both operands materialised at the output shape, then zipped.
fn binary_naive(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let shape = broadcast_shapes(a.shape(), b.shape()).expect("broadcast-compatible");
    let (a, b) = (
        broadcast_to_naive(a, shape.dims()),
        broadcast_to_naive(b, shape.dims()),
    );
    let out = a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y));
    Tensor::from_vec(out.collect(), shape.dims())
}

fn permute_naive(t: &Tensor, perm: &[usize]) -> Tensor {
    let new_dims: Vec<usize> = perm.iter().map(|&p| t.dim(p)).collect();
    let old_strides = t.shape().strides();
    let new_strides = Shape::new(&new_dims).strides();
    let out = (0..t.numel())
        .map(|flat| {
            let mut rem = flat;
            let mut src = 0usize;
            for (axis, &stride) in new_strides.iter().enumerate() {
                src += rem / stride * old_strides[perm[axis]];
                rem %= stride;
            }
            t.data()[src]
        })
        .collect();
    Tensor::from_vec(out, &new_dims)
}

/// One bounds branch per output element.
fn im2col_naive(x: &Tensor, geom: Conv2dGeometry) -> Tensor {
    let (b, c, h, w) = nchw(x);
    let (oh, ow) = geom.output_size(h, w);
    let rows = c * geom.kh * geom.kw;
    let mut out = Tensor::zeros(&[b, rows, oh * ow]);
    for bi in 0..b {
        for row in 0..rows {
            let (ci, khi, kwi) = (
                row / (geom.kh * geom.kw),
                row / geom.kw % geom.kh,
                row % geom.kw,
            );
            for ohi in 0..oh {
                for owi in 0..ow {
                    let ih = (ohi * geom.stride + khi) as isize - geom.pad as isize;
                    let iw = (owi * geom.stride + kwi) as isize - geom.pad as isize;
                    if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w {
                        let v = x.at(&[bi, ci, ih as usize, iw as usize]);
                        out.set(&[bi, row, ohi * ow + owi], v);
                    }
                }
            }
        }
    }
    out
}

/// The i-k-j product with its zero skip, whatever the shape.
fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b[p * n + j];
            }
        }
    }
    out
}

/// Bit patterns, with every NaN mapped to one pattern: which NaN an
/// operation returns (sign, payload) is not specified, that it is a NaN is.
/// Every exponential through `exp`, every product through the `f32` multiply.
fn softmax_naive(x: &Tensor) -> Tensor {
    let row = *x.dims().last().unwrap();
    let mut out = x.data().to_vec();
    for o in out.chunks_mut(row) {
        let m = o.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in o.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in o.iter_mut() {
            *v *= inv;
        }
    }
    Tensor::from_vec(out, x.dims())
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

/// Shape and bit patterns of a tensor.
fn exact(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (t.dims().to_vec(), bits(t.data()))
}

/// Values with exact zeros, signed zeros and non-finite entries mixed in, so
/// "same bits" covers the zero skip and NaN propagation too.
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = crate::TensorRng::new(seed);
    let noise = rng.randn(&[len.max(1)]);
    let mut out = noise.data()[..len].to_vec();
    for (i, v) in out.iter_mut().enumerate() {
        match (i as u64).wrapping_mul(seed | 1) % 11 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            2 if seed.is_multiple_of(3) => *v = f32::INFINITY,
            3 if seed.is_multiple_of(5) => *v = f32::NAN,
            _ => {}
        }
    }
    out
}

/// A shape of `rank` axes with extents in `0..=4`, biased towards 1.
fn dims_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..7, 0..=5)
        .prop_map(|raw| raw.into_iter().map(|d| [1, 1, 2, 3, 4, 1, 0][d]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn broadcast_to_matches_naive(dims in dims_strategy(), mask in 0usize..64, drop in 0usize..6, seed in 0u64..1000) {
        // The source: the target with some axes set to 1 and some leading
        // axes dropped.
        let drop = drop.min(dims.len());
        let src_dims: Vec<usize> = dims[drop..]
            .iter()
            .enumerate()
            .map(|(i, &d)| if mask >> i & 1 == 1 { 1 } else { d })
            .collect();
        let src = Tensor::from_vec(values(src_dims.iter().product(), seed), &src_dims);
        let fast = src.broadcast_to(&dims);
        let slow = broadcast_to_naive(&src, &dims);
        prop_assert_eq!(exact(&fast), exact(&slow));
    }

    #[test]
    fn binary_ops_match_naive(dims in dims_strategy(), mask_a in 0usize..64, mask_b in 0usize..64, drop in 0usize..6, seed in 0u64..1000) {
        let squash = |mask: usize, dims: &[usize]| -> Vec<usize> {
            dims.iter().enumerate().map(|(i, &d)| if mask >> i & 1 == 1 { 1 } else { d }).collect()
        };
        let drop = drop.min(dims.len());
        let a_dims = squash(mask_a, &dims);
        let b_dims = squash(mask_b, &dims[drop..]);
        let a = Tensor::from_vec(values(a_dims.iter().product(), seed), &a_dims);
        let b = Tensor::from_vec(values(b_dims.iter().product(), seed + 1), &b_dims);
        for (fast, slow) in [
            (a.add(&b), binary_naive(&a, &b, |x, y| x + y)),
            (b.sub(&a), binary_naive(&b, &a, |x, y| x - y)),
            (a.mul(&b), binary_naive(&a, &b, |x, y| x * y)),
            (b.div(&a), binary_naive(&b, &a, |x, y| x / y)),
        ] {
            prop_assert_eq!(exact(&fast), exact(&slow));
        }
    }

    #[test]
    fn permute_matches_naive(dims in dims_strategy(), shuffle in 0u64..720, seed in 0u64..1000) {
        // Decode `shuffle` as a permutation (factorial number system).
        let mut pool: Vec<usize> = (0..dims.len()).collect();
        let mut code = shuffle;
        let mut perm = Vec::new();
        while !pool.is_empty() {
            perm.push(pool.remove((code % pool.len() as u64) as usize));
            code /= pool.len() as u64 + 1;
        }
        let t = Tensor::from_vec(values(dims.iter().product(), seed), &dims);
        let fast = t.permute(&perm);
        let slow = permute_naive(&t, &perm);
        prop_assert_eq!(exact(&fast), exact(&slow));
    }

    #[test]
    fn im2col_matches_naive(b in 1usize..3, c in 1usize..4, h in 1usize..9, w in 1usize..9,
                            kh in 1usize..4, kw in 1usize..4, stride in 1usize..4, pad in 0usize..3, seed in 0u64..1000) {
        let geom = Conv2dGeometry { kh, kw, stride, pad };
        if h + 2 * pad < kh || w + 2 * pad < kw {
            return Ok(());
        }
        let x = Tensor::from_vec(values(b * c * h * w, seed), &[b, c, h, w]);
        let fast = im2col(&x, geom);
        let slow = im2col_naive(&x, geom);
        prop_assert_eq!(exact(&fast), exact(&slow));
    }

    #[test]
    fn matmul_matches_naive_on_thin_and_wide_shapes(m in 0usize..40, k in 0usize..20, n in 0usize..12, seed in 0u64..1000) {
        let a = values(m * k, seed);
        let b = values(k * n, seed + 1);
        let mut fast = vec![f32::NAN; m * n];
        matmul_block(&a, &b, &mut fast, m, k, n);
        prop_assert_eq!(bits(&fast), bits(&matmul_naive(&a, &b, m, k, n)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Softmax tails: `a` ramps through the subnormal range (and exact
    /// zeros), `b` is ordinary or itself tiny, so terms and partial sums
    /// land on both sides of 2⁻¹²⁶, round to ties, and cancel; large `a`
    /// crosses the bound past which the lifted path must not be taken.
    #[test]
    fn thin_matmul_matches_naive_through_the_subnormal_range(
        m in 1usize..24, k in 1usize..20, n in 1usize..8,
        a_exp in -70i32..150, spread in 1u64..50, b_exp in 0i32..30, seed in 0u64..10_000,
    ) {
        let mut rng = crate::TensorRng::new(seed);
        let mut draw = |len: usize, base: i32| -> Vec<f32> {
            let noise = rng.randn(&[len]);
            let exps = rng.rand_uniform(&[len], 0.0, spread as f32);
            noise.data().iter().zip(exps.data()).enumerate().map(|(i, (&v, &e))| {
                // Quantised mantissas make exact ties and cancellations common.
                let v = (v * 4.0).round() / 4.0;
                if i % 7 == 3 { 0.0 } else { v * 2f32.powi(-(base + e as i32)) }
            }).collect()
        };
        let a = draw(m * k, a_exp);
        let b = draw(k * n, b_exp);
        let mut fast = vec![f32::NAN; m * n];
        matmul_block(&a, &b, &mut fast, m, k, n);
        prop_assert_eq!(bits(&fast), bits(&matmul_naive(&a, &b, m, k, n)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Logit spreads from flat to far past where `exp` underflows, so rows
    /// mix ordinary, subnormal and zero exponentials; some rows are poisoned.
    #[test]
    fn softmax_matches_naive_through_the_subnormal_range(
        rows in 1usize..5, row in 1usize..40, spread in 0.1f32..140.0, offset in -50.0f32..50.0, seed in 0u64..100_000,
    ) {
        let mut rng = crate::TensorRng::new(seed);
        let mut x = rng.rand_uniform(&[rows, row], offset - spread, offset);
        // Quarter-integer logits put differences exactly on -104 and friends.
        if seed.is_multiple_of(3) {
            x.map_inplace(|v| (v * 4.0).round() / 4.0);
        }
        match seed % 17 {
            0 => x.data_mut()[0] = f32::NAN,
            1 => x.data_mut()[0] = f32::INFINITY,
            2 => x.data_mut()[0] = f32::NEG_INFINITY,
            _ => {}
        }
        prop_assert_eq!(exact(&x.softmax_last()), exact(&softmax_naive(&x)));
    }
}

#[test]
fn hot_shapes_of_the_unet_match_naive() {
    // The shapes `SpaceTimeUnet::forward` actually issues at the bench
    // configuration: channel broadcast, both attention transposes, the head
    // split, the 3x3 same-padding unfold and attention's thin product.
    let x = Tensor::from_vec(values(16 * 12 * 8 * 8, 5), &[16, 12, 8, 8]);
    let shift = Tensor::from_vec(values(12, 6), &[1, 12, 1, 1]);
    assert_eq!(
        exact(&x.add(&shift)),
        exact(&binary_naive(&x, &shift, |a, b| a + b))
    );
    for perm in [[2, 3, 0, 1], [0, 2, 3, 1], [0, 3, 1, 2], [0, 2, 1, 3]] {
        assert_eq!(exact(&x.permute(&perm)), exact(&permute_naive(&x, &perm)));
    }
    let geom = Conv2dGeometry::new(3, 1, 1);
    assert_eq!(exact(&im2col(&x, geom)), exact(&im2col_naive(&x, geom)));
    let (attn, v) = (values(64 * 64, 7), values(64 * 6, 8));
    let mut out = vec![0.0f32; 64 * 6];
    matmul_block(&attn, &v, &mut out, 64, 64, 6);
    assert_eq!(bits(&out), bits(&matmul_naive(&attn, &v, 64, 64, 6)));
}
