//! Multi-head scaled dot-product attention as one kernel.

use crate::ops::softmax_row_inplace;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Attention over `[batch, len, channels]` queries, keys and values whose
/// channels are `heads` contiguous head slices: per batch element and head,
/// `softmax(q · kᵀ / √dh) · v`, the heads' outputs side by side in the
/// channels again.
///
/// Bit-identical to the chain of `permute`, `matmul`, `scale` and
/// `softmax_last` it fuses — the same GEMM calls, the same softmax rows —
/// but a head's slices are gathered into cache-sized scratch and its
/// `[len, len]` scores live and die there, where the chain materialises them
/// three times at `[batch · heads, len, len]`.
pub fn attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
    assert_eq!(
        q.rank(),
        3,
        "attention input must be [batch, len, channels]"
    );
    assert!(
        q.dims() == k.dims() && q.dims() == v.dims(),
        "attention shapes differ: {} {} {}",
        q.shape(),
        k.shape(),
        v.shape()
    );
    let (l, c) = (q.dim(1), q.dim(2));
    assert!(
        heads > 0 && c.is_multiple_of(heads),
        "channels must divide into heads"
    );
    let dh = c / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let kernels = gld_kernels::kernels();
    let mut out = vec![0.0f32; q.numel()];
    if out.is_empty() {
        return Tensor::from_vec(out, q.dims());
    }
    let inputs = q.data().par_chunks(l * c).zip(k.data().par_chunks(l * c));
    out.par_chunks_mut(l * c)
        .zip(inputs.zip(v.data().par_chunks(l * c)))
        .for_each_init(
            || [l * dh, l * dh, l * dh, l * dh, l * l].map(|len| vec![0.0f32; len]),
            |[qh, kt, vh, ctx, scores], (out, ((q, k), v))| {
                for head in (0..c).step_by(dh) {
                    for i in 0..l {
                        let row = i * c + head..i * c + head + dh;
                        qh[i * dh..][..dh].copy_from_slice(&q[row.clone()]);
                        vh[i * dh..][..dh].copy_from_slice(&v[row.clone()]);
                        for (d, &kv) in k[row].iter().enumerate() {
                            kt[d * l + i] = kv;
                        }
                    }
                    kernels.gemm_f32(qh, kt, scores, (l, dh, l), None);
                    for s in scores.iter_mut() {
                        *s *= scale;
                    }
                    scores.chunks_exact_mut(l).for_each(softmax_row_inplace);
                    // Probabilities: the GEMM need not look for their bound.
                    kernels.gemm_f32(scores, vh, ctx, (l, l, dh), Some(1.0));
                    for (i, row) in ctx.chunks_exact(dh).enumerate() {
                        out[i * c + head..][..dh].copy_from_slice(row);
                    }
                }
            },
        );
    Tensor::from_vec(out, q.dims())
}
