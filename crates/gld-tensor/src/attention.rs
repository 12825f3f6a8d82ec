//! Multi-head scaled dot-product attention as one kernel.

use crate::ops::softmax_rows_inplace;
use crate::tensor::Tensor;

/// Attention of `[batch, len_q, channels]` queries over `[batch, len_k,
/// channels]` keys and values whose channels are `heads` contiguous head
/// slices: per batch element and head, `softmax(q · kᵀ / √dh) · v`, the
/// heads' outputs side by side in the channels again, `[batch, len_q,
/// channels]`.  Self-attention passes the same length twice; a caller that
/// needs only some positions' outputs passes only their queries.
///
/// Bit-identical to the chain of `permute`, `matmul`, `scale` and
/// `softmax_last` it fuses — the same GEMM calls, the same softmax rows —
/// but a head's slices are gathered into cache-sized scratch and its
/// `[len_q, len_k]` scores live and die there, where the chain materialises
/// them three times at `[batch · heads, len_q, len_k]`.  Each output row
/// depends on its own query row only, so dropping queries leaves the rows
/// that remain unchanged to the bit.
pub fn attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
    assert_eq!(
        q.rank(),
        3,
        "attention input must be [batch, len, channels]"
    );
    assert!(
        k.dims() == v.dims() && q.dim(0) == k.dim(0) && q.dim(2) == k.dim(2),
        "attention shapes differ: {} {} {}",
        q.shape(),
        k.shape(),
        v.shape()
    );
    let (lq, lk, c) = (q.dim(1), k.dim(1), q.dim(2));
    assert!(
        heads > 0 && c.is_multiple_of(heads),
        "channels must divide into heads"
    );
    let dh = c / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let kernels = gld_kernels::kernels();
    let mut out = vec![0.0f32; q.numel()];
    if out.is_empty() || lk == 0 {
        return Tensor::from_vec(out, q.dims());
    }
    let [mut qh, mut kt, mut vh, mut ctx, mut scores] =
        [lq * dh, lk * dh, lk * dh, lq * dh, lq * lk].map(|len| vec![0.0f32; len]);
    let rows = out.chunks_mut(lq * c).zip(q.data().chunks(lq * c));
    let keys = k.data().chunks(lk * c).zip(v.data().chunks(lk * c));
    for ((out, q), (k, v)) in rows.zip(keys) {
        for head in (0..c).step_by(dh) {
            for i in 0..lq {
                qh[i * dh..][..dh].copy_from_slice(&q[i * c + head..][..dh]);
            }
            for i in 0..lk {
                let row = i * c + head..i * c + head + dh;
                vh[i * dh..][..dh].copy_from_slice(&v[row.clone()]);
                for (d, &kv) in k[row].iter().enumerate() {
                    kt[d * lk + i] = kv;
                }
            }
            kernels.gemm_f32(&qh, &kt, &mut scores, (lq, dh, lk), None);
            softmax_rows_inplace(&mut scores, lk, scale);
            // Probabilities: the GEMM need not look for their bound.
            kernels.gemm_f32(&scores, &vh, &mut ctx, (lq, lk, dh), Some(1.0));
            for (i, row) in ctx.chunks_exact(dh).enumerate() {
                out[i * c + head..][..dh].copy_from_slice(row);
            }
        }
    }
    Tensor::from_vec(out, q.dims())
}
