//! `Var::attention` is one op with two ways of computing its value, and they
//! may not differ by a bit: the decoder runs the fused kernel (a
//! non-recording tape), training ran the composed chain (a recording tape),
//! and the correction stream was fitted against the values of the one while
//! the weights came out of the gradients of the other.

use gld_nn::{Tape, Var};
use gld_tensor::{Tensor, TensorRng};

/// `[B, L, C]` -> `[B, L, H, dh]` -> `[B, H, L, dh]` -> `[B*H, L, dh]`.
fn split_heads(x: &Var, heads: usize) -> Var {
    let (b, l, c) = (x.dim(0), x.dim(1), x.dim(2));
    x.reshape(&[b, l, heads, c / heads])
        .permute(&[0, 2, 1, 3])
        .reshape(&[b * heads, l, c / heads])
}

/// Attention weights `[B*H, L, L]`: softmax of the scaled `q · kᵀ`.
fn probabilities(q: &Var, k: &Var, heads: usize) -> Var {
    let scale = 1.0 / ((q.dim(2) / heads) as f32).sqrt();
    split_heads(q, heads)
        .matmul(&split_heads(k, heads).permute(&[0, 2, 1]))
        .scale(scale)
        .softmax_last()
}

/// The chain `SelfAttention::forward` spelled out before `Var::attention`
/// existed; what a recording tape must still record, node for node.
fn composed_by_hand(q: &Var, k: &Var, v: &Var, heads: usize) -> Var {
    let (b, l, c) = (q.dim(0), q.dim(1), q.dim(2));
    probabilities(q, k, heads)
        .matmul(&split_heads(v, heads))
        .reshape(&[b, heads, l, c / heads])
        .permute(&[0, 2, 1, 3])
        .reshape(&[b, l, c])
}

/// Shape and bit patterns, every NaN mapped to one pattern.
fn exact(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    let canonical = |v: &f32| if v.is_nan() { f32::NAN } else { *v }.to_bits();
    (t.dims().to_vec(), t.data().iter().map(canonical).collect())
}

/// `(batch, len, channels, heads)`: the bench UNet's temporal and spatial
/// passes, one position, one channel per head, one head, odd sizes.
const SHAPES: [(usize, usize, usize, usize); 9] = [
    (64, 16, 12, 2),
    (16, 64, 12, 2),
    (3, 1, 4, 2),
    (2, 5, 6, 6),
    (1, 9, 7, 1),
    (2, 3, 8, 4),
    (5, 8, 3, 3),
    (1, 23, 10, 5),
    (4, 7, 16, 2),
];

/// Queries and keys `spread` wide, so that at `spread = 12` a row's scores
/// span far more than the 104 below which a probability is exactly zero, and
/// its tail runs through the subnormals; `poison` plants non-finite values.
fn inputs(
    shape: (usize, usize, usize, usize),
    spread: f32,
    poison: bool,
    seed: u64,
) -> [Tensor; 3] {
    let (b, l, c, _) = shape;
    let mut rng = TensorRng::new(seed);
    let mut q = rng.randn(&[b, l, c]).scale(spread);
    let mut k = rng.randn(&[b, l, c]).scale(spread);
    let mut v = rng.randn(&[b, l, c]);
    // Exact zeros exercise the GEMM's zero skip.
    q.data_mut()[0] = 0.0;
    v.data_mut()[0] = -0.0;
    if poison {
        let last = q.numel() - 1;
        q.data_mut()[last] = f32::NAN;
        k.data_mut()[last / 2] = f32::INFINITY;
        v.data_mut()[last / 3] = f32::NEG_INFINITY;
    }
    [q, k, v]
}

#[test]
fn inference_tape_equals_the_composed_ops_bit_for_bit() {
    let (mut zeros, mut subnormals) = (0usize, 0usize);
    for (case, &shape) in SHAPES.iter().enumerate() {
        for (spread, poison) in [(1.0, false), (4.0, false), (12.0, false), (12.0, true)] {
            for seed in 0..3u64 {
                let [q, k, v] = inputs(shape, spread, poison, 100 * case as u64 + seed);
                let heads = shape.3;
                let recording = Tape::new();
                let [rq, rk, rv] = [&q, &k, &v].map(|t| recording.constant(t.clone()));
                let composed = composed_by_hand(&rq, &rk, &rv, heads);
                let inference = Tape::inference();
                let [iq, ik, iv] = [&q, &k, &v].map(|t| inference.constant(t.clone()));
                let fused = iq.attention(&ik, &iv, heads);
                assert!(inference.is_empty(), "an inference tape recorded nodes");
                assert_eq!(
                    exact(fused.tensor()),
                    exact(composed.tensor()),
                    "shape {shape:?}, spread {spread}, poison {poison}, seed {seed}"
                );
                assert_eq!(!poison, fused.tensor().data().iter().all(|x| x.is_finite()));

                // What the peaked cases are there for.
                for &p in probabilities(&rq, &rk, heads).tensor().data() {
                    zeros += usize::from(p == 0.0);
                    subnormals += usize::from(p > 0.0 && p < f32::MIN_POSITIVE);
                }
            }
        }
    }
    assert!(
        zeros > 1000 && subnormals > 100,
        "peaked rows missing: {zeros} zero and {subnormals} subnormal probabilities"
    );
}

#[test]
fn recording_tape_records_and_differentiates_the_composed_chain() {
    for (case, &shape) in SHAPES.iter().enumerate() {
        for spread in [1.0, 6.0] {
            let [q, k, v] = inputs(shape, spread, false, 7 + case as u64);
            let heads = shape.3;
            let weights = TensorRng::new(case as u64).randn(q.dims());
            let run = |attend: &dyn Fn(&Var, &Var, &Var) -> Var| {
                let tape = Tape::new();
                let [q, k, v] = [&q, &k, &v].map(|t| tape.leaf(t.clone()));
                let out = attend(&q, &k, &v);
                let loss = out.mul(&tape.constant(weights.clone())).sum();
                let grads = loss.backward();
                let leaf_grads = [&q, &k, &v].map(|x| exact(grads[x.id()].as_ref().unwrap()));
                (tape.len(), exact(out.tensor()), leaf_grads)
            };
            let op = run(&|q, k, v| q.attention(k, v, heads));
            let by_hand = run(&|q, k, v| composed_by_hand(q, k, v, heads));
            assert_eq!(op.0, by_hand.0, "shape {shape:?}: node count");
            assert_eq!(op.1, by_hand.1, "shape {shape:?}: value");
            assert_eq!(op.2, by_hand.2, "shape {shape:?}: gradients");
        }
    }
}

#[test]
fn a_subset_of_queries_gets_its_rows_of_the_full_attention() {
    for (case, &shape) in SHAPES.iter().enumerate() {
        for (spread, poison) in [(1.0, false), (12.0, false), (12.0, true)] {
            let [q, k, v] = inputs(shape, spread, poison, 31 + case as u64);
            let heads = shape.3;
            let keep: Vec<usize> = (0..shape.1).filter(|i| i % 3 != 1).collect();
            let full = Tape::inference();
            let [fq, fk, fv] = [&q, &k, &v].map(|t| full.constant(t.clone()));
            let want = fq
                .attention(&fk, &fv, heads)
                .tensor()
                .index_select(1, &keep);
            for tape in [Tape::inference(), Tape::new()] {
                let [q, k, v] = [&q, &k, &v].map(|t| tape.constant(t.clone()));
                let got = q.index_select(1, &keep).attention(&k, &v, heads);
                assert_eq!(
                    exact(got.tensor()),
                    exact(&want),
                    "shape {shape:?}, spread {spread}, poison {poison}"
                );
            }
        }
    }
}
