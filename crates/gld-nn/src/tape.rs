//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation performed on its [`Var`]s.  Calling
//! [`Var::backward`] walks the tape in reverse, accumulating gradients into
//! the tape nodes and depositing them into any bound [`Parameter`]s.
//!
//! A tape made with [`Tape::inference`] records nothing: the same `Var` ops
//! (and therefore the same layer and network `forward` code) compute the
//! same values, but build no backward rule, save no activation for one, and
//! free every intermediate when its last `Var` goes away.
//!
//! The op set is intentionally small — exactly the operations needed by the
//! VAE, the hyperprior and the space-time UNet — and every backward rule is
//! checked against finite differences in this module's tests.

use crate::param::Parameter;
use gld_tensor::attention::attention;
use gld_tensor::conv::{col2im, conv2d, conv2d_from_cols, im2col, nchw, Conv2dGeometry};
use gld_tensor::pool::{
    avg_pool2d, avg_pool2d_backward, upsample_nearest2d, upsample_nearest2d_backward,
};
use gld_tensor::tensor::matmul_block;
use gld_tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

/// What `backward` needs of one recorded op.  Values live in the [`Var`]s
/// (and in whichever backward rules captured them), not here.
struct Node {
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    param: Option<Parameter>,
}

struct Graph {
    recording: bool,
    nodes: RefCell<Vec<Node>>,
}

/// A recording tape for reverse-mode differentiation.
///
/// Tapes are cheap to create; the training loops in `gld-vae` and
/// `gld-diffusion` build a fresh tape for every step.
#[derive(Clone)]
pub struct Tape {
    graph: Rc<Graph>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty recording tape.
    pub fn new() -> Self {
        Self::with_recording(true)
    }

    /// Creates a tape that evaluates ops without recording them — for
    /// forward passes nobody will differentiate (compression, decompression,
    /// sampling).  [`Var::backward`] panics on such a tape.
    pub fn inference() -> Self {
        Self::with_recording(false)
    }

    fn with_recording(recording: bool) -> Self {
        Tape {
            graph: Rc::new(Graph {
                recording,
                nodes: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Number of recorded nodes (always zero on an inference tape).
    pub fn len(&self) -> usize {
        self.graph.nodes.borrow().len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wraps `value` in a [`Var`]; on a recording tape `node` is built and
    /// recorded, on an inference tape it is never called.
    fn push(&self, value: Tensor, node: impl FnOnce(&Rc<Tensor>) -> Node) -> Var {
        let value = Rc::new(value);
        let mut id = 0;
        if self.graph.recording {
            let node = node(&value);
            let mut nodes = self.graph.nodes.borrow_mut();
            id = nodes.len();
            nodes.push(node);
        }
        Var {
            tape: self.clone(),
            id,
            value,
        }
    }

    /// Records a constant (non-differentiable) input.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, |_| Node {
            parents: vec![],
            backward: None,
            param: None,
        })
    }

    /// Records a differentiable leaf whose gradient is discarded after
    /// `backward` (useful in tests).
    pub fn leaf(&self, value: Tensor) -> Var {
        self.constant(value)
    }

    /// Records a leaf bound to a [`Parameter`]; `backward` accumulates the
    /// leaf's gradient into the parameter.
    pub fn param(&self, p: &Parameter) -> Var {
        self.push(p.value(), |_| Node {
            parents: vec![],
            backward: None,
            param: Some(p.clone()),
        })
    }

    /// Concatenates variables along `axis`.
    pub fn concat(&self, vars: &[&Var], axis: usize) -> Var {
        assert!(!vars.is_empty(), "concat of zero vars");
        let values: Vec<&Tensor> = vars.iter().map(|v| &*v.value).collect();
        self.push(Tensor::concat(&values, axis), |_| {
            let extents: Vec<usize> = values.iter().map(|v| v.dim(axis)).collect();
            Node {
                parents: vars.iter().map(|v| v.id).collect(),
                backward: Some(Box::new(move |g: &Tensor| {
                    let mut grads = Vec::with_capacity(extents.len());
                    let mut start = 0usize;
                    for &e in &extents {
                        grads.push(g.slice_axis(axis, start, start + e));
                        start += e;
                    }
                    grads
                })),
                param: None,
            }
        })
    }
}

/// A differentiable value recorded on a [`Tape`].
#[derive(Clone)]
pub struct Var {
    tape: Tape,
    id: usize,
    value: Rc<Tensor>,
}

/// Sums `grad` down to `target_dims` (undoing NumPy-style broadcasting) so
/// that each parent of a broadcasting op receives a gradient of its own
/// shape.
pub fn reduce_to_shape(grad: &Tensor, target_dims: &[usize]) -> Tensor {
    if grad.dims() == target_dims {
        return grad.clone();
    }
    let mut g = grad.clone();
    // Remove leading broadcast dimensions.
    while g.rank() > target_dims.len() {
        g = g.sum_axis(0, false);
    }
    // Sum over axes where the target extent is 1.
    for (axis, &dim) in target_dims.iter().enumerate() {
        if dim == 1 && g.dim(axis) != 1 {
            g = g.sum_axis(axis, true);
        }
    }
    assert_eq!(
        g.dims(),
        target_dims,
        "reduce_to_shape failed: {:?} -> {:?}",
        grad.dims(),
        target_dims
    );
    g
}

impl Var {
    /// The node id on a recording tape (useful for debugging; always zero on
    /// an inference tape).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The tape this variable is recorded on.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// A snapshot of the value.
    pub fn value(&self) -> Tensor {
        (*self.value).clone()
    }

    /// The value, borrowed.
    pub fn tensor(&self) -> &Tensor {
        &self.value
    }

    /// The dimension extents of the value.
    pub fn dims(&self) -> Vec<usize> {
        self.value.dims().to_vec()
    }

    /// Extent of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.value.dim(axis)
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// A one-parent op.  `rule` builds the backward rule (and whatever it
    /// must save) from the op's output; it only runs on a recording tape.
    fn unary<B>(&self, value: Tensor, rule: impl FnOnce(&Rc<Tensor>) -> B) -> Var
    where
        B: Fn(&Tensor) -> Tensor + 'static,
    {
        self.tape.push(value, |out| {
            let backward = rule(out);
            Node {
                parents: vec![self.id],
                backward: Some(Box::new(move |g| vec![backward(g)])),
                param: None,
            }
        })
    }

    /// A two-parent op; `rule` as in [`Var::unary`].
    fn binary<B>(&self, other: &Var, value: Tensor, rule: impl FnOnce() -> B) -> Var
    where
        B: Fn(&Tensor) -> (Tensor, Tensor) + 'static,
    {
        assert!(
            Rc::ptr_eq(&self.tape.graph, &other.tape.graph),
            "variables must live on the same tape"
        );
        self.tape.push(value, |_| {
            let backward = rule();
            Node {
                parents: vec![self.id, other.id],
                backward: Some(Box::new(move |g| {
                    let (ga, gb) = backward(g);
                    vec![ga, gb]
                })),
                param: None,
            }
        })
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic (broadcasting)
    // ------------------------------------------------------------------

    /// Element-wise addition with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        self.binary(other, a.add(b), || {
            let (da, db) = (a.dims().to_vec(), b.dims().to_vec());
            move |g| (reduce_to_shape(g, &da), reduce_to_shape(g, &db))
        })
    }

    /// Element-wise subtraction with broadcasting.
    pub fn sub(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        self.binary(other, a.sub(b), || {
            let (da, db) = (a.dims().to_vec(), b.dims().to_vec());
            move |g| (reduce_to_shape(g, &da), reduce_to_shape(&g.neg(), &db))
        })
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        self.binary(other, a.mul(b), || {
            let (a, b) = (a.clone(), b.clone());
            move |g| {
                (
                    reduce_to_shape(&g.mul(&b), a.dims()),
                    reduce_to_shape(&g.mul(&a), b.dims()),
                )
            }
        })
    }

    /// Element-wise division with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        self.binary(other, a.div(b), || {
            let (a, b) = (a.clone(), b.clone());
            move |g| {
                let ga = g.div(&b);
                let gb = g.mul(&a).div(&b.square()).neg();
                (
                    reduce_to_shape(&ga, a.dims()),
                    reduce_to_shape(&gb, b.dims()),
                )
            }
        })
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.unary(self.value.neg(), |_| |g| g.neg())
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&self, s: f32) -> Var {
        self.unary(self.value.scale(s), |_| move |g| g.scale(s))
    }

    /// Addition of a constant scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        self.unary(self.value.add_scalar(s), |_| |g| g.clone())
    }

    // ------------------------------------------------------------------
    // Activations and element-wise math
    // ------------------------------------------------------------------

    /// ReLU activation.
    pub fn relu(&self) -> Var {
        let x = &self.value;
        self.unary(x.relu(), |_| {
            let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
            move |g| g.mul(&mask)
        })
    }

    /// SiLU activation (`x · σ(x)`).
    pub fn silu(&self) -> Var {
        let x = &self.value;
        self.unary(x.silu(), |_| {
            let sig = x.sigmoid();
            let deriv = sig.mul(&x.mul(&sig.neg().add_scalar(1.0)).add_scalar(1.0));
            move |g| g.mul(&deriv)
        })
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&self) -> Var {
        let x = &self.value;
        self.unary(x.gelu(), |_| {
            let c = (2.0 / std::f32::consts::PI).sqrt();
            let t = x.map(move |v| c * (v + 0.044715 * v * v * v)).tanh();
            let one_plus_t = t.add_scalar(1.0);
            let sech2 = t.square().neg().add_scalar(1.0);
            let du = x.map(move |v| c * (1.0 + 3.0 * 0.044715 * v * v));
            let deriv = one_plus_t
                .scale(0.5)
                .add(&x.mul(&sech2).mul(&du).scale(0.5));
            move |g| g.mul(&deriv)
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        self.unary(self.value.sigmoid(), |s| {
            let deriv = s.mul(&s.neg().add_scalar(1.0));
            move |g| g.mul(&deriv)
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.unary(self.value.tanh(), |t| {
            let deriv = t.square().neg().add_scalar(1.0);
            move |g| g.mul(&deriv)
        })
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var {
        self.unary(self.value.exp(), |e| {
            let e = e.clone();
            move |g| g.mul(&e)
        })
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Var {
        let x = &self.value;
        self.unary(x.ln(), |_| {
            let inv = x.map(|v| 1.0 / v);
            move |g| g.mul(&inv)
        })
    }

    /// Element-wise square.
    pub fn square(&self) -> Var {
        let x = &self.value;
        self.unary(x.square(), |_| {
            let two_x = x.scale(2.0);
            move |g| g.mul(&two_x)
        })
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Var {
        self.unary(self.value.sqrt(), |s| {
            let deriv = s.map(|v| 0.5 / v.max(1e-12));
            move |g| g.mul(&deriv)
        })
    }

    /// Element-wise absolute value (sub-gradient 0 at zero).
    pub fn abs(&self) -> Var {
        let x = &self.value;
        self.unary(x.abs(), |_| {
            let sign = x.map(|v| {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            });
            move |g| g.mul(&sign)
        })
    }

    /// Softmax along the last axis.
    pub fn softmax_last(&self) -> Var {
        self.unary(self.value.softmax_last(), |s| {
            let s = s.clone();
            move |g| {
                let weighted = g.mul(&s);
                let sum = weighted.sum_axis(s.rank() - 1, true);
                g.sub(&sum).mul(&s)
            }
        })
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Reshape to new dimensions (same element count).
    pub fn reshape(&self, dims: &[usize]) -> Var {
        self.unary(self.value.reshape(dims), |_| {
            let old = self.dims();
            move |g| g.reshape(&old)
        })
    }

    /// Permutes dimensions.
    pub fn permute(&self, perm: &[usize]) -> Var {
        self.unary(self.value.permute(perm), |_| {
            let mut inverse = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inverse[p] = i;
            }
            move |g| g.permute(&inverse)
        })
    }

    /// Slices the half-open range `[start, end)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Var {
        self.unary(self.value.slice_axis(axis, start, end), |_| {
            let dims = self.dims();
            move |g| {
                // Embed the gradient back into a zero tensor of the input shape.
                let mut full = Tensor::zeros(&dims);
                let indices: Vec<usize> = (start..end).collect();
                full.index_assign(axis, &indices, g);
                full
            }
        })
    }

    /// Selects the given distinct `indices` along `axis`, in their order.
    ///
    /// # Panics
    /// Panics if an index repeats or is out of range.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Var {
        let mut seen = indices.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), indices.len(), "index_select: repeated index");
        self.unary(self.value.index_select(axis, indices), |_| {
            let (dims, indices) = (self.dims(), indices.to_vec());
            move |g| {
                let mut full = Tensor::zeros(&dims);
                full.index_assign(axis, &indices, g);
                full
            }
        })
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements as a scalar variable.
    pub fn sum(&self) -> Var {
        self.unary(Tensor::scalar(self.value.sum()), |_| {
            let dims = self.dims();
            move |g| Tensor::full(&dims, g.item())
        })
    }

    /// Mean of all elements as a scalar variable.
    pub fn mean(&self) -> Var {
        self.unary(Tensor::scalar(self.value.mean()), |_| {
            let dims = self.dims();
            let n = self.numel();
            move |g| Tensor::full(&dims, g.item() / n as f32)
        })
    }

    /// Sum along one axis.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Var {
        self.unary(self.value.sum_axis(axis, keepdim), |_| {
            let dims = self.dims();
            move |g| {
                let g = if keepdim {
                    g.clone()
                } else {
                    // Reinsert the reduced axis so broadcasting works.
                    let mut d = g.dims().to_vec();
                    d.insert(axis, 1);
                    g.reshape(&d)
                };
                g.broadcast_to(&dims)
            }
        })
    }

    /// Mean along one axis.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Var {
        let n = self.dim(axis) as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / n)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication (rank-2×2 or batched rank-3×3, with batch
    /// broadcasting of a singleton batch).
    pub fn matmul(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        let batched = match (a.rank(), b.rank()) {
            (2, 2) => false,
            (3, 3) => true,
            (ra, rb) => panic!("matmul supports rank 2×2 or 3×3, got {ra}×{rb}"),
        };
        self.binary(other, a.matmul(b), || {
            let (a, b) = (a.clone(), b.clone());
            move |g| {
                if !batched {
                    return (g.matmul(&b.transpose2()), a.transpose2().matmul(g));
                }
                let mut ga = g.matmul(&b.permute(&[0, 2, 1]));
                let mut gb = a.permute(&[0, 2, 1]).matmul(g);
                // Undo batch broadcasting.
                if a.dim(0) == 1 && ga.dim(0) != 1 {
                    ga = ga.sum_axis(0, true);
                }
                if b.dim(0) == 1 && gb.dim(0) != 1 {
                    gb = gb.sum_axis(0, true);
                }
                (ga, gb)
            }
        })
    }

    /// Multi-head scaled dot-product attention: `self` holds `[batch, len_q,
    /// channels]` queries, `k` and `v` `[batch, len_k, channels]` keys and
    /// values, the channels `heads` contiguous head slices; the result has
    /// the queries' shape.
    ///
    /// A recording tape records the chain of ops this stands for — split the
    /// heads, `q · kᵀ`, scale, softmax, `· v`, merge the heads — node for
    /// node.  A non-recording tape computes the same values, to the bit,
    /// with the fused [`gld_tensor::attention::attention`] kernel.
    pub fn attention(&self, k: &Var, v: &Var, heads: usize) -> Var {
        if !self.tape.graph.recording {
            return self
                .tape
                .constant(attention(&self.value, &k.value, &v.value, heads));
        }
        let (b, lq, c) = (self.dim(0), self.dim(1), self.dim(2));
        let dh = c / heads;
        let split_heads = |x: &Var| -> Var {
            // [B, L, C] -> [B, L, H, dh] -> [B, H, L, dh] -> [B*H, L, dh]
            let l = x.dim(1);
            x.reshape(&[b, l, heads, dh])
                .permute(&[0, 2, 1, 3])
                .reshape(&[b * heads, l, dh])
        };
        let (q, k, v) = (split_heads(self), split_heads(k), split_heads(v));
        let scale = 1.0 / (dh as f32).sqrt();
        let scores = q.matmul(&k.permute(&[0, 2, 1])).scale(scale); // [B*H, Lq, Lk]
        let ctx = scores.softmax_last().matmul(&v); // [B*H, Lq, dh]
        ctx.reshape(&[b, heads, lq, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b, lq, c])
    }

    // ------------------------------------------------------------------
    // Convolution, normalisation, resampling
    // ------------------------------------------------------------------

    /// 2-D convolution (NCHW input, `[out_c, in_c, kh, kw]` weight, optional
    /// bias of length `out_c`).
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, geom: Conv2dGeometry) -> Var {
        let (x, w) = (&self.value, &weight.value);
        let bias_value = bias.map(|b| b.tensor());
        let (_, _, input_h, input_w) = nchw(x);
        // The unfolded columns are batch-sized; only a backward pass needs
        // them kept, so only a recording tape builds them whole.
        let cols = self.tape.graph.recording.then(|| im2col(x, geom));
        let value = match &cols {
            Some(cols) => {
                let out_hw = geom.output_size(input_h, input_w);
                conv2d_from_cols(cols, w, bias_value, out_hw)
            }
            None => conv2d(x, w, bias_value, geom),
        };
        self.tape.push(value, |_| {
            let cols_saved = cols.expect("a recording tape unfolds the columns");
            let w_saved = w.clone();
            let mut parents = vec![self.id, weight.id];
            parents.extend(bias.map(|b| b.id));
            let has_bias = bias.is_some();
            let backward = move |g: &Tensor| {
                let weight_dims = w_saved.dims();
                let gb_dims = g.dims();
                let (bsz, oc, goh, gow) = (gb_dims[0], gb_dims[1], gb_dims[2], gb_dims[3]);
                let n = goh * gow;
                let k = weight_dims[1] * weight_dims[2] * weight_dims[3];
                // grad wrt weight: sum_b g_b [oc, n] @ cols_b^T [n, k]
                let mut gw = vec![0.0f32; oc * k];
                let mut gcols = vec![0.0f32; bsz * k * n];
                let wmat = w_saved.reshape(&[oc, k]);
                // Transpose weight once: [k, oc]
                let wt = wmat.transpose2();
                for bi in 0..bsz {
                    let gb = &g.data()[bi * oc * n..(bi + 1) * oc * n];
                    let colb = &cols_saved.data()[bi * k * n..(bi + 1) * k * n];
                    // gw[o, kk] += sum_j gb[o, j] * colb[kk, j], computed with
                    // explicit loops to avoid materialising colbᵀ.
                    for o in 0..oc {
                        let grow = &gb[o * n..(o + 1) * n];
                        for kk in 0..k {
                            let crow = &colb[kk * n..(kk + 1) * n];
                            let mut acc = 0.0f32;
                            for j in 0..n {
                                acc += grow[j] * crow[j];
                            }
                            gw[o * k + kk] += acc;
                        }
                    }
                    // gcols_b = wt [k, oc] @ gb [oc, n]
                    matmul_block(
                        wt.data(),
                        gb,
                        &mut gcols[bi * k * n..(bi + 1) * k * n],
                        k,
                        oc,
                        n,
                    );
                }
                let gcols_t = Tensor::from_vec(gcols, &[bsz, k, n]);
                let gx = col2im(&gcols_t, geom, weight_dims[1], input_h, input_w);
                let gw_t = Tensor::from_vec(gw, weight_dims);
                let mut grads = vec![gx, gw_t];
                if has_bias {
                    let gbias = g.sum_axis(3, false).sum_axis(2, false).sum_axis(0, false);
                    grads.push(gbias);
                }
                grads
            };
            Node {
                parents,
                backward: Some(Box::new(backward)),
                param: None,
            }
        })
    }

    /// Group normalisation over an NCHW tensor with affine parameters
    /// `gamma`/`beta` of length `C`.
    pub fn group_norm(&self, groups: usize, gamma: &Var, beta: &Var, eps: f32) -> Var {
        let x = &self.value;
        let (b, c, h, w) = nchw(x);
        assert!(
            c % groups == 0,
            "channels {c} not divisible by groups {groups}"
        );
        let cg = c / groups;
        let hw = h * w;
        let (gamma_v, beta_v) = (&gamma.value, &beta.value);
        assert_eq!(gamma_v.numel(), c, "gamma length must equal channels");
        assert_eq!(beta_v.numel(), c, "beta length must equal channels");

        // Forward: per (batch, group) statistics in f64, then normalise and
        // apply the affine in one pass (two f32 roundings: `x̂·γ`, then `+β`).
        // The normalised activations are kept only for a backward pass.
        let recording = self.tape.graph.recording;
        let mut value = vec![0.0f32; x.numel()];
        let mut xhat = vec![0.0f32; if recording { x.numel() } else { 0 }];
        let mut inv_std = vec![0.0f32; b * groups];
        for (bg, group) in x.data().chunks_exact(cg * hw).enumerate() {
            let mut mean = 0.0f64;
            for &v in group {
                mean += v as f64;
            }
            mean /= group.len() as f64;
            let mut var = 0.0f64;
            for &v in group {
                let d = v as f64 - mean;
                var += d * d;
            }
            var /= group.len() as f64;
            let istd = 1.0 / (var + eps as f64).sqrt();
            inv_std[bg] = istd as f32;
            let normalise = move |v: f32| ((v as f64 - mean) * istd) as f32;
            let first_c = bg % groups * cg;
            for (ci, plane) in group.chunks_exact(hw).enumerate() {
                let start = bg * cg * hw + ci * hw;
                let (g, bt) = (gamma_v.data()[first_c + ci], beta_v.data()[first_c + ci]);
                for (o, &v) in value[start..start + hw].iter_mut().zip(plane) {
                    *o = normalise(v) * g + bt;
                }
                if recording {
                    for (o, &v) in xhat[start..start + hw].iter_mut().zip(plane) {
                        *o = normalise(v);
                    }
                }
            }
        }
        let value = Tensor::from_vec(value, &[b, c, h, w]);

        self.tape.push(value, |_| {
            let xhat_saved = Tensor::from_vec(xhat, &[b, c, h, w]);
            let gamma_saved = gamma_v.clone();
            let inv_std_saved = inv_std;
            let backward = move |g: &Tensor| {
                let group_elems = (cg * h * w) as f32;
                // Affine parameter gradients.
                let gxhat = g.mul(&gamma_saved.reshape(&[1, c, 1, 1]));
                let dgamma = g
                    .mul(&xhat_saved)
                    .sum_axis(3, false)
                    .sum_axis(2, false)
                    .sum_axis(0, false);
                let dbeta = g.sum_axis(3, false).sum_axis(2, false).sum_axis(0, false);
                // Input gradient per (batch, group).
                let mut dx = vec![0.0f32; g.numel()];
                let gx = gxhat.data();
                let xh = xhat_saved.data();
                for bi in 0..b {
                    for gi in 0..groups {
                        let istd = inv_std_saved[bi * groups + gi];
                        let start_c = gi * cg;
                        let mut sum_g = 0.0f64;
                        let mut sum_gx = 0.0f64;
                        for ci in start_c..start_c + cg {
                            for i in 0..h * w {
                                let idx = ((bi * c + ci) * h * w) + i;
                                sum_g += gx[idx] as f64;
                                sum_gx += gx[idx] as f64 * xh[idx] as f64;
                            }
                        }
                        let sum_g = sum_g as f32;
                        let sum_gx = sum_gx as f32;
                        for ci in start_c..start_c + cg {
                            for i in 0..h * w {
                                let idx = ((bi * c + ci) * h * w) + i;
                                dx[idx] = istd / group_elems
                                    * (group_elems * gx[idx] - sum_g - xh[idx] * sum_gx);
                            }
                        }
                    }
                }
                vec![
                    Tensor::from_vec(dx, &[b, c, h, w]),
                    dgamma.reshape(gamma_saved.dims()),
                    dbeta.reshape(gamma_saved.dims()),
                ]
            };
            Node {
                parents: vec![self.id, gamma.id, beta.id],
                backward: Some(Box::new(backward)),
                param: None,
            }
        })
    }

    /// Average pooling with a square window.
    pub fn avg_pool2d(&self, k: usize) -> Var {
        let x = &self.value;
        let (_, _, h, w) = nchw(x);
        self.unary(avg_pool2d(x, k), |_| {
            move |g| avg_pool2d_backward(g, k, h, w)
        })
    }

    /// Nearest-neighbour upsampling by an integer factor.
    pub fn upsample_nearest2d(&self, factor: usize) -> Var {
        self.unary(upsample_nearest2d(&self.value, factor), |_| {
            move |g| upsample_nearest2d_backward(g, factor)
        })
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from this (scalar) variable,
    /// accumulating gradients into every bound [`Parameter`].
    ///
    /// Returns the gradient of each tape node so callers (and tests) can
    /// inspect gradients of non-parameter leaves: `grads[var.id()]`.
    ///
    /// # Panics
    /// Panics on a [`Tape::inference`] tape, which kept no graph to walk.
    pub fn backward(&self) -> Vec<Option<Tensor>> {
        assert!(
            self.tape.graph.recording,
            "backward() on a non-recording tape: Tape::inference() keeps no graph, use Tape::new()"
        );
        let nodes = self.tape.graph.nodes.borrow();
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        let seed = Tensor::full(self.value.dims(), 1.0);
        grads[self.id] = Some(seed);
        for id in (0..=self.id).rev() {
            let Some(grad) = grads[id].clone() else {
                continue;
            };
            let node = &nodes[id];
            if let Some(backward) = &node.backward {
                let parent_grads = backward(&grad);
                assert_eq!(
                    parent_grads.len(),
                    node.parents.len(),
                    "backward returned {} grads for {} parents",
                    parent_grads.len(),
                    node.parents.len()
                );
                for (pid, pg) in node.parents.iter().zip(parent_grads) {
                    match &mut grads[*pid] {
                        Some(existing) => existing.add_assign(&pg),
                        slot => *slot = Some(pg),
                    }
                }
            }
            if let Some(param) = &node.param {
                param.accumulate_grad(&grad);
            }
        }
        grads
    }
}
